package memdev

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestPatternString(t *testing.T) {
	want := map[Pattern]string{
		Sequential: "sequential", Stencil: "stencil", Strided: "strided",
		Transpose: "transpose", Gather: "gather", Random: "random",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	if Pattern(99).Valid() {
		t.Error("pattern 99 should be invalid")
	}
	if Pattern(99).String() != "pattern(99)" {
		t.Errorf("invalid pattern string: %q", Pattern(99).String())
	}
}

func TestPatternLocalityBounds(t *testing.T) {
	ps := Patterns()
	if len(ps) != 6 {
		t.Fatalf("expected 6 patterns, got %d", len(ps))
	}
	// Sequential is the most local, random the least; everything sits
	// inside [0,1]. (Transpose deliberately ranks below gather: pencil
	// transposes write isolated lines at large strides.)
	for _, p := range ps {
		l := p.SpatialLocality()
		if l < 0 || l > 1 {
			t.Errorf("%v locality %v out of [0,1]", p, l)
		}
		if p != Sequential && l >= Sequential.SpatialLocality() {
			t.Errorf("%v locality %v should trail sequential", p, l)
		}
		if p != Random && l <= Random.SpatialLocality() {
			t.Errorf("%v locality %v should exceed random", p, l)
		}
	}
}

func TestCombineFactorRange(t *testing.T) {
	for _, p := range Patterns() {
		cf := p.CombineFactor()
		if cf < 0.25 || cf > 1.0 {
			t.Errorf("%v CombineFactor = %v out of [0.25, 1]", p, cf)
		}
	}
	if Sequential.CombineFactor() != 1.0 {
		t.Errorf("sequential must combine perfectly, got %v", Sequential.CombineFactor())
	}
}

func TestDeviceConstants(t *testing.T) {
	d, n := NewDRAM(), NewNVM()
	if d.Capacity != 96*units.GiB {
		t.Errorf("DRAM capacity %v", d.Capacity)
	}
	if n.Capacity != 768*units.GiB {
		t.Errorf("NVM capacity %v", n.Capacity)
	}
	// Paper Section II: 39 GB/s read, 13 GB/s write per socket,
	// 174/304 ns seq/random read latency.
	if n.PeakRead.GBpsValue() != 39 || n.PeakWrite.GBpsValue() != 13 {
		t.Errorf("NVM peaks: %v / %v", n.PeakRead, n.PeakWrite)
	}
	if n.SeqReadLatency != units.Nanoseconds(174) || n.RandomReadLatency != units.Nanoseconds(304) {
		t.Errorf("NVM latencies: %v / %v", n.SeqReadLatency, n.RandomReadLatency)
	}
	// Asymmetry: the paper highlights the ~3x read/write gap.
	asym := float64(n.PeakRead) / float64(n.PeakWrite)
	if asym < 2.9 || asym > 3.1 {
		t.Errorf("NVM asymmetry = %v, want ~3", asym)
	}
}

func TestReadCapabilityOrdering(t *testing.T) {
	for _, dev := range []*Device{NewDRAM(), NewNVM()} {
		prev := units.Bandwidth(1e18)
		for _, p := range Patterns() {
			bw := dev.ReadCapability(p, 48)
			if bw > prev {
				t.Errorf("%v: read capability not monotone in locality at %v (%v > %v)", dev.Kind, p, bw, prev)
			}
			if bw <= 0 || bw > dev.PeakRead*1.2 {
				t.Errorf("%v %v read capability out of range: %v", dev.Kind, p, bw)
			}
			prev = bw
		}
	}
}

func TestReadCapabilityRampsWithThreads(t *testing.T) {
	n := NewNVM()
	low := n.ReadCapability(Random, 2)
	high := n.ReadCapability(Random, 24)
	if low >= high {
		t.Errorf("read capability should ramp with threads: %v at 2, %v at 24", low, high)
	}
	// Paper: XSBench achieves ~16 GB/s random read traffic on NVM.
	got := n.ReadCapability(Random, 48).GBpsValue()
	if got < 13 || got > 19 {
		t.Errorf("NVM random read capability at 48 threads = %v GB/s, want ~16", got)
	}
}

func TestWriteCapabilityContention(t *testing.T) {
	n := NewNVM()
	atOpt := n.WriteCapability(Sequential, 4)
	at48 := n.WriteCapability(Sequential, 48)
	if at48 >= atOpt {
		t.Errorf("NVM write should degrade with concurrency: %v at 4, %v at 48", atOpt, at48)
	}
	// Sequential at optimal concurrency reaches peak.
	if atOpt.GBpsValue() < 12.9 {
		t.Errorf("sequential write at optimal threads = %v, want ~13 GB/s", atOpt)
	}
	// The paper's empirical ~2 GB/s write-throttling threshold: poorly
	// combining patterns at full concurrency land in the 1-3 GB/s band.
	for _, p := range []Pattern{Transpose, Gather} {
		got := n.WriteCapability(p, 48).GBpsValue()
		if got < 0.8 || got > 3.2 {
			t.Errorf("NVM %v write capability at 48 threads = %v GB/s, want 1-3", p, got)
		}
	}
}

func TestDRAMWriteNoContention(t *testing.T) {
	d := NewDRAM()
	at4 := d.WriteCapability(Sequential, 4)
	at48 := d.WriteCapability(Sequential, 48)
	if at48 < at4 {
		t.Errorf("DRAM write should not degrade with threads: %v vs %v", at4, at48)
	}
}

func TestSingleThreadPenalty(t *testing.T) {
	n := NewNVM()
	if n.WriteCapability(Sequential, 1) >= n.WriteCapability(Sequential, 4) {
		t.Error("one thread should not reach peak write bandwidth")
	}
	if n.ReadCapability(Sequential, 1) >= n.ReadCapability(Sequential, 16) {
		t.Error("one thread should not reach peak read bandwidth")
	}
}

func TestReadLatencyInterpolation(t *testing.T) {
	n := NewNVM()
	if n.ReadLatency(Sequential) != n.SeqReadLatency {
		t.Errorf("sequential latency = %v", n.ReadLatency(Sequential))
	}
	lr := n.ReadLatency(Random)
	if lr < units.Nanoseconds(290) || lr > n.RandomReadLatency {
		t.Errorf("random latency = %v, want near 304 ns", lr)
	}
	// Every pattern's latency interpolates between the sequential and
	// random endpoints.
	for _, p := range Patterns() {
		l := n.ReadLatency(p)
		if l < n.SeqReadLatency || l > n.RandomReadLatency {
			t.Errorf("%v latency %v outside [seq, random]", p, l)
		}
	}
}

func TestDeviceString(t *testing.T) {
	s := NewNVM().String()
	if s == "" || s[:3] != "NVM" {
		t.Errorf("device string: %q", s)
	}
}

func TestWriteThrottleThresholdMatchesCapability(t *testing.T) {
	n := NewNVM()
	if n.WriteThrottleThreshold(Strided, 48) != n.WriteCapability(Strided, 48) {
		t.Error("threshold should equal capability")
	}
}

// --- WPQ operational model ---

func TestWPQSequentialCombines(t *testing.T) {
	w := NewWPQ(64, units.GBps(13))
	// 4096 sequential line stores = 1024 full media blocks.
	for i := uint64(0); i < 4096; i++ {
		w.Store(0, i)
	}
	w.Flush()
	if w.MediaWrites != 1024 {
		t.Errorf("sequential media writes = %d, want 1024", w.MediaWrites)
	}
	if r := w.CombiningRatio(); r != 4 {
		t.Errorf("sequential combining ratio = %v, want 4", r)
	}
}

func TestWPQStridedAmplifies(t *testing.T) {
	w := NewWPQ(64, units.GBps(13))
	// Stride of 4 lines touches one line per media block: no combining.
	for i := uint64(0); i < 4096; i++ {
		w.Store(0, i*4)
	}
	w.Flush()
	if w.MediaWrites != 4096 {
		t.Errorf("strided media writes = %d, want 4096", w.MediaWrites)
	}
	if r := w.CombiningRatio(); r != 1 {
		t.Errorf("strided combining ratio = %v, want 1", r)
	}
}

func TestWPQInterleavingDestroysCombining(t *testing.T) {
	// Two experiments with identical per-thread sequential streams.
	// Single stream: perfect combining. 16 interleaved streams with a
	// small queue: each thread's consecutive lines are separated by 15
	// other stores, so blocks drain before their remaining lines arrive.
	single := NewWPQ(8, units.GBps(13))
	for i := uint64(0); i < 1024; i++ {
		single.Store(0, i)
	}
	single.Flush()

	inter := NewWPQ(8, units.GBps(13))
	const threads = 16
	for step := uint64(0); step < 64; step++ {
		for line := uint64(0); line < 4; line++ { // walk lines slowly
			for tid := uint64(0); tid < threads; tid++ {
				// Each thread writes its own distant region.
				inter.Store(0, tid*1<<20+step*4+line)
			}
		}
	}
	inter.Flush()
	if inter.CombiningRatio() > single.CombiningRatio() {
		t.Errorf("interleaved combining %v should not beat single-stream %v",
			inter.CombiningRatio(), single.CombiningRatio())
	}
}

func TestWPQStallsWhenFull(t *testing.T) {
	w := NewWPQ(4, units.MBps(256)) // 1e6 blocks/s drain
	// Burst stores at time 0 to distinct blocks: queue fills at 4.
	var stall float64
	for i := uint64(0); i < 100; i++ {
		stall += w.Store(0, i*4)
	}
	if w.Stalls == 0 {
		t.Error("expected stalls on a full WPQ")
	}
	if stall <= 0 {
		t.Error("expected positive stall time")
	}
	if w.Len() > w.Slots {
		t.Errorf("%d pending blocks exceed %d slots", w.Len(), w.Slots)
	}
}

func TestWPQDrainsOverTime(t *testing.T) {
	w := NewWPQ(16, units.GBps(13))
	rate := w.DrainRate
	// Store one block, then arrive much later: queue should be empty.
	w.Store(0, 0)
	w.Store(10/rate, 1<<30)
	if w.Len() != 1 {
		t.Errorf("queue length = %d after long idle, want 1 (only the new block)", w.Len())
	}
	if w.MediaWrites != 1 {
		t.Errorf("media writes = %d, want 1 drained", w.MediaWrites)
	}
}

func TestWPQEffectiveBandwidth(t *testing.T) {
	w := NewWPQ(64, units.GBps(13))
	for i := uint64(0); i < 4096; i++ {
		w.Store(0, i)
	}
	w.Flush()
	// Perfect combining: effective line bandwidth equals media bandwidth.
	if got := w.EffectiveWriteBandwidth().GBpsValue(); got < 12.9 || got > 13.1 {
		t.Errorf("sequential effective write BW = %v, want 13", got)
	}

	w2 := NewWPQ(64, units.GBps(13))
	for i := uint64(0); i < 4096; i++ {
		w2.Store(0, i*4)
	}
	w2.Flush()
	// No combining: 4x write amplification quarters effective bandwidth.
	if got := w2.EffectiveWriteBandwidth().GBpsValue(); got < 3.1 || got > 3.4 {
		t.Errorf("strided effective write BW = %v, want ~3.25", got)
	}
}

// Property: media writes never exceed line stores, and the combining
// ratio stays within [1, 4].
func TestWPQCombiningBoundsProperty(t *testing.T) {
	f := func(seed uint64, slots uint8) bool {
		w := NewWPQ(int(slots%32)+1, units.GBps(13))
		x := seed
		for i := 0; i < 500; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			w.Store(0, (x>>16)%4096)
		}
		w.Flush()
		if w.MediaWrites > w.LineStores {
			return false
		}
		r := w.CombiningRatio()
		return r >= 1 && r <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: write capability is monotone non-increasing in thread count
// beyond the optimum for NVM, and never negative.
func TestWriteCapabilityMonotoneProperty(t *testing.T) {
	n := NewNVM()
	f := func(tRaw uint8) bool {
		th := int(tRaw%47) + 1
		for _, p := range Patterns() {
			a := n.WriteCapability(p, th)
			b := n.WriteCapability(p, th+1)
			if a < 0 || b < 0 {
				return false
			}
			if th >= 4 && b > a+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWPQFlushEmpty(t *testing.T) {
	w := NewWPQ(8, units.GBps(13))
	if tm := w.Flush(); tm != 0 {
		t.Errorf("flushing an empty queue took %v", tm)
	}
	if w.Len() != 0 {
		t.Errorf("empty queue holds %d blocks", w.Len())
	}
}

func TestWPQSlotClamp(t *testing.T) {
	w := NewWPQ(0, units.GBps(13))
	if w.Slots != 1 {
		t.Errorf("slots clamped to %d, want 1", w.Slots)
	}
}

func TestKindString(t *testing.T) {
	if DRAMKind.String() != "DRAM" || NVMKind.String() != "NVM" {
		t.Error("kind names wrong")
	}
}

func TestReadCapabilityThreadClamp(t *testing.T) {
	n := NewNVM()
	if n.ReadCapability(Sequential, 0) != n.ReadCapability(Sequential, 1) {
		t.Error("threads < 1 should clamp to 1")
	}
	if n.WriteCapability(Sequential, -3) != n.WriteCapability(Sequential, 1) {
		t.Error("write threads < 1 should clamp to 1")
	}
}

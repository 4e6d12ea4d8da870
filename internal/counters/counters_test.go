package counters

import (
	"math"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

func profile() RunProfile {
	return RunProfile{
		Work:         1e12,
		Time:         units.Duration(100),
		Threads:      48,
		FreqGHz:      2.4,
		MemStallFrac: 0.5,
		ReadBytes:    640e9,
		WriteBytes:   64e9,
	}
}

// The named events are Table IV's six, in the paper's p0..p5 order,
// which Synthesize's counts and the Eq. 1 regressors follow.
func TestEventNames(t *testing.T) {
	order := []EventID{InstructionsRetired, CyclesActive, CyclesStalledResource, CyclesOffcoreWait, IMCReads, IMCWrites}
	if int(NumEvents) != len(order) {
		t.Fatalf("NumEvents = %d, want %d (Table IV)", NumEvents, len(order))
	}
	for i, e := range order {
		if int(e) != i {
			t.Errorf("event p%d has index %d", i, e)
		}
	}
}

func TestSynthesizeNoiseless(t *testing.T) {
	ev := Synthesize(profile(), 0, nil)
	if ev.Counts[InstructionsRetired] != 1e12 {
		t.Errorf("p0 = %v", ev.Counts[InstructionsRetired])
	}
	wantCycles := 100 * 2.4e9 * 48
	if math.Abs(ev.Counts[CyclesActive]-wantCycles)/wantCycles > 1e-12 {
		t.Errorf("p1 = %v, want %v", ev.Counts[CyclesActive], wantCycles)
	}
	if ev.Counts[CyclesStalledResource] != wantCycles*0.5 {
		t.Errorf("p2 = %v", ev.Counts[CyclesStalledResource])
	}
	if ev.Counts[CyclesOffcoreWait] != wantCycles*0.4 {
		t.Errorf("p3 = %v", ev.Counts[CyclesOffcoreWait])
	}
	if ev.Counts[IMCReads] != 640e9/64 {
		t.Errorf("p4 = %v", ev.Counts[IMCReads])
	}
	if ev.Counts[IMCWrites] != 64e9/64 {
		t.Errorf("p5 = %v", ev.Counts[IMCWrites])
	}
	wantIPC := 1e12 / wantCycles
	if math.Abs(ev.IPC-wantIPC)/wantIPC > 1e-12 {
		t.Errorf("IPC = %v, want %v", ev.IPC, wantIPC)
	}
}

func TestSynthesizeDegenerate(t *testing.T) {
	p := profile()
	p.Time = 0
	if ev := Synthesize(p, 0, nil); ev.IPC != 0 {
		t.Error("zero-time profile should produce empty events")
	}
	p = profile()
	p.Threads = 0
	if ev := Synthesize(p, 0, nil); ev.Counts[CyclesActive] != 0 {
		t.Error("zero-thread profile should produce empty events")
	}
}

func TestSynthesizeStallClamped(t *testing.T) {
	p := profile()
	p.MemStallFrac = 7 // invalid; must clamp
	ev := Synthesize(p, 0, nil)
	if ev.Counts[CyclesStalledResource] > ev.Counts[CyclesActive] {
		t.Error("stall cycles cannot exceed active cycles")
	}
}

func TestSynthesizeNoise(t *testing.T) {
	rng := xrand.New(3)
	base := Synthesize(profile(), 0, nil)
	noisy := Synthesize(profile(), 0.05, rng)
	same := 0
	for i := range base.Counts {
		if base.Counts[i] == noisy.Counts[i] {
			same++
		}
	}
	if same == int(NumEvents) {
		t.Error("noise had no effect")
	}
	// Noise is bounded in practice: 5 sigma would be extreme.
	for i := range base.Counts {
		if rel := math.Abs(noisy.Counts[i]-base.Counts[i]) / base.Counts[i]; rel > 0.3 {
			t.Errorf("event %d noise too large: %v", i, rel)
		}
	}
}

func TestSynthesizeDeterministicWithSeed(t *testing.T) {
	a := Synthesize(profile(), 0.05, xrand.New(42))
	b := Synthesize(profile(), 0.05, xrand.New(42))
	if a != b {
		t.Error("same seed should give same noisy events")
	}
}

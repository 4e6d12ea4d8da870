package scenario

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

func eng(workers int) *engine.Engine {
	return engine.New(platform.NewPurley().Socket(0), workers)
}

func TestPresetsValidateAndExpand(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range Presets() {
		if seen[sp.Name] {
			t.Errorf("duplicate preset name %q", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Description == "" {
			t.Errorf("%s: empty description", sp.Name)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
		metas, jobs, err := sp.Expand()
		if err != nil {
			t.Errorf("%s: %v", sp.Name, err)
			continue
		}
		if len(metas) != sp.Size() || len(jobs) != sp.Size() {
			t.Errorf("%s: expanded %d/%d points, Size() = %d", sp.Name, len(metas), len(jobs), sp.Size())
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("FULL-CARTESIAN"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown preset should fail")
	}
	if len(Names()) != len(Presets()) {
		t.Error("Names/Presets mismatch")
	}
}

// Every lookup hands out its own copy: callers writing into theirs at
// once (run under -race) change neither the registry nor what the next
// caller gets.
func TestPresetsAreCopies(t *testing.T) {
	sp, err := ByName("prediction-datasize")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(sp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, _ := ByName("prediction-datasize")
			sp.Apps[0], sp.Modes[0], sp.Threads[0], sp.Scales[0] = "FFT", memsys.DRAMOnly, 1, 99
			for _, p := range Presets() {
				if len(p.Scales) > 0 {
					p.Scales[0] = 99
				}
			}
		}()
	}
	wg.Wait()
	got, _ := ByName("prediction-datasize")
	if b, _ := Encode(got); string(b) != string(want) {
		t.Errorf("preset changed after callers wrote into their copies:\n got %s\nwant %s", b, want)
	}
}

func TestExpandCanonicalOrder(t *testing.T) {
	sp := Spec{
		Name:    "order",
		Apps:    []string{"HACC", "FFT"},
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.UncachedNVM},
		Threads: []int{8, 48},
	}
	metas, _, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []Meta{
		{"HACC", memsys.DRAMOnly, 8, 1}, {"HACC", memsys.DRAMOnly, 48, 1},
		{"HACC", memsys.UncachedNVM, 8, 1}, {"HACC", memsys.UncachedNVM, 48, 1},
		{"FFT", memsys.DRAMOnly, 8, 1}, {"FFT", memsys.DRAMOnly, 48, 1},
		{"FFT", memsys.UncachedNVM, 8, 1}, {"FFT", memsys.UncachedNVM, 48, 1},
	}
	if len(metas) != len(want) {
		t.Fatalf("got %d metas", len(metas))
	}
	for i := range want {
		if metas[i] != want[i] {
			t.Errorf("meta %d = %+v, want %+v", i, metas[i], want[i])
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Spec{
		{Name: "bad-app", Apps: []string{"NoSuchApp"}},
		{Name: "bad-threads", Threads: []int{0}},
		{Name: "bad-threads-high", Threads: []int{workload.MaxThreads + 1}},
		{Name: "bad-scale", Scales: []float64{-1}},
		{Name: "nan-scale", Scales: []float64{math.NaN()}},
		{Name: "inf-scale", Scales: []float64{math.Inf(1)}},
		{Name: "nan-sized", Sized: []Sized{{App: "FFT", Scale: math.NaN()}}},
		{Name: "inf-sized", Sized: []Sized{{App: "FFT", Scale: math.Inf(1)}}},
		{Name: "nan-weight", Composite: []Composite{{Label: "c", Parts: []Part{{App: "FFT", Weight: math.NaN()}}}}},
		{Name: "inf-weight", Composite: []Composite{{Label: "c", Parts: []Part{{App: "FFT", Weight: math.Inf(1)}}}}},
		{Name: "placed", Modes: []memsys.Mode{memsys.Placed}},
		{Name: "nil-builder", Custom: []Custom{{Label: "x"}}},
	}
	for _, sp := range cases {
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: expected validation error", sp.Name)
		}
	}
}

func TestIndexGet(t *testing.T) {
	sp := Spec{Name: "idx", Apps: []string{"HACC"}, Modes: []memsys.Mode{memsys.DRAMOnly}, Threads: []int{8}}
	outs, err := sp.Run(eng(1))
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(outs)
	if res := ix.Get("HACC", memsys.DRAMOnly, 8); res.Time <= 0 {
		t.Error("indexed result empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("missing point should panic, not yield a zero Result")
		}
	}()
	ix.Get("HACC", memsys.DRAMOnly, 48)
}

// A builder that passes Validate but returns nil at expansion time
// surfaces as an error, not a panic downstream.
func TestExpandRejectsNilBuiltWorkload(t *testing.T) {
	sp := Spec{
		Name:   "nil-built",
		Custom: []Custom{{Label: "x", New: func() *workload.Workload { return nil }}},
	}
	if _, _, err := sp.Expand(); err == nil {
		t.Error("nil built workload should fail expansion")
	}
	sp.Scales = []float64{2}
	if _, _, err := sp.Expand(); err == nil {
		t.Error("nil built workload should fail expansion with scales")
	}
}

func TestScaled(t *testing.T) {
	e, err := dwarfs.ByName("Hypre")
	if err != nil {
		t.Fatal(err)
	}
	w := e.New()
	if Scaled(w, 1) != w {
		t.Error("scale 1 should return the workload itself")
	}
	origFP, origWS := w.Footprint, w.Phases[0].WorkingSet
	s := Scaled(w, 2)
	if s.Footprint != units.Bytes(2*float64(origFP)) {
		t.Errorf("footprint %v, want doubled %v", s.Footprint, origFP)
	}
	if s.Phases[0].WorkingSet != units.Bytes(2*float64(origWS)) {
		t.Error("working set not scaled")
	}
	if w.Footprint != origFP || w.Phases[0].WorkingSet != origWS {
		t.Error("original workload mutated")
	}
	if s.Fingerprint() == w.Fingerprint() {
		t.Error("scaled workload shares the original's fingerprint")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled workload invalid: %v", err)
	}
}

func TestRunProducesOrderedOutcomes(t *testing.T) {
	sp := Spec{
		Name:    "smoke",
		Apps:    []string{"HACC", "Laghos"},
		Modes:   []memsys.Mode{memsys.UncachedNVM},
		Threads: []int{24, 48},
	}
	outs, err := sp.Run(eng(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != sp.Size() {
		t.Fatalf("got %d outcomes, want %d", len(outs), sp.Size())
	}
	metas, _, _ := sp.Expand()
	for i := range outs {
		if outs[i].Meta != metas[i] {
			t.Errorf("outcome %d meta %+v != %+v", i, outs[i].Meta, metas[i])
		}
		if outs[i].Result.Time <= 0 {
			t.Errorf("outcome %d: non-positive time", i)
		}
	}
}

func TestCapacityPressureGrowsCachedPenalty(t *testing.T) {
	// The point of the capacity-pressure preset: as the footprint scales
	// past DRAM, the cached-NVM hit rate falls and the run slows more
	// than linearly, while uncached scales ~linearly.
	sp := Spec{
		Name:   "pressure",
		Apps:   []string{"Hypre"},
		Modes:  []memsys.Mode{memsys.CachedNVM},
		Scales: []float64{1, 8},
	}
	outs, err := sp.Run(eng(2))
	if err != nil {
		t.Fatal(err)
	}
	small, large := outs[0].Result, outs[1].Result
	if float64(large.Time) <= 8*float64(small.Time) {
		t.Errorf("8x footprint should cost more than 8x time under cache pressure: %v vs %v",
			large.Time, small.Time)
	}
}

func TestTableRendersAllPoints(t *testing.T) {
	sp := Spec{Name: "tbl", Apps: []string{"FFT"}, Modes: []memsys.Mode{memsys.UncachedNVM}, Threads: []int{8, 48}}
	outs, err := sp.Run(eng(1))
	if err != nil {
		t.Fatal(err)
	}
	s := Table(outs)
	if strings.Count(s, "FFT") != 2 || !strings.Contains(s, "uncached-NVM") {
		t.Errorf("table:\n%s", s)
	}
}

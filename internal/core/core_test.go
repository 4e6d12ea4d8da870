package core

import (
	"strings"
	"testing"
)

func TestNewMachine(t *testing.T) {
	m := NewMachine()
	if m.Platform() == nil {
		t.Fatal("platform missing")
	}
	if len(m.Apps()) != 8 {
		t.Errorf("apps = %v", m.Apps())
	}
}

func TestRunApp(t *testing.T) {
	m := NewMachine()
	res, err := m.RunApp("XSBench", UncachedNVM, 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 3 || res.Slowdown > 5 {
		t.Errorf("XSBench uncached slowdown = %v", res.Slowdown)
	}
	if _, err := m.RunApp("nope", DRAMOnly, 48); err == nil {
		t.Error("unknown app should fail")
	}
	if _, err := m.RunApp("HACC", DRAMOnly, 0); err == nil {
		t.Error("invalid threads should fail")
	}
}

func TestRunWorkload(t *testing.T) {
	m := NewMachine()
	w, err := m.Workload("Laghos")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Context().RunAt(w, CachedNVM, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Error("no time modelled")
	}
	if _, err := m.Context().RunAt(nil, DRAMOnly, 1); err == nil {
		t.Error("nil workload should fail")
	}
}

func TestExperiment(t *testing.T) {
	m := NewMachine()
	rep, err := m.Experiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "Xeon") {
		t.Error("table1 content missing")
	}
	if _, err := m.Experiment("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestModeConstants(t *testing.T) {
	if DRAMOnly.String() != "DRAM" || CachedNVM.String() != "cached-NVM" ||
		UncachedNVM.String() != "uncached-NVM" || Placed.String() != "write-aware" {
		t.Error("mode re-exports broken")
	}
}

func TestRunScenario(t *testing.T) {
	m := NewMachine()
	sp, outs, err := m.RunScenarioNamed("scalapack-phases")
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != sp.Size() {
		t.Errorf("got %d outcomes, want %d", len(outs), sp.Size())
	}
	if _, _, err := m.RunScenarioNamed("nope"); err == nil {
		t.Error("unknown scenario should fail")
	}
}

func TestRunAllBatched(t *testing.T) {
	m := NewMachine()
	outs, err := m.RunAll([]string{"HACC", "FFT"}, []Mode{UncachedNVM}, []int{24, 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	if outs[0].App != "HACC" || outs[3].App != "FFT" || outs[3].Threads != 48 {
		t.Errorf("outcome order broken: %+v", outs)
	}
	// RunApp on the same point is served from the engine cache.
	before := m.Engine().Stats()
	if _, err := m.RunApp("HACC", UncachedNVM, 24); err != nil {
		t.Fatal(err)
	}
	if s := m.Engine().Stats(); s.Hits != before.Hits+1 || s.Misses != before.Misses {
		t.Errorf("stats = %+v after %+v, want one more cache hit and no miss", s, before)
	}
}

func TestRunAllExperimentsParallelMatches(t *testing.T) {
	seqM := NewMachine()
	seqM.Context().TraceSamples = 60
	seqM.Engine().SetWorkers(1)
	seq, err := seqM.RunAllExperiments()
	if err != nil {
		t.Fatal(err)
	}
	parM := NewMachine()
	parM.Context().TraceSamples = 60
	parM.Engine().SetWorkers(4)
	par, err := parM.RunAllExperiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("report counts differ")
	}
	for i := range seq {
		if seq[i].String() != par[i].String() {
			t.Errorf("%s: parallel differs from sequential", seq[i].ID)
		}
	}
}

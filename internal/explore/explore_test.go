package explore

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/dwarfs/dense"
	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/units"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func TestDefaultOptions(t *testing.T) {
	w := dense.WorkloadPaper()
	opts := DefaultOptions(w)
	// 3 threads x (3 modes + 3 placement budgets).
	if len(opts) != 18 {
		t.Fatalf("options = %d, want 18", len(opts))
	}
	e, _ := dwarfs.ByName("XSBench")
	noStruct := e.New()
	noStruct.Structures = nil
	if got := len(DefaultOptions(noStruct)); got != 9 {
		t.Errorf("options without structures = %d, want 9", got)
	}
}

func TestOptionString(t *testing.T) {
	o := Option{Mode: memsys.Placed, Threads: 48, PlacementBudgetFrac: 0.35}
	if s := o.String(); !strings.Contains(s, "35%") || !strings.Contains(s, "48t") {
		t.Errorf("option string: %s", s)
	}
	plain := Option{Mode: memsys.DRAMOnly, Threads: 24}
	if plain.String() != "DRAM@24t" {
		t.Errorf("plain option string: %s", plain.String())
	}
}

func TestSweepScaLAPACK(t *testing.T) {
	w := dense.WorkloadPaper()
	evals, err := Sweep(w, sock(), DefaultOptions(w))
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 18 {
		t.Fatalf("evaluations = %d", len(evals))
	}
	for _, e := range evals {
		if e.Time <= 0 {
			t.Errorf("%s: no time", e.Option)
		}
		switch e.Option.Mode {
		case memsys.UncachedNVM:
			if e.DRAMUsed != 0 {
				t.Errorf("uncached uses DRAM: %v", e.DRAMUsed)
			}
		case memsys.CachedNVM:
			if e.DRAMUsed != sock().DRAM.Capacity {
				t.Errorf("cached should dedicate the full DRAM")
			}
		}
	}
}

func TestBestIsDRAMBacked(t *testing.T) {
	w := dense.WorkloadPaper()
	evals, err := Sweep(w, sock(), DefaultOptions(w))
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestUnder(evals, units.Bytes(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	// Fastest option should be the DRAM-backed one at the best
	// concurrency (the footprint fits).
	if best.Option.Mode != memsys.DRAMOnly {
		t.Errorf("best = %s, want DRAM-only", best.Option)
	}
}

// The Section V-B scenario: under a tight DRAM budget, write-aware
// placement wins over both cached (needs all DRAM) and uncached (slow).
func TestBestUnderTightBudget(t *testing.T) {
	w := dense.WorkloadPaper()
	evals, err := Sweep(w, sock(), DefaultOptions(w))
	if err != nil {
		t.Fatal(err)
	}
	budget := units.Bytes(float64(w.Footprint) * 0.45)
	best, err := BestUnder(evals, budget)
	if err != nil {
		t.Fatal(err)
	}
	if best.Option.Mode != memsys.Placed {
		t.Errorf("best under budget = %s, want write-aware placed", best.Option)
	}
	// And it must beat every uncached option.
	for _, e := range evals {
		if e.Option.Mode == memsys.UncachedNVM && e.Time < best.Time {
			t.Errorf("uncached %s (%v) beats placed (%v)", e.Option, e.Time, best.Time)
		}
	}
}

func TestBestUnderImpossibleBudget(t *testing.T) {
	w := dense.WorkloadPaper()
	evals, _ := Sweep(w, sock(), []Option{{Mode: memsys.DRAMOnly, Threads: 48}})
	if _, err := BestUnder(evals, 1); err == nil {
		t.Error("impossible budget should fail")
	}
}

func TestParetoNonDominated(t *testing.T) {
	w := dense.WorkloadPaper()
	evals, err := Sweep(w, sock(), DefaultOptions(w))
	if err != nil {
		t.Fatal(err)
	}
	front := Pareto(evals)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// No member may dominate another.
	for i, a := range front {
		for j, b := range front {
			if i == j {
				continue
			}
			if a.Time <= b.Time && a.DRAMUsed <= b.DRAMUsed &&
				(a.Time < b.Time || a.DRAMUsed < b.DRAMUsed) {
				t.Errorf("%s dominates %s within the front", a.Option, b.Option)
			}
		}
	}
	// Uncached at best concurrency is on the front (it uses zero DRAM).
	foundUncached := false
	for _, e := range front {
		if e.Option.Mode == memsys.UncachedNVM {
			foundUncached = true
		}
	}
	if !foundUncached {
		t.Error("the zero-DRAM uncached option must be Pareto-optimal")
	}
	// Sorted by time.
	for i := 1; i < len(front); i++ {
		if front[i].Time < front[i-1].Time {
			t.Error("front not sorted by time")
		}
	}
}

// The adaptive frontier search must agree with the exhaustive sweep's
// Pareto front on the dense option space while really evaluating only a
// fraction of it — the planner contract at the explorer's level.
func TestFrontierMatchesExhaustivePareto(t *testing.T) {
	w := dense.WorkloadPaper()
	opts := FullOptions(w)
	eng := engine.New(sock(), 0)
	// The dense explorer space has a high frontier-to-point ratio (six
	// small groups), so give verification more headroom than the 50%
	// default budget.
	front, res, err := Frontier(context.Background(), eng, w, opts, scenario.Plan{BudgetFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations >= len(opts) {
		t.Errorf("frontier search evaluated all %d options; want a strict subset", len(opts))
	}
	if !res.FrontierResolved {
		t.Error("frontier not verified with real evaluations")
	}
	for _, e := range front {
		if e.Predicted {
			t.Errorf("frontier member %s carried by prediction", e.Option)
		}
	}
	evals, err := Sweep(w, sock(), opts)
	if err != nil {
		t.Fatal(err)
	}
	exact := Pareto(evals)
	if len(exact) == 0 || len(front) == 0 {
		t.Fatalf("empty frontier: exhaustive %d, planned %d", len(exact), len(front))
	}
	const tol = 0.05
	covered := func(p Evaluation, in []Evaluation) bool {
		for _, q := range in {
			if q.DRAMUsed <= p.DRAMUsed && q.Time.Seconds() <= p.Time.Seconds()*(1+tol) {
				return true
			}
		}
		return false
	}
	for _, p := range exact {
		if !covered(p, front) {
			t.Errorf("exhaustive frontier point %s (%v, %s) not covered by planned frontier", p.Option, p.Time, p.DRAMUsed)
		}
	}
	for _, p := range front {
		if !covered(p, exact) {
			t.Errorf("planned frontier point %s (%v, %s) is not near the exhaustive frontier", p.Option, p.Time, p.DRAMUsed)
		}
	}
}

// SweepEngine shares points with any other engine user: repeating the
// sweep on the same engine recomputes nothing.
func TestSweepEngineCaches(t *testing.T) {
	w := dense.WorkloadPaper()
	eng := engine.New(sock(), 0)
	opts := DefaultOptions(w)
	if _, err := SweepEngine(eng, w, opts); err != nil {
		t.Fatal(err)
	}
	miss := eng.Stats().Misses
	if miss == 0 {
		t.Fatal("first sweep computed nothing")
	}
	if _, err := SweepEngine(eng, w, opts); err != nil {
		t.Fatal(err)
	}
	if again := eng.Stats().Misses; again != miss {
		t.Errorf("repeated sweep recomputed %d points", again-miss)
	}
}

// A footprint beyond DRAM makes DRAM-only infeasible; cached-NVM takes
// over as the fastest feasible option (Insight II).
func TestBeyondDRAMFeasibility(t *testing.T) {
	w := dense.WorkloadN(96000) // ~226 GiB, beyond the 96-GiB socket
	opts := []Option{
		{Mode: memsys.DRAMOnly, Threads: 48},
		{Mode: memsys.CachedNVM, Threads: 48},
		{Mode: memsys.UncachedNVM, Threads: 48},
	}
	evals, err := Sweep(w, sock(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if evals[0].Feasible {
		t.Error("DRAM-only should be infeasible beyond capacity")
	}
	best, err := BestUnder(evals, units.Bytes(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	if best.Option.Mode != memsys.CachedNVM {
		t.Errorf("best beyond DRAM = %s, want cached-NVM", best.Option)
	}
}

// Pareto returns the non-dominated feasible evaluations (minimizing
// both time and DRAM usage), sorted by time: the all-pairs oracle that
// Frontier's planned front must match.
func Pareto(evals []Evaluation) []Evaluation {
	var front []Evaluation
	for _, e := range evals {
		if !e.Feasible {
			continue
		}
		dominated := false
		for _, f := range evals {
			if !f.Feasible {
				continue
			}
			if f.Time <= e.Time && f.DRAMUsed <= e.DRAMUsed &&
				(f.Time < e.Time || f.DRAMUsed < e.DRAMUsed) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, e)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Time != front[j].Time {
			return front[i].Time < front[j].Time
		}
		return front[i].DRAMUsed < front[j].DRAMUsed
	})
	return front
}

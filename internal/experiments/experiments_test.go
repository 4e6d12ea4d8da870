package experiments

import (
	"strings"
	"testing"
)

func ctx() *Context {
	c := NewContext()
	c.TraceSamples = 100 // keep tests fast
	return c
}

func TestRegistryCoversPaper(t *testing.T) {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	want := []string{"table1", "table2", "fig2", "table3", "fig3", "fig4",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "micro", "ablation"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("FIG2"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should fail")
	}
}

// Every experiment runs and passes every one of its paper-shape checks.
// This is the repository's headline verification.
func TestAllExperimentsPassPaperChecks(t *testing.T) {
	reports, err := RunAll(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Registry()) {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, r := range reports {
		if r.Body == "" {
			t.Errorf("%s: empty body", r.ID)
		}
		if len(r.Checks) == 0 && strings.HasPrefix(r.ID, "fig") {
			t.Errorf("%s: no paper checks", r.ID)
		}
		for _, c := range r.Checks {
			if !c.Pass {
				t.Errorf("%s / %s: paper %q, measured %q", r.ID, c.Name, c.Paper, c.Measured)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		ID: "figX", Title: "demo", Body: "rows\n",
		Checks: []Check{{Name: "c", Paper: "p", Measured: "m", Pass: true}},
	}
	s := r.String()
	for _, want := range []string{"figX", "demo", "rows", "PASS", "paper: p"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	r.Checks[0].Pass = false
	if !strings.Contains(r.String(), "DEVIATION") {
		t.Error("failed check should render as DEVIATION")
	}
}

func TestTable1Content(t *testing.T) {
	r, err := Table1(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "Xeon") || !strings.Contains(r.Body, "Optane") {
		t.Errorf("table1 body:\n%s", r.Body)
	}
}

func TestTable3RowsComplete(t *testing.T) {
	r, err := Table3(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"HACC", "Laghos", "ScaLAPACK", "XSBench", "Hypre", "SuperLU", "BoxLib", "FFT"} {
		if !strings.Contains(r.Body, app) {
			t.Errorf("table3 missing %s", app)
		}
	}
	for _, tier := range []string{"insensitive", "scaled", "bottlenecked"} {
		if !strings.Contains(r.Body, tier) {
			t.Errorf("table3 missing tier %s", tier)
		}
	}
}

func TestFig2RowsComplete(t *testing.T) {
	r, err := Fig2(ctx())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(r.Body), "\n")
	if len(lines) != 9 { // header + 8 apps
		t.Errorf("fig2 rows = %d, want 9:\n%s", len(lines), r.Body)
	}
}

func TestFig3SweepsAllInputs(t *testing.T) {
	r, err := Fig3(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"kim2", "offshore", "Ge87H76", "nlpkkt80", "nlpkkt120"} {
		if !strings.Contains(r.Body, ds) {
			t.Errorf("fig3 missing dataset %s", ds)
		}
	}
	if !strings.Contains(r.Body, "BoxLib") || !strings.Contains(r.Body, "Hypre") {
		t.Error("fig3 missing the BoxLib/Hypre sweeps")
	}
}

func TestFig9TiersComplete(t *testing.T) {
	r, err := Fig9(ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"tmpfs", "DAX-ext4", "ext4 (RAID)", "lustre"} {
		if !strings.Contains(r.Body, tier) {
			t.Errorf("fig9 missing tier %s", tier)
		}
	}
}

func TestContextDefaults(t *testing.T) {
	c := NewContext()
	if c.Threads != 48 || c.LowThreads != 24 {
		t.Errorf("default threads %d/%d", c.Threads, c.LowThreads)
	}
	if c.Socket() == nil || c.Engine.System(0) == nil {
		t.Error("context wiring broken")
	}
	if c.Engine == nil || c.Engine.Workers() < 1 {
		t.Error("context has no engine")
	}
}

// The engine determinism property: fanning every registry experiment
// across the worker pool produces reports byte-identical to one worker
// running them in order, on fresh contexts so neither run sees the
// other's cache.
func TestParallelMatchesSequential(t *testing.T) {
	cs := ctx()
	cs.Engine.SetWorkers(1)
	seq, err := RunAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	cp := ctx()
	cp.Engine.SetWorkers(8)
	par, err := RunAll(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("report counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Errorf("report %d: id %s (sequential) vs %s (parallel)", i, seq[i].ID, par[i].ID)
		}
		if seq[i].String() != par[i].String() {
			t.Errorf("%s: parallel report is not byte-identical to sequential", seq[i].ID)
		}
	}
}

// The experiments share evaluation points (Fig 2, Table III and Fig 6
// all run the eight apps at full concurrency), so a full registry pass
// must see cache hits, and a second pass must add no misses.
func TestEngineCacheAccounting(t *testing.T) {
	c := ctx()
	if _, err := RunAll(c); err != nil {
		t.Fatal(err)
	}
	first := c.Engine.Stats()
	if first.Misses == 0 {
		t.Error("no evaluations computed")
	}
	if first.Hits == 0 {
		t.Error("experiments share sweep points but no cache hits were recorded")
	}
	if _, err := RunAll(c); err != nil {
		t.Fatal(err)
	}
	second := c.Engine.Stats()
	if second.Misses != first.Misses {
		t.Errorf("second pass recomputed %d points", second.Misses-first.Misses)
	}
	if second.Hits <= first.Hits {
		t.Error("second pass recorded no hits")
	}
}

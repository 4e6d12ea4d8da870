// Package experiments regenerates every table and figure of the paper's
// evaluation: each experiment function sweeps the relevant workloads and
// memory configurations through the simulator and reports the same rows
// or series the paper plots. The bench harness at the repository root
// exposes one benchmark per experiment; cmd/nvmbench runs them by id.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Context carries the shared experiment environment. All evaluation
// flows through the Engine, so repeated sweep points (Fig 2, Table III
// and Fig 6 share the full-concurrency runs) are computed once, and the
// whole registry regenerates across the engine's workers (RunAll) with
// byte-identical output.
type Context struct {
	Machine *platform.Machine
	// Threads is the default (full) concurrency; LowThreads the low
	// level used by the Fig 6 contention study.
	Threads, LowThreads int
	// TraceSamples is the resolution of reconstructed bandwidth traces.
	TraceSamples int
	// Engine evaluates (workload, mode, threads) jobs with memoized
	// systems and result caching.
	Engine *engine.Engine
}

// traceNoise is the multiplicative measurement noise of reconstructed
// bandwidth traces.
const traceNoise = 0.04

// NewContext returns the paper-default context: the Purley machine with
// experiments pinned to the local socket at 48 and 24 threads, and an
// engine sized to the host (GOMAXPROCS workers).
func NewContext() *Context {
	return NewContextWithStore(resultstore.NewMemory())
}

// NewContextWithStore is NewContext over an explicit result store — a
// resultstore.Disk makes every evaluated point persistent, so repeated
// invocations (warm nvmbench runs, restarted daemons) re-serve prior
// points as cache hits. The context does not close the store; its owner
// does.
func NewContextWithStore(store resultstore.Store) *Context {
	m := platform.NewPurley()
	return &Context{
		Machine:      m,
		Threads:      48,
		LowThreads:   24,
		TraceSamples: 200,
		Engine:       engine.NewWithStore(m.Socket(0), 0, store),
	}
}

// Socket returns the local socket (socket 0), matching the paper's
// NUMA-pinned runs.
func (c *Context) Socket() *platform.Socket { return c.Machine.Socket(0) }

// Run evaluates a workload on a mode at full concurrency.
func (c *Context) Run(w *workload.Workload, mode memsys.Mode) (workload.Result, error) {
	return c.RunAt(w, mode, c.Threads)
}

// RunAt evaluates a workload on a mode at an explicit concurrency,
// through the engine's cache.
func (c *Context) RunAt(w *workload.Workload, mode memsys.Mode, threads int) (workload.Result, error) {
	return c.Engine.Run(engine.Job{Workload: w, Mode: mode, Threads: threads})
}

// RunScenario expands a declarative sweep and evaluates it across the
// engine's worker pool, returning outcomes in the spec's canonical
// order.
func (c *Context) RunScenario(sp scenario.Spec) ([]scenario.Outcome, error) {
	return sp.Run(c.Engine)
}

// Report is a rendered experiment result.
type Report struct {
	ID    string
	Title string
	// Body is the formatted rows/series the paper reports.
	Body string
	// Checks summarizes the paper-shape assertions evaluated inline
	// (rendered as PASS/DEVIATION lines and asserted by the
	// verification tests).
	Checks []Check
}

// Check is one paper-vs-measured comparison.
type Check struct {
	Name     string
	Paper    string // the paper's reported value/shape
	Measured string
	Pass     bool
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Body)
	if len(r.Checks) > 0 {
		b.WriteString("\n-- paper-shape checks --\n")
		for _, c := range r.Checks {
			status := "PASS"
			if !c.Pass {
				status = "DEVIATION"
			}
			fmt.Fprintf(&b, "[%s] %-40s paper: %-28s measured: %s\n", status, c.Name, c.Paper, c.Measured)
		}
	}
	return b.String()
}

// Func runs one experiment.
type Func func(*Context) (Report, error)

// Registry maps experiment ids to their generators, in paper order.
func Registry() []struct {
	ID  string
	Fn  Func
	Doc string
} {
	return []struct {
		ID  string
		Fn  Func
		Doc string
	}{
		{"table1", Table1, "platform specification (Table I)"},
		{"table2", Table2, "evaluated benchmarks and inputs (Table II)"},
		{"fig2", Fig2, "performance on DRAM / cached-NVM / uncached-NVM (Fig 2)"},
		{"table3", Table3, "uncached-NVM characterization and tiers (Table III)"},
		{"fig3", Fig3, "beyond-DRAM problems on cached-NVM (Fig 3)"},
		{"fig4", Fig4, "Hypre bandwidth trace, DRAM vs cached-NVM (Fig 4)"},
		{"fig5", Fig5, "write throttling phase shift, Laghos vs SuperLU (Fig 5)"},
		{"fig6", Fig6, "concurrency contention ratios (Fig 6)"},
		{"fig7", Fig7, "FT read/write divergence at 8 vs 24 threads (Fig 7)"},
		{"fig8", Fig8, "ScaLAPACK phase composition at 16 vs 36 threads (Fig 8)"},
		{"fig9", Fig9, "checkpoint overhead on four storage tiers (Fig 9)"},
		{"fig10", Fig10, "IPC prediction accuracy across concurrency (Fig 10)"},
		{"fig11", Fig11, "IPC prediction accuracy across data sizes (Fig 11)"},
		{"fig12", Fig12, "write-aware data placement on ScaLAPACK (Fig 12)"},
		{"micro", Micro, "device capability matrix (Section II background; extension)"},
		{"ablation", Ablation, "model-constant sensitivity of the Table III tiers (extension)"},
	}
}

// ByID returns the experiment function for an id.
func ByID(id string) (Func, error) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e.Fn, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll fans the experiments across the engine's worker pool and
// returns the reports in registry order; one worker runs them one after
// another in that order. Every experiment is a pure function of the
// context and the engine's cache is shared read-only, so the reports
// are byte-identical whatever the worker count (the determinism
// property test asserts this). Every experiment runs; on failure the
// error is the first in registry order.
func RunAll(c *Context) ([]Report, error) {
	reg := Registry()
	return engine.Map(c.Engine.Workers(), len(reg), func(i int) (Report, error) {
		r, err := reg[i].Fn(c)
		if err != nil {
			return r, fmt.Errorf("%s: %w", reg[i].ID, err)
		}
		return r, nil
	})
}

func check(name, paper, measured string, pass bool) Check {
	return Check{Name: name, Paper: paper, Measured: measured, Pass: pass}
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

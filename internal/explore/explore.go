// Package explore sweeps the heterogeneous-memory configuration space —
// memory mode x concurrency x placement budget — for a workload and
// reports the Pareto frontier of run time versus DRAM consumption. It
// operationalizes the paper's design-space question ("How to effectively
// leverage the heterogeneity in DRAM/NVM systems for the best
// performance?") in the spirit of the Siena explorer the authors cite.
//
// Evaluation flows through the engine stack: Sweep batches every option
// as engine jobs (cached, persistable, deduplicated with every other
// sweep sharing the store), and Frontier resolves the Pareto front
// adaptively through internal/planner — a seeded subset is evaluated
// for real, the configuration-space regression predicts the rest, and
// the frontier is verified with real evaluations, so the search costs a
// fraction of the exhaustive sweep.
package explore

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/placement"
	"repro/internal/planner"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// Option is one point in the configuration space.
type Option struct {
	Mode    memsys.Mode
	Threads int
	// PlacementBudgetFrac applies to Placed mode only: the DRAM budget
	// as a fraction of the workload footprint.
	PlacementBudgetFrac float64
}

// String renders the option compactly.
func (o Option) String() string {
	if o.Mode == memsys.Placed {
		return fmt.Sprintf("%s(%.0f%%)@%dt", o.Mode, 100*o.PlacementBudgetFrac, o.Threads)
	}
	return fmt.Sprintf("%s@%dt", o.Mode, o.Threads)
}

// Evaluation is the modelled outcome of one option.
type Evaluation struct {
	Option Option
	// Time is the modelled run time.
	Time units.Duration
	// DRAMUsed is the DRAM capacity the option consumes.
	DRAMUsed units.Bytes
	// Feasible marks options whose capacity requirements are satisfied
	// (e.g. DRAM-only needs the footprint to fit).
	Feasible bool
	// Predicted marks evaluations carried by the planner's model rather
	// than a real engine run (Frontier only; Sweep evaluates
	// everything).
	Predicted bool
}

// DefaultOptions returns the standard sweep: the three paper modes at
// three concurrency levels, plus write-aware placement at three budgets
// when the workload declares a structure profile.
func DefaultOptions(w *workload.Workload) []Option {
	return options(w, []int{24, 36, 48})
}

// FullOptions returns the dense search space for the adaptive planner:
// the three paper modes across the whole concurrency ladder, plus
// write-aware placement at three budgets across the ladder when the
// workload declares a structure profile. Exhaustively this is 2-4x the
// default sweep; through Frontier it costs a fraction of that.
func FullOptions(w *workload.Workload) []Option {
	return options(w, []int{8, 16, 24, 32, 40, 48})
}

// options lists, at each thread count, the three paper modes and then,
// for a workload with a structure profile, write-aware placement at
// three budgets.
func options(w *workload.Workload, threads []int) []Option {
	var out []Option
	for _, t := range threads {
		for _, m := range memsys.Modes() {
			out = append(out, Option{Mode: m, Threads: t})
		}
		if len(w.Structures) > 0 {
			for _, b := range []float64{0.2, 0.35, 0.5} {
				out = append(out, Option{Mode: memsys.Placed, Threads: t, PlacementBudgetFrac: b})
			}
		}
	}
	return out
}

// points compiles options into planner points: the engine job (Placed
// options get their write-aware placement plan), the DRAM axis and the
// regression group (Placed budgets fit separately — a different budget
// is a different memory system, not a concurrency level).
func points(w *workload.Workload, sock *platform.Socket, opts []Option) ([]planner.Point, error) {
	out := make([]planner.Point, len(opts))
	for i, o := range opts {
		pt := planner.Point{
			Meta:     scenario.Meta{App: w.Name, Mode: o.Mode, Threads: o.Threads, Scale: 1},
			Job:      engine.Job{Workload: w, Mode: o.Mode, Threads: o.Threads},
			Feasible: true,
		}
		if o.Mode == memsys.Placed {
			budget := units.Bytes(float64(w.Footprint) * o.PlacementBudgetFrac)
			plan, err := placement.Optimize(w, budget, placement.WriteAware)
			if err != nil {
				return nil, err
			}
			pt.Job.InDRAM = plan.InDRAM
			pt.DRAMUsed = plan.DRAMBytes
			pt.Group = fmt.Sprintf("%s|placed-%g", w.Name, o.PlacementBudgetFrac)
		} else {
			pt.DRAMUsed, pt.Feasible = planner.ModeDRAM(o.Mode, w.Footprint, sock.DRAM.Capacity)
		}
		out[i] = pt
	}
	return out, nil
}

// evaluation converts a resolved planner point back to the option view.
func evaluation(opts []Option, p planner.PlannedPoint) Evaluation {
	return Evaluation{
		Option:    opts[p.Index],
		Time:      p.Time,
		DRAMUsed:  p.DRAMUsed,
		Feasible:  p.Feasible,
		Predicted: !p.Evaluated,
	}
}

// Sweep evaluates every option for the workload on the socket. It is
// the exhaustive path: a transient engine batches the options across
// the worker pool. Callers holding an engine (a shared cache or a disk
// store) should use SweepEngine.
func Sweep(w *workload.Workload, sock *platform.Socket, opts []Option) ([]Evaluation, error) {
	return SweepEngine(engine.New(sock, 0), w, opts)
}

// SweepEngine evaluates every option as one engine batch.
func SweepEngine(eng *engine.Engine, w *workload.Workload, opts []Option) ([]Evaluation, error) {
	pts, err := points(w, eng.Socket(), opts)
	if err != nil {
		return nil, err
	}
	jobs := make([]engine.Job, len(pts))
	for i := range pts {
		jobs[i] = pts[i].Job
	}
	results, err := eng.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Evaluation, len(pts))
	for i := range pts {
		out[i] = Evaluation{
			Option:   opts[i],
			Time:     results[i].Time,
			DRAMUsed: pts[i].DRAMUsed,
			Feasible: pts[i].Feasible,
		}
	}
	return out, nil
}

// Frontier resolves the option space's Pareto frontier through the
// adaptive planner: seed evaluations, model predictions and frontier
// verification in place of the exhaustive sweep. It returns the
// frontier (real-evaluated unless the budget ran out; see
// Result.FrontierResolved) alongside the full plan. cfg zero-values
// take the planner defaults.
func Frontier(ctx context.Context, eng *engine.Engine, w *workload.Workload, opts []Option, cfg scenario.Plan) ([]Evaluation, *planner.Result, error) {
	pts, err := points(w, eng.Socket(), opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := planner.Run(ctx, eng, pts, planner.Options{Name: "explore-" + w.Name, Plan: cfg})
	if err != nil {
		return nil, nil, err
	}
	front := make([]Evaluation, 0, len(res.Frontier))
	for _, p := range res.FrontierPoints() {
		front = append(front, evaluation(opts, p))
	}
	return front, res, nil
}

// BestUnder returns the fastest feasible evaluation whose DRAM usage
// stays within the budget — the "reduce DRAM usage 60%" question of
// Section V-B.
func BestUnder(evals []Evaluation, dramBudget units.Bytes) (Evaluation, error) {
	var best *Evaluation
	for i := range evals {
		e := &evals[i]
		if !e.Feasible || e.DRAMUsed > dramBudget {
			continue
		}
		if best == nil || e.Time < best.Time {
			best = e
		}
	}
	if best == nil {
		return Evaluation{}, fmt.Errorf("explore: no feasible option within %s of DRAM", dramBudget)
	}
	return *best, nil
}

package scenario

import "fmt"

// Seed strategies for the adaptive sweep planner (internal/planner): how
// the planner picks the subset of a sweep it evaluates for real before
// training the prediction model on it.
const (
	// SeedEdges evaluates the corners and midpoints of each regression
	// group's threads x scales sub-grid — the cheapest seed that still
	// brackets the concurrency and data-size axes (the default).
	SeedEdges = "edges"
	// SeedStride evaluates every other point of each group's sub-grid.
	SeedStride = "stride"
	// SeedFull evaluates every point — the planner degenerates to the
	// exhaustive sweep (useful as a control). Unless BudgetFrac is set
	// explicitly, a full seed defaults the budget to the whole space.
	SeedFull = "full"
)

// ObjectiveTime minimizes modelled run time (the only objective
// currently defined; the frontier's second axis is always DRAM use).
const ObjectiveTime = "time"

// Plan configures the adaptive sweep planner for a spec: instead of
// evaluating every expanded point, the planner evaluates a seed subset,
// trains the Section V-A-style regression on it, predicts the remaining
// points, and spends the rest of its evaluation budget where the model
// is least certain and on verifying the Pareto frontier. A Plan is pure
// data — it rides along in the spec file as the optional "plan" block.
//
// Zero values select the defaults (see Defaults); a nil *Plan on a Spec
// means "no plan": the sweep is evaluated exhaustively as before.
type Plan struct {
	// Seed names the seed strategy: SeedEdges (default), SeedStride or
	// SeedFull.
	Seed string `json:"seed,omitempty"`
	// BudgetFrac caps real evaluations at this fraction of the expanded
	// point count (default 0.5). The planner submits at most
	// floor(BudgetFrac * points) jobs to the engine, floored at one
	// point per regression group — nothing can be predicted from a
	// group with no real evaluation.
	BudgetFrac float64 `json:"budget_frac,omitempty"`
	// Threshold is the relative prediction-disagreement level above
	// which a predicted point is submitted for real evaluation
	// (default 0.05): disagreement is the leave-one-out ensemble spread
	// divided by the mean prediction.
	Threshold float64 `json:"threshold,omitempty"`
	// Objective names the quantity the frontier minimizes alongside DRAM
	// use; only ObjectiveTime is defined.
	Objective string `json:"objective,omitempty"`
	// MaxRounds bounds the refine/verify iterations after the seed round
	// (default 8).
	MaxRounds int `json:"max_rounds,omitempty"`
}

// Defaults returns the plan with zero-valued knobs replaced by their
// defaults. It does not validate; see Validate.
func (p Plan) Defaults() Plan {
	if p.Seed == "" {
		p.Seed = SeedEdges
	}
	if p.BudgetFrac == 0 {
		// A full seed means "the exhaustive control": without an
		// explicit budget it must not be silently truncated at the
		// adaptive default.
		if p.Seed == SeedFull {
			p.BudgetFrac = 1
		} else {
			p.BudgetFrac = 0.5
		}
	}
	if p.Threshold == 0 {
		p.Threshold = 0.05
	}
	if p.Objective == "" {
		p.Objective = ObjectiveTime
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = 8
	}
	return p
}

// Validate checks the plan's knobs (zero values are allowed — they mean
// "default").
func (p Plan) Validate() error {
	switch p.Seed {
	case "", SeedEdges, SeedStride, SeedFull:
	default:
		return fmt.Errorf("plan: unknown seed strategy %q (have %s, %s, %s)",
			p.Seed, SeedEdges, SeedStride, SeedFull)
	}
	if p.BudgetFrac < 0 || p.BudgetFrac > 1 {
		return fmt.Errorf("plan: budget fraction %v out of [0,1]", p.BudgetFrac)
	}
	if p.Threshold < 0 {
		return fmt.Errorf("plan: negative disagreement threshold %v", p.Threshold)
	}
	switch p.Objective {
	case "", ObjectiveTime:
	default:
		return fmt.Errorf("plan: unknown objective %q (have %s)", p.Objective, ObjectiveTime)
	}
	if p.MaxRounds < 0 {
		return fmt.Errorf("plan: negative max rounds %d", p.MaxRounds)
	}
	return nil
}

package session

// Plan sessions: the asynchronous form of the adaptive sweep planner
// (internal/planner) on the same core as sweep sessions. A PlanSession
// exposes per-round progress — how many points have been evaluated for
// real versus carried by the model's prediction — a streamable log of
// resolved points, and cancellation; the planner's engine batches run
// through the manager's executor, so evaluated points share the result
// store with every sweep session and persist across restarts exactly
// like theirs.

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// PlanStatus is a point-in-time snapshot of a plan session.
type PlanStatus struct {
	ID          string `json:"id"`
	Spec        string `json:"spec"`
	Description string `json:"description,omitempty"`
	State       State  `json:"state"`
	// Points is the size of the configuration space; Budget the maximum
	// real evaluations the plan allows.
	Points int `json:"points"`
	Budget int `json:"budget"`
	// Evaluated counts real evaluations so far; Predicted the points
	// resolved by the model (final only when the state is terminal).
	Evaluated int `json:"evaluated"`
	Predicted int `json:"predicted"`
	// Rounds is the per-iteration progress log.
	Rounds []planner.Round `json:"rounds,omitempty"`
	// Frontier carries the resolved Pareto frontier once the plan is
	// done; FrontierResolved reports whether every member was verified
	// with a real evaluation.
	Frontier         []planner.PlannedPoint `json:"frontier,omitempty"`
	FrontierResolved bool                   `json:"frontier_resolved,omitempty"`
	// Hits and Misses are this plan's own cache accounting, exactly as
	// on the sweep Status: one booking per real evaluation, re-served
	// from the result store or computed.
	Hits   uint64 `json:"cache_hits"`
	Misses uint64 `json:"cache_misses"`
	Error  string `json:"error,omitempty"`

	Started  time.Time  `json:"started"`
	Finished *time.Time `json:"finished,omitempty"`
}

// PlanSession is one asynchronous planner run. Its log holds the
// resolved points in resolution order, and a stream over it ends only
// once the plan is terminal.
type PlanSession struct {
	core[planner.PlannedPoint]
	points    int
	budget    int
	rounds    []planner.Round
	evaluated int
	result    *planner.Result
}

// Size returns the configuration-space size.
func (s *PlanSession) Size() int { return s.points }

// observe is the planner's progress hook: it records the round and
// publishes the points the round resolved to the log.
func (s *PlanSession) observe(p planner.Progress) {
	s.mu.Lock()
	s.rounds = append(s.rounds, p.Round)
	s.items = append(s.items, p.Points...)
	s.published = len(s.items)
	s.evaluated = p.EvaluatedTotal
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Status snapshots the session, including its own cache accounting.
func (s *PlanSession) Status() PlanStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := PlanStatus{
		ID:          s.id,
		Spec:        s.spec.Name,
		Description: s.spec.Description,
		State:       s.state,
		Points:      s.points,
		Budget:      s.budget,
		Evaluated:   s.evaluated,
		Predicted:   s.points - s.evaluated,
		Rounds:      append([]planner.Round(nil), s.rounds...),
		Started:     s.started,
	}
	if s.result != nil {
		out.Budget = s.result.Budget
		out.Frontier = s.result.FrontierPoints()
		out.FrontierResolved = s.result.FrontierResolved
	}
	out.Hits, out.Misses, out.Error, out.Finished = s.shared()
	return out
}

// SubmitPlan validates and expands the spec, starts resolving it
// through the adaptive planner in the background, and returns the plan
// session. The spec's "plan" block configures the planner (absent means
// defaults); every job carries the session's tally, exactly as with
// Submit.
func (m *Manager) SubmitPlan(sp scenario.Spec) (*PlanSession, error) {
	return m.SubmitPlanWith(sp, SubmitOptions{})
}

// SubmitPlanWith is SubmitPlan with per-session options.
func (m *Manager) SubmitPlanWith(sp scenario.Spec, opts SubmitOptions) (*PlanSession, error) {
	points, err := planner.PointsFromSpec(sp, m.eng.Socket())
	if err != nil {
		return nil, err
	}
	s := &PlanSession{points: len(points)}
	s.spec, s.size = sp, -1
	// The plan publishes every point exactly once: evaluated ones in
	// their round, the rest in the final predict round.
	s.items = make([]planner.PlannedPoint, 0, len(points))
	for i := range points {
		points[i].Job.Tally = &s.tally
	}
	popts := planner.Options{Name: sp.Name, Observer: s.observe}
	if sp.Plan != nil {
		popts.Plan = *sp.Plan
	}
	space, err := planner.NewSpace(points, popts)
	if err != nil {
		return nil, err
	}
	// Known at submit time, so a status poll mid-run already reports the
	// budget the planner is operating under.
	s.budget = space.Budget()
	err = s.start(m, s, "plan", opts, func(ctx context.Context) (func(), error) {
		res, err := space.Run(ctx, execRunner{exec: m.exec, sp: sp})
		return func() { s.result = res }, err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// execRunner adapts the manager's pluggable executor to the planner's
// BatchRunner, so plan rounds run through the same execution path as
// sweep batches — on the engine by default, across a fleet when a
// coordinator is installed. The spec rides along because a fleet
// executor re-derives each job wire-side from the spec's deterministic
// expansion.
type execRunner struct {
	exec Executor
	sp   scenario.Spec
}

func (r execRunner) RunBatchCtx(ctx context.Context, jobs []engine.Job) ([]workload.Result, error) {
	results := make([]workload.Result, len(jobs))
	err := r.exec.ExecuteBatch(ctx, r.sp, jobs, func(i int, res workload.Result) {
		results[i] = res
	})
	return results, err
}

// GetPlan returns a plan session by id.
func (m *Manager) GetPlan(id string) (*PlanSession, bool) { return get[*PlanSession](m, id) }

// ListPlans snapshots every plan session's status, oldest first.
func (m *Manager) ListPlans() []PlanStatus { return snapshot(m, (*PlanSession).Status) }

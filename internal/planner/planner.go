// Package planner is the adaptive sweep planner: the operational form
// of the paper's Section V argument that the heterogeneous-memory
// configuration space is too large to search exhaustively. Instead of
// evaluating every point of a sweep, the planner evaluates a seeded
// subset through the evaluation engine (so every real evaluation is
// cached, persisted by a disk result store, and cancellable), trains
// the configuration-space regression of internal/model on it, predicts
// the remaining points, and spends the rest of a configurable
// evaluation budget where the model's leave-one-out ensemble disagrees
// with itself and on verifying the candidate Pareto frontier with real
// evaluations — iterating until the frontier is stable and evaluated,
// the budget is exhausted, or the round limit is hit.
//
// The plan itself is declarative: a scenario.Spec's optional "plan"
// block (scenario.Plan) selects the seed strategy, the budget fraction,
// the disagreement threshold and the objective, so the same spec file
// that names a sweep also names how to resolve it cheaply. The
// exhaustive sweep is the degenerate plan (seed "full").
//
// Determinism: seed selection, model fitting, candidate ordering and
// frontier computation are all pure functions of the point list and the
// evaluated results, and the engine's batches are deterministic, so a
// plan run is byte-reproducible — the golden corpus pins two presets'
// plans end to end. The regression groups are fit in parallel, each by
// one goroutine, so the CPU count changes no bit of a plan.
package planner

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// Point is one candidate configuration of the space the planner
// resolves: an engine job plus the frontier bookkeeping the exhaustive
// explorer tracked per option.
type Point struct {
	Meta scenario.Meta
	Job  engine.Job
	// Group keys the regression: points sharing a group are fit and
	// predicted together over their (threads, scale) sub-grid. Empty
	// defaults to App|Mode — the right grouping for spec-shaped spaces;
	// the explorer adds the placement budget so differently budgeted
	// Placed options never share a fit.
	Group string
	// DRAMUsed is the DRAM capacity the configuration consumes (the
	// frontier's second axis); Feasible marks configurations whose
	// capacity requirements hold.
	DRAMUsed units.Bytes
	Feasible bool
}

// group returns the regression group key.
func (p Point) group() string {
	if p.Group != "" {
		return p.Group
	}
	return p.Meta.App + "|" + p.Meta.Mode.String()
}

// PlannedPoint is a point's resolution: evaluated for real through the
// engine, or carried by the model's prediction.
type PlannedPoint struct {
	Point
	// Index is the point's position in the input space (and in
	// Result.Points).
	Index int
	// Round is the 1-based round that evaluated the point; 0 for points
	// resolved by prediction only.
	Round int
	// Evaluated marks real evaluations; their Result is set and Time is
	// the engine's. Predicted points carry the model's Time.
	Evaluated bool
	Time      units.Duration
	// Predicted is the model's estimate for the point (also set for
	// points that were evaluated after the first fit — the predicted
	// column of the plan log); zero until a model covered the point.
	Predicted units.Duration
	// Disagreement is the model ensemble's relative spread at the point
	// when it was last predicted.
	Disagreement float64
	Result       workload.Result
}

// Round summarizes one planner iteration. The JSON form is the
// per-iteration progress record of plan sessions and the nvmserve plan
// status document.
type Round struct {
	// N is 1-based; round 1 is the seed round.
	N int `json:"round"`
	// Phase is "seed", "refine" (disagreement-driven evaluations),
	// "verify" (frontier members only) or "predict" (the final
	// model-only resolution of the remainder).
	Phase string `json:"phase"`
	// Evaluated counts the real evaluations this round submitted;
	// Predicted the points still carried by prediction after it.
	Evaluated int `json:"evaluated"`
	Predicted int `json:"predicted"`
}

// Progress is one observer event: a completed round and the points it
// resolved, in canonical point order.
type Progress struct {
	Round  Round
	Points []PlannedPoint
	// EvaluatedTotal is the cumulative real-evaluation count; Total the
	// space size.
	EvaluatedTotal, Total int
}

// Result is a resolved plan.
type Result struct {
	Name string
	// Points is the full space in input order, each resolved by
	// evaluation or prediction.
	Points []PlannedPoint
	// Frontier indexes the per-application Pareto-optimal points
	// (minimizing time and DRAM use among feasible, resolved points),
	// ordered by application appearance then time.
	Frontier []int
	Rounds   []Round
	// Budget is the maximum number of real evaluations the plan was
	// allowed; Evaluations the number it actually submitted.
	Budget      int
	Evaluations int
	// FrontierResolved reports whether every frontier member was
	// evaluated for real (false when the budget or round limit ran out
	// first).
	FrontierResolved bool
}

// FrontierPoints returns the frontier as points.
func (r *Result) FrontierPoints() []PlannedPoint {
	out := make([]PlannedPoint, len(r.Frontier))
	for i, idx := range r.Frontier {
		out[i] = r.Points[idx]
	}
	return out
}

// Options configures a run beyond the declarative plan block.
type Options struct {
	// Name labels the result (specs pass their name).
	Name string
	// Plan is the declarative configuration; zero values default (see
	// scenario.Plan.Defaults).
	Plan scenario.Plan
	// Observer, when non-nil, receives one Progress event per completed
	// round (including the final "predict" round), synchronously.
	Observer func(Progress)
}

// ModeDRAM derives a configuration's DRAM consumption and feasibility
// from its mode — the frontier's second axis: DRAM-only consumes the
// (scaled) footprint and needs it to fit the socket, cached-NVM
// dedicates the whole DRAM as cache, uncached-NVM consumes none.
// Placed-mode consumption is a property of the placement plan, not the
// mode; callers with placements set it themselves.
func ModeDRAM(mode memsys.Mode, footprint, capacity units.Bytes) (used units.Bytes, feasible bool) {
	switch mode {
	case memsys.DRAMOnly:
		return footprint, footprint <= capacity
	case memsys.CachedNVM:
		return capacity, true
	default:
		return 0, true
	}
}

// PointsFromSpec expands a scenario spec into planner points with the
// ModeDRAM frontier axis attached.
func PointsFromSpec(sp scenario.Spec, sock *platform.Socket) ([]Point, error) {
	metas, jobs, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(jobs))
	for i := range jobs {
		pt := Point{Meta: metas[i], Job: jobs[i]}
		pt.DRAMUsed, pt.Feasible = ModeDRAM(metas[i].Mode, jobs[i].Workload.Footprint, sock.DRAM.Capacity)
		out[i] = pt
	}
	return out, nil
}

// BatchRunner is the slice of the evaluation engine the planner needs:
// cancellable batch evaluation with results in submission order.
// *engine.Engine satisfies it directly; the session layer substitutes
// an executor-backed runner so plan rounds dispatch across a fleet of
// workers exactly like sweep batches, byte-identically (the planner is
// a pure function of the results it gets back).
type BatchRunner interface {
	RunBatchCtx(ctx context.Context, jobs []engine.Job) ([]workload.Result, error)
}

// Engine is the planner's full engine surface: batch evaluation plus
// the socket the point space is derived from.
type Engine interface {
	BatchRunner
	Socket() *platform.Socket
}

// RunSpec resolves a spec through the planner: the spec's "plan" block
// configures it (absent means all defaults).
func RunSpec(ctx context.Context, eng Engine, sp scenario.Spec, obs func(Progress)) (*Result, error) {
	points, err := PointsFromSpec(sp, eng.Socket())
	if err != nil {
		return nil, err
	}
	opts := Options{Name: sp.Name, Observer: obs}
	if sp.Plan != nil {
		opts.Plan = *sp.Plan
	}
	return Run(ctx, eng, points, opts)
}

// Space is a point space prepared for resolution: the plan validated
// and defaulted, each point's regression group and application keyed
// once, and the evaluation budget fixed before the first round — so a
// caller can report the budget at submit time.
type Space struct {
	points []Point
	opts   Options // Plan defaulted
	groups []group
	// apps lists each application's point indices, applications in
	// order of first appearance: the frontier's buckets.
	apps   [][]int
	budget int
}

// group is one regression group: its key and its members' indices in
// point order.
type group struct {
	key     string
	members []int
}

// NewSpace validates the plan and buckets the points into regression
// groups, sorted by key, and into the frontier's per-application lists.
func NewSpace(points []Point, opts Options) (*Space, error) {
	if err := opts.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("planner: empty point space")
	}
	opts.Plan = opts.Plan.Defaults()
	// A point's key string is built only the first time its key inputs
	// are seen; byKey still merges distinct inputs that spell one key.
	type keyInputs struct {
		group, app string
		mode       memsys.Mode
	}
	byInputs := map[keyInputs]int{}
	byKey := map[string]int{}
	byApp := map[string]int{}
	var groups []group
	var apps [][]int
	for i := range points {
		p := &points[i]
		a, ok := byApp[p.Meta.App]
		if !ok {
			a = len(apps)
			byApp[p.Meta.App] = a
			apps = append(apps, nil)
		}
		apps[a] = append(apps[a], i)
		in := keyInputs{p.Group, p.Meta.App, p.Meta.Mode}
		g, ok := byInputs[in]
		if !ok {
			k := p.group()
			if g, ok = byKey[k]; !ok {
				g = len(groups)
				byKey[k] = g
				groups = append(groups, group{key: k})
			}
			byInputs[in] = g
		}
		groups[g].members = append(groups[g].members, i)
	}
	slices.SortFunc(groups, func(a, b group) int { return strings.Compare(a.key, b.key) })
	return &Space{
		points: points,
		opts:   opts,
		groups: groups,
		apps:   apps,
		budget: max(int(opts.Plan.BudgetFrac*float64(len(points))), len(groups)),
	}, nil
}

// Budget returns the real-evaluation budget the planner operates under:
// floor(BudgetFrac x points), floored at one point per regression group
// — nothing can be predicted from a group with no real evaluation
// (documented on scenario.Plan.BudgetFrac).
func (s *Space) Budget() int { return s.budget }

// Run resolves the point space. Every real evaluation flows through the
// engine (one batch per round), so points land in its result store and
// re-serve as cache hits on later runs.
func Run(ctx context.Context, eng BatchRunner, points []Point, opts Options) (*Result, error) {
	s, err := NewSpace(points, opts)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, eng)
}

// Run resolves the space; see the package-level Run.
func (s *Space) Run(ctx context.Context, eng BatchRunner) (*Result, error) {
	cfg, n := s.opts.Plan, len(s.points)
	res := &Result{
		Name:   s.opts.Name,
		Points: make([]PlannedPoint, n),
		Budget: s.budget,
	}
	// Every point's features share one backing slice; each row is
	// capacity-clamped to its own NumConfigFeatures values.
	feats := make([][]float64, n)
	backing := make([]float64, 0, n*model.NumConfigFeatures)
	for i, pt := range s.points {
		res.Points[i] = PlannedPoint{Point: pt, Index: i}
		at := len(backing)
		backing = model.AppendConfigFeatures(backing, pt.Job.Workload, pt.Meta.Threads, pt.Meta.Scale)
		feats[i] = backing[at:len(backing):len(backing)]
	}
	fitted := make([]int, len(s.groups))
	scratch := make([]fitScratch, min(runtime.GOMAXPROCS(0), len(s.groups)))

	// Round 1: the seed, capped with per-group round-robin so a tight
	// budget still covers every group. A quarter of the budget is held
	// back from seeding (down to the one-per-group floor) so frontier
	// verification and refinement are never starved by the seed itself;
	// the full-seed strategy deliberately bypasses the reserve.
	seedBudget := res.Budget
	if cfg.Seed != scenario.SeedFull {
		seedBudget -= res.Budget / 4
		if seedBudget < len(s.groups) {
			seedBudget = len(s.groups)
		}
	}
	seed := capToBudget(seedIndices(cfg.Seed, s.groups, res.Points), seedBudget)
	if err := evaluate(ctx, eng, res, seed, "seed", s.opts.Observer); err != nil {
		return nil, err
	}

	// perRound bounds disagreement-driven evaluations per iteration so
	// the model gets to re-fit before the budget is spent.
	perRound := n / 16
	if perRound < 1 {
		perRound = 1
	}
	for len(res.Rounds) < 1+cfg.MaxRounds {
		fitAndPredict(s.groups, feats, fitted, scratch, res)
		frontier := pareto(res.Points, s.apps)
		toEval := pickCandidates(res, frontier, cfg.Threshold, perRound)
		if len(toEval) == 0 {
			break
		}
		phase := "verify"
		inFrontier := map[int]bool{}
		for _, idx := range frontier {
			inFrontier[idx] = true
		}
		for _, idx := range toEval {
			if !inFrontier[idx] {
				phase = "refine"
				break
			}
		}
		if err := evaluate(ctx, eng, res, toEval, phase, s.opts.Observer); err != nil {
			return nil, err
		}
	}

	// Final resolution: predict the remainder with the fully trained
	// model and settle the frontier.
	fitAndPredict(s.groups, feats, fitted, scratch, res)
	res.Frontier = pareto(res.Points, s.apps)
	res.FrontierResolved = true
	for _, idx := range res.Frontier {
		if !res.Points[idx].Evaluated {
			res.FrontierResolved = false
		}
	}
	predicted := make([]PlannedPoint, 0, n-res.Evaluations)
	for i := range res.Points {
		if !res.Points[i].Evaluated {
			predicted = append(predicted, res.Points[i])
		}
	}
	final := Round{N: len(res.Rounds) + 1, Phase: "predict", Predicted: len(predicted)}
	res.Rounds = append(res.Rounds, final)
	if s.opts.Observer != nil {
		s.opts.Observer(Progress{Round: final, Points: predicted, EvaluatedTotal: res.Evaluations, Total: n})
	}
	return res, nil
}

// seedIndices selects the seed evaluation set per group.
func seedIndices(strategy string, groups []group, points []PlannedPoint) [][]int {
	var out [][]int
	for _, g := range groups {
		m := g.members
		switch strategy {
		case scenario.SeedFull:
			out = append(out, append([]int(nil), m...))
		case scenario.SeedStride:
			var sel []int
			for i := 0; i < len(m); i += 2 {
				sel = append(sel, m[i])
			}
			if last := m[len(m)-1]; len(sel) == 0 || sel[len(sel)-1] != last {
				sel = append(sel, last)
			}
			out = append(out, sel)
		default: // SeedEdges
			out = append(out, edgeSeeds(m, points))
		}
	}
	return out
}

// edgeSeeds picks the corners and midpoints of a group's threads x
// scales sub-grid (everything for groups of four points or fewer).
func edgeSeeds(members []int, points []PlannedPoint) []int {
	if len(members) <= 4 {
		return append([]int(nil), members...)
	}
	pick := func(vals []float64) map[float64]bool {
		sort.Float64s(vals)
		sel := map[float64]bool{vals[0]: true, vals[len(vals)-1]: true}
		if len(vals) >= 3 {
			sel[vals[len(vals)/2]] = true
		}
		return sel
	}
	var threads, scales []float64
	seenT, seenS := map[float64]bool{}, map[float64]bool{}
	for _, i := range members {
		t, s := float64(points[i].Meta.Threads), points[i].Meta.Scale
		if !seenT[t] {
			seenT[t] = true
			threads = append(threads, t)
		}
		if !seenS[s] {
			seenS[s] = true
			scales = append(scales, s)
		}
	}
	selT, selS := pick(threads), pick(scales)
	var out []int
	for _, i := range members {
		if selT[float64(points[i].Meta.Threads)] && selS[points[i].Meta.Scale] {
			out = append(out, i)
		}
	}
	return out
}

// capToBudget flattens per-group seed lists round-robin and truncates
// at the budget, so a tight budget degrades coverage evenly instead of
// starving the later groups.
func capToBudget(perGroup [][]int, budget int) []int {
	var out []int
	for rank := 0; ; rank++ {
		advanced := false
		for _, sel := range perGroup {
			if rank < len(sel) {
				advanced = true
				if len(out) < budget {
					out = append(out, sel[rank])
				}
			}
		}
		if !advanced || len(out) >= budget {
			break
		}
	}
	sort.Ints(out)
	return out
}

// evaluate runs the indexed points as one engine batch and records the
// round.
func evaluate(ctx context.Context, eng BatchRunner, res *Result, idxs []int, phase string, obs func(Progress)) error {
	round := Round{N: len(res.Rounds) + 1, Phase: phase, Evaluated: len(idxs)}
	if len(idxs) > 0 {
		jobs := make([]engine.Job, len(idxs))
		for i, idx := range idxs {
			jobs[i] = res.Points[idx].Job
		}
		results, err := eng.RunBatchCtx(ctx, jobs)
		if err != nil {
			return fmt.Errorf("planner: round %d (%s): %w", round.N, phase, err)
		}
		for i, idx := range idxs {
			p := &res.Points[idx]
			p.Evaluated = true
			p.Round = round.N
			p.Result = results[i]
			p.Time = results[i].Time
		}
		res.Evaluations += len(idxs)
	}
	round.Predicted = len(res.Points) - res.Evaluations
	res.Rounds = append(res.Rounds, round)
	if obs != nil {
		pts := make([]PlannedPoint, len(idxs))
		for i, idx := range idxs {
			pts[i] = res.Points[idx]
		}
		obs(Progress{Round: round, Points: pts, EvaluatedTotal: res.Evaluations, Total: len(res.Points)})
	}
	return nil
}

// fitAndPredict trains each group's ensemble on its evaluated points
// (features precomputed per point) and refreshes the prediction and
// disagreement of the others. A group is refit only when its evaluated
// set has grown since its last fit, whose size fitted[g] records:
// evaluated sets only grow and a fit is a pure function of its members
// in point order, so an unchanged group already carries exactly the
// predictions a refit would give. Groups without any evaluated point
// (possible only under a budget smaller than the group count) stay
// unresolved: Time 0, excluded from the frontier.
//
// The grown groups are dealt round-robin to one task per scratch, and
// the tasks run in parallel. A group's fit reads and writes only its own
// members, so the result does not depend on which task fits it, and the
// order each scratch sees its groups in, hence its allocations, does not
// depend on scheduling.
func fitAndPredict(groups []group, feats [][]float64, fitted []int, scratch []fitScratch, res *Result) {
	var grown []int
	for g := range groups {
		evaluated := 0
		for _, i := range groups[g].members {
			if res.Points[i].Evaluated {
				evaluated++
			}
		}
		if evaluated == fitted[g] {
			continue
		}
		fitted[g] = evaluated
		if evaluated < len(groups[g].members) {
			grown = append(grown, g)
		}
	}
	tasks := min(len(scratch), len(grown))
	// The tasks cannot fail, so Map has no error to report.
	_, _ = engine.Map(tasks, tasks, func(t int) (struct{}, error) {
		for k := t; k < len(grown); k += tasks {
			scratch[t].fit(groups[grown[k]].members, feats, res)
		}
		return struct{}{}, nil
	})
}

// fitScratch is one fit task's reusable storage: the point-model
// workspace and a group's training set and remainder.
type fitScratch struct {
	ws   model.FitWorkspace
	X    [][]float64
	y    []float64
	rest []int
}

// fit trains one group's ensemble on its evaluated members and predicts
// the rest.
func (sc *fitScratch) fit(members []int, feats [][]float64, res *Result) {
	sc.X, sc.y, sc.rest = sc.X[:0], sc.y[:0], sc.rest[:0]
	for _, i := range members {
		if p := &res.Points[i]; p.Evaluated {
			sc.X = append(sc.X, feats[i])
			sc.y = append(sc.y, p.Result.Time.Seconds())
		} else {
			sc.rest = append(sc.rest, i)
		}
	}
	ens, err := sc.ws.FitPointEnsemble(sc.X, sc.y)
	if err != nil {
		// Degenerate group data (e.g. zero-time results); leave the
		// rest unresolved rather than predicting nonsense.
		return
	}
	for _, i := range sc.rest {
		p := &res.Points[i]
		p.Predicted = units.Duration(ens.Predict(feats[i]))
		p.Disagreement = ens.Disagreement(feats[i])
		p.Time = p.Predicted
	}
}

// pickCandidates selects the next round's evaluations: unevaluated
// frontier members first (they must be verified for real), then the
// most-disagreeing predicted points above the threshold, up to the
// remaining budget and the per-round cap.
func pickCandidates(res *Result, frontier []int, threshold float64, perRound int) []int {
	remaining := res.Budget - res.Evaluations
	if remaining <= 0 {
		return nil
	}
	var out []int
	taken := map[int]bool{}
	for _, idx := range frontier {
		if len(out) >= remaining {
			break
		}
		if !res.Points[idx].Evaluated && res.Points[idx].Time > 0 {
			out = append(out, idx)
			taken[idx] = true
		}
	}
	type cand struct {
		idx int
		d   float64
	}
	var cands []cand
	for i := range res.Points {
		p := &res.Points[i]
		if p.Evaluated || taken[i] || p.Time == 0 || p.Disagreement <= threshold {
			continue
		}
		cands = append(cands, cand{i, p.Disagreement})
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].d > cands[b].d })
	for i := 0; i < len(cands) && i < perRound && len(out) < remaining; i++ {
		out = append(out, cands[i].idx)
	}
	sort.Ints(out)
	return out
}

// frontKey is a frontier candidate's sort key, compact so the sort
// moves 24 bytes per point rather than a PlannedPoint.
type frontKey struct {
	time units.Duration
	dram units.Bytes
	idx  int
}

// compareFrontKeys orders keys by time, then DRAM, then index. No key
// holds a NaN time, so plain comparisons order the floats.
func compareFrontKeys(a, b frontKey) int {
	switch {
	case a.time < b.time:
		return -1
	case a.time > b.time:
		return 1
	case a.dram != b.dram:
		return cmp.Compare(a.dram, b.dram)
	}
	return cmp.Compare(a.idx, b.idx)
}

// pareto returns the indices of the per-application non-dominated
// feasible resolved points (minimizing time and DRAM use), ordered by
// application appearance then time then DRAM then index. apps lists
// each application's point indices (Space.apps). A point is resolved
// when its time is positive: zero, negative and NaN times are not.
//
// Each application's candidates are sorted by (time, DRAM, index) and
// swept once. Within a run of equal times, only the points at the run's
// least DRAM can survive, and they do when every strictly faster point
// uses more DRAM than they do.
func pareto(points []PlannedPoint, apps [][]int) []int {
	var out []int
	var keys []frontKey
	for _, m := range apps {
		keys = slices.Grow(keys[:0], len(m))
		for _, i := range m {
			if p := &points[i]; p.Feasible && p.Time > 0 {
				keys = append(keys, frontKey{p.Time, p.DRAMUsed, i})
			}
		}
		slices.SortFunc(keys, compareFrontKeys)
		// least is the least DRAM among the points swept so far, all of
		// them faster than the current run.
		var least units.Bytes
		for lo := 0; lo < len(keys); {
			hi := lo + 1
			for hi < len(keys) && keys[hi].time == keys[lo].time {
				hi++
			}
			if d := keys[lo].dram; lo == 0 || d < least {
				for k := lo; k < hi && keys[k].dram == d; k++ {
					out = append(out, keys[k].idx)
				}
				least = d
			}
			lo = hi
		}
	}
	return out
}

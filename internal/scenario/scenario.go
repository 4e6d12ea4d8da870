// Package scenario is the declarative sweep layer above the evaluation
// engine: a Spec names the applications (or custom workload builders),
// memory modes, thread counts and footprint scales to sweep, and expands
// into the engine's (workload, mode, threads) job list in a fixed
// deterministic order. Experiments declare their sweeps as Specs and
// submit them to the engine instead of looping inline, and named presets
// (Presets) open arbitrary sweeps — including non-paper ones like the
// full-cartesian stress sweep — to cmd/nvmbench and the public API.
//
// Specs are also files: Spec's struct tags are the JSON schema, which
// round-trips every serializable Spec (LoadSpec / LoadDir / Encode), the
// presets are the files specs/*.json at the repository root, embedded in
// the binary, and the sized/composite stanzas declare derived workloads
// — resized registry applications and fused multi-application pipelines
// — without writing Go.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dwarfs"
	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// Custom couples a label with a workload builder, for sweeps over
// non-registry inputs (dataset sweeps, sized problems). Custom entries
// are Go closures and therefore the one workload source that cannot
// round-trip through a spec file; the serializable equivalents are
// Workloads, Sized and Composite.
type Custom struct {
	Label string
	New   func() *workload.Workload
}

// Sized declares a registry application on a proportionally resized
// problem — the file-level form of Scaled(app, Scale). It is a workload
// source of its own (unlike the Scales axis, which rescales every
// source), so one spec can sweep, say, the paper-input XSBench next to a
// 4x one.
type Sized struct {
	// App names the dwarf-registry application to resize.
	App string `json:"app"`
	// Scale multiplies the footprint, per-phase working sets and baseline
	// time.
	Scale float64 `json:"scale"`
	// Label names the sweep rows; empty defaults to "App-xScale".
	Label string `json:"label,omitempty"`
}

// Part is one member application of a Composite workload.
type Part struct {
	// App names the dwarf-registry application.
	App string `json:"app"`
	// Weight is the part's share of execution time; weights are
	// normalized over the composite.
	Weight float64 `json:"weight"`
}

// Composite declares a fused multi-application workload: the parts'
// phases interleave on one timeline with their time shares scaled by the
// normalized weights, their footprints coexist in memory, and the
// scaling/amplification knobs blend weight-proportionally. This models
// co-scheduled or tightly coupled applications (a solver feeding an
// analysis stage) — a sweep shape the paper never ran but the spec files
// open up.
type Composite struct {
	Label string `json:"label"`
	Parts []Part `json:"parts"`
}

// Spec declares a sweep. Zero-valued axes take paper defaults: all eight
// registry applications, the three paper-wide modes, 48 threads, scale 1.
//
// A Spec is data: its struct tags are the spec-file schema (see
// LoadSpec), and only the Custom field, whose builders are Go closures,
// has no file form. The workload sources — Apps, Custom, Workloads, Sized,
// Composite — are additive; when any of them is set, Apps contributes
// only the applications it explicitly names.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Apps lists dwarf-registry applications.
	Apps []string `json:"apps,omitempty"`
	// Custom lists explicit workload builders (Go code only; a spec
	// carrying Custom entries cannot be marshaled to a file).
	Custom []Custom `json:"-"`
	// Workloads lists full inline workload descriptors (the
	// internal/workload JSON schema in spec files).
	Workloads []*workload.Workload `json:"workloads,omitempty"`
	// Sized lists resized registry applications.
	Sized []Sized `json:"sized,omitempty"`
	// Composite lists fused multi-application workloads.
	Composite []Composite `json:"composite,omitempty"`
	// Modes lists the memory configurations to sweep, by name in files.
	Modes Modes `json:"modes,omitempty"`
	// Threads lists the concurrency levels to sweep.
	Threads []int `json:"threads,omitempty"`
	// Scales lists footprint multipliers: each scales the workload's
	// footprint, per-phase working sets and baseline time linearly,
	// modelling the same code on a proportionally larger (or smaller)
	// problem — the axis behind the capacity-pressure sweeps.
	Scales []float64 `json:"scales,omitempty"`
	// Plan, when non-nil, configures the adaptive sweep planner
	// (internal/planner): the sweep is resolved from a seeded,
	// model-predicted subset of real evaluations instead of
	// exhaustively. Nil means the classic exhaustive sweep.
	Plan *Plan `json:"plan,omitempty"`
}

// Meta labels one expanded evaluation point.
type Meta struct {
	App     string
	Mode    memsys.Mode
	Threads int
	Scale   float64
}

// Outcome couples an evaluation point with its result.
type Outcome struct {
	Meta
	Result workload.Result
}

// customSources counts the non-Apps workload sources.
func (s Spec) customSources() int {
	return len(s.Custom) + len(s.Workloads) + len(s.Sized) + len(s.Composite)
}

func (s Spec) apps() []string {
	if s.customSources() > 0 {
		// Explicit sources present: Apps contributes only what it names.
		return s.Apps
	}
	if len(s.Apps) > 0 {
		return s.Apps
	}
	return dwarfs.Names()
}

func (s Spec) modes() []memsys.Mode {
	if len(s.Modes) > 0 {
		return s.Modes
	}
	return memsys.Modes()
}

func (s Spec) threads() []int {
	if len(s.Threads) > 0 {
		return s.Threads
	}
	return []int{48}
}

func (s Spec) scales() []float64 {
	if len(s.Scales) > 0 {
		return s.Scales
	}
	return []float64{1}
}

// Size returns the number of evaluation points the spec expands to.
func (s Spec) Size() int {
	napps := len(s.apps()) + s.customSources()
	return napps * len(s.modes()) * len(s.threads()) * len(s.scales())
}

// Validate checks the spec against the registry and the thread limits,
// and that every scale, weight and scaled footprint is in range.
func (s Spec) Validate() error {
	_, err := s.sources()
	return err
}

// source is one built workload source of a sweep: the label its rows
// carry and its unscaled workload.
type source struct {
	label string
	base  *workload.Workload
}

// sources validates the spec and builds its workload sources in
// canonical order: registry apps, Custom, inline Workloads, Sized,
// Composite. EachPoint expands exactly what was checked, so no source is
// built twice. A Custom builder that returns nil is left for EachPoint
// to report.
func (s Spec) sources() ([]source, error) {
	for _, c := range s.Custom {
		if c.New == nil {
			return nil, fmt.Errorf("scenario %s: custom workload %q has no builder", s.Name, c.Label)
		}
	}
	for i, w := range s.Workloads {
		if w == nil {
			return nil, fmt.Errorf("scenario %s: workloads[%d] is null", s.Name, i)
		}
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	for _, mode := range s.modes() {
		if mode == memsys.Placed {
			return nil, fmt.Errorf("scenario %s: Placed mode needs a per-structure plan; use internal/placement", s.Name)
		}
	}
	for _, th := range s.threads() {
		if th < 1 || th > workload.MaxThreads {
			return nil, fmt.Errorf("scenario %s: threads %d out of [1,%d]", s.Name, th, workload.MaxThreads)
		}
	}
	scales := s.scales()
	for _, sc := range scales {
		if !positive(sc) {
			return nil, fmt.Errorf("scenario %s: scale %v is not finite and positive", s.Name, sc)
		}
	}
	if s.Plan != nil {
		if err := s.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Size() == 0 {
		return nil, fmt.Errorf("scenario %s: empty sweep", s.Name)
	}

	apps := s.apps()
	out := make([]source, 0, len(apps)+s.customSources())
	for _, app := range apps {
		e, err := dwarfs.ByName(app)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		out = append(out, source{e.Name, e.New()})
	}
	for _, c := range s.Custom {
		out = append(out, source{c.Label, c.New()})
	}
	for _, w := range s.Workloads {
		out = append(out, source{w.Name, w})
	}
	for _, sz := range s.Sized {
		e, err := dwarfs.ByName(sz.App)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: sized: %w", s.Name, err)
		}
		if !positive(sz.Scale) {
			return nil, fmt.Errorf("scenario %s: sized %q: scale %v is not finite and positive", s.Name, sz.App, sz.Scale)
		}
		base := e.New()
		if err := checkFootprint(base, sz.Scale); err != nil {
			return nil, fmt.Errorf("scenario %s: sized %q: %w", s.Name, sz.App, err)
		}
		label := sz.Label
		if label == "" {
			label = fmt.Sprintf("%s-x%g", e.Name, sz.Scale)
		}
		w := Scaled(base, sz.Scale)
		w.Name = label
		out = append(out, source{label, w})
	}
	for _, c := range s.Composite {
		w, err := Fuse(c)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		out = append(out, source{c.Label, w})
	}

	seen := map[string]bool{}
	for _, src := range out {
		// The sources are additive, so two of them carrying one label
		// would render indistinguishable rows and collide in Index
		// lookups.
		if seen[src.label] {
			return nil, fmt.Errorf("scenario %s: duplicate workload label %q across sources", s.Name, src.label)
		}
		seen[src.label] = true
		if src.base == nil {
			continue
		}
		for _, sc := range scales {
			if err := checkFootprint(src.base, sc); err != nil {
				return nil, fmt.Errorf("scenario %s: %s: %w", s.Name, src.label, err)
			}
		}
	}
	return out, nil
}

// positive reports whether x is finite and above zero, the range of
// every scale and composite weight.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// checkFootprint rejects a scale under which Scaled could not represent
// w's footprint: it truncates the product to whole bytes, and past 2^63
// the conversion overflows.
func checkFootprint(w *workload.Workload, scale float64) error {
	if f := float64(w.Footprint) * scale; !(f >= 1 && f < 1<<63) {
		return fmt.Errorf("scale %g gives a footprint of %g bytes, outside [1, 2^63)", scale, f)
	}
	return nil
}

// EachPoint streams the sweep's expansion in the spec's canonical
// order (app, scale, mode, threads — innermost last) without
// materializing it: fn is invoked once per evaluation point with the
// point's expansion index, meta label and engine job, and enumeration
// stops early when fn returns false. Workload descriptors are shared
// across the modes×threads block of one (source, scale) pair, exactly
// as Expand shares them, so memory while streaming is O(1) in point
// count — the seam the fleet coordinator's windowed dispatch carves
// chunks from at 100k-point scale.
func (s Spec) EachPoint(fn func(i int, m Meta, job engine.Job) bool) error {
	srcs, err := s.sources()
	if err != nil {
		return err
	}
	i := 0
	for _, src := range srcs {
		if src.base == nil {
			return fmt.Errorf("scenario %s: builder for %q returned a nil workload", s.Name, src.label)
		}
		for _, sc := range s.scales() {
			w := Scaled(src.base, sc)
			for _, mode := range s.modes() {
				for _, th := range s.threads() {
					if !fn(i, Meta{App: src.label, Mode: mode, Threads: th, Scale: sc},
						engine.Job{Workload: w, Mode: mode, Threads: th}) {
						return nil
					}
					i++
				}
			}
		}
	}
	return nil
}

// Expand materializes the sweep: the meta labels and engine jobs, index
// aligned, in the spec's canonical order (app, scale, mode, threads —
// innermost last). Expand is EachPoint collected into slices; the two
// enumerations are index-identical by construction.
func (s Spec) Expand() ([]Meta, []engine.Job, error) {
	metas := make([]Meta, 0, s.Size())
	jobs := make([]engine.Job, 0, s.Size())
	err := s.EachPoint(func(_ int, m Meta, job engine.Job) bool {
		metas = append(metas, m)
		jobs = append(jobs, job)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return metas, jobs, nil
}

// Run expands the spec and evaluates it on the engine, returning the
// outcomes in the spec's canonical order.
func (s Spec) Run(e *engine.Engine) ([]Outcome, error) {
	metas, jobs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	results, err := e.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, len(metas))
	for i := range metas {
		out[i] = Outcome{Meta: metas[i], Result: results[i]}
	}
	return out, nil
}

// Index is a point-addressed view of a sweep's outcomes, for experiment
// code that assembles rows/series out of submission order.
type Index map[Meta]workload.Result

// NewIndex builds the lookup from a sweep's outcomes.
func NewIndex(outs []Outcome) Index {
	ix := make(Index, len(outs))
	for _, o := range outs {
		ix[o.Meta] = o.Result
	}
	return ix
}

// Get returns the unscaled (Scale 1) result for an evaluation point. A
// missing point is a programming error — the spec did not cover the
// lookup — so Get panics rather than returning a zero Result that would
// silently render as all-zero rows.
func (ix Index) Get(app string, mode memsys.Mode, threads int) workload.Result {
	res, ok := ix[Meta{App: app, Mode: mode, Threads: threads, Scale: 1}]
	if !ok {
		panic(fmt.Sprintf("scenario: no outcome for %s on %s @ %d threads", app, mode, threads))
	}
	return res
}

// Scaled returns the workload scaled to a proportionally larger or
// smaller problem: footprint, per-phase working sets and baseline time
// grow linearly with the factor, while bandwidth demands (a property of
// the code, not the input size) are unchanged. Scale 1 returns the
// workload itself.
func Scaled(w *workload.Workload, scale float64) *workload.Workload {
	if scale == 1 {
		return w
	}
	cp := *w
	cp.Input = fmt.Sprintf("%s [x%g footprint]", w.Input, scale)
	cp.Footprint = units.Bytes(float64(w.Footprint) * scale)
	cp.BaselineTime = units.Duration(float64(w.BaselineTime) * scale)
	cp.Phases = append([]memsys.Phase(nil), w.Phases...)
	for i := range cp.Phases {
		cp.Phases[i].WorkingSet = units.Bytes(float64(cp.Phases[i].WorkingSet) * scale)
	}
	return &cp
}

// Table renders outcomes as a fixed-width sweep report.
func Table(outcomes []Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %7s %6s %10s %12s %10s %10s %10s  %s\n",
		"App", "Mode", "Threads", "Scale", "Time(s)", "FoM", "Slowdown", "Rd(GB/s)", "Wr(GB/s)", "Bound")
	for _, o := range outcomes {
		// Report the binding resource of the most dilated phase.
		bound, worst := "", 0.0
		for _, po := range o.Result.Phases {
			if bound == "" || po.Epoch.Mult > worst {
				bound, worst = string(po.Epoch.BoundBy), po.Epoch.Mult
			}
		}
		fmt.Fprintf(&b, "%-12s %-14s %7d %6.2g %10.3f %12.4g %9.2fx %10.1f %10.1f  %s\n",
			o.App, o.Mode, o.Threads, o.Scale, o.Result.Time.Seconds(), o.Result.FoMValue,
			o.Result.Slowdown, o.Result.AvgRead().GBpsValue(), o.Result.AvgWrite().GBpsValue(), bound)
	}
	return b.String()
}

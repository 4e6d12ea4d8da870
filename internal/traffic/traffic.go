// Package traffic is the workload model for the serving layer: a
// declarative description of *who* submits sweeps and plans to a
// session manager, *how often*, and *in what pattern* — the "heavy
// traffic from millions of users" half of the serving story, made
// measurable.
//
// A Spec names a set of clients, each owning a fraction of an aggregate
// submission rate, an arrival process (poisson, gamma, bursty), an SLO
// class (critical, batch, background) and a submission template (a
// shipped scenario preset by name, or an inline scenario spec; run as
// an exhaustive sweep or an adaptive plan). Cohort phases (ramp,
// steady, spike, drain) shape the aggregate rate over time. Specs are
// strict-JSON files exactly like scenario specs: unknown fields are
// rejected, Validate runs on load, and the shipped presets under
// traffic/ at the repository root are pinned byte-for-byte by test.
//
// Timeline expands a spec into a deterministic arrival schedule — every
// stochastic draw comes from a seeded xrand generator split per client,
// so the same spec replays the same schedule on every machine — and
// Replay (driver.go) plays that schedule against a live target: an
// in-process session.Manager or a remote nvmserve URL. The driver
// closes the loop, recording per-SLO-class admission-to-first-point and
// admission-to-done latency histograms, achieved versus offered rates,
// and per-class result-cache hit rates (report.go). cmd/nvmload is the
// CLI over Replay, and the canonical "bursty-two-class" preset is the
// tracked benchkit workload whose p99 admission-to-first-point latency
// is gated in CI next to the allocs/op gates.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/scenario"
)

// Class is an SLO tier. Classes group the driver's latency and cache
// accounting; they do not (yet) change how the daemon schedules work.
type Class string

const (
	// Critical is latency-sensitive interactive traffic.
	Critical Class = "critical"
	// Batch is throughput-oriented bulk traffic.
	Batch Class = "batch"
	// Background is best-effort filler traffic.
	Background Class = "background"
)

// Classes returns the SLO tiers in reporting order.
func Classes() []Class { return []Class{Critical, Batch, Background} }

func validClass(c Class) bool {
	return c == Critical || c == Batch || c == Background
}

// Kind selects how a submission is evaluated.
type Kind string

const (
	// Sweep submits the template spec as an exhaustive sweep session.
	Sweep Kind = "sweep"
	// Plan submits it through the adaptive planner.
	Plan Kind = "plan"
)

// Arrival processes.
const (
	// Poisson is memoryless: exponential inter-arrival gaps. The default.
	Poisson = "poisson"
	// Gamma draws gamma-distributed gaps; CV > 1 is burstier than
	// poisson, CV < 1 more regular.
	Gamma = "gamma"
	// Bursty is an on/off process: geometric-size bursts of closely
	// spaced arrivals separated by long gaps, preserving the client's
	// long-run mean rate.
	Bursty = "bursty"
)

// Phase kinds.
const (
	// Ramp interpolates the rate multiplier linearly from the previous
	// phase's end level (0 before the first phase) to this phase's Level.
	Ramp = "ramp"
	// Steady holds the multiplier at Level.
	Steady = "steady"
	// Spike is a steady phase by another name: a short high-Level burst
	// window, kept distinct so specs read as intended.
	Spike = "spike"
	// Drain generates no new arrivals; the driver keeps waiting on
	// outstanding sessions through it.
	Drain = "drain"
)

// Validation bounds. They exist so a hostile or typoed spec cannot ask
// the generator for an astronomically long or dense schedule; real
// harness runs sit orders of magnitude below them.
const (
	// MaxRate is the largest accepted aggregate submission rate (per
	// second).
	MaxRate = 10000
	// MaxDuration is the longest accepted schedule in seconds, phases
	// included.
	MaxDuration = 86400
	// MaxLevel is the largest accepted phase rate multiplier.
	MaxLevel = 1000
)

// Spec declares a traffic workload. The zero value is invalid; specs
// come from files, the shipped presets (Presets) or any other, via
// ParseSpec/LoadSpec.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every stochastic draw in Timeline. The same seed
	// replays the same schedule; Options.Seed overrides it per run.
	Seed uint64 `json:"seed,omitempty"`
	// Rate is the aggregate submission rate (submissions/second) at
	// phase level 1.0, shared among the clients by RateFraction.
	Rate float64 `json:"rate"`
	// Duration is the schedule length in seconds when Phases is empty
	// (a single steady phase at level 1.0). Exclusive with Phases.
	Duration float64 `json:"duration_s,omitempty"`
	// Clients are the traffic sources; their RateFractions sum to 1.
	Clients []Client `json:"clients"`
	// Phases shape the aggregate rate over time; empty means one steady
	// Duration-second phase.
	Phases []Phase `json:"phases,omitempty"`
}

// Client is one traffic source.
type Client struct {
	ID string `json:"id"`
	// RateFraction is this client's share of Spec.Rate; fractions are
	// positive and sum to 1 across the spec.
	RateFraction float64 `json:"rate_fraction"`
	// Class is the client's SLO tier (critical, batch, background).
	Class Class `json:"slo_class"`
	// Arrival configures the inter-arrival process.
	Arrival Arrival `json:"arrival"`
	// Submit is what each arrival submits.
	Submit Template `json:"submit"`
}

// Arrival configures a client's inter-arrival process.
type Arrival struct {
	// Process is poisson (default when empty), gamma or bursty.
	Process string `json:"process,omitempty"`
	// CV is the gamma process's coefficient of variation; 0 defaults to
	// 2 (bursty). Rejected on other processes.
	CV float64 `json:"cv,omitempty"`
	// Burst is the bursty process's mean arrivals per burst; 0 defaults
	// to 8. Rejected on other processes.
	Burst float64 `json:"burst,omitempty"`
	// Factor is the bursty process's in-burst rate amplification; 0
	// defaults to 10. Rejected on other processes.
	Factor float64 `json:"factor,omitempty"`
}

// Template is what a client submits on each arrival: exactly one of a
// shipped scenario preset (by name) or an inline scenario spec, run as
// a sweep (default) or an adaptive plan. Every arrival of a client
// submits the same resolved spec, so after the first run its points are
// re-served from the result store and show up as cache hits in the
// per-class report.
type Template struct {
	Preset string         `json:"preset,omitempty"`
	Spec   *scenario.Spec `json:"spec,omitempty"`
	Kind   Kind           `json:"kind,omitempty"`
}

// Phase is one window of the cohort dynamics.
type Phase struct {
	Name string `json:"name,omitempty"`
	// Kind is ramp, steady, spike or drain.
	Kind string `json:"kind"`
	// Duration is the phase length in seconds.
	Duration float64 `json:"duration_s"`
	// Level is the target rate multiplier: the held level for
	// steady/spike, the ramp's end level for ramp. Drain phases carry
	// none.
	Level float64 `json:"level,omitempty"`
}

// TotalDuration returns the schedule length in seconds: the phase
// durations summed, or Duration when the spec has no phases.
func (s Spec) TotalDuration() float64 {
	if len(s.Phases) == 0 {
		return s.Duration
	}
	total := 0.0
	for _, p := range s.Phases {
		total += p.Duration
	}
	return total
}

// finitePos reports whether x is a finite positive number.
func finitePos(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// Validate checks the spec. Everything the generator and driver assume
// is enforced here, so Timeline and Replay can trust their input.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("traffic: spec has no name")
	}
	if !finitePos(s.Rate) || s.Rate > MaxRate {
		return fmt.Errorf("traffic %s: rate %v out of (0,%d] submissions/s", s.Name, s.Rate, MaxRate)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("traffic %s: no clients", s.Name)
	}
	sum := 0.0
	ids := map[string]bool{}
	for i, c := range s.Clients {
		if c.ID == "" {
			return fmt.Errorf("traffic %s: clients[%d] has no id", s.Name, i)
		}
		if ids[c.ID] {
			return fmt.Errorf("traffic %s: duplicate client id %q", s.Name, c.ID)
		}
		ids[c.ID] = true
		if !finitePos(c.RateFraction) || c.RateFraction > 1 {
			return fmt.Errorf("traffic %s: client %s: rate_fraction %v out of (0,1]", s.Name, c.ID, c.RateFraction)
		}
		sum += c.RateFraction
		if !validClass(c.Class) {
			return fmt.Errorf("traffic %s: client %s: slo_class %q is not critical|batch|background", s.Name, c.ID, c.Class)
		}
		if err := c.Arrival.validate(); err != nil {
			return fmt.Errorf("traffic %s: client %s: %w", s.Name, c.ID, err)
		}
		if err := c.Submit.validate(); err != nil {
			return fmt.Errorf("traffic %s: client %s: %w", s.Name, c.ID, err)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("traffic %s: client rate_fractions sum to %v, want 1", s.Name, sum)
	}
	if len(s.Phases) == 0 {
		if !finitePos(s.Duration) || s.Duration > MaxDuration {
			return fmt.Errorf("traffic %s: duration_s %v out of (0,%d] (or declare phases)", s.Name, s.Duration, MaxDuration)
		}
		return nil
	}
	if s.Duration != 0 {
		return fmt.Errorf("traffic %s: duration_s and phases are exclusive; phase durations define the schedule", s.Name)
	}
	total := 0.0
	for i, p := range s.Phases {
		label := p.Name
		if label == "" {
			label = fmt.Sprintf("phases[%d]", i)
		}
		if !finitePos(p.Duration) {
			return fmt.Errorf("traffic %s: phase %s: non-positive duration_s %v", s.Name, label, p.Duration)
		}
		total += p.Duration
		switch p.Kind {
		case Ramp:
			if p.Level < 0 || math.IsNaN(p.Level) || p.Level > MaxLevel {
				return fmt.Errorf("traffic %s: phase %s: ramp level %v out of [0,%d]", s.Name, label, p.Level, MaxLevel)
			}
		case Steady, Spike:
			if !finitePos(p.Level) || p.Level > MaxLevel {
				return fmt.Errorf("traffic %s: phase %s: %s level %v out of (0,%d]", s.Name, label, p.Kind, p.Level, MaxLevel)
			}
		case Drain:
			if p.Level != 0 {
				return fmt.Errorf("traffic %s: phase %s: drain phases take no level", s.Name, label)
			}
		default:
			return fmt.Errorf("traffic %s: phase %s: unknown kind %q (have ramp|steady|spike|drain)", s.Name, label, p.Kind)
		}
	}
	if total > MaxDuration {
		return fmt.Errorf("traffic %s: phases span %v s, max %d", s.Name, total, MaxDuration)
	}
	return nil
}

func (a Arrival) validate() error {
	switch a.Process {
	case "", Poisson:
		if a.CV != 0 || a.Burst != 0 || a.Factor != 0 {
			return fmt.Errorf("arrival: poisson takes no cv/burst/factor")
		}
	case Gamma:
		if a.Burst != 0 || a.Factor != 0 {
			return fmt.Errorf("arrival: gamma takes no burst/factor")
		}
		// The lower bound keeps the sampler's shape k = 1/cv^2 finite
		// and in Marsaglia-Tsang's comfortable range.
		if a.CV != 0 && (a.CV < 0.01 || math.IsNaN(a.CV) || a.CV > 100) {
			return fmt.Errorf("arrival: gamma cv %v out of [0.01,100]", a.CV)
		}
	case Bursty:
		if a.CV != 0 {
			return fmt.Errorf("arrival: bursty takes no cv")
		}
		if a.Burst != 0 && (a.Burst < 1 || math.IsNaN(a.Burst) || a.Burst > 10000) {
			return fmt.Errorf("arrival: bursty burst %v out of [1,10000]", a.Burst)
		}
		if a.Factor != 0 && (a.Factor <= 1 || math.IsNaN(a.Factor) || a.Factor > 10000) {
			return fmt.Errorf("arrival: bursty factor %v out of (1,10000]", a.Factor)
		}
	default:
		return fmt.Errorf("arrival: unknown process %q (have poisson|gamma|bursty)", a.Process)
	}
	return nil
}

func (t Template) validate() error {
	switch {
	case t.Preset == "" && t.Spec == nil:
		return fmt.Errorf("submit: declare a preset or an inline spec")
	case t.Preset != "" && t.Spec != nil:
		return fmt.Errorf("submit: preset %q and an inline spec are exclusive", t.Preset)
	case t.Preset != "":
		if _, err := scenario.ByName(t.Preset); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
	default:
		if t.Spec.Name == "" {
			return fmt.Errorf("submit: inline spec has no name (a spec file needs one)")
		}
		if err := t.Spec.Validate(); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
	}
	switch t.Kind {
	case "", Sweep, Plan:
	default:
		return fmt.Errorf("submit: unknown kind %q (have sweep|plan)", t.Kind)
	}
	return nil
}

// kind returns the template's effective kind.
func (t Template) kind() Kind {
	if t.Kind == "" {
		return Sweep
	}
	return t.Kind
}

// Resolve returns the scenario spec a template submits: the named
// preset, or the inline spec.
func (t Template) Resolve() (scenario.Spec, error) {
	if t.Preset != "" {
		return scenario.ByName(t.Preset)
	}
	if t.Spec == nil {
		return scenario.Spec{}, fmt.Errorf("traffic: template has no preset and no spec")
	}
	return *t.Spec, nil
}

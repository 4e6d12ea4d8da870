// Package advisor turns the paper's findings into an actionable
// decision API for application developers targeting NVM-based main
// memory. It implements the four insights of Section IV plus the
// Section IV-C susceptibility indicator:
//
//   - Insight I:  low-bandwidth applications (N-body, unstructured FEM)
//     can be ported to uncached NVM with negligible loss;
//   - Insight II: sparse/grid applications benefit from cached-NVM to
//     run problems beyond DRAM capacity;
//   - Insight III: phases with low read/write ratio and high write
//     bandwidth are susceptible to write throttling and must be the
//     optimization priority;
//   - Insight IV: concurrency changes have a diverging effect on reads
//     and writes — prefer write-aware placement over global concurrency
//     tuning.
package advisor

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// Tier is the paper's three-way sensitivity classification.
type Tier int

const (
	Insensitive Tier = iota
	Scaled
	Bottlenecked
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case Insensitive:
		return "insensitive"
	case Scaled:
		return "scaled"
	default:
		return "bottlenecked"
	}
}

// ClassifyTier applies the paper's slowdown bands.
func ClassifyTier(slowdown float64) Tier {
	switch {
	case slowdown < 1.5:
		return Insensitive
	case slowdown < 6.0:
		return Scaled
	default:
		return Bottlenecked
	}
}

// PhaseRisk assesses one phase's write-throttling susceptibility.
type PhaseRisk struct {
	Phase string
	// WriteBW is the phase's demanded write bandwidth.
	WriteBW units.Bandwidth
	// Threshold is the NVM write capability for the phase's pattern and
	// concurrency — the paper's empirical ~2 GB/s level.
	Threshold units.Bandwidth
	// ReadWriteRatio is the demanded read/write traffic ratio; values
	// near or below ~3 with high write bandwidth mark throttling risk.
	ReadWriteRatio float64
	// Susceptible is the Section IV-C indicator: demanded writes exceed
	// the capability (the phase will throttle, dragging reads with it).
	Susceptible bool
}

// Advice is the full recommendation for a workload.
type Advice struct {
	App  string
	Tier Tier
	// UncachedSlowdown is the modelled uncached-NVM slowdown driving
	// the tier.
	UncachedSlowdown float64
	// CachedLoss is the modelled cached-NVM loss versus DRAM.
	CachedLoss float64
	// Risks lists write-throttling assessments per phase.
	Risks []PhaseRisk
	// RecommendPlacement is set when write-aware placement is expected
	// to pay off (write-bound on NVM with a declared structure profile).
	RecommendPlacement bool
	// RecommendCachedForLargeProblems is Insight II: the app tolerates
	// beyond-DRAM footprints on cached-NVM.
	RecommendCachedForLargeProblems bool
	// Summary is the human-readable recommendation.
	Summary string
}

// Analyze evaluates a workload on the socket and produces the
// recommendation. It builds a transient engine; callers holding one (a
// shared result cache or disk store) should use AnalyzeEngine.
func Analyze(w *workload.Workload, sock *platform.Socket, threads int) (Advice, error) {
	return AnalyzeEngine(engine.New(sock, 0), w, threads)
}

// AnalyzeEngine produces the recommendation with both configuration
// evaluations flowing through the engine — cached, persisted by a disk
// result store, and shared with any sweep that already computed the
// same points.
func AnalyzeEngine(eng *engine.Engine, w *workload.Workload, threads int) (Advice, error) {
	if err := w.Validate(); err != nil {
		return Advice{}, err
	}
	sock := eng.Socket()
	ures, err := eng.Run(engine.Job{Workload: w, Mode: memsys.UncachedNVM, Threads: threads})
	if err != nil {
		return Advice{}, err
	}
	cres, err := eng.Run(engine.Job{Workload: w, Mode: memsys.CachedNVM, Threads: threads})
	if err != nil {
		return Advice{}, err
	}

	adv := Advice{
		App:              w.Name,
		UncachedSlowdown: ures.Slowdown,
		CachedLoss:       cres.Slowdown - 1,
		Tier:             ClassifyTier(ures.Slowdown),
	}

	writeBound := false
	for _, ph := range w.Phases {
		thr := sock.NVM.WriteThrottleThreshold(ph.WritePattern, threads)
		risk := PhaseRisk{
			Phase:          ph.Name,
			WriteBW:        ph.WriteBW,
			Threshold:      thr,
			ReadWriteRatio: units.Ratio(float64(ph.ReadBW), float64(ph.WriteBW)),
			Susceptible:    ph.WriteBW > thr,
		}
		adv.Risks = append(adv.Risks, risk)
		if risk.Susceptible {
			writeBound = true
		}
	}
	adv.RecommendPlacement = writeBound && len(w.Structures) > 0
	// Insight II: cached-NVM is worthwhile for large problems when the
	// in-capacity loss is modest and the app is not insensitive anyway.
	adv.RecommendCachedForLargeProblems = adv.CachedLoss < 0.35 && adv.Tier != Insensitive

	adv.Summary = summarize(adv)
	return adv, nil
}

func summarize(a Advice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s tier (uncached %.2fx, cached +%.0f%%). ",
		a.App, a.Tier, a.UncachedSlowdown, 100*a.CachedLoss)
	switch a.Tier {
	case Insensitive:
		b.WriteString("Direct port to NVM-based memory is safe (Insight I). ")
	case Scaled:
		b.WriteString("Expect the DRAM/NVM capability gap; cached-NVM recovers most of it. ")
	case Bottlenecked:
		b.WriteString("Write throttling dominates; prioritize the write-heavy phases (Insight III). ")
	}
	var hot []string
	for _, r := range a.Risks {
		if r.Susceptible {
			hot = append(hot, r.Phase)
		}
	}
	if len(hot) > 0 {
		fmt.Fprintf(&b, "Throttling-susceptible phases: %s. ", strings.Join(hot, ", "))
	}
	if a.RecommendPlacement {
		b.WriteString("Write-aware placement recommended over global concurrency tuning (Insight IV). ")
	}
	if a.RecommendCachedForLargeProblems {
		b.WriteString("Cached-NVM is suitable for beyond-DRAM problem sizes (Insight II).")
	}
	return strings.TrimSpace(b.String())
}

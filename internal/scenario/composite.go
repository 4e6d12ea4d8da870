package scenario

import (
	"fmt"
	"strings"

	"repro/internal/dwarfs"
	"repro/internal/units"
	"repro/internal/workload"
)

// Fuse materializes a Composite declaration into one workload: the
// parts' phases share a timeline with their time shares scaled by the
// normalized weights, footprints coexist in memory (they sum), and the
// concurrency-scaling and amplification knobs blend weight-
// proportionally. Phase names gain an "App/" prefix so per-phase
// scaling survives the merge, and the figure of merit becomes run time
// (the parts' rate metrics are not commensurable).
func Fuse(c Composite) (*workload.Workload, error) {
	if c.Label == "" {
		return nil, fmt.Errorf("composite with empty label")
	}
	if len(c.Parts) == 0 {
		return nil, fmt.Errorf("composite %q has no parts", c.Label)
	}
	var totalW float64
	for _, p := range c.Parts {
		if !positive(p.Weight) {
			return nil, fmt.Errorf("composite %q: weight %v for %s is not finite and positive",
				c.Label, p.Weight, p.App)
		}
		totalW += p.Weight
	}
	if !positive(totalW) {
		return nil, fmt.Errorf("composite %q: weights sum past the float64 range", c.Label)
	}

	out := &workload.Workload{
		Name:          c.Label,
		Dwarf:         "Composite",
		FoM:           workload.FoM{Name: "Time", Unit: "s"},
		PhaseScalings: map[string]workload.Scaling{},
	}
	var inputs []string
	var baseline, footprint, parallel, htEff, htWrite, thRead, work float64
	// Anchor the merged model at the dominant part's profiling
	// concurrency (ties break to the first part).
	var anchorW float64
	for _, p := range c.Parts {
		e, err := dwarfs.ByName(p.App)
		if err != nil {
			return nil, fmt.Errorf("composite %q: %w", c.Label, err)
		}
		pw := e.New()
		w := p.Weight / totalW
		inputs = append(inputs, fmt.Sprintf("%s (%.0f%%)", e.Name, 100*w))
		baseline += w * float64(pw.BaselineTime)
		footprint += float64(pw.Footprint)
		parallel += w * pw.Scaling.ParallelFrac
		htEff += w * pw.Scaling.HTEfficiency
		htWrite += w * pw.HTWriteAmplification
		thRead += w * pw.ThreadReadAmplification
		work += w * pw.Work
		if w > anchorW {
			anchorW, out.BaseThreads = w, pw.BaseThreads
		}
		out.Seed = out.Seed*1099511628211 + pw.Seed + 1
		for _, ph := range pw.Phases {
			merged := ph
			merged.Name = e.Name + "/" + ph.Name
			merged.Share = ph.Share * w
			out.Phases = append(out.Phases, merged)
			// Keep each part scaling as its own applications do.
			sc := pw.Scaling
			if ps, ok := pw.PhaseScalings[ph.Name]; ok {
				sc = ps
			}
			out.PhaseScalings[merged.Name] = sc
		}
	}
	out.Input = "composite: " + strings.Join(inputs, " + ")
	out.BaselineTime = units.Duration(baseline)
	out.Footprint = units.Bytes(footprint)
	out.Scaling = workload.Scaling{ParallelFrac: parallel, HTEfficiency: htEff}
	out.HTWriteAmplification = htWrite
	out.ThreadReadAmplification = thRead
	out.Work = work
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("composite %q: %w", c.Label, err)
	}
	return out, nil
}

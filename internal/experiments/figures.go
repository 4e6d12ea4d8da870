package experiments

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/dwarfs"
	"repro/internal/dwarfs/sparse"
	"repro/internal/dwarfs/structured"
	"repro/internal/dwarfs/unstructured"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig3 reports beyond-DRAM problems on cached-NVM: SuperLU sustains its
// FoM across the five UF datasets (a); BoxLib (b) and Hypre (c) report
// the cached speedup over uncached as the footprint grows past DRAM.
func Fig3(c *Context) (Report, error) {
	var b strings.Builder
	var checks []Check

	// (a) SuperLU across datasets, as one scenario batch.
	b.WriteString("(a) SuperLU factor FoM vs footprint/DRAM\n")
	fmt.Fprintf(&b, "%-12s %10s %14s\n", "dataset", "fp/DRAM", "Factor Mflops")
	var datasets []scenario.Custom
	for _, d := range sparse.Datasets() {
		datasets = append(datasets, scenario.Custom{
			Label: d.Name,
			New:   func() *workload.Workload { return sparse.WorkloadDataset(d) },
		})
	}
	outs, err := c.RunScenario(scenario.Spec{
		Name:    "fig3a-superlu-datasets",
		Custom:  datasets,
		Modes:   []memsys.Mode{memsys.CachedNVM},
		Threads: []int{c.Threads},
	})
	if err != nil {
		return Report{}, err
	}
	var first, last float64
	for i, o := range outs {
		ratio := o.Result.Workload.Footprint.GiBValue() / 96
		fmt.Fprintf(&b, "%-12s %10.1f %14.0f\n", o.App, ratio, o.Result.FoMValue)
		if i == 0 {
			first = o.Result.FoMValue
		}
		last = o.Result.FoMValue
	}
	checks = append(checks, check("SuperLU FoM at 5.1x DRAM", "sustained (similar Mflops)",
		fmt.Sprintf("%.0f vs %.0f at 0.2x", last, first), last > 0.7*first))

	// (b, c) BoxLib and Hypre speedups: one scenario per app, both NVM
	// modes per footprint point.
	type sweep struct {
		name   string
		ratios []float64
		build  func(gib float64) *workload.Workload
		want   float64 // paper's speedup at the largest point
	}
	sweeps := []sweep{
		{"BoxLib", []float64{0.3, 0.5, 1.0, 2.2, 4.4}, unstructured.WorkloadFootprintGiB, 2.0},
		{"Hypre", []float64{0.4, 0.8, 1.3, 1.6, 2.9}, structured.WorkloadFootprintGiB, 2.0},
	}
	for _, s := range sweeps {
		fmt.Fprintf(&b, "\n(%s) cached speedup over uncached vs footprint/DRAM\n", s.name)
		fmt.Fprintf(&b, "%10s %10s\n", "fp/DRAM", "speedup")
		var points []scenario.Custom
		for _, r := range s.ratios {
			points = append(points, scenario.Custom{
				Label: fmt.Sprintf("%s@%.1fx", s.name, r),
				New:   func() *workload.Workload { return s.build(r * 96) },
			})
		}
		outs, err := c.RunScenario(scenario.Spec{
			Name:    "fig3bc-" + s.name,
			Custom:  points,
			Modes:   []memsys.Mode{memsys.CachedNVM, memsys.UncachedNVM},
			Threads: []int{c.Threads},
		})
		if err != nil {
			return Report{}, err
		}
		var lastSp float64
		// Outcomes arrive point-major: cached then uncached per ratio.
		for i, r := range s.ratios {
			cres, ures := outs[2*i].Result, outs[2*i+1].Result
			lastSp = float64(ures.Time) / float64(cres.Time)
			fmt.Fprintf(&b, "%10.1f %9.2fx\n", r, lastSp)
		}
		checks = append(checks, check(
			fmt.Sprintf("%s speedup at %.1fx DRAM", s.name, s.ratios[len(s.ratios)-1]),
			fmt.Sprintf("~%.1fx", s.want),
			fmt.Sprintf("%.2fx", lastSp), lastSp > 1.5 && lastSp < 4.0))
	}
	return Report{ID: "fig3", Title: "Beyond-DRAM problems on cached-NVM", Body: b.String(), Checks: checks}, nil
}

// Fig4 reconstructs the Hypre bandwidth traces on DRAM-only and
// cached-NVM.
func Fig4(c *Context) (Report, error) {
	outs, err := c.RunScenario(scenario.Spec{
		Name:    "fig4-hypre-trace",
		Apps:    []string{"Hypre"},
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM},
		Threads: []int{c.Threads},
	})
	if err != nil {
		return Report{}, err
	}
	dres, cres := outs[0].Result, outs[1].Result
	dtr := dres.Trace(c.TraceSamples, traceNoise)
	ctr := cres.Trace(c.TraceSamples, traceNoise)

	var b strings.Builder
	b.WriteString("DRAM-only run:\n")
	b.WriteString(dtr.ASCII(trace.ColDRAMRead, 60, 4))
	b.WriteString("cached-NVM run:\n")
	b.WriteString(ctr.ASCII(trace.ColDRAMRead, 60, 4))
	fmt.Fprintf(&b, "DRAM read:   %7.1f GB/s (DRAM-only) -> %7.1f GB/s (cached)\n",
		dres.AvgDRAMRead.GBpsValue(), cres.AvgDRAMRead.GBpsValue())
	fmt.Fprintf(&b, "DRAM write:  %7.1f GB/s (DRAM-only) -> %7.1f GB/s (cached)\n",
		dres.AvgDRAMWrite.GBpsValue(), cres.AvgDRAMWrite.GBpsValue())
	fmt.Fprintf(&b, "NVM read:    %7.1f GB/s (cached)\n", cres.AvgNVMRead.GBpsValue())
	fmt.Fprintf(&b, "NVM write:   %7.1f GB/s (cached)\n", cres.AvgNVMWrite.GBpsValue())

	drop := 1 - cres.AvgDRAMRead.GBpsValue()/dres.AvgDRAMRead.GBpsValue()
	checks := []Check{
		check("cached DRAM-read reduction", "28% (82.5 -> 59.5 GB/s)", pct(drop),
			drop > 0.12 && drop < 0.40),
		check("cached DRAM write vs DRAM-only", "rises (5.7 -> 9.3 GB/s, fills)",
			fmt.Sprintf("%.1f -> %.1f GB/s", dres.AvgDRAMWrite.GBpsValue(), cres.AvgDRAMWrite.GBpsValue()),
			cres.AvgDRAMWrite > dres.AvgDRAMWrite),
		check("NVM read traffic visible", "yes (load misses)",
			cres.AvgNVMRead.String(), cres.AvgNVMRead.GBpsValue() > 1),
	}
	return Report{ID: "fig4", Title: "Hypre trace: DRAM vs cached-NVM", Body: b.String(), Checks: checks}, nil
}

// Fig5 reconstructs the Laghos and SuperLU traces on DRAM and uncached
// NVM, reporting the phase-composition shift.
func Fig5(c *Context) (Report, error) {
	var b strings.Builder
	var checks []Check
	apps := []struct {
		entryName, phase string
		// paper phase-1 shares on DRAM and uncached.
		dramShare, nvmShare float64
	}{
		{"Laghos", "force-assembly", 0.20, 0.20},
		{"SuperLU", "factor-panels", 0.25, 0.70},
	}
	outs, err := c.RunScenario(scenario.Spec{
		Name:    "fig5-write-throttling",
		Apps:    []string{apps[0].entryName, apps[1].entryName},
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.UncachedNVM},
		Threads: []int{c.Threads},
	})
	if err != nil {
		return Report{}, err
	}
	byPoint := scenario.NewIndex(outs)
	for _, app := range apps {
		for _, mode := range []memsys.Mode{memsys.DRAMOnly, memsys.UncachedNVM} {
			res := byPoint.Get(app.entryName, mode, c.Threads)
			tr := res.Trace(c.TraceSamples, traceNoise)
			share := tr.PhaseShare(app.phase)
			fmt.Fprintf(&b, "%s on %s: phase-1 share %.0f%%, avg read %.1f GB/s, avg write %.1f GB/s\n",
				app.entryName, mode, 100*share,
				res.AvgRead().GBpsValue(), res.AvgWrite().GBpsValue())
			b.WriteString(tr.ASCII(trace.ColWrite, 60, 4))
			want := app.dramShare
			if mode == memsys.UncachedNVM {
				want = app.nvmShare
			}
			checks = append(checks, check(
				fmt.Sprintf("%s phase-1 share on %s", app.entryName, mode),
				fmt.Sprintf("~%.0f%%", 100*want), pct(share),
				share > want-0.12 && share < want+0.15))
		}
	}
	return Report{ID: "fig5", Title: "Write throttling changes the dominant phase", Body: b.String(), Checks: checks}, nil
}

// Fig6 reports the concurrency scaling ratio per application and
// configuration.
func Fig6(c *Context) (Report, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %14s %14s\n", "App", "DRAM", "Optane-cached", "Optane-uncached")
	outs, err := c.RunScenario(scenario.Spec{
		Name:    "fig6-contention",
		Threads: []int{c.LowThreads, c.Threads},
	})
	if err != nil {
		return Report{}, err
	}
	byPoint := scenario.NewIndex(outs)
	ratios := map[string]map[memsys.Mode]float64{}
	for _, e := range dwarfs.All() {
		ratios[e.Name] = map[memsys.Mode]float64{}
		for _, mode := range memsys.Modes() {
			lo := byPoint.Get(e.Name, mode, c.LowThreads)
			hi := byPoint.Get(e.Name, mode, c.Threads)
			r := hi.FoMValue / lo.FoMValue
			if !hi.Workload.FoM.Higher {
				r = lo.FoMValue / hi.FoMValue
			}
			ratios[e.Name][mode] = r
		}
		fmt.Fprintf(&b, "%-10s %10.2f %14.2f %14.2f\n", e.Name,
			ratios[e.Name][memsys.DRAMOnly], ratios[e.Name][memsys.CachedNVM], ratios[e.Name][memsys.UncachedNVM])
	}
	ft := ratios["FFT"]
	bx := ratios["BoxLib"]
	checks := []Check{
		check("HACC gain at high concurrency", "> 1.3x",
			fmt.Sprintf("%.2f", ratios["HACC"][memsys.DRAMOnly]), ratios["HACC"][memsys.DRAMOnly] > 1.25),
		check("XSBench gain at high concurrency", "> 1.3x",
			fmt.Sprintf("%.2f", ratios["XSBench"][memsys.DRAMOnly]), ratios["XSBench"][memsys.DRAMOnly] > 1.25),
		check("FT DRAM ratio", "0.61", fmt.Sprintf("%.2f", ft[memsys.DRAMOnly]),
			ft[memsys.DRAMOnly] > 0.5 && ft[memsys.DRAMOnly] < 0.75),
		check("FT uncached ratio", "0.37 (contention)", fmt.Sprintf("%.2f", ft[memsys.UncachedNVM]),
			ft[memsys.UncachedNVM] < ft[memsys.DRAMOnly]-0.1 && ft[memsys.UncachedNVM] < 0.55),
		check("BoxLib DRAM/uncached gap", "notable", fmt.Sprintf("%.2f vs %.2f",
			bx[memsys.DRAMOnly], bx[memsys.UncachedNVM]),
			bx[memsys.UncachedNVM] < bx[memsys.DRAMOnly]-0.05),
		check("ScaLAPACK cached contention", "cached below DRAM ratio",
			fmt.Sprintf("%.2f vs %.2f", ratios["ScaLAPACK"][memsys.CachedNVM], ratios["ScaLAPACK"][memsys.DRAMOnly]),
			ratios["ScaLAPACK"][memsys.CachedNVM] < ratios["ScaLAPACK"][memsys.DRAMOnly]),
	}
	return Report{ID: "fig6", Title: "Concurrency scaling ratios", Body: b.String(), Checks: checks}, nil
}

// Fig7 reconstructs the FT traces at 8 and 24 threads on uncached NVM.
func Fig7(c *Context) (Report, error) {
	outs, err := c.RunScenario(scenario.Spec{
		Name:    "fig7-ft-divergence",
		Apps:    []string{"FFT"},
		Modes:   []memsys.Mode{memsys.UncachedNVM},
		Threads: []int{8, 24},
	})
	if err != nil {
		return Report{}, err
	}
	lo, hi := outs[0].Result, outs[1].Result
	var b strings.Builder
	for _, r := range []struct {
		res workload.Result
		th  int
	}{{lo, 8}, {hi, 24}} {
		tr := r.res.Trace(c.TraceSamples, traceNoise)
		fmt.Fprintf(&b, "concurrency = %d: avg read %.2f GB/s, avg write %.2f GB/s\n",
			r.th, r.res.AvgRead().GBpsValue(), r.res.AvgWrite().GBpsValue())
		b.WriteString(tr.ASCII(trace.ColWrite, 60, 4))
	}
	checks := []Check{
		check("read bandwidth with concurrency", "rises (3.8 -> 4.5 GB/s)",
			fmt.Sprintf("%.2f -> %.2f GB/s", lo.AvgRead().GBpsValue(), hi.AvgRead().GBpsValue()),
			hi.AvgRead() > lo.AvgRead()),
		check("write bandwidth with concurrency", "falls (3.0 -> 2.6 GB/s)",
			fmt.Sprintf("%.2f -> %.2f GB/s", lo.AvgWrite().GBpsValue(), hi.AvgWrite().GBpsValue()),
			hi.AvgWrite() < lo.AvgWrite()),
	}
	return Report{ID: "fig7", Title: "FT diverging read/write with concurrency", Body: b.String(), Checks: checks}, nil
}

// Fig8 reconstructs the ScaLAPACK traces at 16 and 36 threads on
// uncached NVM.
func Fig8(c *Context) (Report, error) {
	outs, err := c.RunScenario(scenario.Spec{
		Name:    "fig8-scalapack-phases",
		Apps:    []string{"ScaLAPACK"},
		Modes:   []memsys.Mode{memsys.UncachedNVM},
		Threads: []int{16, 36},
	})
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	shares := map[int]float64{}
	reads := map[int]float64{}
	for i, th := range []int{16, 36} {
		res := outs[i].Result
		tr := res.Trace(c.TraceSamples, traceNoise)
		shares[th] = tr.PhaseShare("panel")
		// Stage-2 achieved read bandwidth.
		for _, po := range res.Phases {
			if po.Phase.Name == "update" {
				reads[th] = (po.Epoch.DRAMRead + po.Epoch.NVMRead).GBpsValue()
			}
		}
		fmt.Fprintf(&b, "concurrency = %d: stage-1 share %.0f%%, stage-2 read %.1f GB/s\n",
			th, 100*shares[th], reads[th])
		b.WriteString(tr.ASCII(trace.ColRead, 60, 4))
	}
	checks := []Check{
		check("stage-1 share growth", "10% -> 30%",
			fmt.Sprintf("%.0f%% -> %.0f%%", 100*shares[16], 100*shares[36]),
			shares[36] > shares[16] && shares[16] < 0.2),
		check("stage-2 read bandwidth", "12 -> 17 GB/s",
			fmt.Sprintf("%.1f -> %.1f GB/s", reads[16], reads[36]),
			reads[36] > reads[16]*0.95),
	}
	return Report{ID: "fig8", Title: "ScaLAPACK phase composition vs concurrency", Body: b.String(), Checks: checks}, nil
}

// Fig9 reports the checkpoint overheads (a) and the PMM trace (b).
func Fig9(c *Context) (Report, error) {
	cfg := checkpoint.LaghosConfig()
	var b strings.Builder
	b.WriteString("(a) snapshot overhead by storage tier\n")
	overheads := map[string]float64{}
	for _, tier := range checkpoint.Tiers() {
		o, err := checkpoint.Overhead(tier, cfg)
		if err != nil {
			return Report{}, err
		}
		overheads[tier.Name] = o
		persist := "persistent"
		if !tier.Persistent {
			persist = "volatile"
		}
		fmt.Fprintf(&b, "%-24s %6.1f%%  (%s)\n", tier.Name, 100*o, persist)
	}

	b.WriteString("\n(b) PMM snapshot trace (NVM write bursts)\n")
	dax, err := checkpoint.TierByName("DAX-ext4 (Optane PMM)")
	if err != nil {
		return Report{}, err
	}
	// The compute-phase traffic between snapshots is Laghos's own DRAM
	// demand (Fig 9b overlays the snapshot bursts on the application's
	// steady traffic).
	e, err := dwarfs.ByName("Laghos")
	if err != nil {
		return Report{}, err
	}
	lres, err := c.Run(e.New(), memsys.DRAMOnly)
	if err != nil {
		return Report{}, err
	}
	tl, err := checkpoint.Timeline(dax, cfg, lres.AvgDRAMRead, lres.AvgDRAMWrite)
	if err != nil {
		return Report{}, err
	}
	tr := trace.Build(tl, c.TraceSamples, traceNoise, 99)
	b.WriteString(tr.ASCII(trace.ColNVMWrite, 60, 4))

	daxO := overheads["DAX-ext4 (Optane PMM)"]
	raidO := overheads["ext4 (RAID)"]
	checks := []Check{
		check("Optane overhead", "2-5%", pct(daxO), daxO >= 0.02 && daxO <= 0.05),
		check("reduction vs block storage", "~4x", fmt.Sprintf("%.1fx", raidO/daxO),
			raidO/daxO > 2.5),
		check("tier ordering", "tmpfs < DAX < ext4 < lustre",
			"ordered", overheads["tmpfs (DRAM)"] < daxO && daxO < raidO &&
				raidO < overheads["lustre (Disk)"]),
	}
	return Report{ID: "fig9", Title: "Checkpointing on four storage tiers", Body: b.String(), Checks: checks}, nil
}

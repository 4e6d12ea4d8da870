package model

import (
	"math"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// evalTimes runs the app on the mode across a thread ladder, returning
// the feature matrix and true times — the planner's training shape.
func evalTimes(t *testing.T, app string, mode memsys.Mode, threads []int) ([][]float64, []float64) {
	t.Helper()
	e, err := dwarfs.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	w := e.New()
	sys := memsys.New(platform.NewPurley().Socket(0), mode)
	var X [][]float64
	var y []float64
	for _, th := range threads {
		res, err := workload.Run(w, sys, th)
		if err != nil {
			t.Fatal(err)
		}
		X = append(X, AppendConfigFeatures(nil, w, th, 1))
		y = append(y, res.Time.Seconds())
	}
	return X, y
}

// A model trained on the endpoints and midpoint of the thread ladder
// must interpolate the rest of the ladder to within a usable error —
// the planner's seed-then-predict contract.
func TestPointModelInterpolatesConcurrency(t *testing.T) {
	ladder := []int{1, 2, 4, 8, 16, 24, 32, 40, 48}
	for _, mode := range memsys.Modes() {
		X, y := evalTimes(t, "XSBench", mode, ladder)
		seed := []int{0, 4, 8} // 1, 16, 48 threads
		var sx [][]float64
		var sy []float64
		for _, i := range seed {
			sx = append(sx, X[i])
			sy = append(sy, y[i])
		}
		m, err := new(FitWorkspace).fitPointModel(sx, sy)
		if err != nil {
			t.Fatal(err)
		}
		for i := range X {
			pred := m.Predict(X[i])
			relErr := math.Abs(pred-y[i]) / y[i]
			if relErr > 0.35 {
				t.Errorf("%s @ %d threads: predicted %.3fs, observed %.3fs (%.0f%% off)",
					mode, ladder[i], pred, y[i], 100*relErr)
			}
		}
	}
}

// Degenerate seeds must degrade to the mean predictor, never fail.
func TestPointModelDegradesToMean(t *testing.T) {
	X := [][]float64{{0, 0, 0, 0.5}, {0, 0, 0, 0.5}}
	y := []float64{2, 8}
	m, err := new(FitWorkspace).fitPointModel(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.kept) != 0 {
		t.Errorf("constant features kept: %d", len(m.kept))
	}
	want := math.Exp((math.Log(2) + math.Log(8)) / 2) // geometric mean
	if got := m.Predict(X[0]); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean predictor = %v, want %v", got, want)
	}
}

// Three features with c = a + b on every seed row pass the collinearity
// guard, since no pair is near-collinear, yet leave the design rank
// deficient. The fit keeps all three and reproduces the seed times.
func TestPointModelKeepsDependentFeatures(t *testing.T) {
	a := []float64{0, 1, 2, 3, 4, 5}
	b := []float64{2, 0, 3, 1, 5, 2}
	X := make([][]float64, len(a))
	y := make([]float64, len(a))
	for i := range a {
		X[i] = []float64{a[i], b[i], a[i] + b[i]}
		y[i] = math.Exp(1 + 0.3*a[i] - 0.2*b[i])
	}
	c := make([]float64, len(a))
	for i := range a {
		c[i] = X[i][2]
	}
	for _, pair := range [][2][]float64{{a, b}, {a, c}, {b, c}} {
		if r := stats.Pearson(pair[0], pair[1]); math.Abs(r) >= maxAbsCorr {
			t.Fatalf("seed features correlate at %v; the collinearity guard, not the fit, would drop one", r)
		}
	}
	m, err := new(FitWorkspace).fitPointModel(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.kept) != 3 {
		t.Fatalf("kept features %v, want all three", m.kept)
	}
	for i := range X {
		if got := m.Predict(X[i]); math.Abs(got-y[i]) > 1e-9*y[i] {
			t.Errorf("seed row %d: predicted %v, want %v", i, got, y[i])
		}
	}
}

func TestPointModelRejectsBadInput(t *testing.T) {
	if _, err := new(FitWorkspace).fitPointModel(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
	if _, err := new(FitWorkspace).fitPointModel([][]float64{{1}}, []float64{0}); err == nil {
		t.Error("non-positive time should fail")
	}
	if _, err := new(FitWorkspace).fitPointModel([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

// Ensemble disagreement must be small where the model interpolates
// among dense seeds and larger where a left-out seed changes the fit.
func TestPointEnsembleDisagreement(t *testing.T) {
	ladder := []int{1, 2, 4, 8, 16, 24, 32, 40, 48}
	X, y := evalTimes(t, "Hypre", memsys.UncachedNVM, ladder)
	full, err := new(FitWorkspace).FitPointEnsemble(X, y)
	if err != nil {
		t.Fatal(err)
	}
	var sx [][]float64
	var sy []float64
	for _, i := range []int{0, 4, 8} {
		sx = append(sx, X[i])
		sy = append(sy, y[i])
	}
	sparse, err := new(FitWorkspace).FitPointEnsemble(sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	// At an unseen mid-ladder point the three-seed ensemble must be
	// less certain than the fully trained one.
	probe := X[6] // 32 threads
	if d0, d1 := full.Disagreement(probe), sparse.Disagreement(probe); d1 <= d0 {
		t.Errorf("sparse ensemble disagreement %.4f not above dense %.4f", d1, d0)
	}
	// At a training point of the sparse seed, prediction is anchored.
	if d := sparse.Disagreement(X[0]); d < 0 {
		t.Errorf("negative disagreement %v", d)
	}
	// Under-seeded ensembles must look uncertain, not confident: below
	// three observations the disagreement is the training spread (full
	// uncertainty for a single point), so the planner buys such groups
	// more evaluations instead of trusting a mean predictor.
	tiny, err := new(FitWorkspace).FitPointEnsemble(sx[:2], sy[:2])
	if err != nil {
		t.Fatal(err)
	}
	if p := tiny.Predict(probe); p <= 0 {
		t.Errorf("tiny ensemble predicted %v", p)
	}
	if d := tiny.Disagreement(probe); d <= 0 {
		t.Errorf("two-seed ensemble disagreement = %v, want positive", d)
	}
	single, err := new(FitWorkspace).FitPointEnsemble(sx[:1], sy[:1])
	if err != nil {
		t.Fatal(err)
	}
	if d := single.Disagreement(probe); d != 1 {
		t.Errorf("one-seed ensemble disagreement = %v, want 1", d)
	}
}

// Predictions sit in the planner's innermost loop (every ensemble member
// at every unevaluated point of a refit group), so neither a model's
// prediction nor an ensemble's disagreement may allocate, and the
// in-place dot product must round exactly like Regression.Predict over
// the materialized normalized row.
func TestPredictionsDoNotAllocate(t *testing.T) {
	X, y := evalTimes(t, "Hypre", memsys.UncachedNVM, []int{1, 2, 4, 8, 16, 24, 32, 40, 48})
	ens, err := new(FitWorkspace).FitPointEnsemble(X, y)
	if err != nil {
		t.Fatal(err)
	}
	m := ens.main
	if len(m.kept) == 0 {
		t.Fatal("fit degraded to the mean predictor; the dot product is not exercised")
	}
	for _, feat := range X {
		row := make([]float64, len(m.kept))
		for k, j := range m.kept {
			row[k] = m.norms[k].Apply(feat[j])
		}
		if got, want := m.Predict(feat), math.Exp(m.reg.Predict(row)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("in-place prediction %v, Regression.Predict gives %v", got, want)
		}
	}
	probe := X[6]
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink += m.Predict(probe) }); a != 0 {
		t.Errorf("PointModel.Predict allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink += ens.Disagreement(probe) }); a != 0 {
		t.Errorf("PointEnsemble.Disagreement allocates %v times per call", a)
	}
	if sink <= 0 {
		t.Errorf("predictions summed to %v", sink)
	}
}

// An ensemble refits its model once per left-out observation, so its
// working storage must come from the FitWorkspace and each fit may
// allocate only what the model keeps. A 20-observation ensemble is 21
// models; through a reused workspace it allocates exactly what they
// keep, and a fresh workspace adds one set of buffers, however many
// models it fits.
func TestEnsembleFitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const (
		// A PointModel, its kept columns, their normalizers, its
		// Regression and the Regression's coefficient slice.
		perModel = 5
		// The PointEnsemble and its variant list.
		perEnsemble = 2
		// The log times, the column matrix (2), the candidate ranking,
		// the design rows (2), the leave-one-out rows and times, and the
		// OLS design row, Aᵀy and AᵀA (2).
		workspace = 12
	)
	threads := make([]int, 20)
	for i := range threads {
		threads[i] = 6 + 2*i
	}
	X, y := evalTimes(t, "Hypre", memsys.UncachedNVM, threads)
	kept := float64((len(X)+1)*perModel + perEnsemble)

	var ens *PointEnsemble
	var err error
	fresh := func() {
		var w FitWorkspace
		ens, err = w.FitPointEnsemble(X, y)
	}
	if a := testing.AllocsPerRun(20, fresh); a > kept+workspace {
		t.Errorf("fresh FitWorkspace: %v allocations for %d observations, want at most %v", a, len(X), kept+workspace)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.main.kept) == 0 || len(ens.loo) != len(X) {
		t.Fatalf("ensemble has %d features and %d variants; the regression path is not exercised", len(ens.main.kept), len(ens.loo))
	}
	var w FitWorkspace
	if a := testing.AllocsPerRun(20, func() { ens, err = w.FitPointEnsemble(X, y) }); a > kept {
		t.Errorf("reused FitWorkspace: %v allocations for %d observations, want at most %v", a, len(X), kept)
	}
	if err != nil {
		t.Fatal(err)
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestEmptySlices(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
	if Pearson(nil, nil) != 0 {
		t.Error("Pearson on empty should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestNormalizer(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	n := FitNormalizer(xs)
	if !almost(n.Apply(3), 0, 1e-12) {
		t.Errorf("Apply(mean) = %v", n.Apply(3))
	}
	cn := FitNormalizer([]float64{7, 7})
	if cn.Apply(100) != 0 {
		t.Error("constant normalizer should map to 0")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if !almost(Pearson(xs, ys), 1, 1e-12) {
		t.Errorf("perfect correlation = %v", Pearson(xs, ys))
	}
	neg := []float64{8, 6, 4, 2}
	if !almost(Pearson(xs, neg), -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", Pearson(xs, neg))
	}
	if Pearson(xs, []float64{5, 5, 5, 5}) != 0 {
		t.Error("correlation with constant should be 0")
	}
}

func TestFitOLSExact(t *testing.T) {
	// y = 3 + 2*x0 - x1, no noise: expect exact recovery, R² = 1.
	X := [][]float64{{1, 0}, {0, 1}, {2, 1}, {3, 5}, {4, 2}, {1, 1}}
	y := make([]float64, len(X))
	for i, r := range X {
		y[i] = 3 + 2*r[0] - r[1]
	}
	reg, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(reg.Intercept, 3, 1e-9) || !almost(reg.Coef[0], 2, 1e-9) || !almost(reg.Coef[1], -1, 1e-9) {
		t.Errorf("coefficients = %v + %v", reg.Intercept, reg.Coef)
	}
	if !almost(reg.R2, 1, 1e-9) {
		t.Errorf("R² = %v, want 1", reg.R2)
	}
}

func TestFitOLSNoisy(t *testing.T) {
	r := xrand.New(77)
	const n = 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := r.Range(0, 10), r.Range(0, 10)
		X[i] = []float64{x0, x1}
		y[i] = 1 + 0.5*x0 + 2*x1 + r.Norm(0, 0.1)
	}
	reg, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(reg.Coef[0], 0.5, 0.02) || !almost(reg.Coef[1], 2, 0.02) {
		t.Errorf("noisy coefficients = %v", reg.Coef)
	}
	if reg.R2 < 0.99 {
		t.Errorf("R² = %v", reg.R2)
	}
}

// A duplicated column leaves AᵀA singular. The fit still returns finite
// coefficients that satisfy the normal equations and split the weight
// evenly between the copies: the minimum-norm solution.
func TestFitOLSSingular(t *testing.T) {
	X := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{1, 2, 3, 4}
	reg, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	beta := append([]float64{reg.Intercept}, reg.Coef...)
	for _, b := range beta {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("coefficients = %v, want finite", beta)
		}
	}
	// Normal equations: Aᵀ(y - Aβ) = 0 for A = [1 | X].
	for j := range beta {
		g := 0.0
		for i, row := range X {
			a := 1.0
			if j > 0 {
				a = row[j-1]
			}
			g += a * (y[i] - reg.Predict(row))
		}
		if !almost(g, 0, 1e-9) {
			t.Errorf("normal equation %d: Aᵀ(y - Aβ) = %v, want 0", j, g)
		}
	}
	if !almost(reg.Intercept, 0, 1e-9) || !almost(reg.Coef[0], 0.5, 1e-9) || !almost(reg.Coef[1], 0.5, 1e-9) {
		t.Errorf("coefficients = %v + %v, want the minimum-norm 0 + [0.5 0.5]", reg.Intercept, reg.Coef)
	}
}

func TestFitOLSShapeErrors(t *testing.T) {
	if _, err := FitOLS(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitOLS([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged fit should error")
	}
	if _, err := FitOLS([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined fit should error")
	}
}

func TestPredict(t *testing.T) {
	reg := &Regression{Intercept: 1, Coef: []float64{2, 3}}
	if got := reg.Predict([]float64{10, 100}); got != 321 {
		t.Errorf("Predict = %v, want 321", got)
	}
	// Short feature vectors only use available entries.
	if got := reg.Predict([]float64{10}); got != 21 {
		t.Errorf("Predict short = %v, want 21", got)
	}
}

func TestPruneCorrelated(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10} // perfectly correlated with a
	c := []float64{5, 1, 4, 2, 3}  // scrambled
	keep := PruneCorrelated([][]float64{a, b, c}, 0.95)
	if len(keep) != 2 || keep[0] != 0 || keep[1] != 2 {
		t.Errorf("PruneCorrelated = %v, want [0 2]", keep)
	}
	// Threshold above 1 keeps everything.
	if got := PruneCorrelated([][]float64{a, b, c}, 1.1); len(got) != 3 {
		t.Errorf("lenient threshold dropped features: %v", got)
	}
}

// Property: fitting recovers a random linear model exactly (no noise).
func TestFitOLSRecoveryProperty(t *testing.T) {
	r := xrand.New(101)
	f := func(seed uint32) bool {
		rr := xrand.New(uint64(seed))
		b0, b1, b2 := rr.Range(-5, 5), rr.Range(-5, 5), rr.Range(-5, 5)
		const n = 20
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x0, x1 := r.Range(-10, 10), r.Range(-10, 10)
			X[i] = []float64{x0, x1}
			y[i] = b0 + b1*x0 + b2*x1
		}
		reg, err := FitOLS(X, y)
		if err != nil {
			return false
		}
		return almost(reg.Intercept, b0, 1e-6) && almost(reg.Coef[0], b1, 1e-6) && almost(reg.Coef[1], b2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

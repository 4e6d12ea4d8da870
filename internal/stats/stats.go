// Package stats implements the statistical machinery used by the profiler
// and the Section V-A prediction model: descriptive statistics, z-score
// normalization, Pearson correlation, and multivariate linear regression
// by least squares with its R². The normal equations are solved by
// proximal-point steps on one Cholesky factorization of AᵀA + ρI, so a
// rank-deficient design fits like any other. The model prunes highly
// correlated hardware events by their pairwise correlation alone
// (PruneCorrelated), with no t-statistics or p-values.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divides by n).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Normalizer captures a feature's training-set mean and deviation so the
// same affine transform can be applied to unseen samples at predict time.
type Normalizer struct {
	Mean, Std float64
}

// FitNormalizer learns a Normalizer from xs.
func FitNormalizer(xs []float64) Normalizer {
	return Normalizer{Mean: Mean(xs), Std: StdDev(xs)}
}

// Apply transforms one value; constant features map to 0.
func (n Normalizer) Apply(x float64) float64 {
	if n.Std == 0 {
		return 0
	}
	return (x - n.Mean) / n.Std
}

// Pearson returns the Pearson correlation coefficient of xs and ys.
// It returns 0 when either series is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Regression holds a fitted ordinary-least-squares model
// y = intercept + sum_i coef[i] * x[i] and its R².
type Regression struct {
	Intercept float64
	Coef      []float64
	R2        float64
}

// FitOLS fits y ≈ X·beta + intercept by least squares. X is row-major:
// X[i] is the feature vector for observation i. When the design is rank
// deficient (a column repeated or a linear combination of others), the
// fit is the minimum-norm least-squares solution rather than an error.
// It is OLS.Fit on a fresh workspace.
func FitOLS(X [][]float64, y []float64) (*Regression, error) {
	var w OLS
	return w.Fit(X, y)
}

// The normal equations AᵀAβ = Aᵀy are solved by proximal-point steps
// (AᵀA + ρI)βₖ₊₁ = Aᵀy + ρβₖ from β₀ = 0, the regularized system of
// IP-PMM (Pougkakiotis and Gondzio, arXiv 1904.10369). AᵀA + ρI is
// positive definite for every design, so one Cholesky factorization
// serves every step. A direction in AᵀA's null space keeps β₀'s zero,
// which makes the limit the minimum-norm least-squares solution.
const (
	// proxRho is ρ as a fraction of AᵀA's mean diagonal. Rounding moves a
	// Cholesky pivot by a few ε of the diagonal, about 1e-15 of it, so
	// this ρ keeps every pivot of a singular AᵀA positive, while staying
	// far below any curvature the data resolves.
	proxRho = 1e-10
	// proxSteps is the number of proximal solves. A step scales β's error
	// along an eigenvector of AᵀA with eigenvalue λ by ρ/(λ+ρ), so three
	// steps leave (ρ/λ)³ ≤ 1e-15, round-off, for every λ down to 1e-5 of
	// the mean diagonal.
	proxSteps = 3
)

// OLS is the working storage of a least-squares fit: the design row
// with its intercept column, Aᵀy, and AᵀA, which the fit overwrites with
// the Cholesky factor of AᵀA + ρI. A fit through it allocates only the
// Regression it returns, so a caller fitting many small models in turn
// keeps one OLS. The zero value is ready to use; an OLS serves one
// goroutine at a time.
type OLS struct {
	row, aty []float64
	ata      Matrix
}

// Fit is FitOLS on the workspace's storage.
func (w *OLS) Fit(X [][]float64, y []float64) (*Regression, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: FitOLS needs matching non-empty X (%d) and y (%d)", n, len(y))
	}
	p := len(X[0])
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("stats: ragged design matrix at row %d", i)
		}
	}
	if n < p+1 {
		return nil, fmt.Errorf("stats: %d observations cannot fit %d coefficients + intercept", n, p)
	}

	// Augment with the intercept column: d = p+1 unknowns.
	d := p + 1
	// Normal equations: (A^T A) beta = A^T y where A = [1 | X]. Only the
	// lower triangle of the symmetric AᵀA is formed and factored.
	ata := w.ata.Shape(d, d)
	for _, r := range ata {
		clear(r)
	}
	w.aty = slices.Grow(w.aty[:0], d)[:d]
	aty := w.aty
	clear(aty)
	w.row = slices.Grow(w.row[:0], d)[:d]
	row := w.row
	row[0] = 1
	for r := 0; r < n; r++ {
		copy(row[1:], X[r])
		for i := 0; i < d; i++ {
			aty[i] += row[i] * y[r]
			for j := 0; j <= i; j++ {
				ata[i][j] += row[i] * row[j]
			}
		}
	}

	rho := 0.0
	for i := 0; i < d; i++ {
		rho += ata[i][i]
	}
	rho *= proxRho / float64(d)
	// AᵀA + ρI = LLᵀ, with L written over AᵀA's lower triangle.
	for j := 0; j < d; j++ {
		s := ata[j][j] + rho
		for k := 0; k < j; k++ {
			s -= ata[j][k] * ata[j][k]
		}
		ata[j][j] = math.Sqrt(s)
		for i := j + 1; i < d; i++ {
			s := ata[i][j]
			for k := 0; k < j; k++ {
				s -= ata[i][k] * ata[j][k]
			}
			ata[i][j] = s / ata[j][j]
		}
	}
	// Each step solves Lz = Aᵀy + ρβ, then Lᵀβ = z, both in place in β:
	// z's entry i reads only β's old entry i and z's entries before it.
	beta := make([]float64, d)
	for range proxSteps {
		for i := 0; i < d; i++ {
			s := aty[i] + rho*beta[i]
			for k := 0; k < i; k++ {
				s -= ata[i][k] * beta[k]
			}
			beta[i] = s / ata[i][i]
		}
		for i := d - 1; i >= 0; i-- {
			s := beta[i]
			for k := i + 1; k < d; k++ {
				s -= ata[k][i] * beta[k]
			}
			beta[i] = s / ata[i][i]
		}
	}

	reg := &Regression{Intercept: beta[0], Coef: beta[1:]}

	my := Mean(y)
	var ssRes, ssTot float64
	for r := 0; r < n; r++ {
		pred := reg.Intercept
		for j := 0; j < p; j++ {
			pred += reg.Coef[j] * X[r][j]
		}
		e := y[r] - pred
		ssRes += e * e
		dt := y[r] - my
		ssTot += dt * dt
	}
	if ssTot > 0 {
		reg.R2 = 1 - ssRes/ssTot
	} else {
		reg.R2 = 1
	}
	return reg, nil
}

// Predict evaluates the fitted model on one feature vector.
func (r *Regression) Predict(x []float64) float64 {
	v := r.Intercept
	for i, c := range r.Coef {
		if i < len(x) {
			v += c * x[i]
		}
	}
	return v
}

// Matrix is reusable storage for a row-major matrix whose rows share
// one backing array. The zero value holds nothing.
type Matrix struct {
	back []float64
	rows [][]float64
}

// Shape returns the storage as a rows x cols matrix, reallocating only
// when it is too small. Entries keep whatever they last held; a fresh
// Matrix's are zero.
func (m *Matrix) Shape(rows, cols int) [][]float64 {
	m.back = slices.Grow(m.back[:0], rows*cols)[:rows*cols]
	m.rows = slices.Grow(m.rows[:0], rows)[:rows]
	for i := range m.rows {
		m.rows[i] = m.back[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m.rows
}

// PruneCorrelated returns the indices of features to keep, dropping any
// feature whose absolute Pearson correlation with an earlier kept feature
// exceeds threshold. This mirrors the paper's statistical pruning of
// highly correlated hardware events before fitting Eq. 1.
func PruneCorrelated(features [][]float64, threshold float64) []int {
	var keep []int
	for j := range features {
		redundant := false
		for _, k := range keep {
			if math.Abs(Pearson(features[j], features[k])) > threshold {
				redundant = true
				break
			}
		}
		if !redundant {
			keep = append(keep, j)
		}
	}
	return keep
}

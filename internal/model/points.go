package model

// The configuration-space regression behind the adaptive sweep planner
// (internal/planner): where the Eq. 1 model of model.go predicts IPC
// from hardware-event samples of one configuration, this one predicts
// run *time* at unseen sweep points (concurrency levels, data sizes)
// from a handful of evaluated seed points — the operational form of the
// paper's "evaluate few, predict the rest" argument in Section V. The
// regressors are derived from the workload's declared concurrency
// behaviour (the same Amdahl + hyperthreading curve the runner uses),
// so the model only has to learn the memory-system response the solver
// adds on top; a leave-one-out ensemble quantifies how much the fit is
// extrapolating, which is what the planner spends its evaluation
// budget on.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
	"repro/internal/workload"
)

// NumConfigFeatures is the number of regressors AppendConfigFeatures
// appends per point.
const NumConfigFeatures = 4

// AppendConfigFeatures appends the regressors for one sweep point of a
// workload to dst: problem size, Amdahl dilation, hyperthread
// oversubscription and bandwidth-contention pressure. The response the
// planner pairs them with is log run time, so the size and dilation
// terms enter in log form too. Appending lets a caller lay many points'
// features out in one backing slice.
func AppendConfigFeatures(dst []float64, w *workload.Workload, threads int, scale float64) []float64 {
	if scale <= 0 {
		scale = 1
	}
	sp := w.Scaling.Speedup(threads)
	if sp <= 0 {
		sp = 1
	}
	base := w.Scaling.Speedup(w.BaseThreads)
	if base <= 0 {
		base = 1
	}
	ht := 0.0
	if threads > workload.PhysicalCores {
		ht = float64(threads-workload.PhysicalCores) / workload.PhysicalCores
	}
	return append(dst,
		math.Log(scale),
		math.Log(base/sp),
		ht,
		float64(threads)/workload.MaxThreads,
	)
}

// PointModel is a fitted log-time regression over configuration
// features. A rank-deficient seed still fits every kept feature (the
// least-squares solve returns its minimum-norm solution). Only an empty
// kept set, when the seed is a single point or every feature is constant
// over it, gives the mean predictor rather than failing; the planner's
// disagreement loop then sees a wide ensemble spread and buys more real
// evaluations.
type PointModel struct {
	kept    []int
	norms   []stats.Normalizer
	reg     *stats.Regression
	meanLog float64
}

// maxAbsCorr is the collinearity guard between kept regressors.
const maxAbsCorr = 0.999

// FitWorkspace is the working storage of point-model fits: the log-time
// vector, the column matrix, the candidate ranking, the design rows, the
// least-squares workspace and the leave-one-out inputs. A fit through it
// allocates only what the returned model keeps (its kept columns, their
// normalizers and its Regression), so an ensemble's main fit and its
// leave-one-out variants share one, and so may successive ensembles.
// The zero value is ready to use; a FitWorkspace serves one goroutine at
// a time.
type FitWorkspace struct {
	ols  stats.OLS
	logT []float64
	cols stats.Matrix
	cand []ranked
	rows stats.Matrix
	looX [][]float64
	looT []float64
}

// ranked is a candidate regressor: its column and its absolute
// correlation with the response.
type ranked struct {
	j    int
	corr float64
}

// fitPointModel fits log(timeSec) against the feature matrix X
// (row-major, as produced by AppendConfigFeatures) on the workspace's
// storage. Constant columns are dropped, the remaining ones are ranked
// by absolute correlation with the response and added greedily,
// skipping near-collinear columns, while fewer than n-1 are kept. A fit
// may therefore use n-1 features (n >= kept+1), leaving the regression
// no residual degree of freedom. The kept features are fit once, exactly
// dependent ones included.
func (w *FitWorkspace) fitPointModel(X [][]float64, timesSec []float64) (*PointModel, error) {
	n := len(X)
	if n == 0 || n != len(timesSec) {
		return nil, fmt.Errorf("model: point fit needs matching non-empty X (%d) and times (%d)", n, len(timesSec))
	}
	w.logT = slices.Grow(w.logT[:0], n)[:n]
	y := w.logT
	for i, t := range timesSec {
		if t <= 0 {
			return nil, fmt.Errorf("model: non-positive time %v at point %d", t, i)
		}
		y[i] = math.Log(t)
	}
	m := &PointModel{meanLog: stats.Mean(y)}

	p := len(X[0])
	cols := w.cols.Shape(p, n)
	for j, col := range cols {
		for i := range X {
			col[i] = X[i][j]
		}
	}
	// Rank non-constant columns by |corr| with the response; ties keep
	// the declaration order so the fit is deterministic.
	cand := slices.Grow(w.cand[:0], p)
	for j, col := range cols {
		if stats.StdDev(col) == 0 {
			continue
		}
		cand = append(cand, ranked{j, math.Abs(stats.Pearson(col, y))})
	}
	w.cand = cand
	slices.SortStableFunc(cand, func(a, b ranked) int { return cmp.Compare(b.corr, a.corr) })
	m.kept = make([]int, 0, p)
	for _, c := range cand {
		if len(m.kept) > n-2 {
			break
		}
		collinear := false
		for _, k := range m.kept {
			if math.Abs(stats.Pearson(cols[c.j], cols[k])) > maxAbsCorr {
				collinear = true
				break
			}
		}
		if !collinear {
			m.kept = append(m.kept, c.j)
		}
	}
	slices.Sort(m.kept)

	if len(m.kept) == 0 {
		return m, nil
	}
	m.norms = make([]stats.Normalizer, len(m.kept))
	for i, j := range m.kept {
		m.norms[i] = stats.FitNormalizer(cols[j])
	}
	rows := w.rows.Shape(n, len(m.kept))
	for i, row := range rows {
		for c, j := range m.kept {
			row[c] = m.norms[c].Apply(X[i][j])
		}
	}
	reg, err := w.ols.Fit(rows, y)
	if err != nil {
		return nil, fmt.Errorf("model: point fit: %w", err)
	}
	m.reg = reg
	return m, nil
}

// Predict estimates the run time in seconds for one feature vector. It
// forms Regression.Predict's dot product in place, term by term in the
// same order, so it allocates nothing and rounds identically.
func (m *PointModel) Predict(feat []float64) float64 {
	if m.reg == nil {
		return math.Exp(m.meanLog)
	}
	v := m.reg.Intercept
	for k, j := range m.kept {
		v += m.reg.Coef[k] * m.norms[k].Apply(feat[j])
	}
	return math.Exp(v)
}

// PointEnsemble is the main point model plus its leave-one-out
// variants. The spread of the variants' predictions at an unseen point
// measures how much the fit depends on any single seed — the planner's
// refinement signal.
type PointEnsemble struct {
	main *PointModel
	loo  []*PointModel
	// smallSpread is the fallback disagreement for ensembles of fewer
	// than three observations, where leave-one-out variants collapse:
	// the relative spread of the training times themselves, and full
	// uncertainty (1) for a single observation — an under-seeded group
	// must look uncertain, not confident, so the planner buys it more
	// evaluations.
	smallSpread float64
}

// FitPointEnsemble fits the main model on all observations and one
// variant per left-out observation, every fit on the workspace's
// storage (below three observations the variants would all collapse to
// near-identical means, so the ensemble instead reports the training
// spread as its disagreement).
func (w *FitWorkspace) FitPointEnsemble(X [][]float64, timesSec []float64) (*PointEnsemble, error) {
	main, err := w.fitPointModel(X, timesSec)
	if err != nil {
		return nil, err
	}
	e := &PointEnsemble{main: main}
	if len(X) < 3 {
		if len(X) < 2 {
			e.smallSpread = 1
		} else if mean := stats.Mean(timesSec); mean > 0 {
			e.smallSpread = (stats.Max(timesSec) - stats.Min(timesSec)) / mean
		}
		return e, nil
	}
	// A fit keeps no reference to its inputs, so one pair of
	// leave-one-out slices serves every variant.
	xs, ys := w.looX[:0], w.looT[:0]
	e.loo = make([]*PointModel, len(X))
	for drop := range X {
		xs = append(append(xs[:0], X[:drop]...), X[drop+1:]...)
		ys = append(append(ys[:0], timesSec[:drop]...), timesSec[drop+1:]...)
		lm, err := w.fitPointModel(xs, ys)
		if err != nil {
			return nil, err
		}
		e.loo[drop] = lm
	}
	w.looX, w.looT = xs, ys
	return e, nil
}

// Predict estimates the run time in seconds at one feature vector using
// the main model.
func (e *PointEnsemble) Predict(feat []float64) float64 { return e.main.Predict(feat) }

// Disagreement returns the relative ensemble spread at a feature
// vector: (max - min) / mean over the main and leave-one-out
// predictions. Zero means every variant agrees; the planner evaluates
// points whose disagreement exceeds its threshold for real. Ensembles
// too small for leave-one-out report their training-time spread
// instead (full uncertainty for a single observation).
func (e *PointEnsemble) Disagreement(feat []float64) float64 {
	if len(e.loo) == 0 {
		return e.smallSpread
	}
	lo := e.main.Predict(feat)
	hi, sum, n := lo, lo, 1.0
	for _, m := range e.loo {
		p := m.Predict(feat)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
		sum += p
		n++
	}
	mean := sum / n
	if mean <= 0 {
		return 0
	}
	return (hi - lo) / mean
}

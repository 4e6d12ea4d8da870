// Package model implements the paper's Section V-A performance
// prediction: a multivariate linear regression (Eq. 1) over the six
// critical hardware events of Table IV,
//
//	IPC_p = sum_i beta_i * (N_ei * IPC_s) + sigma,
//
// trained on profiling samples from a *single* configuration (the
// mid-point concurrency ht=36, or a small data size) and used to predict
// IPC at unseen concurrency levels and data sizes, so the configuration
// space does not have to be searched exhaustively.
package model

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Sample is one profiling observation: event counts over a measurement
// window plus the window's IPC (both the response and the per-event
// scaling factor IPC_s of Eq. 1).
type Sample struct {
	Events counters.Events
}

// windowSeconds is the PCM sampling interval: samples are event counts
// over fixed one-second windows, i.e. rates. Rate-based features are
// what lets a model trained at one problem size transfer to another —
// whole-run totals would scale with the input and break the regression.
const windowSeconds = 1.0

// CollectSamples synthesizes per-phase profiling windows from a workload
// result, mimicking the paper's PCM sampling of the main computation
// phases: each phase contributes windowsPerPhase fixed-duration samples
// with measurement noise.
func CollectSamples(res workload.Result, windowsPerPhase int, noise float64, rng *xrand.Rand) []Sample {
	if windowsPerPhase < 1 {
		windowsPerPhase = 1
	}
	var out []Sample
	total := res.Time.Seconds()
	if total <= 0 {
		return nil
	}
	for _, po := range res.Phases {
		sec := po.Time.Seconds()
		if sec <= 0 {
			continue
		}
		stall := 0.0
		if po.Epoch.Mult > 0 {
			stall = 1 - 1/po.Epoch.Mult
		}
		base := units.Clamp((po.Epoch.TotalDRAM()+po.Epoch.TotalNVM()).GBpsValue()/120, 0, 0.5)
		workRate := res.Workload.Work * po.Phase.Share / sec
		phaseStall := units.Clamp(stall+base, 0, 0.95)
		for k := 0; k < windowsPerPhase; k++ {
			// Windows within a phase are not identical: memory pressure
			// fluctuates with the phase's substructure. Spread the
			// windows deterministically around the phase mean (+-30%),
			// co-varying stall, traffic, and work rate the way the
			// machine does — windows with more memory pressure retire
			// fewer instructions. This variation is what the regression
			// learns from (a flat training cloud would fit noise).
			v := 1.0
			if windowsPerPhase > 1 {
				v = 0.7 + 0.6*float64(k)/float64(windowsPerPhase-1)
			}
			wStall := units.Clamp(phaseStall*v, 0, 0.98)
			speed := 1.0
			if phaseStall < 1 {
				speed = (1 - wStall) / (1 - phaseStall)
			}
			prof := counters.RunProfile{
				Work:         workRate * windowSeconds * speed,
				Time:         units.Duration(windowSeconds),
				Threads:      res.Threads,
				FreqGHz:      2.4,
				MemStallFrac: wStall,
				ReadBytes:    float64(po.Epoch.DRAMRead+po.Epoch.NVMRead) * windowSeconds * v,
				WriteBytes:   float64(po.Epoch.DRAMWrite+po.Epoch.NVMWrite) * windowSeconds * v,
			}
			out = append(out, Sample{Events: counters.Synthesize(prof, noise, rng)})
		}
	}
	return out
}

// Model is a fitted Eq. 1 regression.
type Model struct {
	// Kept holds the event indices that survived correlation pruning.
	Kept []counters.EventID
	// IPCs is Eq. 1's IPC_s: the sampled IPC of the training
	// configuration, used as a constant scale on every event count
	// ("the measurement for each hard event is first scaled by the
	// sampled IPC"). Scaling by the per-window IPC instead would fold
	// the response into the regressors and destroy transferability.
	IPCs float64
	// Norms are the per-feature training normalizers (z-scores).
	Norms []stats.Normalizer
	Reg   *stats.Regression
}

// features computes the Eq. 1 regressors for one sample: each event
// count scaled by the training-configuration IPC.
func features(s Sample, kept []counters.EventID, ipcs float64) []float64 {
	out := make([]float64, len(kept))
	for i, e := range kept {
		out[i] = s.Events.Counts[e] * ipcs
	}
	return out
}

// Train fits the prediction model on profiling samples from one
// configuration. Highly correlated events are pruned first, by their
// pairwise correlation alone (stats.PruneCorrelated); the fit computes
// no p-values.
func Train(samples []Sample) (*Model, error) {
	if len(samples) < int(counters.NumEvents)+2 {
		return nil, fmt.Errorf("model: need at least %d samples, got %d", counters.NumEvents+2, len(samples))
	}
	// IPC_s: the training configuration's sampled IPC.
	var ipcs float64
	for _, s := range samples {
		ipcs += s.Events.IPC
	}
	ipcs /= float64(len(samples))
	if ipcs <= 0 {
		return nil, fmt.Errorf("model: training samples have no IPC")
	}

	// Raw feature matrix per event.
	raw := make([][]float64, counters.NumEvents)
	for e := counters.EventID(0); e < counters.NumEvents; e++ {
		col := make([]float64, len(samples))
		for i, s := range samples {
			col[i] = s.Events.Counts[e] * ipcs
		}
		raw[e] = col
	}
	keepIdx := stats.PruneCorrelated(raw, 0.999)
	if len(keepIdx) == 0 {
		return nil, fmt.Errorf("model: no usable events after pruning")
	}
	kept := make([]counters.EventID, len(keepIdx))
	for i, k := range keepIdx {
		kept[i] = counters.EventID(k)
	}

	// Normalize features (z-scores over the training set).
	norms := make([]stats.Normalizer, len(kept))
	for i, k := range keepIdx {
		norms[i] = stats.FitNormalizer(raw[k])
	}
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		f := features(s, kept, ipcs)
		row := make([]float64, len(f))
		for j := range f {
			row[j] = norms[j].Apply(f[j])
		}
		X[i] = row
		y[i] = s.Events.IPC
	}
	reg, err := stats.FitOLS(X, y)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return &Model{Kept: kept, IPCs: ipcs, Norms: norms, Reg: reg}, nil
}

// PredictIPC estimates the IPC for a profiling sample from an unseen
// configuration.
func (m *Model) PredictIPC(s Sample) float64 {
	f := features(s, m.Kept, m.IPCs)
	row := make([]float64, len(f))
	for j := range f {
		row[j] = m.Norms[j].Apply(f[j])
	}
	return m.Reg.Predict(row)
}

// Accuracy returns the paper's 1 - E_est metric for a prediction against
// the observed IPC.
func Accuracy(predicted, observed float64) float64 {
	if observed == 0 {
		return 0
	}
	err := predicted - observed
	if err < 0 {
		err = -err
	}
	a := 1 - err/observed
	if a < 0 {
		a = 0
	}
	return a
}

// EvaluatePoint runs the full pipeline for one target configuration:
// synthesize its profiling samples, predict per-sample IPC, and compare
// with the observed run-level IPC.
func (m *Model) EvaluatePoint(res workload.Result, noise float64, rng *xrand.Rand) (predicted, observed, accuracy float64) {
	samples := CollectSamples(res, 4, noise, rng)
	if len(samples) == 0 {
		return 0, 0, 0
	}
	// Observed run-level IPC from the aggregate profile.
	obsEv := counters.Synthesize(res.Profile(2.4), 0, nil)
	observed = obsEv.IPC

	// Predicted run IPC: time-weighted mean of per-window predictions —
	// the windows are equal-duration within each phase, so a plain mean
	// over samples weighted by phase time is equivalent.
	total := res.Time.Seconds()
	var acc float64
	idx := 0
	for _, po := range res.Phases {
		w := po.Time.Seconds() / total / 4
		for k := 0; k < 4; k++ {
			acc += w * m.PredictIPC(samples[idx])
			idx++
		}
	}
	predicted = acc
	return predicted, observed, Accuracy(predicted, observed)
}

package planner

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/xrand"
)

// benchShapedSpec is a cold 1,728-point spec shaped like the end-to-end
// benchmark's plan-resolve workload: all eight dwarfs x three modes x
// six thread counts x twelve seeded scales in [0.5, 8), under the
// default plan.
func benchShapedSpec(seed uint64) scenario.Spec {
	r := xrand.New(seed)
	scales := make([]float64, 12)
	for i := range scales {
		scales[i] = r.Range(0.5, 8)
	}
	return scenario.Spec{
		Name:    "pinned",
		Apps:    dwarfs.Names(),
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM, memsys.UncachedNVM},
		Threads: []int{8, 16, 24, 32, 40, 48},
		Scales:  scales,
		Plan:    &scenario.Plan{},
	}
}

// planHash digests a plan at full precision: per point the evaluated
// flag, the round and the float64 bits of Time, Predicted and
// Disagreement, then the rounds, the frontier and the evaluation count.
func planHash(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range res.Points {
		p := &res.Points[i]
		ev := uint64(0)
		if p.Evaluated {
			ev = 1
		}
		put(ev)
		put(uint64(p.Round))
		put(math.Float64bits(float64(p.Time)))
		put(math.Float64bits(float64(p.Predicted)))
		put(math.Float64bits(p.Disagreement))
	}
	for _, r := range res.Rounds {
		h.Write([]byte(r.Phase))
		put(uint64(r.N))
		put(uint64(r.Evaluated))
		put(uint64(r.Predicted))
	}
	for _, idx := range res.Frontier {
		put(uint64(idx))
	}
	put(uint64(res.Evaluations))
	return hex.EncodeToString(h.Sum(nil))
}

// Plan output is pinned at full precision: the golden corpus prints
// times to three decimals, so a change in the last bit of a prediction
// would pass it unseen. The hashes were recorded on linux/amd64 when the
// least-squares fit became proximal steps on a Cholesky factor, which
// moved the last bits of the predictions; arm64 may fuse multiply-adds,
// which moves them again.
func TestPlanOutputPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes pinned on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	want := map[uint64]string{
		1: "001d8ccd0149dd657fa393ac09f0f31400010ca1246537c72a4e5834a8181426",
		2: "502bb8b6e32ba05754b8a93361496a0d46dcedd79f5fd091d2e76a304e9bad81",
		3: "cc22d0b15eb01613179ebc119a2a146eb7229aa4f6b34aca7a2d42dceb7d1133",
	}
	for _, seed := range []uint64{1, 2, 3} {
		res, err := RunSpec(context.Background(), newEngine(), benchShapedSpec(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != 1728 {
			t.Fatalf("seed %d: planned %d points, want 1728", seed, len(res.Points))
		}
		if got := planHash(res); got != want[seed] {
			t.Errorf("seed %d: plan hash %s, want %s", seed, got, want[seed])
		}
	}
}

// The planner refits a group only when its evaluated set has grown, so
// a plan must end exactly where a fresh fit of every group over its
// final evaluated set puts it: each unevaluated point's Predicted and
// Disagreement bit for bit.
func TestIncrementalFitMatchesFreshFit(t *testing.T) {
	var specs []scenario.Spec
	for _, name := range []string{"full-cartesian", "prediction-concurrency"} {
		sp, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	specs = append(specs, benchShapedSpec(4))
	for _, sp := range specs {
		res, err := RunSpec(context.Background(), newEngine(), sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		groups := map[string][]int{}
		for i := range res.Points {
			k := res.Points[i].group()
			groups[k] = append(groups[k], i)
		}
		checked := 0
		for k, members := range groups {
			var X [][]float64
			var y []float64
			var rest []int
			for _, i := range members {
				p := &res.Points[i]
				if p.Evaluated {
					X = append(X, model.AppendConfigFeatures(nil, p.Job.Workload, p.Meta.Threads, p.Meta.Scale))
					y = append(y, p.Result.Time.Seconds())
				} else {
					rest = append(rest, i)
				}
			}
			if len(X) == 0 || len(rest) == 0 {
				continue
			}
			ens, err := new(model.FitWorkspace).FitPointEnsemble(X, y)
			if err != nil {
				t.Fatalf("%s: fresh fit of group %s: %v", sp.Name, k, err)
			}
			for _, i := range rest {
				p := &res.Points[i]
				f := model.AppendConfigFeatures(nil, p.Job.Workload, p.Meta.Threads, p.Meta.Scale)
				if pred := units.Duration(ens.Predict(f)); math.Float64bits(float64(pred)) != math.Float64bits(float64(p.Predicted)) {
					t.Errorf("%s: point %d (%s) predicted %v, fresh fit gives %v", sp.Name, i, k, p.Predicted, pred)
				}
				if d := ens.Disagreement(f); math.Float64bits(d) != math.Float64bits(p.Disagreement) {
					t.Errorf("%s: point %d (%s) disagreement %v, fresh fit gives %v", sp.Name, i, k, p.Disagreement, d)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s: no predicted point to check", sp.Name)
		}
	}
}

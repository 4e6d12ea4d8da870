// Package benchkit gives the repo a machine-readable performance
// baseline: it measures a tracked set of hot-path benchmarks with
// testing.Benchmark, serializes the results as JSON (the committed
// BENCH_0.json), and gates later runs against that baseline.
//
// Two metrics are gated differently because they travel differently
// across machines:
//
//   - allocs/op is deterministic and machine-independent, so any
//     regression beyond a record's declared slack fails the gate.
//
//   - time/op depends on the host, so raw nanoseconds from another
//     machine are not comparable. Every suite therefore records the
//     ns/op of a fixed pure-CPU calibration spin measured in the same
//     run, and the gate compares calibration-normalized ratios:
//     (cur.ns/cur.spin) / (base.ns/base.spin). A ratio above 1+tol
//     (tol = 0.10 in CI) fails.
package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Record is one benchmark measurement.
type Record struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op"`
	// AllocsPerOp is gated strictly: a current run may not exceed the
	// baseline by more than AllocSlack.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// AllocSlack is the tolerated absolute allocs/op increase before the
	// gate fails — zero for deterministic single-goroutine benches, a few
	// for benches whose alloc count depends on scheduling (parallel
	// singleflight duplicates) or map growth points.
	AllocSlack int64 `json:"alloc_slack,omitempty"`
	// TimeSlack widens the gate's time tolerance for this record
	// (effective tolerance = tol + TimeSlack). Nanosecond-scale
	// microbenches are memory-latency- rather than ALU-bound, so the
	// calibration spin normalizes them poorly across microarchitectures;
	// they declare extra slack rather than flake.
	TimeSlack float64 `json:"time_slack,omitempty"`
	// Extras carries the benchmark's b.ReportMetric values (per-record
	// median across runs, like ns/op). Only latency-shaped extras —
	// keys ending in "_ns" — are gated, compared calibration-normalized
	// like time/op under the same TimeSlack; anything else
	// (points_per_sec, bytes_per_point_*) is informational, since
	// higher-is-worse does not hold for it.
	Extras map[string]float64 `json:"extras,omitempty"`
}

// Suite is one run of the tracked benchmarks on one machine.
type Suite struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CalibrationNs is the ns/op of the fixed calibration spin measured
	// in the same run, the time/op normalizer. Zero means the suite
	// predates calibration and its times are informational only.
	CalibrationNs float64  `json:"calibration_ns_per_op"`
	Records       []Record `json:"records"`
}

// Baseline is the committed BENCH_0.json document: the gating suite plus
// an optional historical "before" suite documenting the numbers the
// perf work started from.
type Baseline struct {
	Note   string `json:"note,omitempty"`
	Before *Suite `json:"before,omitempty"`
	Suite  Suite  `json:"baseline"`
}

// Bench is one tracked benchmark.
type Bench struct {
	Name       string
	AllocSlack int64
	TimeSlack  float64
	F          func(*testing.B)
}

var calSink uint64

// calibrationSpin is the fixed pure-CPU workload whose ns/op normalizes
// time comparisons across machines: 2^20 xorshift64 rounds per op,
// allocation-free and input-independent.
func calibrationSpin(b *testing.B) {
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

// MeasureCount measures every bench (and the calibration spin) count
// times and keeps the per-record median ns/op and the maximum
// allocs/op, so one noisy-neighbour sample on a shared runner cannot
// fake a time regression and one lucky scheduling cannot hide an
// allocation one. Counts below 1 become 1.
func MeasureCount(benches []Bench, count int) Suite {
	if count < 1 {
		count = 1
	}
	s := Suite{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	cals := make([]float64, count)
	for i := range cals {
		cal := testing.Benchmark(calibrationSpin)
		cals[i] = float64(cal.T.Nanoseconds()) / float64(cal.N)
	}
	s.CalibrationNs = median(cals)
	s.Records = make([]Record, 0, len(benches))
	ns := make([]float64, count)
	for _, be := range benches {
		rec := Record{Name: be.Name, AllocSlack: be.AllocSlack, TimeSlack: be.TimeSlack}
		extras := map[string][]float64{}
		for i := range ns {
			r := testing.Benchmark(be.F)
			ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
			rec.Iterations = r.N
			rec.BytesPerOp = max(rec.BytesPerOp, r.AllocedBytesPerOp())
			rec.AllocsPerOp = max(rec.AllocsPerOp, r.AllocsPerOp())
			for k, v := range r.Extra {
				extras[k] = append(extras[k], v)
			}
		}
		rec.NsPerOp = median(ns)
		if len(extras) > 0 {
			rec.Extras = make(map[string]float64, len(extras))
			for k, vs := range extras {
				rec.Extras[k] = median(vs)
			}
		}
		s.Records = append(s.Records, rec)
	}
	return s
}

// median returns the middle value (mean of the middle two for even
// lengths) without reordering its argument.
func median(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Load reads a Baseline document. A bare Suite (no "baseline" wrapper)
// is accepted too, for hand-rolled files.
func Load(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, fmt.Errorf("benchkit: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	if len(b.Suite.Records) == 0 {
		var s Suite
		if err := json.Unmarshal(data, &s); err == nil && len(s.Records) > 0 {
			b.Suite = s
		}
	}
	if len(b.Suite.Records) == 0 {
		return Baseline{}, fmt.Errorf("benchkit: %s: no baseline records", path)
	}
	return b, nil
}

// Write serializes a Baseline document.
func (b Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Regression is one gate failure.
type Regression struct {
	Name string
	Kind string // "time/op", "allocs/op", "extra:<metric>", "missing"
	Base float64
	Cur  float64
	// Ratio is cur/base (calibration-normalized for time/op).
	Ratio float64
}

func (r Regression) String() string {
	switch r.Kind {
	case "missing":
		return fmt.Sprintf("%s: missing from current run", r.Name)
	case "allocs/op":
		return fmt.Sprintf("%s: allocs/op %v -> %v", r.Name, int64(r.Base), int64(r.Cur))
	default:
		// time/op and extra:<metric> are both calibration-normalized.
		return fmt.Sprintf("%s: normalized %s ratio %.3f (%.0f -> %.0f)", r.Name, r.Kind, r.Ratio, r.Base, r.Cur)
	}
}

// Gate compares a current suite against the baseline and returns every
// regression: any allocs/op increase beyond a record's slack, and any
// calibration-normalized time/op or "_ns"-extra ratio above 1+timeTol
// (skipped when either suite lacks calibration).
func Gate(base, cur Suite, timeTol float64) []Regression {
	current := make(map[string]Record, len(cur.Records))
	for _, r := range cur.Records {
		current[r.Name] = r
	}
	var regs []Regression
	for _, b := range base.Records {
		c, ok := current[b.Name]
		if !ok {
			regs = append(regs, Regression{Name: b.Name, Kind: "missing"})
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp+b.AllocSlack {
			regs = append(regs, Regression{
				Name: b.Name, Kind: "allocs/op",
				Base: float64(b.AllocsPerOp), Cur: float64(c.AllocsPerOp),
				Ratio: float64(c.AllocsPerOp) / float64(max(b.AllocsPerOp, 1)),
			})
		}
		if base.CalibrationNs > 0 && cur.CalibrationNs > 0 && b.NsPerOp > 0 {
			ratio := (c.NsPerOp / cur.CalibrationNs) / (b.NsPerOp / base.CalibrationNs)
			if ratio > 1+timeTol+b.TimeSlack {
				regs = append(regs, Regression{
					Name: b.Name, Kind: "time/op",
					Base: b.NsPerOp, Cur: c.NsPerOp, Ratio: ratio,
				})
			}
		}
		// Latency-shaped extras ("_ns" keys: percentiles, per-point
		// times) travel like time/op: host-dependent nanoseconds, gated
		// calibration-normalized under the record's TimeSlack. Other
		// extras (throughputs, byte counts) are informational — the gate
		// would read an improved points/sec as a regression.
		for k, bv := range b.Extras {
			if !strings.HasSuffix(k, "_ns") {
				continue
			}
			cv, ok := c.Extras[k]
			if !ok {
				regs = append(regs, Regression{Name: b.Name + "/" + k, Kind: "missing"})
				continue
			}
			if base.CalibrationNs > 0 && cur.CalibrationNs > 0 && bv > 0 {
				ratio := (cv / cur.CalibrationNs) / (bv / base.CalibrationNs)
				if ratio > 1+timeTol+b.TimeSlack {
					regs = append(regs, Regression{
						Name: b.Name, Kind: "extra:" + k,
						Base: bv, Cur: cv, Ratio: ratio,
					})
				}
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Kind < regs[j].Kind
	})
	return regs
}

// Diff renders a fixed-width comparison of a current suite against the
// baseline, with calibration-normalized time ratios.
func Diff(base, cur Suite) string {
	current := make(map[string]Record, len(cur.Records))
	for _, r := range cur.Records {
		current[r.Name] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %14s %14s %7s %10s %10s\n",
		"benchmark", "base ns/op", "cur ns/op", "ratio", "base al/op", "cur al/op")
	for _, r := range base.Records {
		c, ok := current[r.Name]
		if !ok {
			fmt.Fprintf(&b, "%-34s %14.0f %14s\n", r.Name, r.NsPerOp, "(missing)")
			continue
		}
		ratio := 0.0
		if base.CalibrationNs > 0 && cur.CalibrationNs > 0 && r.NsPerOp > 0 {
			ratio = (c.NsPerOp / cur.CalibrationNs) / (r.NsPerOp / base.CalibrationNs)
		}
		fmt.Fprintf(&b, "%-34s %14.0f %14.0f %6.2fx %10d %10d\n",
			r.Name, r.NsPerOp, c.NsPerOp, ratio, r.AllocsPerOp, c.AllocsPerOp)
	}
	return b.String()
}

// GoBenchText renders a suite in `go test -bench` output format, so
// benchstat can compare the committed baseline against a fresh
// bench.txt (strip the -P GOMAXPROCS suffixes from the fresh run first;
// see the CI workflow).
func (s Suite) GoBenchText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goos: %s\ngoarch: %s\n", s.GOOS, s.GOARCH)
	for _, r := range s.Records {
		fmt.Fprintf(&b, "%s \t%8d\t%12.1f ns/op\t%8d B/op\t%8d allocs/op\n",
			r.Name, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return b.String()
}

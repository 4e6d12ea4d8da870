// Package benchkit gates the repo's tracked hot-path benchmarks against
// a committed baseline. Both sides are `go test -bench` output, the
// text benchstat reads: the baseline is BENCH_0.txt, and the current
// run is one `go test -bench` of the tracked set plus the calibration
// spin, so that one run is the only measurement. Re-pinning the
// baseline is saving such a run as BENCH_0.txt.
//
// Two metrics are gated differently because they travel differently
// across machines:
//
//   - allocs/op is deterministic and machine-independent, so any
//     regression beyond a bench's declared slack fails the gate.
//
//   - time/op depends on the host, so raw nanoseconds from another
//     machine are not comparable. Every run therefore carries the ns/op
//     of a fixed pure-CPU calibration spin (BenchmarkCalibrationSpin)
//     measured alongside the tracked benches, and the gate compares
//     calibration-normalized ratios: (cur.ns/cur.spin) /
//     (base.ns/base.spin). A ratio above 1+Tolerance+TimeSlack fails.
package benchkit

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// CalibrationName is the benchmark whose ns/op normalizes time/op
// across hosts. Its body is the fixed spin in the repo-root
// bench_test.go; the baseline and the current run must both carry it.
const CalibrationName = "BenchmarkCalibrationSpin"

// Tolerance is the calibration-normalized time/op regression any
// tracked bench may show before the gate fails; a bench's TimeSlack
// widens it.
const Tolerance = 0.10

// Bench is one tracked benchmark and the regression it tolerates.
type Bench struct {
	// Name is the `go test -bench` name without the -GOMAXPROCS suffix.
	Name string
	// AllocSlack is the tolerated absolute allocs/op increase before the
	// gate fails — zero for deterministic single-goroutine benches, a few
	// for benches whose alloc count depends on scheduling (parallel
	// singleflight duplicates) or map growth points.
	AllocSlack int64
	// TimeSlack widens the gate's time tolerance for this bench
	// (effective tolerance = Tolerance + TimeSlack). Nanosecond-scale
	// microbenches are memory-latency- rather than ALU-bound, so the
	// calibration spin normalizes them poorly across microarchitectures;
	// they declare extra slack rather than flake.
	TimeSlack float64
}

// Record is one benchmark's metrics keyed by unit: "ns/op", "B/op",
// "allocs/op" and each b.ReportMetric unit.
type Record map[string]float64

// Run is one parsed `go test -bench` output, keyed by benchmark name
// without its -GOMAXPROCS suffix.
type Run map[string]Record

// Parse reads `go test -bench` output. The repeats of one benchmark
// (-count) fold into one Record: B/op and allocs/op keep their maximum,
// so one lucky scheduling cannot hide an allocation, and every other
// metric keeps its median, so one noisy-neighbour sample on a shared
// runner cannot fake a time regression. Lines other than benchmark
// results (headers, PASS, ok) are skipped.
func Parse(r io.Reader) (Run, error) {
	samples := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		// go test prints a bare name line before a benchmark's log output.
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil || len(f)%2 != 0 {
			return nil, fmt.Errorf("benchkit: line %d: malformed benchmark result %q", line, sc.Text())
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		metrics := samples[name]
		if metrics == nil {
			metrics = map[string][]float64{}
			samples[name] = metrics
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchkit: line %d: %s: %w", line, f[i+1], err)
			}
			metrics[f[i+1]] = append(metrics[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	run := make(Run, len(samples))
	for name, metrics := range samples {
		rec := make(Record, len(metrics))
		for unit, vs := range metrics {
			if unit == "B/op" || unit == "allocs/op" {
				rec[unit] = slices.Max(vs)
			} else {
				rec[unit] = median(vs)
			}
		}
		run[name] = rec
	}
	return run, nil
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

// Gate compares the current run against the baseline for every tracked
// bench and returns each regression: an allocs/op increase beyond the
// bench's AllocSlack, a calibration-normalized time/op or "_ns"-extra
// ratio above 1+Tolerance+TimeSlack, and a bench or gated metric the
// current run lacks. A run without the calibration spin, or a baseline
// without a tracked bench, cannot be judged and is an error.
func Gate(benches []Bench, base, cur Run) ([]Regression, error) {
	baseCal, curCal := base[CalibrationName]["ns/op"], cur[CalibrationName]["ns/op"]
	if baseCal <= 0 {
		return nil, fmt.Errorf("benchkit: baseline has no %s result", CalibrationName)
	}
	if curCal <= 0 {
		return nil, fmt.Errorf("benchkit: current run has no %s result", CalibrationName)
	}
	var regs []Regression
	for _, be := range benches {
		b, ok := base[be.Name]
		if !ok {
			return nil, fmt.Errorf("benchkit: baseline has no %s result", be.Name)
		}
		c, ok := cur[be.Name]
		if !ok {
			regs = append(regs, Regression{Name: be.Name, Kind: "missing"})
			continue
		}
		for unit, bv := range b {
			cv, ok := c[unit]
			switch {
			case unit != "allocs/op" && unit != "ns/op" && !strings.HasSuffix(unit, "_ns"):
				// B/op, throughputs and byte counts are informational:
				// the gate would read an improved points/sec as a
				// regression.
			case !ok:
				regs = append(regs, Regression{Name: be.Name + "/" + unit, Kind: "missing"})
			case unit == "allocs/op":
				if cv > bv+float64(be.AllocSlack) {
					regs = append(regs, Regression{Name: be.Name, Kind: unit, Base: bv, Cur: cv, Ratio: cv / max(bv, 1)})
				}
			default:
				// Latency-shaped extras ("_ns" keys: percentiles,
				// per-point times) travel like time/op: host-dependent
				// nanoseconds, gated calibration-normalized under the
				// bench's TimeSlack.
				ratio := (cv / curCal) / (bv / baseCal)
				if bv > 0 && ratio > 1+Tolerance+be.TimeSlack {
					kind := "extra:" + unit
					if unit == "ns/op" {
						kind = "time/op"
					}
					regs = append(regs, Regression{Name: be.Name, Kind: kind, Base: bv, Cur: cv, Ratio: ratio})
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
	return regs, nil
}

// Diff renders a fixed-width comparison of the tracked benches'
// ns/op, calibration-normalized time ratio and allocs/op. It expects
// runs Gate accepted.
func Diff(benches []Bench, base, cur Run) string {
	baseCal, curCal := base[CalibrationName]["ns/op"], cur[CalibrationName]["ns/op"]
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %14s %14s %7s %10s %10s\n",
		"benchmark", "base ns/op", "cur ns/op", "ratio", "base al/op", "cur al/op")
	for _, be := range benches {
		r, c := base[be.Name], cur[be.Name]
		if c == nil {
			fmt.Fprintf(&b, "%-34s %14.0f %14s\n", be.Name, r["ns/op"], "(missing)")
			continue
		}
		ratio := (c["ns/op"] / curCal) / (r["ns/op"] / baseCal)
		fmt.Fprintf(&b, "%-34s %14.0f %14.0f %6.2fx %10.0f %10.0f\n",
			be.Name, r["ns/op"], c["ns/op"], ratio, r["allocs/op"], c["allocs/op"])
	}
	return b.String()
}

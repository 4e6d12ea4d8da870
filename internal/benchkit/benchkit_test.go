package benchkit

import (
	"strings"
	"testing"
)

var gated = []Bench{{Name: "BenchmarkA"}, {Name: "BenchmarkB", AllocSlack: 2}}

func baseRun() Run {
	return Run{
		CalibrationName: {"ns/op": 1000},
		"BenchmarkA":    {"ns/op": 500, "B/op": 64, "allocs/op": 3},
		"BenchmarkB":    {"ns/op": 2000, "B/op": 0, "allocs/op": 0},
	}
}

func gate(t *testing.T, benches []Bench, base, cur Run) []Regression {
	t.Helper()
	regs, err := Gate(benches, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	return regs
}

// Parse folds -count repeats the way the gate reads them: median
// ns/op and extras, max B/op and allocs/op, -GOMAXPROCS suffix gone,
// and everything but result lines skipped.
func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkCalibrationSpin-2   	     484	   2494103 ns/op
BenchmarkLoad-2              	     100	       400.5 ns/op	   2000 p99_ns	      64 B/op	       3 allocs/op
BenchmarkLoad-2              	     100	       500 ns/op	   1000 p99_ns	      80 B/op	       2 allocs/op
BenchmarkLoad-2              	     100	       900 ns/op	   3000 p99_ns	      64 B/op	       4 allocs/op
BenchmarkLogs
BenchmarkLogs-2              	      10	       700 ns/op
--- BENCH: BenchmarkLogs-2
    bench_test.go:12: hello
BenchmarkNoSuffix            	      10	        7.25 ns/op
PASS
ok  	repro	12.345s
`
	run, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := Run{
		CalibrationName:     {"ns/op": 2494103},
		"BenchmarkLoad":     {"ns/op": 500, "p99_ns": 2000, "B/op": 80, "allocs/op": 4},
		"BenchmarkLogs":     {"ns/op": 700},
		"BenchmarkNoSuffix": {"ns/op": 7.25},
	}
	if len(run) != len(want) {
		t.Fatalf("parsed %v, want %v", run, want)
	}
	for name, rec := range want {
		for unit, v := range rec {
			if got := run[name][unit]; got != v {
				t.Errorf("%s %s = %v, want %v", name, unit, got, v)
			}
		}
		if len(run[name]) != len(rec) {
			t.Errorf("%s = %v, want %v", name, run[name], rec)
		}
	}

	for _, bad := range []string{
		"BenchmarkA-2 many 500 ns/op",
		"BenchmarkA-2 10 500 ns/op 3",
		"BenchmarkA-2 10 fast ns/op",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Parse(%q) error = %v, want a line 1 error", bad, err)
		}
	}
}

func TestGateClean(t *testing.T) {
	if regs := gate(t, gated, baseRun(), baseRun()); len(regs) != 0 {
		t.Fatalf("identical runs should pass, got %v", regs)
	}
}

func TestGateAllocRegression(t *testing.T) {
	cur := baseRun()
	cur["BenchmarkA"]["allocs/op"] = 4 // slack 0: fails
	cur["BenchmarkB"]["allocs/op"] = 2 // slack 2: tolerated
	cur["BenchmarkB"]["B/op"] = 1 << 20
	regs := gate(t, gated, baseRun(), cur)
	if len(regs) != 1 || regs[0].Name != "BenchmarkA" || regs[0].Kind != "allocs/op" {
		t.Fatalf("want one allocs/op regression on BenchmarkA, got %v", regs)
	}
	cur["BenchmarkB"]["allocs/op"] = 3 // now past its slack
	if regs := gate(t, gated, baseRun(), cur); len(regs) != 2 {
		t.Fatalf("want both benches flagged, got %v", regs)
	}
}

// Time gating is calibration-normalized: a uniformly slower machine
// (every number doubled, including the spin) must pass, a genuinely
// slower benchmark must fail.
func TestGateTimeNormalization(t *testing.T) {
	slowMachine := baseRun()
	for _, rec := range slowMachine {
		rec["ns/op"] *= 2
	}
	if regs := gate(t, gated, baseRun(), slowMachine); len(regs) != 0 {
		t.Fatalf("uniformly slower machine should pass the normalized gate, got %v", regs)
	}

	slowBench := baseRun()
	slowBench["BenchmarkA"]["ns/op"] *= 1.25
	regs := gate(t, gated, baseRun(), slowBench)
	if len(regs) != 1 || regs[0].Kind != "time/op" {
		t.Fatalf("want one time/op regression, got %v", regs)
	}
	if regs[0].Ratio < 1.2 || regs[0].Ratio > 1.3 {
		t.Fatalf("ratio = %v, want ~1.25", regs[0].Ratio)
	}
}

// A bench's TimeSlack widens its own time tolerance without touching
// the others — the escape hatch for latency-bound microbenches the
// calibration spin normalizes poorly.
func TestGateTimeSlackPerRecord(t *testing.T) {
	benches := []Bench{{Name: "BenchmarkA", TimeSlack: 0.50}, {Name: "BenchmarkB"}}
	cur := baseRun()
	cur["BenchmarkA"]["ns/op"] *= 1.4 // within 10%+50%
	cur["BenchmarkB"]["ns/op"] *= 1.4 // past plain 10%
	regs := gate(t, benches, baseRun(), cur)
	if len(regs) != 1 || regs[0].Name != "BenchmarkB" || regs[0].Kind != "time/op" {
		t.Fatalf("want only BenchmarkB flagged, got %v", regs)
	}
}

func TestGateMissingBench(t *testing.T) {
	cur := baseRun()
	delete(cur, "BenchmarkB")
	regs := gate(t, gated, baseRun(), cur)
	if len(regs) != 1 || regs[0].Kind != "missing" || regs[0].Name != "BenchmarkB" {
		t.Fatalf("want BenchmarkB flagged missing, got %v", regs)
	}
	if !strings.Contains(regs[0].String(), "BenchmarkB: missing from current run") {
		t.Errorf("regression text %q does not name the bench", regs[0])
	}
}

// A run or baseline the gate cannot judge is an error that names what
// is missing, never a silent pass: without the calibration spin there
// is no time gate, and a tracked bench the baseline lacks has no pin.
func TestGateRequiresCalibrationAndPins(t *testing.T) {
	noCal := baseRun()
	delete(noCal, CalibrationName)
	for name, tc := range map[string]struct{ base, cur Run }{
		"baseline":    {noCal, baseRun()},
		"current run": {baseRun(), noCal},
	} {
		_, err := Gate(gated, tc.base, tc.cur)
		if err == nil || !strings.Contains(err.Error(), name+" has no "+CalibrationName) {
			t.Errorf("%s without calibration: error = %v", name, err)
		}
	}
	_, err := Gate(append(gated, Bench{Name: "BenchmarkC"}), baseRun(), baseRun())
	if err == nil || !strings.Contains(err.Error(), "baseline has no BenchmarkC") {
		t.Errorf("baseline without a tracked bench: error = %v", err)
	}
}

func TestTrackedWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Tracked() {
		if !strings.HasPrefix(b.Name, "Benchmark") {
			t.Errorf("%q: tracked names must match go test -bench output", b.Name)
		}
		if b.Name == CalibrationName || seen[b.Name] {
			t.Errorf("duplicate tracked bench %s", b.Name)
		}
		seen[b.Name] = true
	}
}

// Extras gate like time/op: calibration-normalized, under the bench's
// TimeSlack, and a vanished extra is flagged missing. Extras without
// the "_ns" suffix are informational.
func TestGateExtras(t *testing.T) {
	benches := []Bench{{Name: "BenchmarkLoad"}}
	run := func(cal, ns, p99, pps float64) Run {
		return Run{
			CalibrationName: {"ns/op": cal},
			"BenchmarkLoad": {"ns/op": ns, "p99_first_point_ns": p99, "points_per_sec": pps},
		}
	}
	base := run(1000, 500, 2e6, 100)
	if regs := gate(t, benches, base, run(1000, 500, 2.1e6, 10)); len(regs) != 0 {
		t.Fatalf("5%% extra drift within tolerance flagged: %v", regs)
	}
	regs := gate(t, benches, base, run(1000, 500, 3e6, 100))
	if len(regs) != 1 || regs[0].Kind != "extra:p99_first_point_ns" {
		t.Fatalf("50%% extra regression not flagged: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "p99_first_point_ns") {
		t.Errorf("regression text %q does not name the metric", regs[0])
	}
	// A faster calibration spin on the current host excuses a
	// proportionally slower raw number.
	if regs := gate(t, benches, base, run(2000, 1000, 4e6, 100)); len(regs) != 0 {
		t.Fatalf("normalized extra flagged: %v", regs)
	}
	gone := run(1000, 500, 0, 100)
	delete(gone["BenchmarkLoad"], "p99_first_point_ns")
	regs = gate(t, benches, base, gone)
	if len(regs) != 1 || regs[0].Kind != "missing" || regs[0].Name != "BenchmarkLoad/p99_first_point_ns" {
		t.Fatalf("dropped extra not flagged missing: %v", regs)
	}
}

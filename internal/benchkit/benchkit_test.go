package benchkit

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func baseSuite() Suite {
	return Suite{
		GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64",
		CalibrationNs: 1000,
		Records: []Record{
			{Name: "BenchmarkA", Iterations: 100, NsPerOp: 500, BytesPerOp: 64, AllocsPerOp: 3},
			{Name: "BenchmarkB", Iterations: 100, NsPerOp: 2000, BytesPerOp: 0, AllocsPerOp: 0, AllocSlack: 2},
		},
	}
}

func TestGateClean(t *testing.T) {
	base := baseSuite()
	cur := baseSuite()
	if regs := Gate(base, cur, 0.10); len(regs) != 0 {
		t.Fatalf("identical suites should pass, got %v", regs)
	}
}

func TestGateAllocRegression(t *testing.T) {
	base := baseSuite()
	cur := baseSuite()
	cur.Records[0].AllocsPerOp = 4 // slack 0: fails
	cur.Records[1].AllocsPerOp = 2 // slack 2: tolerated
	regs := Gate(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkA" || regs[0].Kind != "allocs/op" {
		t.Fatalf("want one allocs/op regression on BenchmarkA, got %v", regs)
	}
	cur.Records[1].AllocsPerOp = 3 // now past its slack
	if regs := Gate(base, cur, 0.10); len(regs) != 2 {
		t.Fatalf("want both benches flagged, got %v", regs)
	}
}

// Time gating is calibration-normalized: a uniformly slower machine
// (every number doubled, including the spin) must pass, a genuinely
// slower benchmark must fail.
func TestGateTimeNormalization(t *testing.T) {
	base := baseSuite()
	slowMachine := baseSuite()
	slowMachine.CalibrationNs *= 2
	for i := range slowMachine.Records {
		slowMachine.Records[i].NsPerOp *= 2
	}
	if regs := Gate(base, slowMachine, 0.10); len(regs) != 0 {
		t.Fatalf("uniformly slower machine should pass the normalized gate, got %v", regs)
	}

	slowBench := baseSuite()
	slowBench.Records[0].NsPerOp *= 1.25
	regs := Gate(base, slowBench, 0.10)
	if len(regs) != 1 || regs[0].Kind != "time/op" {
		t.Fatalf("want one time/op regression, got %v", regs)
	}
	if regs[0].Ratio < 1.2 || regs[0].Ratio > 1.3 {
		t.Fatalf("ratio = %v, want ~1.25", regs[0].Ratio)
	}
}

// A record's TimeSlack widens its own time tolerance without touching
// the others — the escape hatch for latency-bound microbenches the
// calibration spin normalizes poorly.
func TestGateTimeSlackPerRecord(t *testing.T) {
	base := baseSuite()
	base.Records[0].TimeSlack = 0.50
	cur := baseSuite()
	cur.Records[0].NsPerOp *= 1.4 // within 10%+50%
	cur.Records[1].NsPerOp *= 1.4 // past plain 10%
	regs := Gate(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkB" || regs[0].Kind != "time/op" {
		t.Fatalf("want only BenchmarkB flagged, got %v", regs)
	}
}

// Without calibration (a hand-rolled or historical suite) time is
// informational only; allocs still gate.
func TestGateSkipsTimeWithoutCalibration(t *testing.T) {
	base := baseSuite()
	base.CalibrationNs = 0
	cur := baseSuite()
	cur.Records[0].NsPerOp *= 10
	if regs := Gate(base, cur, 0.10); len(regs) != 0 {
		t.Fatalf("time gate should be skipped without calibration, got %v", regs)
	}
}

func TestGateMissingBench(t *testing.T) {
	base := baseSuite()
	cur := baseSuite()
	cur.Records = cur.Records[:1]
	regs := Gate(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Kind != "missing" || regs[0].Name != "BenchmarkB" {
		t.Fatalf("want BenchmarkB flagged missing, got %v", regs)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	before := baseSuite()
	doc := Baseline{Note: "test", Before: &before, Suite: baseSuite()}
	if err := doc.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Note != "test" || back.Before == nil || len(back.Suite.Records) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if !reflect.DeepEqual(back.Suite.Records[0], doc.Suite.Records[0]) {
		t.Fatalf("record changed: %+v vs %+v", back.Suite.Records[0], doc.Suite.Records[0])
	}
}

func TestLoadRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := (Baseline{}).Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("empty baseline should be rejected")
	}
}

func TestGoBenchText(t *testing.T) {
	out := baseSuite().GoBenchText()
	if !strings.Contains(out, "BenchmarkA") || !strings.Contains(out, "ns/op") || !strings.Contains(out, "allocs/op") {
		t.Fatalf("not go-bench formatted:\n%s", out)
	}
	if !strings.HasPrefix(out, "goos: linux") {
		t.Fatalf("missing goos header:\n%s", out)
	}
}

// The tracked set must stay measurable end to end: run the cheapest
// tracked bench through testing.Benchmark via MeasureCount's machinery. Uses
// a tiny inline bench to keep the suite fast; the full set runs in CI's
// bench job and via nvmbench -bench-json.
func TestMeasureRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("measuring spins ~2s of wall clock")
	}
	var sink []byte
	s := MeasureCount([]Bench{{Name: "BenchmarkTiny", AllocSlack: 1, F: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = make([]byte, 16)
		}
	}}}, 1)
	_ = sink
	if s.CalibrationNs <= 0 {
		t.Fatalf("calibration = %v, want > 0", s.CalibrationNs)
	}
	if len(s.Records) != 1 || s.Records[0].Name != "BenchmarkTiny" {
		t.Fatalf("records = %+v", s.Records)
	}
	r := s.Records[0]
	if r.Iterations <= 0 || r.NsPerOp <= 0 || r.AllocsPerOp != 1 || r.AllocSlack != 1 {
		t.Fatalf("record = %+v", r)
	}
}

func TestTrackedWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Tracked() {
		if b.Name == "" || b.F == nil {
			t.Fatalf("malformed tracked bench %+v", b)
		}
		if !strings.HasPrefix(b.Name, "Benchmark") {
			t.Errorf("%s: tracked names must match go test -bench output", b.Name)
		}
		if seen[b.Name] {
			t.Errorf("duplicate tracked bench %s", b.Name)
		}
		seen[b.Name] = true
	}
}

// Extras gate like time/op: calibration-normalized, under the record's
// TimeSlack, and a vanished extra is flagged missing.
func TestGateExtras(t *testing.T) {
	base := Suite{
		CalibrationNs: 1000,
		Records: []Record{{
			Name: "BenchmarkLoad", NsPerOp: 500,
			Extras: map[string]float64{"p99_first_point_ns": 2e6},
		}},
	}
	ok := Suite{
		CalibrationNs: 1000,
		Records: []Record{{
			Name: "BenchmarkLoad", NsPerOp: 500,
			Extras: map[string]float64{"p99_first_point_ns": 2.1e6},
		}},
	}
	if regs := Gate(base, ok, 0.10); len(regs) != 0 {
		t.Fatalf("5%% extra drift within tolerance flagged: %v", regs)
	}
	slow := Suite{
		CalibrationNs: 1000,
		Records: []Record{{
			Name: "BenchmarkLoad", NsPerOp: 500,
			Extras: map[string]float64{"p99_first_point_ns": 3e6},
		}},
	}
	regs := Gate(base, slow, 0.10)
	if len(regs) != 1 || regs[0].Kind != "extra:p99_first_point_ns" {
		t.Fatalf("50%% extra regression not flagged: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "p99_first_point_ns") {
		t.Errorf("regression text %q does not name the metric", regs[0])
	}
	// A faster calibration spin on the current host excuses a
	// proportionally slower raw number.
	fast := Suite{
		CalibrationNs: 2000,
		Records: []Record{{
			Name: "BenchmarkLoad", NsPerOp: 1000,
			Extras: map[string]float64{"p99_first_point_ns": 4e6},
		}},
	}
	if regs := Gate(base, fast, 0.10); len(regs) != 0 {
		t.Fatalf("normalized extra flagged: %v", regs)
	}
	gone := Suite{
		CalibrationNs: 1000,
		Records:       []Record{{Name: "BenchmarkLoad", NsPerOp: 500}},
	}
	regs = Gate(base, gone, 0.10)
	if len(regs) != 1 || regs[0].Kind != "missing" || regs[0].Name != "BenchmarkLoad/p99_first_point_ns" {
		t.Fatalf("dropped extra not flagged missing: %v", regs)
	}
}

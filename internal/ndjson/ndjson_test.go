package ndjson_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/ndjson"
	"repro/internal/planner"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// edgeFloats exercise both encoding/json float notations and their
// boundaries: fixed below 1e21, exponent at and beyond it, exponent
// below 1e-6 with the e-0X cleanup, both zeros, powers of two (whose
// rounding interval is narrower below) and extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.25, 1.5e-3,
	1e-6, math.Nextafter(1e-6, 0), 9.999999e-7, 1e-7, -1e-9, 5e-324,
	1e20, 9.99e20, math.Nextafter(1e21, 0), 1e21, -1e21, 2.5e22, math.MaxFloat64,
	0x1p-20, 0x1p-19, 0.5, 2, 1024, 0x1p53, -0x1p60, 0x1p69,
	1234.56789, 1.0 / 3.0,
}

// edgeStrings exercise the escaping rules: quotes, backslashes, control
// characters, the HTML-safe set, multibyte runes, U+2028/U+2029 and
// invalid UTF-8.
var edgeStrings = []string{
	"", "BoxLib", `quo"te`, `back\slash`, "tab\tnewline\nret\r",
	"ctrl\x01\x1f", "bs\bff\f", "<html> & more>", "μGrid—é", "\u2028line\u2029sep",
	"bad\xffutf8", "mixé\xc3", "emoji🚀",
}

// fullCartesian returns the full-cartesian sweep's outcomes, all eight
// dwarfs × three modes × nine thread counts, and the points of a plan
// over the same spec in the order a plan session publishes them.
func fullCartesian(t testing.TB) ([]scenario.Outcome, []planner.PlannedPoint) {
	t.Helper()
	sp, err := scenario.ByName("full-cartesian")
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(platform.NewPurley().Socket(0), 0)
	outs, err := sp.Run(eng)
	if err != nil {
		t.Fatal(err)
	}
	var pts []planner.PlannedPoint
	if _, err := planner.RunSpec(context.Background(), eng, sp, func(p planner.Progress) {
		pts = append(pts, p.Points...)
	}); err != nil {
		t.Fatal(err)
	}
	return outs, pts
}

// mustMatch pins the encoder's central property: byte-identical to
// encoding/json plus the trailing newline.
func mustMatch(t *testing.T, what string, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: reference marshal: %v", what, err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding drifted from encoding/json:\n got  %s\n want %s", what, got, want)
	}
}

func TestOutcomeMatchesEncodingJSON(t *testing.T) {
	var enc ndjson.Encoder
	// Real records: every point of the full-cartesian sweep, whose five
	// run-time figures of merit repeat time_s and three others do not.
	outs, _ := fullCartesian(t)
	same := 0
	for _, o := range outs {
		if o.Result.FoMValue == o.Result.Time.Seconds() {
			same++
		}
		mustMatch(t, fmt.Sprintf("outcome %s/%s/%d", o.App, o.Mode, o.Threads), enc.Outcome(o), o)
	}
	if same == 0 || same == len(outs) {
		t.Errorf("%d of %d outcomes have fom == time_s, want both kinds", same, len(outs))
	}
	// Adversarial values in every float and string slot, with a figure
	// of merit equal to time_s on every other line and its negation
	// (so -0 against 0) on the rest.
	for i, f := range edgeFloats {
		fom := -f
		if i%2 == 1 {
			fom = f
		}
		o := scenario.Outcome{
			Meta: scenario.Meta{App: edgeStrings[i%len(edgeStrings)], Mode: 2, Threads: -3, Scale: f},
			Result: workload.Result{
				Time:         units.Duration(f),
				FoMValue:     fom,
				Slowdown:     f,
				AvgDRAMRead:  units.Bandwidth(f),
				AvgDRAMWrite: units.Bandwidth(-f),
				AvgNVMRead:   units.Bandwidth(f / 17),
				AvgNVMWrite:  units.Bandwidth(f / 3),
			},
		}
		mustMatch(t, fmt.Sprintf("edge float %g", f), enc.Outcome(o), o)
	}
	// fom_unit presence: attached workload with and without a unit.
	for _, unit := range []string{"", "MGrind/s", `odd"unit<&>`} {
		w := &workload.Workload{}
		w.FoM.Unit = unit
		o := scenario.Outcome{
			Meta:   scenario.Meta{App: "X", Mode: 1, Threads: 4, Scale: 1},
			Result: workload.Result{Workload: w, Time: 2.5},
		}
		mustMatch(t, fmt.Sprintf("fom_unit %q", unit), enc.Outcome(o), o)
	}
}

func TestPlannedPointMatchesEncodingJSON(t *testing.T) {
	var enc ndjson.Encoder
	// Real records: every point a plan over full-cartesian publishes.
	_, pts := fullCartesian(t)
	for _, p := range pts {
		mustMatch(t, fmt.Sprintf("plan point %s/%s/%d round %d", p.Meta.App, p.Meta.Mode, p.Meta.Threads, p.Round), enc.PlannedPoint(p), p)
	}
	for i, f := range edgeFloats {
		for _, round := range []int{0, 3} {
			for _, pred := range []units.Duration{0, units.Duration(f), 1.25} {
				p := planner.PlannedPoint{
					Round:     round,
					Evaluated: i%2 == 0,
					Time:      units.Duration(f),
					Predicted: pred,
				}
				p.Meta = scenario.Meta{
					App: edgeStrings[i%len(edgeStrings)], Mode: 3, Threads: 28, Scale: f,
				}
				p.DRAMUsed = units.Bytes(int64(i) * 1e12)
				p.Feasible = i%3 == 0
				mustMatch(t, fmt.Sprintf("point %d round %d pred %g", i, round, float64(pred)), enc.PlannedPoint(p), p)
			}
		}
	}
}

func TestErrorMatchesEncodingJSON(t *testing.T) {
	var enc ndjson.Encoder
	for _, s := range edgeStrings {
		err := errors.New(s)
		got := enc.Error(err)
		var ref bytes.Buffer
		if encErr := json.NewEncoder(&ref).Encode(map[string]string{"error": s}); encErr != nil {
			t.Fatal(encErr)
		}
		if !bytes.Equal(got, ref.Bytes()) {
			t.Errorf("error line for %q drifted:\n got  %s\n want %s", s, got, ref.Bytes())
		}
	}
}

// The perf property the streaming path rests on: steady-state encoding
// allocates nothing per point.
func TestEncoderZeroAllocs(t *testing.T) {
	outs, _ := fullCartesian(t)
	var enc ndjson.Encoder
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, o := range outs {
			sink += len(enc.Outcome(o))
		}
	})
	if allocs != 0 {
		t.Errorf("Outcome: %.1f allocs per %d-point run, want 0", allocs, len(outs))
	}

	p := planner.PlannedPoint{Round: 2, Evaluated: true, Time: 1.5, Predicted: 1.25}
	p.Meta = scenario.Meta{App: "BoxLib", Mode: 1, Threads: 48, Scale: 1}
	p.DRAMUsed = units.GB(192)
	p.Feasible = true
	allocs = testing.AllocsPerRun(100, func() {
		sink += len(enc.PlannedPoint(p))
	})
	if allocs != 0 {
		t.Errorf("PlannedPoint: %.1f allocs/point, want 0", allocs)
	}
	_ = sink
}

package trace

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func twoPhaseTimeline() []Segment {
	return []Segment{
		{Name: "factor", Duration: units.Duration(20), DRAMRead: units.GBps(50), DRAMWrite: units.GBps(30)},
		{Name: "solve", Duration: units.Duration(80), DRAMRead: units.GBps(10), DRAMWrite: units.GBps(1)},
	}
}

func TestBuildSampleCount(t *testing.T) {
	tr := Build(twoPhaseTimeline(), 200, 0, 1)
	if len(tr.Samples) != 200 || len(tr.Labels) != 200 {
		t.Fatalf("samples=%d labels=%d", len(tr.Samples), len(tr.Labels))
	}
	if tr.TotalTime != units.Duration(100) {
		t.Errorf("total time %v", tr.TotalTime)
	}
}

func TestBuildPhaseComposition(t *testing.T) {
	tr := Build(twoPhaseTimeline(), 1000, 0, 1)
	if s := tr.PhaseShare("factor"); s < 0.18 || s > 0.22 {
		t.Errorf("factor share = %v, want 0.2", s)
	}
	if s := tr.PhaseShare("solve"); s < 0.78 || s > 0.82 {
		t.Errorf("solve share = %v, want 0.8", s)
	}
	if tr.PhaseShare("missing") != 0 {
		t.Error("unknown phase share should be 0")
	}
}

func TestBuildValuesNoiseless(t *testing.T) {
	tr := Build(twoPhaseTimeline(), 100, 0, 1)
	reads := tr.Values(ColDRAMRead)
	if reads[0] != 50 {
		t.Errorf("first sample read = %v, want 50", reads[0])
	}
	if reads[99] != 10 {
		t.Errorf("last sample read = %v, want 10", reads[99])
	}
}

func TestBuildNoise(t *testing.T) {
	clean := Build(twoPhaseTimeline(), 100, 0, 7)
	noisy := Build(twoPhaseTimeline(), 100, 0.05, 7)
	diff := 0
	cv, nv := clean.Values(ColDRAMRead), noisy.Values(ColDRAMRead)
	for i := range cv {
		if cv[i] != nv[i] {
			diff++
		}
	}
	if diff < 90 {
		t.Errorf("noise affected only %d/100 samples", diff)
	}
	for _, v := range nv {
		if v < 0 {
			t.Error("noise must not produce negative bandwidth")
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(twoPhaseTimeline(), 50, 0.05, 42)
	b := Build(twoPhaseTimeline(), 50, 0.05, 42)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed should give same trace")
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	tr := Build(nil, 100, 0, 1)
	if len(tr.Samples) != 0 {
		t.Error("empty timeline should give empty trace")
	}
	tr = Build(twoPhaseTimeline(), 0, 0, 1)
	if len(tr.Samples) != 0 {
		t.Error("zero samples requested should give empty trace")
	}
}

func TestBuildPanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	Build([]Segment{{Duration: -1}}, 10, 0, 1)
}

func TestRepeat(t *testing.T) {
	per := []Segment{
		{Name: "compute", Duration: 1},
		{Name: "transpose", Duration: 0.5},
	}
	tl := Repeat(per, 20)
	if len(tl) != 40 {
		t.Fatalf("repeated timeline length %d, want 40", len(tl))
	}
	if tl[38].Name != "compute" || tl[39].Name != "transpose" {
		t.Error("iteration structure broken")
	}
	if len(Repeat(per, 0)) != 2 {
		t.Error("iters < 1 should clamp to 1")
	}
}

func TestColumns(t *testing.T) {
	tl := []Segment{{
		Name: "p", Duration: 10,
		DRAMRead: units.GBps(4), DRAMWrite: units.GBps(3),
		NVMRead: units.GBps(2), NVMWrite: units.GBps(1),
	}}
	tr := Build(tl, 10, 0, 1)
	cases := map[Column]float64{
		ColDRAMRead: 4, ColDRAMWrite: 3, ColNVMRead: 2, ColNVMWrite: 1,
		ColRead: 6, ColWrite: 4,
	}
	for col, want := range cases {
		if got := tr.Values(col)[0]; got != want {
			t.Errorf("%v = %v, want %v", col, got, want)
		}
	}
}

func TestColumnString(t *testing.T) {
	if ColNVMWrite.String() != "NVM Write" || Column(99).String() != "col(99)" {
		t.Error("column names wrong")
	}
}

func TestPercentTime(t *testing.T) {
	tr := Build(twoPhaseTimeline(), 100, 0, 1)
	pct := tr.Columns().Percent
	if pct[0] < 0 || pct[0] > 2 {
		t.Errorf("first percent = %v", pct[0])
	}
	if pct[99] < 98 || pct[99] > 100 {
		t.Errorf("last percent = %v", pct[99])
	}
	for i := 1; i < len(pct); i++ {
		if pct[i] <= pct[i-1] {
			t.Fatal("percent time not increasing")
		}
	}
}

func TestCSV(t *testing.T) {
	tr := Build(twoPhaseTimeline(), 5, 0, 1)
	csv := tr.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV lines = %d, want header + 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,percent,phase") {
		t.Errorf("CSV header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "factor") {
		t.Errorf("CSV first row: %q", lines[1])
	}
}

func TestASCII(t *testing.T) {
	tr := Build(twoPhaseTimeline(), 100, 0, 1)
	chart := tr.ASCII(ColDRAMRead, 40, 5)
	if !strings.Contains(chart, "DRAM Read") {
		t.Error("chart missing title")
	}
	lines := strings.Split(strings.TrimSpace(chart), "\n")
	// title + 5 rows + axis
	if len(lines) != 7 {
		t.Errorf("chart lines = %d, want 7:\n%s", len(lines), chart)
	}
	// The high phase (first 20%) should fill the top row on the left.
	top := lines[1]
	if !strings.Contains(top[:10], "#") {
		t.Errorf("top row should mark the high phase:\n%s", chart)
	}
	if strings.Contains(top[20:], "#") {
		t.Errorf("top row should not mark the low phase:\n%s", chart)
	}
	empty := Trace{}
	if !strings.Contains(empty.ASCII(ColRead, 10, 3), "empty") {
		t.Error("empty trace chart should say so")
	}
}

// TestBuildTable is the table-driven reconstruction contract behind
// Figs 4-9: for each timeline shape, Build must emit exactly n samples,
// label every sample with the segment its timestamp falls in, reproduce
// segment bandwidths exactly at zero noise, and be a pure function of
// (timeline, n, noise, seed).
func TestBuildTable(t *testing.T) {
	uniform := func(name string, d, bw float64) Segment {
		return Segment{Name: name, Duration: units.Duration(d), DRAMRead: units.GBps(bw)}
	}
	cases := []struct {
		name     string
		timeline []Segment
		n        int
	}{
		{"single", []Segment{uniform("only", 10, 25)}, 64},
		{"two-phase", twoPhaseTimeline(), 200},
		{"uneven", []Segment{uniform("a", 1, 5), uniform("b", 99, 50)}, 111},
		{"iterative", Repeat([]Segment{uniform("c", 2, 30), uniform("t", 1, 90)}, 7), 150},
		{"zero-length-head", []Segment{uniform("empty", 0, 0), uniform("rest", 10, 40)}, 50},
		{"one-sample", twoPhaseTimeline(), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := Build(c.timeline, c.n, 0, 3)
			if len(tr.Samples) != c.n || len(tr.Labels) != c.n {
				t.Fatalf("samples=%d labels=%d, want %d of each", len(tr.Samples), len(tr.Labels), c.n)
			}
			var total units.Duration
			for _, s := range c.timeline {
				total += s.Duration
			}
			if tr.TotalTime != total {
				t.Errorf("TotalTime = %v, want %v", tr.TotalTime, total)
			}
			// Label alignment and zero-noise exactness: recompute each
			// sample's segment independently from its timestamp.
			for i, s := range tr.Samples {
				var end units.Duration
				seg := c.timeline[len(c.timeline)-1]
				for _, cand := range c.timeline {
					end += cand.Duration
					if s.Time <= end {
						seg = cand
						break
					}
				}
				if tr.Labels[i] != seg.Name {
					t.Fatalf("sample %d at t=%v labelled %q, want %q", i, s.Time, tr.Labels[i], seg.Name)
				}
				if s.DRAMRead != seg.DRAMRead {
					t.Fatalf("sample %d read %v, want segment's %v", i, s.DRAMRead, seg.DRAMRead)
				}
			}
			// Seed stability: the same seed reproduces the trace sample
			// for sample (with noise on), different seeds diverge.
			n1 := Build(c.timeline, c.n, 0.05, 11)
			n2 := Build(c.timeline, c.n, 0.05, 11)
			for i := range n1.Samples {
				if n1.Samples[i] != n2.Samples[i] {
					t.Fatalf("same seed diverged at sample %d", i)
				}
			}
			other := Build(c.timeline, c.n, 0.05, 12)
			same := 0
			for i := range n1.Samples {
				if n1.Samples[i] == other.Samples[i] {
					same++
				}
			}
			if c.n >= 50 && same == c.n {
				t.Error("different seeds produced identical noisy traces")
			}
		})
	}
}

// Zero-noise determinism is absolute: noise 0 must bypass the RNG, so
// the seed cannot matter.
func TestBuildZeroNoiseSeedIndependent(t *testing.T) {
	a := Build(twoPhaseTimeline(), 100, 0, 1)
	b := Build(twoPhaseTimeline(), 100, 0, 999)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("zero-noise trace depends on seed at sample %d", i)
		}
	}
}

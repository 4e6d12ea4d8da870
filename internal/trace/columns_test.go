package trace

// Tests for the columnar (struct-of-arrays) view and the allocation
// behaviour of Build: the perf refactor must not change any rendered
// value, and Build's allocation count must stay constant in the sample
// count.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/units"
)

func buildFixture(n int) Trace {
	per := []Segment{
		{Name: "a", Duration: 2, DRAMRead: units.GBps(40), DRAMWrite: units.GBps(12), NVMRead: units.GBps(8), NVMWrite: units.GBps(2)},
		{Name: "b", Duration: 1, DRAMRead: units.GBps(10), DRAMWrite: units.GBps(30), NVMWrite: units.GBps(6)},
	}
	return Build(Repeat(per, 10), n, 0.05, 99)
}

func TestColumnsMatchValues(t *testing.T) {
	tr := buildFixture(500)
	cols := tr.Columns()
	checks := []struct {
		name string
		got  []float64
		want []float64
	}{
		{"dram_read", cols.DRAMRead, tr.Values(ColDRAMRead)},
		{"dram_write", cols.DRAMWrite, tr.Values(ColDRAMWrite)},
		{"nvm_read", cols.NVMRead, tr.Values(ColNVMRead)},
		{"nvm_write", cols.NVMWrite, tr.Values(ColNVMWrite)},
		{"percent", cols.Percent, percentTime(tr)},
	}
	for _, c := range checks {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d values, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s[%d] = %v, want %v (columnar view must be bit-identical)", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	for i, s := range tr.Samples {
		if cols.Times[i] != s.Time.Seconds() {
			t.Fatalf("times[%d] = %v, want %v", i, cols.Times[i], s.Time.Seconds())
		}
		if cols.Labels[i] != tr.Labels[i] {
			t.Fatalf("labels[%d] = %q, want %q", i, cols.Labels[i], tr.Labels[i])
		}
	}
}

// Derived-column extraction (device sums) must match the columnar parts.
func TestDerivedColumnsSum(t *testing.T) {
	tr := buildFixture(200)
	cols := tr.Columns()
	reads := tr.Values(ColRead)
	for i := range reads {
		if want := (tr.Samples[i].DRAMRead + tr.Samples[i].NVMRead).GBpsValue(); reads[i] != want {
			t.Fatalf("read[%d] = %v, want %v", i, reads[i], want)
		}
		_ = cols
	}
}

// CSV must render exactly the per-sample formatting it always did.
func TestCSVMatchesPerSampleRendering(t *testing.T) {
	tr := buildFixture(50)
	var b strings.Builder
	b.WriteString("time_s,percent,phase,dram_read_gbps,dram_write_gbps,nvm_read_gbps,nvm_write_gbps\n")
	pct := percentTime(tr)
	for i, s := range tr.Samples {
		fmt.Fprintf(&b, "%.4f,%.2f,%s,%.3f,%.3f,%.3f,%.3f\n",
			s.Time.Seconds(), pct[i], tr.Labels[i],
			s.DRAMRead.GBpsValue(), s.DRAMWrite.GBpsValue(),
			s.NVMRead.GBpsValue(), s.NVMWrite.GBpsValue())
	}
	if got := tr.CSV(); got != b.String() {
		t.Error("CSV output changed under the columnar renderer")
	}
}

// Build must allocate a constant number of times regardless of n: the
// rng, the sample array and the label array — not per sample.
func TestBuildAllocsConstantInN(t *testing.T) {
	per := []Segment{
		{Name: "a", Duration: 1, DRAMRead: units.GBps(20), NVMWrite: units.GBps(3)},
	}
	timeline := Repeat(per, 4)
	small := testing.AllocsPerRun(10, func() { Build(timeline, 64, 0.05, 7) })
	large := testing.AllocsPerRun(10, func() { Build(timeline, 4096, 0.05, 7) })
	if small != large {
		t.Errorf("Build allocs scale with n: %v at 64 samples vs %v at 4096", small, large)
	}
	if large > 4 {
		t.Errorf("Build allocates %v times, want <= 4 (rng + samples + labels)", large)
	}
}

// Labels share the segment name strings rather than copying them.
func TestLabelsInterned(t *testing.T) {
	tr := buildFixture(100)
	seen := map[string]bool{}
	for _, l := range tr.Labels {
		seen[l] = true
	}
	if len(seen) != 2 {
		t.Fatalf("labels cover %d names, want 2", len(seen))
	}
}

// percentTime is the per-sample reference for Columns' Percent: each
// sample's position as percent of execution (the x-axis of the paper's
// Figures 5, 7, 8).
func percentTime(t Trace) []float64 {
	out := make([]float64, len(t.Samples))
	if t.TotalTime <= 0 {
		return out
	}
	for i, s := range t.Samples {
		out[i] = 100 * float64(s.Time) / float64(t.TotalTime)
	}
	return out
}

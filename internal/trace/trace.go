// Package trace reconstructs the memory-bandwidth time series the paper
// plots in Figures 4, 5, 7, 8 and 9b: per-device read/write bandwidth
// sampled over an application's execution, from the epoch solver's
// per-phase achieved traffic and the workload's iteration structure.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/counters"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Segment is one contiguous stretch of execution with steady achieved
// bandwidth (one phase instance on the timeline).
type Segment struct {
	Name                string
	Duration            units.Duration
	DRAMRead, DRAMWrite units.Bandwidth
	NVMRead, NVMWrite   units.Bandwidth
}

// Trace is a reconstructed bandwidth time series.
type Trace struct {
	Samples []counters.BandwidthSample
	// Labels[i] names the phase sample i fell in.
	Labels []string
	// TotalTime is the execution time the trace spans.
	TotalTime units.Duration
}

// noisy applies multiplicative Gaussian noise to one bandwidth value. It
// is the hoisted form of Build's per-sample closure: same draw order
// (one Norm per nonzero component when noise is enabled), no per-sample
// allocation.
func noisy(rng *xrand.Rand, noiseFrac float64, b units.Bandwidth) units.Bandwidth {
	if noiseFrac <= 0 || b == 0 {
		return b
	}
	v := float64(b) * (1 + rng.Norm(0, noiseFrac))
	if v < 0 {
		v = 0
	}
	return units.Bandwidth(v)
}

// Build samples a timeline of segments at n evenly spaced points, adding
// multiplicative Gaussian noise of the given fraction (0 disables noise;
// the paper's traces visibly jitter, so figures use ~0.05). Samples and
// Labels are allocated to exactly n up front, and each sample's label
// shares the segment's name string, so the allocation count is constant
// in n.
func Build(timeline []Segment, n int, noiseFrac float64, seed uint64) Trace {
	var total units.Duration
	for _, s := range timeline {
		if s.Duration < 0 {
			panic(fmt.Sprintf("trace: negative duration in segment %q", s.Name))
		}
		total += s.Duration
	}
	tr := Trace{TotalTime: total}
	if n <= 0 || total <= 0 {
		return tr
	}
	rng := xrand.New(seed)
	tr.Samples = make([]counters.BandwidthSample, n)
	tr.Labels = make([]string, n)
	dt := float64(total) / float64(n)
	segIdx, segEnd := 0, float64(timeline[0].Duration)
	for i := 0; i < n; i++ {
		t := (float64(i) + 0.5) * dt
		for t > segEnd && segIdx < len(timeline)-1 {
			segIdx++
			segEnd += float64(timeline[segIdx].Duration)
		}
		seg := &timeline[segIdx]
		tr.Samples[i] = counters.BandwidthSample{
			Time:      units.Duration(t),
			DRAMRead:  noisy(rng, noiseFrac, seg.DRAMRead),
			DRAMWrite: noisy(rng, noiseFrac, seg.DRAMWrite),
			NVMRead:   noisy(rng, noiseFrac, seg.NVMRead),
			NVMWrite:  noisy(rng, noiseFrac, seg.NVMWrite),
		}
		tr.Labels[i] = seg.Name
	}
	return tr
}

// Repeat builds a timeline that interleaves the given per-iteration
// segments iters times — the oscillating structure of iterative solvers
// (FT, Hypre).
func Repeat(perIteration []Segment, iters int) []Segment {
	if iters < 1 {
		iters = 1
	}
	out := make([]Segment, 0, len(perIteration)*iters)
	for i := 0; i < iters; i++ {
		out = append(out, perIteration...)
	}
	return out
}

// Column selects one bandwidth component of a trace.
type Column int

const (
	ColDRAMRead Column = iota
	ColDRAMWrite
	ColNVMRead
	ColNVMWrite
	ColRead  // DRAM + NVM reads
	ColWrite // DRAM + NVM writes
)

// String names the column.
func (c Column) String() string {
	switch c {
	case ColDRAMRead:
		return "DRAM Read"
	case ColDRAMWrite:
		return "DRAM Write"
	case ColNVMRead:
		return "NVM Read"
	case ColNVMWrite:
		return "NVM Write"
	case ColRead:
		return "Read"
	case ColWrite:
		return "Write"
	default:
		return fmt.Sprintf("col(%d)", int(c))
	}
}

// Values extracts a column as GB/s values. The column switch is hoisted
// out of the sample loop, so extraction is one tight pass per call.
func (t Trace) Values(c Column) []float64 {
	out := make([]float64, len(t.Samples))
	switch c {
	case ColDRAMRead:
		for i := range t.Samples {
			out[i] = t.Samples[i].DRAMRead.GBpsValue()
		}
	case ColDRAMWrite:
		for i := range t.Samples {
			out[i] = t.Samples[i].DRAMWrite.GBpsValue()
		}
	case ColNVMRead:
		for i := range t.Samples {
			out[i] = t.Samples[i].NVMRead.GBpsValue()
		}
	case ColNVMWrite:
		for i := range t.Samples {
			out[i] = t.Samples[i].NVMWrite.GBpsValue()
		}
	case ColRead:
		for i := range t.Samples {
			out[i] = (t.Samples[i].DRAMRead + t.Samples[i].NVMRead).GBpsValue()
		}
	case ColWrite:
		for i := range t.Samples {
			out[i] = (t.Samples[i].DRAMWrite + t.Samples[i].NVMWrite).GBpsValue()
		}
	}
	return out
}

// Columns is the struct-of-arrays view of a trace: every bandwidth
// component extracted to its own GB/s slice in one pass, index-aligned
// with Times, Percent and Labels. Renderers that consume several
// components (CSV, plotting) use it instead of re-walking the sample
// structs once per column.
type Columns struct {
	Times     []float64 // seconds
	Percent   []float64 // percent of execution
	Labels    []string  // phase name per sample (shared, not copied)
	DRAMRead  []float64
	DRAMWrite []float64
	NVMRead   []float64
	NVMWrite  []float64
}

// Columns extracts the struct-of-arrays view in a single pass over the
// samples.
func (t Trace) Columns() Columns {
	n := len(t.Samples)
	c := Columns{
		Times:     make([]float64, n),
		Percent:   make([]float64, n),
		Labels:    t.Labels,
		DRAMRead:  make([]float64, n),
		DRAMWrite: make([]float64, n),
		NVMRead:   make([]float64, n),
		NVMWrite:  make([]float64, n),
	}
	for i := range t.Samples {
		s := &t.Samples[i]
		c.Times[i] = s.Time.Seconds()
		if t.TotalTime > 0 {
			c.Percent[i] = 100 * float64(s.Time) / float64(t.TotalTime)
		}
		c.DRAMRead[i] = s.DRAMRead.GBpsValue()
		c.DRAMWrite[i] = s.DRAMWrite.GBpsValue()
		c.NVMRead[i] = s.NVMRead.GBpsValue()
		c.NVMWrite[i] = s.NVMWrite.GBpsValue()
	}
	return c
}

// PhaseShare returns the fraction of samples labelled with the given
// phase name — used to verify phase-composition shifts (e.g. SuperLU
// phase 1 growing from 20% to 70% of execution on uncached NVM).
func (t Trace) PhaseShare(name string) float64 {
	if len(t.Labels) == 0 {
		return 0
	}
	n := 0
	for _, l := range t.Labels {
		if l == name {
			n++
		}
	}
	return float64(n) / float64(len(t.Labels))
}

// CSV renders the trace with a header row, one sample per line. It
// renders from the columnar view, sized up front.
func (t Trace) CSV() string {
	const header = "time_s,percent,phase,dram_read_gbps,dram_write_gbps,nvm_read_gbps,nvm_write_gbps\n"
	cols := t.Columns()
	var b strings.Builder
	b.Grow(len(header) + 64*len(cols.Times))
	b.WriteString(header)
	for i := range cols.Times {
		fmt.Fprintf(&b, "%.4f,%.2f,%s,%.3f,%.3f,%.3f,%.3f\n",
			cols.Times[i], cols.Percent[i], cols.Labels[i],
			cols.DRAMRead[i], cols.DRAMWrite[i],
			cols.NVMRead[i], cols.NVMWrite[i])
	}
	return b.String()
}

// ASCII renders one column as a compact fixed-height chart for terminal
// inspection of the figure shapes.
func (t Trace) ASCII(c Column, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 2 {
		height = 2
	}
	vals := t.Values(c)
	if len(vals) == 0 {
		return "(empty trace)\n"
	}
	// Downsample to width buckets (mean within bucket).
	buckets := make([]float64, width)
	counts := make([]int, width)
	for i, v := range vals {
		b := i * width / len(vals)
		buckets[b] += v
		counts[b]++
	}
	maxV := 0.0
	for i := range buckets {
		if counts[i] > 0 {
			buckets[i] /= float64(counts[i])
		}
		if buckets[i] > maxV {
			maxV = buckets[i]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.1f GB/s)\n", c, maxV)
	for row := height; row >= 1; row-- {
		thresh := maxV * float64(row) / float64(height)
		for _, v := range buckets {
			if maxV > 0 && v >= thresh {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	return b.String()
}

// Package workload defines the application model the experiments run: a
// workload is a memory-demand signature (phases with bandwidths, patterns
// and working sets), a concurrency-scaling curve, a figure of merit, and
// optionally a per-data-structure traffic profile for placement studies.
//
// The eight Seven-Dwarfs applications in internal/dwarfs construct their
// Workload descriptors from their actual mini-implementations; this
// package owns the runner that evaluates a Workload on a memory system
// configuration and produces the quantities the paper reports: run time /
// FoM, slowdown versus DRAM, achieved traffic (Table III), bandwidth
// traces (Figs 4-9) and synthesized hardware counters (Section V-A).
package workload

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/units"
)

// PhysicalCores is the per-socket core count of the testbed; threads
// beyond it are hyperthreads with workload-specific efficiency.
const PhysicalCores = 24

// MaxThreads is the per-socket hardware thread count.
const MaxThreads = 48

// Scaling is an Amdahl-style concurrency model with a hyperthreading
// term: threads beyond the physical cores contribute HTEfficiency
// effective cores each (negative values model HT-induced slowdown, as
// the paper observes for FT in Fig 6).
type Scaling struct {
	ParallelFrac float64
	HTEfficiency float64
}

// Speedup returns the work rate at the given thread count relative to a
// single thread.
func (s Scaling) Speedup(threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	eff := float64(threads)
	if threads > PhysicalCores {
		eff = PhysicalCores + s.HTEfficiency*float64(threads-PhysicalCores)
		if eff < 1 {
			eff = 1
		}
	}
	f := units.Clamp(s.ParallelFrac, 0, 1)
	return 1 / ((1 - f) + f/eff)
}

// FoM is an application-defined figure of merit. Rate metrics
// (Mflops, Lookups/s, Mop/s) scale inversely with run time; time metrics
// are the run time itself.
type FoM struct {
	Name   string
	Unit   string
	Higher bool // true for rate metrics
	// BaseValue is the FoM on DRAM at base threads (rate metrics only;
	// ignored for time metrics).
	BaseValue float64
}

// Structure describes one application data structure for the placement
// study: its size and its share of the application's read and write
// traffic (from the data-centric profiler).
type Structure struct {
	Name      string
	Size      units.Bytes
	ReadFrac  float64 // fraction of total read traffic
	WriteFrac float64 // fraction of total write traffic
}

// Workload is a full application model.
type Workload struct {
	Name  string
	Dwarf string
	Input string

	// Footprint is the input problem's memory requirement.
	Footprint units.Bytes
	// BaselineTime is the DRAM-only run time at BaseThreads.
	BaselineTime units.Duration
	// BaseThreads is the concurrency at which phase demands were profiled.
	BaseThreads int

	FoM     FoM
	Phases  []memsys.Phase
	Scaling Scaling
	// PhaseScalings overrides the workload scaling curve for the named
	// phases (e.g. ScaLAPACK's mostly-serial panel factorization versus
	// its highly parallel update stage — the mechanism behind the Fig 8
	// phase-composition shift).
	PhaseScalings map[string]Scaling

	// TraceIterations interleaves the phases this many times when
	// rendering traces (iterative solvers); 1 keeps phases sequential.
	TraceIterations int

	// HTWriteAmplification models hyperthread-induced cache thrashing:
	// at thread counts beyond the physical cores, write traffic per unit
	// work grows by this factor per doubling of oversubscription
	// (demand x (1 + a*(t-24)/24)). FT's Fig 6 uncached collapse (0.61
	// on DRAM versus 0.37 on NVM) comes from this extra write traffic
	// meeting the WPQ contention.
	HTWriteAmplification float64

	// ThreadReadAmplification models shared-LLC pressure on the read
	// side: beyond 8 threads, per-thread tiles shrink in the shared L3
	// and each element is re-read more often
	// (demand x (1 + a*(t-8)/40)). Together with the write-side WPQ
	// contention this produces the Fig 7 diverging effect: at higher
	// concurrency achieved read bandwidth rises while achieved write
	// bandwidth falls.
	ThreadReadAmplification float64

	// Structures is the per-data-structure traffic profile (placement
	// studies only; may be nil).
	Structures []Structure

	// Work is the abstract retired-instruction count for counter
	// synthesis.
	Work float64

	Seed uint64
}

// Validate checks internal consistency.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if w.Footprint <= 0 {
		return fmt.Errorf("workload %s: non-positive footprint %d bytes", w.Name, int64(w.Footprint))
	}
	if w.BaselineTime <= 0 {
		return fmt.Errorf("workload %s: non-positive baseline time", w.Name)
	}
	if w.BaseThreads < 1 || w.BaseThreads > MaxThreads {
		return fmt.Errorf("workload %s: base threads %d out of [1,%d]", w.Name, w.BaseThreads, MaxThreads)
	}
	if len(w.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", w.Name)
	}
	var share float64
	for _, p := range w.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		share += p.Share
	}
	if share < 0.999 || share > 1.001 {
		return fmt.Errorf("workload %s: phase shares sum to %v, want 1", w.Name, share)
	}
	var rf, wf float64
	for _, s := range w.Structures {
		if s.Size < 0 || s.ReadFrac < 0 || s.WriteFrac < 0 {
			return fmt.Errorf("workload %s: negative structure fields on %q", w.Name, s.Name)
		}
		rf += s.ReadFrac
		wf += s.WriteFrac
	}
	if len(w.Structures) > 0 && (rf < 0.999 || rf > 1.001 || wf < 0.999 || wf > 1.001) {
		return fmt.Errorf("workload %s: structure traffic fractions sum to %v/%v, want 1/1", w.Name, rf, wf)
	}
	return nil
}

// PhaseOutcome couples a solved phase with its time on the timeline.
type PhaseOutcome struct {
	Phase memsys.Phase
	Epoch memsys.EpochResult
	Time  units.Duration
}

// Result is one workload evaluation on one configuration.
type Result struct {
	Workload *Workload
	Mode     memsys.Mode
	Threads  int

	// Time is the modelled run time; FoMValue the figure of merit.
	Time     units.Duration
	FoMValue float64

	// Slowdown is Time divided by the DRAM-only time at the same
	// concurrency (the paper's Table III metric).
	Slowdown float64

	Phases []PhaseOutcome

	// Time-weighted average achieved traffic (the Table III columns).
	AvgDRAMRead, AvgDRAMWrite units.Bandwidth
	AvgNVMRead, AvgNVMWrite   units.Bandwidth
}

// AvgRead returns average achieved read bandwidth across devices.
func (r Result) AvgRead() units.Bandwidth { return r.AvgDRAMRead + r.AvgNVMRead }

// AvgWrite returns average achieved write bandwidth across devices.
func (r Result) AvgWrite() units.Bandwidth { return r.AvgDRAMWrite + r.AvgNVMWrite }

// AvgTotal returns total average achieved bandwidth.
func (r Result) AvgTotal() units.Bandwidth { return r.AvgRead() + r.AvgWrite() }

// WriteRatio returns the write share of total traffic in percent.
func (r Result) WriteRatio() float64 {
	return 100 * units.Ratio(float64(r.AvgWrite()), float64(r.AvgTotal()))
}

// phaseScaling returns the scaling curve for the named phase (the
// workload curve unless overridden).
func (w *Workload) phaseScaling(name string) Scaling {
	if s, ok := w.PhaseScalings[name]; ok {
		return s
	}
	return w.Scaling
}

// phaseSpeedRatio is the phase's work-rate ratio between the requested
// and base concurrency.
func (w *Workload) phaseSpeedRatio(name string, threads int) float64 {
	s := w.phaseScaling(name)
	return s.Speedup(threads) / s.Speedup(w.BaseThreads)
}

// htAmp returns the write-traffic amplification at the given thread
// count (1 at or below the physical core count).
func (w *Workload) htAmp(threads int) float64 {
	if w.HTWriteAmplification <= 0 || threads <= PhysicalCores {
		return 1
	}
	return 1 + w.HTWriteAmplification*float64(threads-PhysicalCores)/float64(PhysicalCores)
}

// readAmp returns the read-traffic amplification at the given thread
// count (1 at or below 8 threads).
func (w *Workload) readAmp(threads int) float64 {
	if w.ThreadReadAmplification <= 0 || threads <= 8 {
		return 1
	}
	return 1 + w.ThreadReadAmplification*float64(threads-8)/40
}

// scaled returns a copy of phase ph with demands scaled from the
// workload's base concurrency to the requested one.
func (w *Workload) scaled(ph memsys.Phase, threads int) memsys.Phase {
	ratio := w.phaseSpeedRatio(ph.Name, threads)
	ph.ReadBW = units.Bandwidth(float64(ph.ReadBW) * ratio * w.readAmp(threads) / w.readAmp(w.BaseThreads))
	ph.WriteBW = units.Bandwidth(float64(ph.WriteBW) * ratio * w.htAmp(threads) / w.htAmp(w.BaseThreads))
	return ph
}

// Run evaluates the workload on the system at the given concurrency.
// For Placed mode use RunPlaced.
func Run(w *Workload, sys *memsys.System, threads int) (Result, error) {
	return run(w, sys, threads, nil)
}

// RunPlaced evaluates the workload under per-structure placement:
// inDRAM lists the structure names assigned to DRAM.
func RunPlaced(w *Workload, sys *memsys.System, threads int, inDRAM map[string]bool) (Result, error) {
	if sys.Mode != memsys.Placed {
		return Result{}, fmt.Errorf("workload: RunPlaced requires Placed mode, got %v", sys.Mode)
	}
	split := w.SplitFor(inDRAM)
	return run(w, sys, threads, &split)
}

// SplitFor derives the traffic split implied by placing the named
// structures in DRAM.
func (w *Workload) SplitFor(inDRAM map[string]bool) memsys.Split {
	var s memsys.Split
	for _, st := range w.Structures {
		if inDRAM[st.Name] {
			s.DRAMReadFrac += st.ReadFrac
			s.DRAMWriteFrac += st.WriteFrac
		}
	}
	s.DRAMReadFrac = units.Clamp(s.DRAMReadFrac, 0, 1)
	s.DRAMWriteFrac = units.Clamp(s.DRAMWriteFrac, 0, 1)
	return s
}

func run(w *Workload, sys *memsys.System, threads int, split *memsys.Split) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if threads < 1 || threads > MaxThreads {
		return Result{}, fmt.Errorf("workload %s: threads %d out of [1,%d]", w.Name, threads, MaxThreads)
	}

	res := Result{Workload: w, Mode: sys.Mode, Threads: threads,
		Phases: make([]PhaseOutcome, 0, len(w.Phases))}
	var total units.Duration
	var rB, wB, nrB, nwB float64 // traffic bytes by device/direction
	for _, ph := range w.Phases {
		sp := w.scaled(ph, threads)
		var epoch memsys.EpochResult
		if split != nil {
			epoch = sys.SolvePlaced(sp, threads, *split)
		} else {
			epoch = sys.SolveEpoch(sp, threads)
		}
		// Baseline phase time at this concurrency, dilated by the epoch
		// multiplier.
		base := units.Duration(ph.Share * float64(w.BaselineTime) / w.phaseSpeedRatio(ph.Name, threads))
		pt := units.Duration(float64(base) * epoch.Mult)
		total += pt
		res.Phases = append(res.Phases, PhaseOutcome{Phase: sp, Epoch: epoch, Time: pt})
		sec := pt.Seconds()
		rB += float64(epoch.DRAMRead) * sec
		wB += float64(epoch.DRAMWrite) * sec
		nrB += float64(epoch.NVMRead) * sec
		nwB += float64(epoch.NVMWrite) * sec
	}
	res.Time = total
	if sec := total.Seconds(); sec > 0 {
		res.AvgDRAMRead = units.Bandwidth(rB / sec)
		res.AvgDRAMWrite = units.Bandwidth(wB / sec)
		res.AvgNVMRead = units.Bandwidth(nrB / sec)
		res.AvgNVMWrite = units.Bandwidth(nwB / sec)
	}

	// Slowdown versus DRAM at the same concurrency. The reference system
	// is read-only during solving, so one instance serves every phase.
	dramTime := units.Duration(0)
	dsys := memsys.New(sys.Socket, memsys.DRAMOnly)
	for _, ph := range w.Phases {
		sp := w.scaled(ph, threads)
		e := dsys.SolveEpoch(sp, threads)
		dramTime += units.Duration(ph.Share * float64(w.BaselineTime) / w.phaseSpeedRatio(ph.Name, threads) * e.Mult)
	}
	res.Slowdown = units.Ratio(float64(res.Time), float64(dramTime))

	if w.FoM.Higher {
		// Rate FoM scales inversely with time relative to the baseline.
		res.FoMValue = w.FoM.BaseValue * float64(w.BaselineTime) / float64(res.Time)
	} else {
		res.FoMValue = res.Time.Seconds()
	}
	return res, nil
}

// Timeline renders the result as trace segments, interleaving phases
// according to the workload's iteration structure.
func (r Result) Timeline() []trace.Segment {
	iters := r.Workload.TraceIterations
	if iters < 1 {
		iters = 1
	}
	per := make([]trace.Segment, 0, len(r.Phases))
	for _, po := range r.Phases {
		per = append(per, trace.Segment{
			Name:      po.Phase.Name,
			Duration:  units.Duration(float64(po.Time) / float64(iters)),
			DRAMRead:  po.Epoch.DRAMRead,
			DRAMWrite: po.Epoch.DRAMWrite,
			NVMRead:   po.Epoch.NVMRead,
			NVMWrite:  po.Epoch.NVMWrite,
		})
	}
	return trace.Repeat(per, iters)
}

// Trace reconstructs the bandwidth time series for the result.
func (r Result) Trace(samples int, noise float64) trace.Trace {
	return trace.Build(r.Timeline(), samples, noise, r.Workload.Seed+uint64(r.Mode)*1000+uint64(r.Threads))
}

// Profile converts the result into the counter-synthesis input.
func (r Result) Profile(freqGHz float64) counters.RunProfile {
	sec := r.Time.Seconds()
	var stall float64
	for _, po := range r.Phases {
		if po.Epoch.Mult > 0 {
			stall += po.Time.Seconds() / sec * (1 - 1/po.Epoch.Mult)
		}
	}
	// Memory stalls exist on DRAM too; the multiplier only captures the
	// configuration-induced extra stalls. Add a base memory-boundedness
	// floor proportional to traffic intensity.
	base := units.Clamp(r.AvgTotal().GBpsValue()/120, 0, 0.5)
	return counters.RunProfile{
		Work:         r.Workload.Work,
		Time:         r.Time,
		Threads:      r.Threads,
		FreqGHz:      freqGHz,
		MemStallFrac: units.Clamp(stall+base, 0, 0.98),
		ReadBytes:    float64(r.AvgRead()) * sec,
		WriteBytes:   float64(r.AvgWrite()) * sec,
	}
}

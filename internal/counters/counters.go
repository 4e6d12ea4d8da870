// Package counters synthesizes the hardware-event measurements the paper
// collects with the Intel Processor Counter Monitor (PCM): the six
// critical events of Table IV plus IPC, and per-DIMM bandwidth counters.
//
// On the real testbed these come from core and offcore counters; here
// they are derived from the epoch solver's outputs (work, time, memory
// boundedness, achieved traffic), with optional measurement noise so the
// Section V-A regression pipeline faces realistic data.
package counters

import (
	"repro/internal/units"
	"repro/internal/xrand"
)

// EventID indexes the six critical events of the paper's Table IV.
type EventID int

const (
	// P0: Instruction Retired.
	InstructionsRetired EventID = iota
	// P1: Cycles Active.
	CyclesActive
	// P2: Cycles stalled due to Resource Related reason.
	CyclesStalledResource
	// P3: Cycles in waiting for outstanding offcore requests.
	CyclesOffcoreWait
	// P4: Count of the number of reads issued to memory controllers.
	IMCReads
	// P5: Counts of Writes Issued to the iMC by the HA.
	IMCWrites

	NumEvents
)

// Events is one profiling sample: counts of the six critical events over
// a measurement interval.
type Events struct {
	Counts [NumEvents]float64
	// IPC is instructions per cycle over the interval (the model's
	// response variable and the per-event scaling factor IPC_s).
	IPC float64
}

// RunProfile carries the solver outputs needed to synthesize counters
// for one application run.
type RunProfile struct {
	// Work is the abstract instruction count of the run (config
	// independent; set by the workload from its input size).
	Work float64
	// Time is the modelled execution time.
	Time units.Duration
	// Threads is the application concurrency.
	Threads int
	// FreqGHz is the core clock.
	FreqGHz float64
	// MemStallFrac is the fraction of cycles stalled on memory
	// (derived from the epoch multipliers: (m-1)/m averaged over phases).
	MemStallFrac float64
	// ReadBytes and WriteBytes are total achieved traffic.
	ReadBytes, WriteBytes float64
}

// Synthesize converts a run profile into PCM-style event counts.
// noiseFrac adds multiplicative Gaussian noise (e.g. 0.02 for 2%
// measurement noise); pass a nil rng for noiseless counters.
func Synthesize(p RunProfile, noiseFrac float64, rng *xrand.Rand) Events {
	seconds := p.Time.Seconds()
	if seconds <= 0 || p.Threads < 1 {
		return Events{}
	}
	cycles := seconds * p.FreqGHz * 1e9 * float64(p.Threads)
	stall := cycles * units.Clamp(p.MemStallFrac, 0, 1)
	ev := Events{}
	ev.Counts[InstructionsRetired] = p.Work
	ev.Counts[CyclesActive] = cycles
	ev.Counts[CyclesStalledResource] = stall
	// Offcore waits track memory stalls but saturate earlier (a fraction
	// of resource stalls are offcore-bound).
	ev.Counts[CyclesOffcoreWait] = stall * 0.8
	ev.Counts[IMCReads] = p.ReadBytes / units.CacheLine
	ev.Counts[IMCWrites] = p.WriteBytes / units.CacheLine
	if rng != nil && noiseFrac > 0 {
		for i := range ev.Counts {
			ev.Counts[i] *= 1 + rng.Norm(0, noiseFrac)
			if ev.Counts[i] < 0 {
				ev.Counts[i] = 0
			}
		}
	}
	if c := ev.Counts[CyclesActive]; c > 0 {
		ev.IPC = ev.Counts[InstructionsRetired] / c
	}
	return ev
}

// BandwidthSample is one interval of the per-DIMM bandwidth profiling the
// paper's routines collect (Section III): traffic split by device class
// and direction.
type BandwidthSample struct {
	Time                units.Duration
	DRAMRead, DRAMWrite units.Bandwidth
	NVMRead, NVMWrite   units.Bandwidth
}

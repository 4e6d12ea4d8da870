package memsys

import (
	"testing"

	"repro/internal/memdev"
	"repro/internal/units"
)

func TestDefaultNUMA(t *testing.T) {
	n := DefaultNUMA()
	if !n.Remote || n.UPIBandwidth != units.GBps(34) {
		t.Errorf("defaults: %+v", n)
	}
}

func TestNUMACapBW(t *testing.T) {
	n := DefaultNUMA()
	// High local capability is clamped to the UPI link.
	if got := n.capBW(units.GBps(100)); got != units.GBps(34) {
		t.Errorf("capBW(100) = %v, want 34 GB/s", got)
	}
	// Low local capability only pays the derate.
	if got := n.capBW(units.GBps(10)); got != units.GBps(8.5) {
		t.Errorf("capBW(10) = %v, want 8.5 GB/s", got)
	}
	// Local (zero value) is a no-op.
	local := NUMA{}
	if got := local.capBW(units.GBps(100)); got != units.GBps(100) {
		t.Errorf("local capBW changed: %v", got)
	}
}

func TestNUMACapLatency(t *testing.T) {
	n := DefaultNUMA()
	if got := n.capLatency(units.Nanoseconds(100)); got != units.Nanoseconds(170) {
		t.Errorf("capLatency = %v", got)
	}
	if got := (NUMA{}).capLatency(units.Nanoseconds(100)); got != units.Nanoseconds(100) {
		t.Errorf("local latency changed: %v", got)
	}
}

// Remote NVM is strictly worse than local NVM — the reason the paper
// pins to the local socket.
func TestRemoteUncachedSlower(t *testing.T) {
	local := New(sock(), UncachedNVM)
	remote := New(sock(), UncachedNVM)
	remote.NUMA = DefaultNUMA()
	ph := Phase{
		Name: "lookups", Share: 1,
		ReadBW: units.GBps(67), WriteBW: units.MBps(10),
		ReadMix: Pure(memdev.Random), WritePattern: memdev.Sequential,
		WorkingSet: 70 * units.GiB,
	}
	lm := local.SolveEpoch(ph, 48).Mult
	rm := remote.SolveEpoch(ph, 48).Mult
	if rm <= lm {
		t.Errorf("remote NVM mult %v should exceed local %v", rm, lm)
	}
}

// Remote DRAM saturates at the UPI bandwidth for high-demand streams.
func TestRemoteDRAMCapped(t *testing.T) {
	local := New(sock(), DRAMOnly)
	remote := New(sock(), DRAMOnly)
	remote.NUMA = DefaultNUMA()
	ph := Phase{
		Name: "stream", Share: 1,
		ReadBW: units.GBps(80), WriteBW: 0,
		ReadMix: Pure(memdev.Sequential), WritePattern: memdev.Sequential,
		WorkingSet: 10 * units.GiB,
	}
	lr := local.SolveEpoch(ph, 48)
	rr := remote.SolveEpoch(ph, 48)
	if lr.Mult > 1.01 {
		t.Errorf("local 80 GB/s stream should be unconstrained, mult %v", lr.Mult)
	}
	if got := rr.DRAMRead.GBpsValue(); got > 34.5 {
		t.Errorf("remote achieved read %v exceeds UPI", got)
	}
	if rr.Mult < 2.0 {
		t.Errorf("remote mult = %v, want >= 2 (80 GB/s over a 34 GB/s link)", rr.Mult)
	}
}

// Remote cached-NVM also degrades (both the fill path and the writeback
// path cross the link).
func TestRemoteCachedSlower(t *testing.T) {
	local := New(sock(), CachedNVM)
	remote := New(sock(), CachedNVM)
	remote.NUMA = DefaultNUMA()
	ph := Phase{
		Name: "smooth", Share: 1,
		ReadBW: units.GBps(80), WriteBW: units.GBps(5),
		ReadMix: Mix(
			MixComponent{memdev.Strided, 0.55},
			MixComponent{memdev.Gather, 0.45},
		),
		WritePattern: memdev.Gather,
		WorkingSet:   units.GB(0.75 * 96),
	}
	lm := local.SolveEpoch(ph, 48).Mult
	rm := remote.SolveEpoch(ph, 48).Mult
	if rm <= lm {
		t.Errorf("remote cached mult %v should exceed local %v", rm, lm)
	}
}

package memsys

import (
	"repro/internal/units"
)

// NUMA describes cross-socket access penalties. The paper pins every
// experiment to the local socket precisely because remote accesses
// through UPI are severely penalized ([9], [12], [21]); this extension
// models that exclusion so it can be quantified: remote traffic is
// capped by the UPI link bandwidth and pays the cross-socket latency.
type NUMA struct {
	// Remote marks the memory as attached to the other socket.
	Remote bool
	// UPIBandwidth is the effective cross-socket bandwidth
	// (Table I: UPI at 10.4 GT/s; ~34 GB/s effective for memory
	// traffic).
	UPIBandwidth units.Bandwidth
	// ExtraLatency is the added cross-socket hop latency.
	ExtraLatency units.Duration
	// Derate scales device capability even under the UPI cap (protocol
	// overhead of remote snoops).
	Derate float64
}

// DefaultNUMA returns the Purley cross-socket penalty model.
func DefaultNUMA() NUMA {
	return NUMA{
		Remote:       true,
		UPIBandwidth: units.GBps(34),
		ExtraLatency: units.Nanoseconds(70),
		Derate:       0.85,
	}
}

// capBW applies the NUMA penalty to a device capability.
func (n NUMA) capBW(local units.Bandwidth) units.Bandwidth {
	if !n.Remote {
		return local
	}
	v := units.Bandwidth(float64(local) * n.Derate)
	if n.UPIBandwidth > 0 && v > n.UPIBandwidth {
		v = n.UPIBandwidth
	}
	return v
}

// capLatency applies the NUMA penalty to an access latency.
func (n NUMA) capLatency(local units.Duration) units.Duration {
	if !n.Remote {
		return local
	}
	return local + n.ExtraLatency
}

// Package platform describes the machine under simulation: the two-socket
// Intel Purley testbed of the paper's Table I, with its processor, cache
// hierarchy, iMC/channel wiring, DRAM DIMM and Optane NVDIMM populations,
// and the NUMA exposure used by the AppDirect experiments.
package platform

import (
	"fmt"
	"strings"

	"repro/internal/memdev"
	"repro/internal/units"
)

// Processor captures the CPU parameters from Table I that matter to the
// model: core count per socket, nominal and turbo frequency, and the
// cache hierarchy sizes (documented; the epoch model folds on-chip cache
// behaviour into per-workload demand profiles).
type Processor struct {
	Model          string
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	BaseGHz        float64
	TurboGHz       float64

	L1I, L1D units.Bytes // per core
	L2       units.Bytes // per core
	L3       units.Bytes // per socket, shared
}

// Socket is one NUMA domain: a processor socket with its local DRAM and
// NVM device populations behind two iMCs and six channels.
type Socket struct {
	ID       int
	IMCs     int
	Channels int
	DRAM     *memdev.Device
	NVM      *memdev.Device
}

// Machine is the full platform.
type Machine struct {
	Name      string
	CPU       Processor
	SocketSet []*Socket
	// UPI link rate between the sockets (GT/s); the paper's experiments
	// pin to the local socket, so UPI is descriptive here.
	UPIGTs float64
	// ChannelGTs is the memory channel transfer rate (2400 GT/s in
	// Table I, 230.4 GB/s peak system bandwidth).
	ChannelGTs float64
}

// NewPurley builds the paper's testbed:
//
//	2x 2nd-gen Xeon Scalable, 24 cores (48 HT) per socket at 2.4 GHz,
//	192 GB DRAM (12x 16 GB DDR4), 1.5 TB NVM (12x 128 GB Optane DC),
//	2 iMCs and 6 channels per socket, UPI at 10.4 GT/s.
func NewPurley() *Machine {
	cpu := Processor{
		Model:          "2nd Gen Intel Xeon Scalable",
		Sockets:        2,
		CoresPerSocket: 24,
		ThreadsPerCore: 2,
		BaseGHz:        2.4,
		TurboGHz:       3.9,
		L1I:            32 * units.KiB,
		L1D:            32 * units.KiB,
		L2:             1 * units.MiB,
		L3:             units.Bytes(35.75 * float64(units.MiB)),
	}
	m := &Machine{
		Name:       "Intel Purley (Table I)",
		CPU:        cpu,
		UPIGTs:     10.4,
		ChannelGTs: 2400,
	}
	for s := 0; s < cpu.Sockets; s++ {
		m.SocketSet = append(m.SocketSet, &Socket{
			ID:       s,
			IMCs:     2,
			Channels: 6,
			DRAM:     memdev.NewDRAM(),
			NVM:      memdev.NewNVM(),
		})
	}
	return m
}

// Socket returns socket i, panicking on out-of-range access (a
// programming error in experiment setup).
func (m *Machine) Socket(i int) *Socket {
	if i < 0 || i >= len(m.SocketSet) {
		panic(fmt.Sprintf("platform: socket %d out of range [0,%d)", i, len(m.SocketSet)))
	}
	return m.SocketSet[i]
}

// DRAMCapacity returns total DRAM across sockets.
func (m *Machine) DRAMCapacity() units.Bytes {
	var total units.Bytes
	for _, s := range m.SocketSet {
		total += s.DRAM.Capacity
	}
	return total
}

// NVMCapacity returns total NVM across sockets.
func (m *Machine) NVMCapacity() units.Bytes {
	var total units.Bytes
	for _, s := range m.SocketSet {
		total += s.NVM.Capacity
	}
	return total
}

// PeakSystemBandwidth returns the aggregate DRAM channel bandwidth
// (Table I: 230.4 GB/s for 12 channels at 2400 GT/s, 8 bytes wide).
func (m *Machine) PeakSystemBandwidth() units.Bandwidth {
	channels := 0
	for _, s := range m.SocketSet {
		channels += s.Channels
	}
	return units.Bandwidth(m.ChannelGTs * 1e6 * 8 * float64(channels))
}

// SpecTable renders the platform as the rows of the paper's Table I.
func (m *Machine) SpecTable() string {
	var b strings.Builder
	w := func(k, v string) { fmt.Fprintf(&b, "%-14s %s\n", k, v) }
	w("Processor", m.CPU.Model)
	w("Cores", fmt.Sprintf("%.1f GHz (%.1f GHz Turbo) x %d cores (%d HT) x %d sockets",
		m.CPU.BaseGHz, m.CPU.TurboGHz, m.CPU.CoresPerSocket,
		m.CPU.CoresPerSocket*m.CPU.ThreadsPerCore, m.CPU.Sockets))
	w("L1-icache", fmt.Sprintf("private, %s, 8-way set associative, write-back", m.CPU.L1I))
	w("L1-dcache", fmt.Sprintf("private, %s, 8-way set associative, write-back", m.CPU.L1D))
	w("L2-cache", fmt.Sprintf("private, %s, 16-way set associative, write-back", m.CPU.L2))
	w("L3-cache", fmt.Sprintf("shared, %s, 11-way set associative, non-inclusive write-back", m.CPU.L3))
	s := m.Socket(0)
	w("DRAM", fmt.Sprintf("six %s DDR4 DIMMs x %d sockets", units.Bytes(16*units.GiB), m.CPU.Sockets))
	w("NVM", fmt.Sprintf("six %s Optane DC NVDIMMs x %d sockets", units.Bytes(128*units.GiB), m.CPU.Sockets))
	w("iMC/channels", fmt.Sprintf("%d iMCs, %d channels per socket at %.0f GT/s", s.IMCs, s.Channels, m.ChannelGTs))
	w("Interconnect", fmt.Sprintf("Intel UPI at %.1f GT/s", m.UPIGTs))
	w("Peak BW", m.PeakSystemBandwidth().String())
	return b.String()
}

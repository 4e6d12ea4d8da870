package platform

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestPurleyTableI(t *testing.T) {
	m := NewPurley()
	if got := m.CPU.Sockets * m.CPU.CoresPerSocket; got != 48 {
		t.Errorf("total cores = %d, want 48", got)
	}
	if got := m.CPU.Sockets * m.CPU.CoresPerSocket * m.CPU.ThreadsPerCore; got != 96 {
		t.Errorf("total threads = %d, want 96", got)
	}
	if got := m.DRAMCapacity(); got != 192*units.GiB {
		t.Errorf("DRAM capacity = %v, want 192 GiB", got)
	}
	if got := m.NVMCapacity(); got != units.Bytes(1.5*float64(units.TiB)) {
		t.Errorf("NVM capacity = %v, want 1.5 TiB", got)
	}
	// Table I: 230.4 GB/s peak system bandwidth.
	if got := m.PeakSystemBandwidth().GBpsValue(); got < 230.3 || got > 230.5 {
		t.Errorf("peak system bandwidth = %v GB/s, want 230.4", got)
	}
}

func TestSocketWiring(t *testing.T) {
	m := NewPurley()
	if len(m.SocketSet) != 2 {
		t.Fatalf("sockets = %d", len(m.SocketSet))
	}
	for i, s := range m.SocketSet {
		if s.ID != i {
			t.Errorf("socket %d has ID %d", i, s.ID)
		}
		if s.IMCs != 2 || s.Channels != 6 {
			t.Errorf("socket %d wiring: %d iMC, %d channels", i, s.IMCs, s.Channels)
		}
		if s.DRAM == nil || s.NVM == nil {
			t.Fatalf("socket %d missing devices", i)
		}
		if s.DRAM.Capacity != 96*units.GiB {
			t.Errorf("socket %d DRAM = %v", i, s.DRAM.Capacity)
		}
		if s.NVM.Capacity != 768*units.GiB {
			t.Errorf("socket %d NVM = %v", i, s.NVM.Capacity)
		}
	}
}

func TestSocketAccessor(t *testing.T) {
	m := NewPurley()
	if m.Socket(1).ID != 1 {
		t.Error("Socket(1) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Socket(5) should panic")
		}
	}()
	m.Socket(5)
}

func TestSpecTable(t *testing.T) {
	spec := NewPurley().SpecTable()
	for _, want := range []string{
		"2nd Gen Intel Xeon Scalable",
		"24 cores (48 HT) x 2 sockets",
		"six 16.0 GiB DDR4 DIMMs",
		"six 128.0 GiB Optane DC NVDIMMs",
		"10.4 GT/s",
		"2.4 GHz (3.9 GHz Turbo)",
	} {
		if !strings.Contains(spec, want) {
			t.Errorf("SpecTable missing %q in:\n%s", want, spec)
		}
	}
}

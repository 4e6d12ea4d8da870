package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if LinesPerMediaBlock != 4 {
		t.Fatalf("LinesPerMediaBlock = %d, want 4", LinesPerMediaBlock)
	}
	if CacheLine != 64 || MediaBlock != 256 {
		t.Fatalf("granularities: line=%d block=%d", CacheLine, MediaBlock)
	}
}

func TestConstructors(t *testing.T) {
	if GB(1) != GiB {
		t.Errorf("GB(1) = %d, want %d", GB(1), int64(GiB))
	}
	if GBps(39).GBpsValue() != 39 {
		t.Errorf("GBps round trip: %v", GBps(39).GBpsValue())
	}
	if MBps(894).MBpsValue() != 894 {
		t.Errorf("MBps round trip: %v", MBps(894).MBpsValue())
	}
	if math.Abs(Nanoseconds(174).Seconds()-174e-9) > 1e-18 {
		t.Errorf("Nanoseconds(174) = %v", Nanoseconds(174).Seconds())
	}
}

func TestLines(t *testing.T) {
	cases := []struct {
		b    Bytes
		want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, c := range cases {
		if got := c.b.Lines(); got != c.want {
			t.Errorf("Lines(%d) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{64, "64 B"},
		{2 * KiB, "2.0 KiB"},
		{3 * MiB, "3.0 MiB"},
		{192 * GiB, "192.0 GiB"},
		{Bytes(1.5 * TiB), "1.50 TiB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		b    Bandwidth
		want string
	}{
		{GBps(39), "39.0 GB/s"},
		{MBps(894), "894 MB/s"},
		{Bandwidth(500), "500 B/s"},
		{Bandwidth(40e3), "40 KB/s"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("Bandwidth.String() = %q, want %q", got, c.want)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{Nanoseconds(174), "174 ns"},
		{Duration(0), "0 s"},
		{Duration(2.5), "2.50 s"},
		{Duration(90), "1.5 min"},
		{Duration(7200), "2.00 h"},
		{Duration(5e-3), "5.0 ms"},
		{Duration(5e-6), "5.0 us"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%v).String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3) != 2")
	}
}

// Property: Lines is consistent with the 256-byte media blocks covering
// the same bytes (a media block covers exactly LinesPerMediaBlock lines).
func TestLinesMediaBlocksProperty(t *testing.T) {
	f := func(raw uint32) bool {
		b := Bytes(raw)
		l, m := b.Lines(), (int64(b)+MediaBlock-1)/MediaBlock
		if l < m {
			return false // cannot need fewer lines than blocks
		}
		return l <= m*LinesPerMediaBlock
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp output is always within bounds.
func TestClampProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		v := Clamp(x, -1, 1)
		return v >= -1 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

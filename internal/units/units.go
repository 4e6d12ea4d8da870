// Package units defines the byte, bandwidth, and time quantities used
// throughout the simulator, together with formatting helpers.
//
// The simulator works in SI-ish units internally: bytes, bytes/second, and
// seconds (float64). The constants here mirror the conventions of the paper
// ("GB/s" means 1e9 bytes per second, "GB" means 2^30 bytes for capacities,
// matching how memory DIMM capacities versus bandwidths are usually quoted).
package units

import (
	"fmt"
	"math"
)

// Byte quantities. Capacities use binary prefixes (a "16-GB DIMM" holds
// 16 * 2^30 bytes).
const (
	Byte = 1
	KiB  = 1 << 10
	MiB  = 1 << 20
	GiB  = 1 << 30
	TiB  = 1 << 40
)

// Bandwidth quantities use decimal prefixes (a "39 GB/s" device moves
// 39e9 bytes per second), matching vendor and paper conventions.
const (
	BytePerSec = 1.0
	KBPerSec   = 1e3
	MBPerSec   = 1e6
	GBPerSec   = 1e9
)

// Time quantities in seconds.
const (
	Second      = 1.0
	Millisecond = 1e-3
	Microsecond = 1e-6
	Nanosecond  = 1e-9
)

// CacheLine is the transfer granularity between processor and memory
// subsystem on the modelled platform (64 bytes).
const CacheLine = 64

// MediaBlock is the internal access granularity of the Optane media
// (256 bytes); a 64-byte store touches a full 256-byte media block.
const MediaBlock = 256

// LinesPerMediaBlock is the number of cache lines per NVM media block.
const LinesPerMediaBlock = MediaBlock / CacheLine

// Bytes is a byte quantity. It is an int64 so that multi-terabyte
// capacities and cumulative traffic counters do not overflow float
// precision in accounting paths.
type Bytes int64

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// Duration is a model time interval in seconds. We deliberately do not use
// time.Duration: model times routinely exceed hours and need fractional
// nanoseconds during rate computations.
type Duration float64

// GB constructs a capacity of n binary gigabytes.
func GB(n float64) Bytes { return Bytes(n * GiB) }

// GBps constructs a bandwidth of n decimal gigabytes per second.
func GBps(n float64) Bandwidth { return Bandwidth(n * GBPerSec) }

// MBps constructs a bandwidth of n decimal megabytes per second.
func MBps(n float64) Bandwidth { return Bandwidth(n * MBPerSec) }

// Nanoseconds constructs a duration of n nanoseconds.
func Nanoseconds(n float64) Duration { return Duration(n * Nanosecond) }

// Seconds returns the duration in seconds as a plain float64.
func (d Duration) Seconds() float64 { return float64(d) }

// GBpsValue returns the bandwidth expressed in decimal GB/s.
func (b Bandwidth) GBpsValue() float64 { return float64(b) / GBPerSec }

// MBpsValue returns the bandwidth expressed in decimal MB/s.
func (b Bandwidth) MBpsValue() float64 { return float64(b) / MBPerSec }

// GiBValue returns the byte quantity expressed in binary gigabytes.
func (b Bytes) GiBValue() float64 { return float64(b) / GiB }

// Lines returns the number of 64-byte cache lines covering b bytes,
// rounding up.
func (b Bytes) Lines() int64 {
	if b <= 0 {
		return 0
	}
	return (int64(b) + CacheLine - 1) / CacheLine
}

// String renders a byte quantity with a binary-prefix unit chosen for
// readability: "1.50 TiB", "490.0 GiB", "64 B".
func (b Bytes) String() string {
	v := float64(b)
	abs := math.Abs(v)
	switch {
	case abs >= TiB:
		return fmt.Sprintf("%.2f TiB", v/TiB)
	case abs >= GiB:
		return fmt.Sprintf("%.1f GiB", v/GiB)
	case abs >= MiB:
		return fmt.Sprintf("%.1f MiB", v/MiB)
	case abs >= KiB:
		return fmt.Sprintf("%.1f KiB", v/KiB)
	default:
		return fmt.Sprintf("%d B", int64(v))
	}
}

// String renders a bandwidth as "39.0 GB/s", "894 MB/s", etc.
func (b Bandwidth) String() string {
	v := float64(b)
	abs := math.Abs(v)
	switch {
	case abs >= GBPerSec:
		return fmt.Sprintf("%.1f GB/s", v/GBPerSec)
	case abs >= MBPerSec:
		return fmt.Sprintf("%.0f MB/s", v/MBPerSec)
	case abs >= KBPerSec:
		return fmt.Sprintf("%.0f KB/s", v/KBPerSec)
	default:
		return fmt.Sprintf("%.0f B/s", v)
	}
}

// String renders a duration with an appropriate unit: "2.5 h", "174 ns".
func (d Duration) String() string {
	v := float64(d)
	abs := math.Abs(v)
	switch {
	case abs >= 3600:
		return fmt.Sprintf("%.2f h", v/3600)
	case abs >= 60:
		return fmt.Sprintf("%.1f min", v/60)
	case abs >= 1:
		return fmt.Sprintf("%.2f s", v)
	case abs >= Millisecond:
		return fmt.Sprintf("%.1f ms", v/Millisecond)
	case abs >= Microsecond:
		return fmt.Sprintf("%.1f us", v/Microsecond)
	case abs == 0:
		return "0 s"
	default:
		return fmt.Sprintf("%.0f ns", v/Nanosecond)
	}
}

// Clamp returns x limited to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Ratio returns a/b, or 0 when b is 0; used for read/write ratios and
// normalized metrics where a zero denominator means "no traffic".
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Package dramcache models Intel's Memory mode, in which the platform's
// DRAM becomes a hardware-managed, direct-mapped, write-back cache in
// front of the Optane NVM (paper Section II-A).
//
// Two models are provided:
//
//   - Cache: an operational, address-level direct-mapped write-back cache
//     with a tag store, usable at reduced scale (the tag store is sized by
//     the modelled capacity divided by line size). The address-level
//     simulator drives it to measure hit rates and miss/writeback traffic
//     for concrete access streams.
//
//   - HitModel: the closed-form hit-rate model used by the epoch solver,
//     parameterized by the working set : capacity ratio and the access
//     pattern's conflict sensitivity. Its constants are validated against
//     Cache in tests.
package dramcache

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Request is one memory access driven through the cache: a 64-byte line
// index plus a store flag. internal/addrsim generates streams of these.
type Request struct {
	Line  int64 // 64-byte line index (non-negative)
	Write bool
}

// Cache is a direct-mapped, write-back, write-allocate cache with 64-byte
// lines, indexed by the low bits of the physical line address — the
// organization of DRAM in Memory mode.
//
// The tag store packs each set into one int64 word so an access costs a
// single mask and a single array load on the hot path:
//
//	word == 0              invalid (the zero value make() provides)
//	word == (line+1)<<1|d  holds line, with dirty bit d
//
// Line addresses must be non-negative (they are line indexes,
// byte address / 64; Access panics otherwise, since a negative address
// could alias the sentinel) and below 2^62.
type Cache struct {
	sets  int64
	mask  int64   // sets-1; sets is always a power of two
	words []int64 // packed tag+dirty per set

	// Statistics (in lines).
	Hits       int64
	Misses     int64
	Writebacks int64
	Fills      int64
}

// NewCache builds a cache of the given capacity. Capacity must cover at
// least one line; it is rounded up to the next whole line and then to the
// next power-of-two set count, so indexing is a mask rather than a modulo
// (the effective size is capacity/64 sets for the power-of-two
// capacities the simulator sweeps). For large modelled
// capacities use a scaled-down capacity with the same working-set ratio
// (set sampling); hit rates are ratio-invariant for the streams we study,
// which is itself verified by a property test.
func NewCache(capacity units.Bytes) *Cache {
	if int64(capacity) < units.CacheLine {
		panic(fmt.Sprintf("dramcache: capacity %v below one line", capacity))
	}
	lines := (int64(capacity) + units.CacheLine - 1) / units.CacheLine
	sets := int64(1)
	for sets < lines {
		sets <<= 1
	}
	// The zero value of a word is the invalid sentinel, so the slice is
	// ready as allocated — one zeroing pass, no rewrite.
	return &Cache{sets: sets, mask: sets - 1, words: make([]int64, sets)}
}

// Access performs one line access. lineAddr is the 64-byte-aligned line
// index; write marks a store. It reports whether the access hit and
// whether a dirty victim was written back. It does not allocate.
func (c *Cache) Access(lineAddr int64, write bool) (hit, writeback bool) {
	if lineAddr < 0 {
		panic(fmt.Sprintf("dramcache: negative line address %d", lineAddr))
	}
	set := lineAddr & c.mask
	w := c.words[set]
	tagged := (lineAddr + 1) << 1
	if w&^1 == tagged {
		c.Hits++
		if write {
			c.words[set] = w | 1
		}
		return true, false
	}
	// Miss: allocate (write-allocate policy), evicting any victim. A set
	// is valid-and-dirty exactly when its dirty bit is set (the invalid
	// sentinel 0 has it clear).
	c.Misses++
	if w&1 != 0 {
		c.Writebacks++
		writeback = true
	}
	if write {
		tagged |= 1
	}
	c.words[set] = tagged
	c.Fills++
	return false, writeback
}

// AccessBatch drives a request slice through the cache, equivalent to
// calling Access per element but with the tag store and statistics kept
// in registers across the batch. It returns the number of hits in the
// batch.
func (c *Cache) AccessBatch(reqs []Request) (hits int64) {
	words, mask := c.words, c.mask
	var h, m, wb, f int64
	for _, r := range reqs {
		if r.Line < 0 {
			panic(fmt.Sprintf("dramcache: negative line address %d", r.Line))
		}
		set := r.Line & mask
		w := words[set]
		tagged := (r.Line + 1) << 1
		if w&^1 == tagged {
			h++
			if r.Write {
				words[set] = w | 1
			}
			continue
		}
		m++
		if w&1 != 0 {
			wb++
		}
		if r.Write {
			tagged |= 1
		}
		words[set] = tagged
		f++
	}
	c.Hits += h
	c.Misses += m
	c.Writebacks += wb
	c.Fills += f
	return h
}

// HitRate returns hits / (hits + misses), or 0 with no accesses.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Reset clears statistics but keeps cache contents, so a warm-up pass can
// be excluded from measurement.
func (c *Cache) Reset() {
	c.Hits, c.Misses, c.Writebacks, c.Fills = 0, 0, 0, 0
}

// Traffic summarizes the memory-side traffic implied by the recorded
// activity: every miss fills a line from NVM (NVM read + DRAM fill write)
// and every writeback stores a line to NVM.
type Traffic struct {
	NVMReadLines  int64
	NVMWriteLines int64
	DRAMFillLines int64
}

// Traffic derives memory-side traffic from the cache statistics.
func (c *Cache) Traffic() Traffic {
	return Traffic{NVMReadLines: c.Misses, NVMWriteLines: c.Writebacks, DRAMFillLines: c.Fills}
}

// HitModel is the closed-form Memory-mode hit-rate model used by the
// epoch solver.
//
// Regimes (ws = working set per sweep, C = cache capacity):
//
//   - ws ≤ C ("fits"): hits dominate; misses come from direct-mapped set
//     conflicts between concurrently swept streams. Conflict misses grow
//     with occupancy ws/C following 1−exp(−ws/C) (the probability a line
//     shares its set with another live line under random placement),
//     scaled by the pattern's conflict sensitivity.
//
//   - ws > C ("thrashes"): a direct-mapped cache holds at most C of the
//     working set; the hit rate decays toward C/ws scaled by the
//     pattern's reuse friendliness (streaming sweeps get almost no reuse
//     before eviction; blocked/clustered patterns keep their hot fraction
//     resident).
type HitModel struct {
	Capacity units.Bytes
}

// RateParams returns the modelled hit rate for a phase with the given
// working set, conflict sensitivity and spatial locality. The epoch
// solver blends several patterns' parameters and applies per-phase
// aliasing boosts to the conflict sensitivity before it calls this.
func (h HitModel) RateParams(workingSet units.Bytes, conflictSens, locality float64) float64 {
	if h.Capacity <= 0 {
		return 0
	}
	conflictSens = units.Clamp(conflictSens, 0, 1)
	rho := float64(workingSet) / float64(h.Capacity)
	if rho <= 0 {
		return 1
	}
	if rho <= 1 {
		conflict := conflictSens * (1 - math.Exp(-rho))
		return units.Clamp(1-conflict, 0, 1)
	}
	// Thrashing regime: resident fraction C/ws, plus the short-term reuse
	// captured by spatial locality (adjacent lines in a fetched block hit
	// before eviction).
	resident := 1 / rho
	reuse := 0.30 + 0.55*locality
	base := 1 - conflictSens*(1-math.Exp(-1)) // continuity at rho=1
	rate := base*resident + (1-resident)*reuse*resident
	// Guarantee monotone decay and [0,1] range.
	return units.Clamp(rate, 0, 1)
}

// DirtyFraction estimates the fraction of evicted lines that are dirty,
// given the phase's write share of traffic (writes/(reads+writes)).
// Write-allocate makes dirtiness track the write share, amplified because
// a single store dirties a whole line.
func DirtyFraction(writeShare float64) float64 {
	return units.Clamp(1.6*writeShare, 0, 1)
}

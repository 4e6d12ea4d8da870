package memdev

import (
	"repro/internal/units"
)

// WPQ is an operational model of the write-pending queue in the Optane
// NVDIMM controller (Apache Pass). Incoming 64-byte line stores are
// buffered; stores to the same 256-byte media block that are co-resident
// in the queue combine into a single media write. The media drains the
// queue at a fixed block rate. When the queue is full, new stores stall
// until a slot drains — the operational origin of the paper's write
// throttling (Section IV-C) and concurrency contention (Section IV-D):
// interleaved store streams from many threads reduce the chance that
// combinable lines are co-resident.
type WPQ struct {
	// Slots is the queue depth in 256-byte media blocks.
	Slots int
	// DrainRate is the media write bandwidth in blocks per second.
	DrainRate float64

	// ring holds the pending media-block addresses in arrival order as a
	// fixed circular buffer (occupancy is bounded by Slots, so the queue
	// never reallocates); pending marks block addresses currently
	// resident.
	ring  []uint64
	head  int
	count int

	pending map[uint64]bool

	// clock advances as stores arrive and the queue drains.
	clock float64
	// drainCredit accumulates fractional drained blocks.
	drainCredit float64

	// Statistics.
	LineStores  int64 // 64-byte stores accepted
	MediaWrites int64 // 256-byte media writes issued
	Stalls      int64 // stores that found the queue full
	StallTime   float64
}

// NewWPQ builds a write-pending queue. The real device's queue depth is
// small (tens of entries); drain rate derives from the media write
// bandwidth.
func NewWPQ(slots int, mediaWriteBW units.Bandwidth) *WPQ {
	if slots < 1 {
		slots = 1
	}
	return &WPQ{
		Slots:     slots,
		DrainRate: float64(mediaWriteBW) / units.MediaBlock,
		ring:      make([]uint64, slots),
		pending:   make(map[uint64]bool, slots),
	}
}

// Store accepts one 64-byte line store at the given model time (seconds).
// lineAddr is the line index (byte address / 64). It returns the stall
// time imposed on the storing thread.
func (w *WPQ) Store(now float64, lineAddr uint64) (stall float64) {
	if now > w.clock {
		w.drainTo(now)
	}
	w.LineStores++
	block := lineAddr / units.LinesPerMediaBlock
	if w.pending[block] {
		// Combine: the line joins an already-pending media write.
		return 0
	}
	if w.count >= w.Slots {
		// Full: wait for one slot to drain.
		w.Stalls++
		wait := 1 / w.DrainRate
		w.clock += wait
		w.StallTime += wait
		w.drainOne()
		stall = wait
	}
	w.ring[(w.head+w.count)%len(w.ring)] = block
	w.count++
	w.pending[block] = true
	return stall
}

// drainTo advances the clock to now, draining queued blocks at DrainRate.
func (w *WPQ) drainTo(now float64) {
	elapsed := now - w.clock
	w.clock = now
	w.drainCredit += elapsed * w.DrainRate
	for w.drainCredit >= 1 && w.count > 0 {
		w.drainCredit--
		w.drainOne()
	}
	if w.count == 0 && w.drainCredit > 1 {
		w.drainCredit = 1 // an empty queue cannot bank unlimited credit
	}
}

// drainOne retires the oldest pending media write.
func (w *WPQ) drainOne() {
	if w.count == 0 {
		return
	}
	block := w.ring[w.head]
	w.head = (w.head + 1) % len(w.ring)
	w.count--
	delete(w.pending, block)
	w.MediaWrites++
}

// Flush drains every pending block and returns the time spent.
func (w *WPQ) Flush() float64 {
	n := w.count
	for w.count > 0 {
		w.drainOne()
	}
	t := float64(n) / w.DrainRate
	w.clock += t
	return t
}

// Len returns the number of media blocks currently pending in the queue.
func (w *WPQ) Len() int { return w.count }

// CombiningRatio reports line stores per media write — 4.0 means perfect
// 256-byte combining; 1.0 means every 64-byte store cost a full media
// write (4x write amplification).
func (w *WPQ) CombiningRatio() float64 {
	if w.MediaWrites == 0 {
		return float64(units.LinesPerMediaBlock)
	}
	return float64(w.LineStores) / float64(w.MediaWrites)
}

// EffectiveWriteBandwidth reports the achieved line-store bandwidth given
// the combining observed so far: media drain bandwidth times the fraction
// of each media write that carried useful new lines.
func (w *WPQ) EffectiveWriteBandwidth() units.Bandwidth {
	ratio := w.CombiningRatio() / float64(units.LinesPerMediaBlock)
	return units.Bandwidth(w.DrainRate * units.MediaBlock * ratio)
}

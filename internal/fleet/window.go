package fleet

import "repro/internal/stats"

// Windowed dispatch: instead of sharding a batch's whole dispatch set
// into chunk structs upfront (at 100k points, hundreds of chunks
// resident before the first pull), the coordinator registers one
// chunkSource per batch — a cursor over the dispatch set compressed
// into ascending expansion-index runs — and a worker's pull carves the
// next chunks from it, never leaving that worker more than
// maxWorkChunks in flight. Chunk bookkeeping is therefore
// O(workers × maxWorkChunks), independent of sweep size; the counter
// test in window_test.go pins the bound.

// maxWorkChunks is the dispatch window: the most chunks one worker may
// hold in flight, and so the most one work response carries. Small
// enough to bound coordinator memory; deep enough that one pull, whose
// results come back as one coalesced post, amortizes both directions
// of the round trip.
const maxWorkChunks = 4

// DefaultStragglerFactor is the analyzer's flagging threshold: a live
// worker whose p50 per-point chunk latency exceeds this multiple of
// the fleet median is reported as a straggler.
const DefaultStragglerFactor = 2.0

// Adaptive chunk sizing bounds: the static chunkTarget formula seeds a
// batch's first chunks, then each worker's measured EWMA throughput
// sizes its next ones (see scheduler.sizeFor), always within [1, 256].
const (
	minChunkPoints = 1
	maxChunkPoints = 256
	// ewmaAlpha weights the newest chunk's measured points/sec against
	// the history; 0.4 tracks a worker's real speed within ~3 chunks
	// without letting one noisy sample whipsaw the size.
	ewmaAlpha = 0.4
)

// span is a half-open run [lo, hi) of expansion indexes.
type span struct{ lo, hi int }

// appendRun extends runs with index i, growing the last span when i is
// contiguous with it. Indexes must arrive ascending.
func appendRun(runs []span, i int) []span {
	if n := len(runs); n > 0 && runs[n-1].hi == i {
		runs[n-1].hi = i + 1
		return runs
	}
	return append(runs, span{lo: i, hi: i + 1})
}

// spansOf compresses a sorted ascending index slice into runs.
func spansOf(sorted []int) []span {
	var runs []span
	for _, i := range sorted {
		runs = appendRun(runs, i)
	}
	return runs
}

// chunkSource lazily carves one batch's dispatch set into chunks. The
// scheduler owns it (all access under the scheduler mutex); memory is
// O(runs), one span per contiguous dispatch stretch — a cold sweep is
// a single span regardless of point count.
type chunkSource struct {
	b         *batch
	runs      []span
	seed      int // cold-start chunk size (static chunkTarget formula)
	remaining int // points not yet carved
}

// next carves the next chunk of up to size points, nil when the source
// is exhausted.
func (src *chunkSource) next(size int) *chunk {
	if src.remaining == 0 {
		return nil
	}
	if size < minChunkPoints {
		size = minChunkPoints
	}
	if size > src.remaining {
		size = src.remaining
	}
	indexes := make([]int, 0, size)
	for size > 0 && len(src.runs) > 0 {
		r := &src.runs[0]
		n := r.hi - r.lo
		if n > size {
			n = size
		}
		for i := 0; i < n; i++ {
			indexes = append(indexes, r.lo+i)
		}
		r.lo += n
		size -= n
		if r.lo == r.hi {
			src.runs = src.runs[1:]
		}
	}
	src.remaining -= len(indexes)
	return &chunk{b: src.b, indexes: indexes}
}

// latRing is a fixed ring of the last per-point chunk latencies
// (seconds per point) one worker reported — the straggler analyzer's
// per-worker sample window.
type latRing struct {
	buf  [32]float64
	n, i int
}

func (r *latRing) push(v float64) {
	r.buf[r.i] = v
	r.i = (r.i + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// quantile returns the q-quantile (0..1, nearest-rank: stats.Quantile)
// of the ring's samples, 0 with no samples.
func (r *latRing) quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	return stats.Quantile(r.buf[:r.n], q)
}

// WorkerHealth is one worker's row in the fleet stats document: the
// straggler analyzer's view of its throughput, in-flight chunks and
// chunk latency distribution.
type WorkerHealth struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// InFlight is the worker's share of the dispatch window right now:
	// the chunks it holds, at most maxWorkChunks.
	InFlight   int    `json:"in_flight"`
	ChunksDone uint64 `json:"chunks_done"`
	PointsDone uint64 `json:"points_done"`
	// PointsPerSec is the EWMA throughput that sizes this worker's next
	// chunks (0 until its first chunk completes).
	PointsPerSec float64 `json:"points_per_sec"`
	// LastChunkSize is the size of the last chunk carved for it.
	LastChunkSize int `json:"last_chunk_size,omitempty"`
	// P50PointMS / P95PointMS are per-point chunk latency quantiles over
	// the ring of recent completions, in milliseconds.
	P50PointMS float64 `json:"p50_point_ms"`
	P95PointMS float64 `json:"p95_point_ms"`
	// Straggler flags a worker whose p50 per-point latency exceeds
	// StragglerFactor × the fleet median.
	Straggler bool `json:"straggler"`
}

// FleetStats is the GET /fleet/v1/stats document: the coordinator's
// counter block plus the per-worker analyzer rows.
type FleetStats struct {
	CoordinatorStats
	// Window is the per-worker dispatch window, maxWorkChunks.
	Window int `json:"window"`
	// StragglerFactor is the flagging threshold k (p50 > k× median).
	StragglerFactor float64 `json:"straggler_factor"`
	// MedianP50PointMS is the fleet median of the per-worker p50s.
	MedianP50PointMS float64        `json:"median_p50_point_ms"`
	PerWorker        []WorkerHealth `json:"per_worker,omitempty"`
}

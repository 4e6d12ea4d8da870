package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// chunk is one dispatchable unit: a contiguous ascending run of
// expansion indexes belonging to one batch.
type chunk struct {
	id      uint64
	b       *batch
	indexes []int
	// resolved flips when the chunk's results have been accepted (or
	// its batch dropped); a resolved chunk leaves the requeue, and one
	// still in a worker's in-flight set is not re-queued when that
	// worker goes.
	resolved bool
}

// workerState is the scheduler's view of one registered worker.
type workerState struct {
	id   string
	name string
	// inflight holds chunks pulled but not yet resolved, keyed by chunk
	// id — at most maxWorkChunks, re-queued whole if the worker goes
	// silent or leaves.
	inflight map[uint64]*chunk
	lastBeat time.Time

	// Adaptive sizing + straggler analyzer state: the EWMA points/sec
	// that sizes this worker's next chunks, the ring of recent per-point
	// chunk latencies, and cumulative completion counters.
	ewmaPps       float64
	lat           latRing
	chunksDone    uint64
	pointsDone    uint64
	lastChunkSize int
}

// Stats is the coordinator's health-report block: fleet membership and
// chunk-flow counters.
type Stats struct {
	Workers int `json:"workers"` // live registrations
	Dead    int `json:"dead"`    // cumulative reaped (heartbeat silence)
	Left    int `json:"left"`    // cumulative graceful leaves
	// Pending counts chunks re-queued from dead or departed workers
	// that wait for a pull; InFlight the chunks live workers hold.
	Pending  int `json:"chunks_pending"`
	InFlight int `json:"chunks_in_flight"`

	Dispatched uint64 `json:"chunks_dispatched"`
	Completed  uint64 `json:"chunks_completed"`
	Requeued   uint64 `json:"chunks_requeued"`

	// ChunksLive / ChunksLiveMax count materialized-but-unresolved chunk
	// structs (now / high-water): chunks are carved only on a pull, so
	// the max stays O(workers × maxWorkChunks) no matter how many points
	// a batch holds — the bound the 100k-point counter test asserts.
	ChunksLive    int `json:"chunks_live"`
	ChunksLiveMax int `json:"chunks_live_max"`
	// Stragglers counts live workers currently flagged by the analyzer
	// (per-point p50 latency above DefaultStragglerFactor × fleet
	// median).
	Stragglers int `json:"stragglers"`
}

// errUnknownWorker makes a stale worker id a 404: the worker's cue to
// rejoin (its chunks were re-queued when it was declared dead).
var errUnknownWorker = fmt.Errorf("fleet: unknown worker")

// scheduler is the coordinator's chunk dispatch state. A worker's pull
// is the only place chunks are created and handed out: it first takes
// chunks re-queued from dead or departed workers, then carves fresh
// ones from the front batch's chunkSource, never leaving the worker
// more than maxWorkChunks in flight. One mutex guards it all —
// operations are map and slice manipulations, never evaluation.
type scheduler struct {
	heartbeat time.Duration
	deadAfter time.Duration // 4 × heartbeat
	poll      time.Duration
	now       func() time.Time

	mu   sync.Mutex
	wake chan struct{} // closed and replaced whenever work may have appeared
	seq  int           // join counter
	next uint64        // chunk id counter

	workers map[string]*workerState
	order   []*workerState // live workers in join order
	// requeue holds the chunks of dead or departed workers in chunk-id
	// order (oldest first); pulls take them before carving fresh ones.
	requeue []*chunk
	// sources are the active batches' lazy chunk cursors, registration
	// order; pulls carve from the front one until it runs dry.
	sources []*chunkSource
	// outstanding tracks every unresolved chunk by id, wherever it
	// sits, so a result can be accepted from any worker (including a
	// zombie whose chunk was already re-queued but not yet recomputed).
	outstanding map[uint64]*chunk
	// chunksLive / maxChunksLive count materialized unresolved chunks —
	// the witness of the dispatch window's memory bound.
	chunksLive    int
	maxChunksLive int

	dead, left                      int
	dispatched, completed, requeued uint64
}

func newScheduler(heartbeat, poll time.Duration, now func() time.Time) *scheduler {
	return &scheduler{
		heartbeat:   heartbeat,
		deadAfter:   4 * heartbeat,
		poll:        poll,
		now:         now,
		wake:        make(chan struct{}),
		workers:     make(map[string]*workerState),
		outstanding: make(map[uint64]*chunk),
	}
}

// wakeAll releases every long-polling pull to re-check for work.
// Callers hold mu.
func (s *scheduler) wakeAll() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// join registers a worker and returns its assigned identity.
func (s *scheduler) join(name string) JoinReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	w := &workerState{
		id:       fmt.Sprintf("w-%06d", s.seq),
		name:     name,
		inflight: make(map[uint64]*chunk),
		lastBeat: s.now(),
	}
	s.workers[w.id] = w
	s.order = append(s.order, w)
	return JoinReply{
		WorkerID:    w.id,
		HeartbeatMS: s.heartbeat.Milliseconds(),
		DeadAfterMS: s.deadAfter.Milliseconds(),
		PollMS:      s.poll.Milliseconds(),
	}
}

// heartbeat refreshes a worker's liveness; false means the id is
// unknown (reaped) and the worker must rejoin.
func (s *scheduler) heartbeatFrom(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[id]
	if w == nil {
		return false
	}
	w.lastBeat = s.now()
	return true
}

// leave deregisters a worker gracefully, re-queueing whatever it still
// holds.
func (s *scheduler) leave(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.workers[id]; w != nil {
		s.left++
		s.evict(w)
	}
}

// reap declares every worker silent past the dead interval dead and
// re-queues its chunks whole. Called periodically by the coordinator.
func (s *scheduler) reap() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cut := s.now().Add(-s.deadAfter)
	// Snapshot: evict edits s.order.
	stale := make([]*workerState, 0, 2)
	for _, w := range s.order {
		if w.lastBeat.Before(cut) {
			stale = append(stale, w)
		}
	}
	for _, w := range stale {
		s.dead++
		s.evict(w)
	}
}

// evict removes a worker and re-queues its unresolved in-flight chunks
// whole, keeping the requeue in chunk-id order. Callers hold mu.
func (s *scheduler) evict(w *workerState) {
	delete(s.workers, w.id)
	for i, o := range s.order {
		if o == w {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	for _, c := range w.inflight {
		if !c.resolved {
			s.requeued++
			s.requeue = append(s.requeue, c)
		}
	}
	sortChunks(s.requeue)
	s.wakeAll()
}

// admit assigns a fresh chunk its id and registers it outstanding,
// maintaining the live-chunk counters. Callers hold mu.
func (s *scheduler) admit(c *chunk) {
	s.next++
	c.id = s.next
	s.outstanding[c.id] = c
	s.chunksLive++
	if s.chunksLive > s.maxChunksLive {
		s.maxChunksLive = s.chunksLive
	}
}

// addSource registers a batch's lazy chunk cursor for pulls to carve.
func (s *scheduler) addSource(src *chunkSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, src)
	s.wakeAll()
}

// carve materializes the next chunk for w from the first non-exhausted
// source, sized by w's measured throughput. Callers hold mu.
func (s *scheduler) carve(w *workerState) *chunk {
	for len(s.sources) > 0 {
		src := s.sources[0]
		c := src.next(s.sizeFor(w, src))
		if c == nil {
			s.sources = s.sources[1:]
			continue
		}
		w.lastChunkSize = len(c.indexes)
		s.admit(c)
		return c
	}
	return nil
}

// sizeFor returns the next chunk size to carve for w: the batch's
// static seed until the worker has a measured throughput, then the
// worker's EWMA points/sec times the sizing horizon — slow workers get
// proportionally smaller chunks. Two guards bound it: the remaining
// work split at least two ways per live worker (so the sweep tail
// stays spread over the fleet), and the hard [minChunkPoints,
// maxChunkPoints] clamp. Callers hold mu.
func (s *scheduler) sizeFor(w *workerState, src *chunkSource) int {
	size := src.seed
	if w != nil && w.ewmaPps > 0 {
		size = int(w.ewmaPps*s.horizon().Seconds() + 0.5)
	}
	if n := len(s.order); n > 0 {
		if tail := (src.remaining + 2*n - 1) / (2 * n); size > tail {
			size = tail
		}
	}
	if size < minChunkPoints {
		size = minChunkPoints
	}
	if size > maxChunkPoints {
		size = maxChunkPoints
	}
	return size
}

// horizon is the wall time one adaptively sized chunk should represent:
// a few long-poll windows, so a worker's pull outlives its round trips
// without any single chunk monopolizing the tail.
func (s *scheduler) horizon() time.Duration { return 4 * s.poll }

// pullN hands a worker up to max chunks (take), never leaving it more
// than maxWorkChunks in flight. With nothing to hand out it parks up to
// the poll window and retries, returning an empty slice on timeout. A
// pull refreshes the worker's heartbeat.
func (s *scheduler) pullN(ctx context.Context, id string, max int) ([]*chunk, error) {
	timeout := time.NewTimer(s.poll)
	defer timeout.Stop()
	for {
		s.mu.Lock()
		w := s.workers[id]
		if w == nil {
			s.mu.Unlock()
			return nil, errUnknownWorker
		}
		w.lastBeat = s.now()
		if out := s.take(w, max); len(out) > 0 {
			s.mu.Unlock()
			return out, nil
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timeout.C:
			return nil, nil
		case <-wake:
		}
	}
}

// take moves up to max chunks into w's in-flight set, within its
// maxWorkChunks cap: re-queued chunks first, oldest first, then fresh
// carves. Callers hold mu.
func (s *scheduler) take(w *workerState, max int) []*chunk {
	var out []*chunk
	for len(out) < max && len(w.inflight) < maxWorkChunks {
		c := s.popRequeued()
		if c == nil {
			if c = s.carve(w); c == nil {
				break
			}
		}
		w.inflight[c.id] = c
		s.dispatched++
		out = append(out, c)
	}
	return out
}

// popRequeued pops the oldest re-queued chunk, nil when there is none.
// Callers hold mu.
func (s *scheduler) popRequeued() *chunk {
	if len(s.requeue) == 0 {
		return nil
	}
	c := s.requeue[0]
	s.requeue[0] = nil
	s.requeue = s.requeue[1:]
	return c
}

// pruneRequeue drops resolved chunks from the requeue, so it holds
// only work still waiting for a pull. Callers hold mu.
func (s *scheduler) pruneRequeue() {
	kept := s.requeue[:0]
	for _, c := range s.requeue {
		if !c.resolved {
			kept = append(kept, c)
		}
	}
	clear(s.requeue[len(kept):])
	s.requeue = kept
}

// complete accepts a chunk's results: the chunk is resolved wherever it
// currently sits, the posting worker's in-flight slot is cleared, and
// parked pulls re-check. elapsedUS is the worker's self-reported
// evaluation wall time for the chunk (0 for a chunk-level error, which
// did no work); it feeds the worker's EWMA throughput and latency
// ring. It returns nil when the chunk is unknown or already resolved
// (a zombie's late post after a requeue-and-recompute, or a dropped
// batch) — the caller discards the results.
func (s *scheduler) complete(workerID string, chunkID uint64, elapsedUS int64) *chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workers[workerID]
	if w != nil {
		w.lastBeat = s.now()
		delete(w.inflight, chunkID)
	}
	c := s.outstanding[chunkID]
	if c == nil {
		return nil
	}
	delete(s.outstanding, chunkID)
	c.resolved = true
	s.chunksLive--
	s.completed++
	if w != nil {
		s.observe(w, c, elapsedUS)
	}
	s.pruneRequeue() // a zombie's post may resolve a re-queued copy
	s.wakeAll()
	return c
}

// observe folds one completed chunk into the posting worker's
// throughput EWMA and latency ring; a chunk without a measured
// evaluation time counts as done but feeds no sample. Callers hold mu.
func (s *scheduler) observe(w *workerState, c *chunk, elapsedUS int64) {
	points := len(c.indexes)
	w.chunksDone++
	w.pointsDone += uint64(points)
	if elapsedUS <= 0 || points == 0 {
		return
	}
	elapsed := time.Duration(elapsedUS) * time.Microsecond
	pps := float64(points) / elapsed.Seconds()
	if w.ewmaPps == 0 {
		w.ewmaPps = pps
	} else {
		w.ewmaPps = ewmaAlpha*pps + (1-ewmaAlpha)*w.ewmaPps
	}
	w.lat.push(elapsed.Seconds() / float64(points))
}

// dropBatch resolves every outstanding chunk of a batch (cancellation)
// and removes its chunk source: re-queued chunks leave the requeue,
// in-flight results will be discarded on arrival, the uncarved
// remainder is never materialized.
func (s *scheduler) dropBatch(b *batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, c := range s.outstanding {
		if c.b == b {
			c.resolved = true
			delete(s.outstanding, id)
			s.chunksLive--
		}
	}
	s.pruneRequeue()
	s.removeSource(b)
}

// removeSource drops b's chunk source from the active list. Callers
// hold mu.
func (s *scheduler) removeSource(b *batch) {
	kept := s.sources[:0]
	for _, src := range s.sources {
		if src.b != b {
			kept = append(kept, src)
		}
	}
	s.sources = kept
}

// reclaim hands a batch's unresolved chunks back to the caller —
// the no-live-workers fallback. Only re-queued chunks can exist then;
// they are removed from outstanding and returned sorted by id, followed
// by the batch's uncarved remainder materialized at the maximum chunk
// size (the caller evaluates locally, so granularity no longer
// matters).
func (s *scheduler) reclaim(b *batch) []*chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) > 0 {
		return nil
	}
	var out []*chunk
	for id, c := range s.outstanding {
		if c.b == b {
			c.resolved = true
			delete(s.outstanding, id)
			s.chunksLive--
			out = append(out, c)
		}
	}
	s.pruneRequeue()
	sortChunks(out)
	for _, src := range s.sources {
		if src.b != b {
			continue
		}
		for c := src.next(maxChunkPoints); c != nil; c = src.next(maxChunkPoints) {
			c.resolved = true
			out = append(out, c)
		}
	}
	s.removeSource(b)
	return out
}

// liveCount reports the number of live workers.
func (s *scheduler) liveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// stats snapshots the fleet block for the health report.
func (s *scheduler) stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:       len(s.order),
		Dead:          s.dead,
		Left:          s.left,
		Dispatched:    s.dispatched,
		Completed:     s.completed,
		Requeued:      s.requeued,
		Pending:       len(s.requeue),
		ChunksLive:    s.chunksLive,
		ChunksLiveMax: s.maxChunksLive,
	}
	for _, w := range s.order {
		st.InFlight += len(w.inflight)
	}
	for _, r := range s.healthLocked() {
		if r.Straggler {
			st.Stragglers++
		}
	}
	return st
}

// health snapshots the straggler analyzer rows and the fleet median
// per-point p50 latency (milliseconds).
func (s *scheduler) health() ([]WorkerHealth, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.healthLocked()
	return rows, s.medianP50Locked() * 1e3
}

// healthLocked builds the per-worker analyzer rows, flagging stragglers
// against the fleet median. Callers hold mu.
func (s *scheduler) healthLocked() []WorkerHealth {
	rows := make([]WorkerHealth, 0, len(s.order))
	med := s.medianP50Locked()
	for _, w := range s.order {
		p50 := w.lat.quantile(0.50)
		rows = append(rows, WorkerHealth{
			ID:            w.id,
			Name:          w.name,
			InFlight:      len(w.inflight),
			ChunksDone:    w.chunksDone,
			PointsDone:    w.pointsDone,
			PointsPerSec:  w.ewmaPps,
			LastChunkSize: w.lastChunkSize,
			P50PointMS:    p50 * 1e3,
			P95PointMS:    w.lat.quantile(0.95) * 1e3,
			// One measured worker alone has no fleet to straggle behind.
			Straggler: med > 0 && s.measuredLocked() >= 2 && p50 > DefaultStragglerFactor*med,
		})
	}
	return rows
}

// medianP50Locked is the fleet median of the per-worker p50 per-point
// latencies (seconds), over live workers with at least one sample.
// Callers hold mu.
func (s *scheduler) medianP50Locked() float64 {
	p50s := make([]float64, 0, len(s.order))
	for _, w := range s.order {
		if p := w.lat.quantile(0.50); p > 0 {
			p50s = append(p50s, p)
		}
	}
	if len(p50s) == 0 {
		return 0
	}
	sort.Float64s(p50s)
	n := len(p50s)
	if n%2 == 1 {
		return p50s[n/2]
	}
	return (p50s[n/2-1] + p50s[n/2]) / 2
}

// measuredLocked counts live workers with latency samples. Callers
// hold mu.
func (s *scheduler) measuredLocked() int {
	n := 0
	for _, w := range s.order {
		if w.lat.n > 0 {
			n++
		}
	}
	return n
}

// sortChunks orders chunks by id (insertion sort: the requeue is a
// handful of chunks, already sorted up to the newest evictions).
func sortChunks(cs []*chunk) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].id < cs[j-1].id; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

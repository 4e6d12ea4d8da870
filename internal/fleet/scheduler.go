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
	// its batch dropped); copies still sitting in a queue after a
	// requeue race are lazily skipped.
	resolved bool
}

// workerState is the scheduler's view of one registered worker.
type workerState struct {
	id     string
	name   string
	joined int // join sequence, the round-robin and steal tiebreak order
	queue  chunkQueue
	// inflight holds chunks pulled but not yet resolved, keyed by chunk
	// id — what gets re-queued whole if the worker goes silent.
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

// Assignment is one entry of the scheduler's placement trace: which
// worker a chunk went to, and how. Kind is "assign" (round-robin
// placement), "steal" (an idle worker took it from the back of the
// victim's queue) or "requeue" (re-placed after its worker died or
// left). The trace is the determinism contract's witness: the same
// batch against the same worker set yields the identical assign
// sequence (see EnableTrace and the scheduler tests).
type Assignment struct {
	Chunk  uint64
	Worker string
	Kind   string
}

// Stats is the coordinator's health-report block: fleet membership and
// chunk-flow counters.
type Stats struct {
	Workers  int `json:"workers"` // live registrations
	Dead     int `json:"dead"`    // cumulative reaped (heartbeat silence)
	Left     int `json:"left"`    // cumulative graceful leaves
	Pending  int `json:"chunks_pending"`
	InFlight int `json:"chunks_in_flight"`

	Dispatched uint64 `json:"chunks_dispatched"`
	Completed  uint64 `json:"chunks_completed"`
	Stolen     uint64 `json:"chunks_stolen"`
	Requeued   uint64 `json:"chunks_requeued"`

	// ChunksLive / ChunksLiveMax count materialized-but-unresolved chunk
	// structs (now / high-water): with windowed dispatch the max stays
	// O(workers × window) no matter how many points a batch holds — the
	// bound the 100k-point counter test asserts.
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

// scheduler is the coordinator's chunk placement state: per-worker
// deques, the orphan queue (chunks with no live worker to hold them),
// and the pull/steal/requeue machinery. One mutex guards it all —
// operations are map/deque manipulations, never evaluation.
type scheduler struct {
	heartbeat time.Duration
	deadAfter time.Duration // 4 × heartbeat
	poll      time.Duration
	window    int // max queued+in-flight chunks per worker
	now       func() time.Time

	mu   sync.Mutex
	wake chan struct{} // closed and replaced whenever work may have appeared
	seq  int           // join counter
	next uint64        // chunk id counter

	workers map[string]*workerState
	order   []*workerState // live workers in join order
	rr      int            // round-robin requeue cursor
	orphans chunkQueue
	// sources are the active batches' lazy chunk cursors, registration
	// order; refill carves from the front one until it runs dry.
	sources []*chunkSource
	// outstanding tracks every unresolved chunk by id, wherever it
	// sits, so a result can be accepted from any worker (including a
	// zombie whose chunk was already re-queued but not yet recomputed).
	outstanding map[uint64]*chunk
	// chunksLive / maxChunksLive count materialized unresolved chunks —
	// the windowed-dispatch memory bound's witness.
	chunksLive    int
	maxChunksLive int

	trace   []Assignment
	traceOn bool

	dead, left                              int
	dispatched, completed, stolen, requeued uint64
}

func newScheduler(heartbeat, poll time.Duration, window int, now func() time.Time) *scheduler {
	if window < 1 {
		window = DefaultWindow
	}
	return &scheduler{
		heartbeat:   heartbeat,
		deadAfter:   4 * heartbeat,
		poll:        poll,
		window:      window,
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

// record appends a trace entry when tracing is on. Callers hold mu.
func (s *scheduler) record(c *chunk, w *workerState, kind string) {
	if s.traceOn {
		s.trace = append(s.trace, Assignment{Chunk: c.id, Worker: w.id, Kind: kind})
	}
}

// EnableTrace turns on assignment tracing (tests); Trace snapshots it.
func (s *scheduler) EnableTrace() {
	s.mu.Lock()
	s.traceOn = true
	s.mu.Unlock()
}

func (s *scheduler) Trace() []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Assignment, len(s.trace))
	copy(out, s.trace)
	return out
}

// join registers a worker and returns its assigned identity.
func (s *scheduler) join(name string) JoinReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	w := &workerState{
		id:       fmt.Sprintf("w-%06d", s.seq),
		name:     name,
		joined:   s.seq,
		inflight: make(map[uint64]*chunk),
		lastBeat: s.now(),
	}
	s.workers[w.id] = w
	s.order = append(s.order, w)
	// A fresh worker means carving capacity; top its window up and let
	// idle pulls re-check.
	s.refill()
	s.wakeAll()
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

// evict removes a worker and re-queues its unresolved chunks whole —
// queued and in-flight alike — round-robin over the survivors (the
// orphan queue when there are none). Callers hold mu.
func (s *scheduler) evict(w *workerState) {
	delete(s.workers, w.id)
	for i, o := range s.order {
		if o == w {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	chunks := w.queue.drain(nil)
	for _, c := range w.inflight {
		chunks = append(chunks, c)
	}
	// In-flight map iteration is unordered; requeue deterministically by
	// chunk id so recovery placement is reproducible too.
	sortChunks(chunks)
	for _, c := range chunks {
		if c.resolved {
			continue
		}
		s.requeued++
		s.place(c)
	}
	// The survivors inherited the dead worker's chunks; top up whatever
	// window capacity remains.
	s.refill()
	s.wakeAll()
}

// place re-queues one chunk round-robin over the live workers in join
// order, or parks it with the orphans. Callers hold mu.
func (s *scheduler) place(c *chunk) {
	if len(s.order) == 0 {
		s.orphans.push(c)
		return
	}
	w := s.order[s.rr%len(s.order)]
	s.rr++
	w.queue.push(c)
	s.record(c, w, "requeue")
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

// addSource registers a batch's lazy chunk cursor and carves the first
// window of chunks.
func (s *scheduler) addSource(src *chunkSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, src)
	s.refill()
	s.wakeAll()
}

// refill tops every worker's deque up to the dispatch window, carving
// chunks lazily from the front source. One chunk per worker per pass,
// workers in join order: round-robin placement, interleaved with
// completions. Callers hold mu.
func (s *scheduler) refill() {
	for len(s.sources) > 0 && len(s.order) > 0 {
		progressed := false
		for _, w := range s.order {
			if w.queue.len()+len(w.inflight) >= s.window {
				continue
			}
			c := s.carve(w)
			if c == nil {
				return
			}
			w.queue.push(c)
			s.record(c, w, "assign")
			progressed = true
		}
		if !progressed {
			return
		}
	}
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
// stays stealable), and the hard [minChunkPoints, maxChunkPoints]
// clamp. Callers hold mu.
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
// a few long-poll windows, so a worker's queue outlives its round trips
// without any single chunk monopolizing the tail.
func (s *scheduler) horizon() time.Duration { return 4 * s.poll }

// pullN returns up to max chunks for a worker: the front of its own
// (window-refilled) queue, orphans, or — when all are empty — the back
// of the longest live queue (a steal from the straggler). Only the
// first chunk may be stolen; extras come from the worker's own share,
// so a deep queue drains multi-chunk per long-poll without one worker
// stripping another. With no work anywhere it parks up to the poll
// window and retries, returning an empty slice on timeout. A pull
// refreshes the worker's heartbeat.
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
		s.refill()
		if c := s.take(w); c != nil {
			out := []*chunk{c}
			for len(out) < max {
				extra := s.takeOwn(w)
				if extra == nil {
					break
				}
				out = append(out, extra)
			}
			for _, c := range out {
				w.inflight[c.id] = c
				s.dispatched++
			}
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

// take pops the next unresolved chunk for a worker: its own share
// (takeOwn), else a steal. Callers hold mu.
func (s *scheduler) take(w *workerState) *chunk {
	if c := s.takeOwn(w); c != nil {
		return c
	}
	// Steal from the longest live queue, join order breaking ties — the
	// victim keeps its front (oldest) chunks, the thief takes the back.
	var victim *workerState
	for _, o := range s.order {
		if o != w && o.queue.len() > 0 && (victim == nil || o.queue.len() > victim.queue.len()) {
			victim = o
		}
	}
	if victim != nil {
		for c := victim.queue.popBack(); c != nil; c = victim.queue.popBack() {
			if !c.resolved {
				s.stolen++
				s.record(c, w, "steal")
				return c
			}
		}
	}
	return nil
}

// takeOwn pops the next unresolved chunk from the worker's own queue or
// the orphans. Callers hold mu.
func (s *scheduler) takeOwn(w *workerState) *chunk {
	for c := w.queue.popFront(); c != nil; c = w.queue.popFront() {
		if !c.resolved {
			return c
		}
	}
	for c := s.orphans.popFront(); c != nil; c = s.orphans.popFront() {
		if !c.resolved {
			s.record(c, w, "requeue")
			return c
		}
	}
	return nil
}

// complete accepts a chunk's results: the chunk is resolved wherever it
// currently sits, and the posting worker's in-flight slot is cleared.
// elapsedUS is the worker's self-reported evaluation wall time for the
// chunk (0 for a chunk-level error, which did no work); it feeds the
// worker's EWMA throughput and latency ring, then freed window
// capacity is re-carved. It returns nil when the chunk is unknown or
// already resolved (a zombie's late post after a requeue-and-recompute,
// or a dropped batch) — the caller discards the results.
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
	s.refill()
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
// and removes its chunk source: queued copies are skipped lazily,
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
// the no-live-workers fallback. Only orphaned chunks can exist then;
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
			c.resolved = true // queued copies skip lazily
			delete(s.outstanding, id)
			s.chunksLive--
			out = append(out, c)
		}
	}
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
		Stolen:        s.stolen,
		Requeued:      s.requeued,
		ChunksLive:    s.chunksLive,
		ChunksLiveMax: s.maxChunksLive,
	}
	st.Pending = s.orphans.unresolved()
	for _, w := range s.order {
		st.Pending += w.queue.unresolved()
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
			QueueDepth:    w.queue.unresolved(),
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

// sortChunks orders chunks by id (insertion sort; requeue sets are a
// handful of chunks).
func sortChunks(cs []*chunk) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].id < cs[j-1].id; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

package fleet

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Defaults for the coordinator cadence: workers beat every Heartbeat,
// are declared dead after 4 × Heartbeat of silence, and work
// long-polls are held up to Poll. CI and tests tighten both.
const (
	DefaultHeartbeat = 500 * time.Millisecond
	DefaultPoll      = 250 * time.Millisecond
)

// Options tunes a coordinator.
type Options struct {
	// Heartbeat, Poll override the default cadence (zero keeps each
	// default).
	Heartbeat, Poll time.Duration
}

// Coordinator is the fleet's dispatch side: a session.Executor that
// shards batches into chunks, schedules them across joined workers,
// commits returned results through the engine's singleflight store,
// and falls back to local evaluation whenever the fleet cannot help
// (no live workers, a spec that cannot travel, mid-batch total worker
// loss). See the package comment for the full protocol.
type Coordinator struct {
	eng   *engine.Engine
	sched *scheduler

	mu      sync.Mutex
	flights map[resultstore.Key]*flight

	batchSeq            atomic.Uint64
	localPts, remotePts atomic.Uint64
	coalesced, fellBack atomic.Uint64
	// Result-wire accounting: posts accepted and their body bytes.
	resultPosts, resultWireBytes atomic.Uint64
	stop                         chan struct{}
	stopOnce                     sync.Once
}

// flight marks a key dispatched-but-uncommitted, with the sessions
// parked on it: concurrent batches submitting the same point wait for
// the first dispatch instead of travelling twice — the fleet-wide
// dedup the shared store cannot provide until the result lands.
type flight struct {
	owner   *batch
	waiters []waiter
}

type waiter struct {
	b   *batch
	pos int
}

// New builds a coordinator over the engine and starts its reaper. The
// caller owns the engine; Close stops the reaper.
func New(eng *engine.Engine, opts Options) *Coordinator {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	c := &Coordinator{
		eng:     eng,
		sched:   newScheduler(opts.Heartbeat, opts.Poll, time.Now),
		flights: make(map[resultstore.Key]*flight),
		stop:    make(chan struct{}),
	}
	go c.reaper(opts.Heartbeat)
	return c
}

// Close stops the coordinator's reaper. In-flight ExecuteBatch calls
// are unaffected (cancel their contexts to abort them).
func (c *Coordinator) Close() { c.stopOnce.Do(func() { close(c.stop) }) }

// reaper periodically declares silent workers dead and re-queues their
// chunks.
func (c *Coordinator) reaper(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.sched.reap()
		}
	}
}

// Workers reports the live worker count.
func (c *Coordinator) Workers() int { return c.sched.liveCount() }

// CoordinatorStats is the fleet health block: the scheduler's
// membership and chunk-flow counters plus the local/remote point split.
type CoordinatorStats struct {
	Stats
	// PointsLocal counts points served by the coordinator itself (store
	// hits, non-dispatchable jobs, fallbacks); PointsRemote points
	// committed from worker results; PointsCoalesced duplicate points
	// parked on another batch's dispatch.
	PointsLocal     uint64 `json:"points_local"`
	PointsRemote    uint64 `json:"points_remote"`
	PointsCoalesced uint64 `json:"points_coalesced"`
	// Fallbacks counts batches (or batch remainders) that reverted to
	// local evaluation.
	Fallbacks uint64 `json:"fallbacks"`
	// ResultPosts counts result posts accepted and ResultBytesWire
	// their body bytes — the wire-efficiency counters the CI smoke
	// asserts on.
	ResultPosts     uint64 `json:"result_posts"`
	ResultBytesWire uint64 `json:"result_bytes_wire"`
}

// Stats snapshots the fleet health block.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Stats:           c.sched.stats(),
		PointsLocal:     c.localPts.Load(),
		PointsRemote:    c.remotePts.Load(),
		PointsCoalesced: c.coalesced.Load(),
		Fallbacks:       c.fellBack.Load(),
		ResultPosts:     c.resultPosts.Load(),
		ResultBytesWire: c.resultWireBytes.Load(),
	}
}

// FleetStats snapshots the full /fleet/v1/stats document: the counter
// block plus the straggler analyzer's per-worker rows.
func (c *Coordinator) FleetStats() FleetStats {
	rows, medMS := c.sched.health()
	return FleetStats{
		CoordinatorStats: c.Stats(),
		Window:           maxWorkChunks,
		StragglerFactor:  DefaultStragglerFactor,
		MedianP50PointMS: medMS,
		PerWorker:        rows,
	}
}

// batch is one ExecuteBatch invocation in flight.
type batch struct {
	id      string
	encoded []byte
	jobs    []engine.Job
	// keys holds each job's cache key, derived once per batch through
	// one engine.Keyer (a fingerprint per workload, not per job): the
	// store probe, the in-flight table, the result check and the commit
	// all read it. A job without a workload has the zero key, which no
	// flight, store entry or expansion point carries.
	keys []resultstore.Key
	// identity marks the common cold-sweep case where batch position i
	// IS expansion index i (the session submitted the spec's own
	// expansion, in order) — no per-point map is materialized at all.
	identity bool
	posOf    map[int]int // expansion index -> batch position (nil when identity)
	done     func(i int, res workload.Result)

	mu        sync.Mutex
	errs      []error
	pending   int
	dropped   bool
	cancelled bool
	doneCh    chan struct{}
}

// pos maps an expansion index to its batch position.
func (b *batch) pos(exp int) (int, bool) {
	if b.identity {
		if exp >= 0 && exp < len(b.jobs) {
			return exp, true
		}
		return 0, false
	}
	p, ok := b.posOf[exp]
	return p, ok
}

// settle records one position's outcome, forwarding successes to the
// session's completion hook, and closes doneCh when the batch drains.
func (b *batch) settle(pos int, res workload.Result, err error) {
	b.mu.Lock()
	if b.dropped || b.errs[pos] != nil {
		b.mu.Unlock()
		return
	}
	if err != nil {
		b.errs[pos] = err
	}
	b.mu.Unlock()
	if err == nil && b.done != nil {
		b.done(pos, res)
	}
	b.mu.Lock()
	b.pending--
	finished := b.pending == 0 && !b.dropped
	b.mu.Unlock()
	if finished {
		close(b.doneCh)
	}
}

// chunkTarget is the cold-start chunk size: points spread four chunks
// deep per live worker — enough granularity for the pulls to spread
// the batch over the fleet, few enough that the per-chunk HTTP round
// trip amortizes. The clamp is maxChunkPoints (256): pulls carve
// lazily, at most maxWorkChunks per worker, so a larger chunk costs no
// coordinator memory and saves round trips. Once a worker's throughput
// is measured, the adaptive sizer (scheduler.sizeFor) takes over and
// this formula is just the seed.
func chunkTarget(points, workers int) int {
	if workers < 1 {
		workers = 1
	}
	size := (points + 4*workers - 1) / (4 * workers)
	if size < minChunkPoints {
		size = minChunkPoints
	}
	if size > maxChunkPoints {
		size = maxChunkPoints
	}
	return size
}

// expansionMap relates batch positions, given by their jobs' keys, to
// the spec's expansion indexes without materializing the expansion.
// The fast path — the session submitted exactly the spec's own
// expansion, in order, as every cold sweep does — streams the
// enumeration once to verify keys match positionally and returns
// identity=true with no allocation per point. Otherwise (plan rounds
// submit subsets) it builds an O(len(keys)) map from wanted keys to
// expansion indexes; expOf[i] is then position i's expansion index, -1
// when its job is not expressible on the wire. Each pass keys the
// enumeration through its own engine.Keyer, one fingerprint per
// expanded workload.
func expansionMap(sp scenario.Spec, keys []resultstore.Key) (identity bool, expOf []int, err error) {
	if len(keys) == sp.Size() {
		match := true
		var kr engine.Keyer
		err = sp.EachPoint(func(i int, _ scenario.Meta, ej engine.Job) bool {
			match = keys[i] == kr.Key(ej)
			return match
		})
		if err != nil {
			return false, nil, err
		}
		if match {
			return true, nil, nil
		}
	}
	want := make(map[resultstore.Key]int, len(keys))
	for _, k := range keys {
		want[k] = -1
	}
	var kr engine.Keyer
	err = sp.EachPoint(func(i int, _ scenario.Meta, ej engine.Job) bool {
		k := kr.Key(ej)
		if _, wanted := want[k]; wanted {
			want[k] = i // a key the expansion repeats maps to its last index
		}
		return true
	})
	if err != nil {
		return false, nil, err
	}
	expOf = make([]int, len(keys))
	for i, k := range keys {
		expOf[i] = want[k]
	}
	return false, expOf, nil
}

// ExecuteBatch implements session.Executor: probe the shared store,
// serve resident points locally, shard the cold remainder into chunks
// dispatched across the fleet, and commit worker results as they land.
// Ordering, cancellation semantics and error text are byte-identical
// to engine.RunBatchFunc — the session layer cannot tell the paths
// apart.
func (c *Coordinator) ExecuteBatch(ctx context.Context, sp scenario.Spec, jobs []engine.Job, done func(i int, res workload.Result)) error {
	if len(jobs) == 0 {
		return nil
	}
	// One read of the live count decides both the mapping and the
	// fallback, so a worker joining in between cannot skip the mapping.
	live := c.sched.liveCount()
	encoded, err := scenario.Encode(sp)
	var keys []resultstore.Key
	var identity bool
	var expOf []int
	if err == nil && live > 0 {
		keys = make([]resultstore.Key, len(jobs))
		var kr engine.Keyer
		for i, job := range jobs {
			if job.Workload != nil {
				keys[i] = kr.Key(job)
			}
		}
		identity, expOf, err = expansionMap(sp, keys)
	}
	if err != nil || live == 0 {
		// Not dispatchable (a Custom-builder spec cannot travel) or
		// nobody to dispatch to: the single-process path, verbatim.
		c.fellBack.Add(1)
		c.localPts.Add(uint64(len(jobs)))
		_, err = c.eng.RunBatchFunc(ctx, jobs, done)
		return err
	}

	b := &batch{
		id:       fmt.Sprintf("b-%06d", c.batchSeq.Add(1)),
		encoded:  encoded,
		jobs:     jobs,
		keys:     keys,
		identity: identity,
		done:     done,
		errs:     make([]error, len(jobs)),
		pending:  len(jobs),
		doneCh:   make(chan struct{}),
	}
	if !identity {
		b.posOf = make(map[int]int)
	}

	// Classify every position: resident in the shared store (serve
	// locally), already dispatched by a concurrent batch (park on its
	// flight), dispatchable (feed the chunk source), or
	// wire-inexpressible (local). The dispatch set is kept as
	// contiguous expansion-index runs, not chunk structs: workers' pulls
	// carve chunks from it lazily.
	var local []int   // batch positions served here
	var runs []span   // dispatchable expansion indexes, compressed
	var dispExp []int // non-identity only: dispatched expansion indexes
	ndispatch := 0
	cached := make([]bool, len(jobs))
	for i, k := range keys {
		cached[i] = c.eng.Cached(k)
	}
	c.mu.Lock()
	for i := range jobs {
		exp := i
		if !identity {
			exp = expOf[i]
		}
		if jobs[i].Workload == nil || cached[i] || exp < 0 {
			local = append(local, i)
			continue
		}
		k := keys[i]
		if fl := c.flights[k]; fl != nil {
			fl.waiters = append(fl.waiters, waiter{b: b, pos: i})
			c.coalesced.Add(1)
			continue
		}
		c.flights[k] = &flight{owner: b}
		ndispatch++
		if identity {
			runs = appendRun(runs, exp) // ascending: one span per stretch
		} else {
			b.posOf[exp] = i
			dispExp = append(dispExp, exp)
		}
	}
	c.mu.Unlock()

	if !identity {
		sort.Ints(dispExp)
		runs = spansOf(dispExp)
	}
	if ndispatch > 0 {
		c.sched.addSource(&chunkSource{
			b:         b,
			runs:      runs,
			seed:      chunkTarget(ndispatch, live),
			remaining: ndispatch,
		})
	}
	c.remotePts.Add(uint64(ndispatch))
	c.localPts.Add(uint64(len(local)))

	// Serve the locally resolvable positions while the fleet works.
	c.runLocal(ctx, b, local)

	// Wait for the batch to drain, watching for cancellation and for
	// the fleet emptying out from under us.
	check := time.NewTicker(50 * time.Millisecond)
	defer check.Stop()
	for {
		select {
		case <-b.doneCh:
			b.mu.Lock()
			cancelled := b.cancelled
			b.mu.Unlock()
			if cancelled || ctx.Err() != nil {
				return engine.CancelError(context.Cause(ctx))
			}
			return engine.FirstError(jobs, b.errs)
		case <-ctx.Done():
			c.drop(b)
			return engine.CancelError(ctx.Err())
		case <-check.C:
			if orphans := c.sched.reclaim(b); len(orphans) > 0 {
				// Every worker is gone; finish their chunks ourselves.
				c.fellBack.Add(1)
				var positions []int
				for _, ch := range orphans {
					for _, exp := range ch.indexes {
						if pos, ok := b.pos(exp); ok {
							positions = append(positions, pos)
						}
					}
				}
				c.runLocal(ctx, b, positions)
			}
		}
	}
}

// runLocal evaluates batch positions on the coordinator's own engine,
// settling each point (and any flight parked on its key) as it lands.
// Cancellation mirrors engine.RunBatchFunc: claimed-but-unstarted
// positions drain without evaluating once the context fires.
func (c *Coordinator) runLocal(ctx context.Context, b *batch, positions []int) {
	if len(positions) == 0 {
		return
	}
	var cancelled atomic.Bool
	engine.Map(c.eng.Workers(), len(positions), func(i int) (struct{}, error) {
		pos := positions[i]
		if cancelled.Load() || ctx.Err() != nil {
			cancelled.Store(true)
			b.mu.Lock()
			b.cancelled = true
			b.mu.Unlock()
			b.settle(pos, workload.Result{}, context.Cause(ctx))
			return struct{}{}, nil
		}
		res, err := c.eng.Run(b.jobs[pos])
		c.settleFlight(b.keys[pos])
		b.settle(pos, res, err)
		return struct{}{}, nil
	})
}

// resolveChunk accepts one chunk result posted by workerID, committing
// each point through the engine's singleflight store and settling the
// batch and any parked flights. Stale posts (requeued-and-recomputed
// chunks, dropped batches) are discarded.
func (c *Coordinator) resolveChunk(workerID string, cr *ChunkResult) {
	ch := c.sched.complete(workerID, cr.ChunkID, cr.ElapsedUS)
	if ch == nil {
		return
	}
	b := ch.b
	recs, err := checkChunk(ch, cr)
	if err != nil {
		// The worker could not evaluate the chunk at all, or its answer
		// is not one for the chunk it was given: an infrastructure bug,
		// not a point failure. Requeueing cannot succeed, so the chunk's
		// points fail the batch and none of its records is committed.
		err = fmt.Errorf("fleet: chunk %d: %w", cr.ChunkID, err)
		for _, exp := range ch.indexes {
			pos, _ := b.pos(exp)
			c.settleFlight(b.keys[pos])
			b.settle(pos, workload.Result{}, err)
		}
		return
	}
	failed := cr.Failed
	for _, exp := range ch.indexes {
		pos, _ := b.pos(exp)
		var res workload.Result
		var rerr error
		if len(failed) > 0 && failed[0].Index == exp {
			rerr, failed = errors.New(failed[0].Error), failed[1:]
		} else {
			res, recs = recs[0].Res, recs[1:]
		}
		committed, err := c.eng.CommitRemote(b.jobs[pos], b.keys[pos], res, rerr)
		c.settleFlight(b.keys[pos])
		b.settle(pos, committed, err)
	}
}

// checkChunk holds a chunk result to the chunk it answers: no
// chunk-level error, failed indexes ascending and inside the chunk, and
// a frame that parses whole and holds one record per remaining index,
// in chunk order, each under the key the coordinator derived for that
// point. It returns the frame's records.
func checkChunk(ch *chunk, cr *ChunkResult) ([]resultstore.Record, error) {
	if cr.Error != "" {
		return nil, errors.New(cr.Error)
	}
	recs, n, err := resultstore.ParseBlock(cr.Frame)
	if err != nil {
		return nil, err
	}
	if n != len(cr.Frame) {
		return nil, fmt.Errorf("%d bytes after the result frame", len(cr.Frame)-n)
	}
	failed, want := cr.Failed, 0
	for _, exp := range ch.indexes {
		if len(failed) > 0 && failed[0].Index == exp {
			failed = failed[1:]
			continue
		}
		if pos, _ := ch.b.pos(exp); want < len(recs) && recs[want].Key != ch.b.keys[pos] {
			return nil, fmt.Errorf("point %d: record key is not the point's key", exp)
		}
		want++
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("failed point %d is not in the chunk", failed[0].Index)
	}
	if want != len(recs) {
		return nil, fmt.Errorf("%d records for %d points", len(recs), want)
	}
	return recs, nil
}

// settleFlight releases the batches parked on a key after its result
// landed in the store: each waiter re-runs the job locally — now a
// cache hit — and settles its own position. (If the key in fact never
// committed, the local run computes it; either way every waiter
// settles with the store's authoritative result.)
func (c *Coordinator) settleFlight(k resultstore.Key) {
	c.mu.Lock()
	fl := c.flights[k]
	delete(c.flights, k)
	c.mu.Unlock()
	if fl == nil {
		return
	}
	for _, w := range fl.waiters {
		res, err := c.eng.Run(w.b.jobs[w.pos])
		w.b.settle(w.pos, res, err)
	}
}

// drop abandons a cancelled batch: its chunks are resolved-as-dropped
// in the scheduler (late worker posts get discarded), flights it owns
// are released to their waiters (who evaluate locally), and its own
// parked waiters are forgotten.
func (c *Coordinator) drop(b *batch) {
	b.mu.Lock()
	b.dropped = true
	b.mu.Unlock()
	c.sched.dropBatch(b)
	var release []flight
	c.mu.Lock()
	for k, fl := range c.flights {
		if fl.owner == b {
			delete(c.flights, k)
			release = append(release, *fl)
			continue
		}
		kept := fl.waiters[:0]
		for _, w := range fl.waiters {
			if w.b != b {
				kept = append(kept, w)
			}
		}
		fl.waiters = kept
	}
	c.mu.Unlock()
	for _, fl := range release {
		for _, w := range fl.waiters {
			if w.b == b {
				continue
			}
			res, err := c.eng.Run(w.b.jobs[w.pos])
			w.b.settle(w.pos, res, err)
		}
	}
}

// Routes mounts the coordinator's worker-facing endpoints.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/v1/join", c.handleJoin)
	mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/v1/leave", c.handleLeave)
	mux.HandleFunc("POST /fleet/v1/work", c.handleWork)
	mux.HandleFunc("POST /fleet/v1/results", c.handleResults)
	mux.HandleFunc("GET /fleet/v1/stats", c.handleStats)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Protocol != ProtocolVersion {
		httpErr(w, http.StatusConflict, fmt.Errorf(
			"fleet: worker speaks protocol %d, coordinator speaks %d; run the same nvmserve build on both",
			req.Protocol, ProtocolVersion))
		return
	}
	writeJSON(w, r, c.sched.join(req.Name))
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := decodeStrict(r.Body, &hb); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	if !c.sched.heartbeatFrom(hb.WorkerID) {
		httpErr(w, http.StatusNotFound, errUnknownWorker)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := decodeStrict(r.Body, &hb); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	c.sched.leave(hb.WorkerID)
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWork(w http.ResponseWriter, r *http.Request) {
	var req WorkRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	chunks, err := c.sched.pullN(r.Context(), req.WorkerID, maxWorkChunks)
	if err != nil {
		if errors.Is(err, errUnknownWorker) {
			httpErr(w, http.StatusNotFound, err)
		}
		// Context gone: the client left; any response is unread.
		return
	}
	if len(chunks) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	out := WireWork{Chunks: make([]WireChunk, len(chunks))}
	for i, ch := range chunks {
		out.Chunks[i] = WireChunk{ID: ch.id, Spec: ch.b.encoded, Indexes: ch.indexes}
	}
	writeJSON(w, r, out)
}

// handleResults is the coalesced return path: one binary post carrying
// every chunk the worker finished since its last pull. A body past
// maxBodyBytes or one that does not decode is refused whole; a chunk
// that does not answer its chunk fails alone (resolveChunk).
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var rb ResultBatch
	if err == nil {
		err = rb.Decode(body)
	}
	if err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	c.resultPosts.Add(1)
	c.resultWireBytes.Add(uint64(len(body)))
	for i := range rb.Results {
		c.resolveChunk(rb.WorkerID, &rb.Results[i])
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, c.FleetStats())
}

// writeJSON writes v as JSON, gzip-compressing through the pooled
// writer when the client advertised Accept-Encoding: gzip and the body
// clears the compression floor — this is what lets a multi-chunk work
// response travel cheaply. Go's default HTTP
// transport always advertises gzip and decompresses transparently, so
// workers need no code for it.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(v)
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	if len(b) >= gzipMinBytes && acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzwPool.Get().(*gzip.Writer)
		zw.Reset(w)
		zw.Write(b)
		zw.Close()
		gzwPool.Put(zw)
		return
	}
	w.Write(b)
}

func acceptsGzip(r *http.Request) bool {
	return r != nil && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

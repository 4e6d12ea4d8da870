// Package engine is the concurrent evaluation engine behind the
// experiment harness: it fans (workload, mode, threads) evaluation jobs
// across a worker pool, memoizes memsys.System construction per mode and
// caches workload.Run results by job key, so that sweeps sharing
// evaluation points (Fig 2 / Table III / Fig 6 all run the eight apps at
// full concurrency) pay for each point once.
//
// Determinism: workload.Run is a pure function of its inputs, results are
// returned in submission order, and cached results are shared read-only,
// so a batch evaluated across N workers is byte-identical to the same
// batch evaluated sequentially. The experiment harness relies on this to
// keep parallel report generation bit-exact (see the property test in
// internal/experiments).
//
// The result cache is pluggable (internal/resultstore): the default is
// the in-process sharded index, and a disk-backed store turns the engine
// persistent — every computed point is appended to the store, and a
// restarted process re-serves previously computed points as cache hits.
// Resumable sweep sessions (internal/session) and the nvmserve daemon
// are built on that. Run commits each fresh point on its own; a batch
// worker commits the points it solved in one claimed index range
// together when the range ends, as one store append.
//
// Hot-path allocation contract: a cache-hit Run is allocation-free. The
// store's hit path is one shard lock and one typed map lookup per
// workload (no interface boxing, no global lock), per-session
// accounting is a caller-owned pair of atomic counters (Tally), and Run
// returns the cached Phases slice copy-on-write: the slice is
// capacity-clamped so appending reallocates, and callers must treat the
// shared elements as read-only (every consumer in this repo only ranges
// over them).
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/workload"
)

// Job is one evaluation point of a sweep: a workload on a memory
// configuration at a thread count.
type Job struct {
	Workload *workload.Workload
	Mode     memsys.Mode
	Threads  int

	// Tally, when non-nil, books the job's hit or miss on top of the
	// engine aggregate: a session stamps its own on every job it
	// submits. It is not part of the cache key, so identical points
	// submitted by different sessions still coalesce.
	Tally *Tally

	// InDRAM is the per-structure placement for Placed-mode jobs
	// (ignored otherwise).
	InDRAM map[string]bool

	// Variant tags a job that runs on a tweaked system (ablation
	// studies). Jobs with a non-empty Variant bypass the memoized
	// per-mode system: the engine builds a fresh one and applies Tweak.
	// Tweak must be deterministic for a given Variant string, since the
	// result cache keys on the tag, not the closure.
	Variant string
	Tweak   func(*memsys.System)
}

// Key is the cache identity of a job — the resultstore key the engine
// derives from the workload fingerprint plus mode, threads, placement
// and variant.
type Key = resultstore.Key

// Key returns the job's cache identity — the resultstore key derived
// from the workload fingerprint plus mode, threads, placement and
// variant. The fleet coordinator uses it to probe the shared store
// before dispatching a point and to coalesce identical points across
// concurrently dispatched batches. The workload must be non-nil.
func (j Job) Key() Key { return j.keyWith(j.Workload.Fingerprint()) }

// keyWith is Key with the workload's fingerprint already derived.
func (j Job) keyWith(fingerprint uint64) Key {
	k := Key{
		App:         j.Workload.Name,
		Fingerprint: fingerprint,
		Mode:        j.Mode,
		Threads:     j.Threads,
		Variant:     j.Variant,
	}
	if len(j.InDRAM) > 0 {
		names := make([]string, 0, len(j.InDRAM))
		for name, in := range j.InDRAM {
			if in {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		h := fnv.New64a()
		for _, name := range names {
			h.Write([]byte(name))
			h.Write([]byte{0})
		}
		k.Placement = h.Sum64()
	}
	return k
}

// Keyer derives job keys one workload at a time. Scenario expansion
// emits each (app, scale) workload under one pointer for modes ×
// threads consecutive jobs, so Key hashes a fingerprint only when a
// job's Workload pointer differs from the previous job's. It remembers
// that one fingerprint and nothing else: use a Keyer for one pass over
// jobs whose workloads do not change during it — a claimed index
// range, a batch, an expansion — and a fresh one for the next. The
// zero value is ready to use.
type Keyer struct {
	w           *workload.Workload
	fingerprint uint64
}

// Key returns job.Key(). The workload must be non-nil.
func (kr *Keyer) Key(job Job) Key {
	if job.Workload != kr.w {
		kr.w, kr.fingerprint = job.Workload, job.Workload.Fingerprint()
	}
	return job.keyWith(kr.fingerprint)
}

// Stats reports the engine's cache accounting.
type Stats struct {
	// Hits counts Run calls served from (or coalesced onto) an already
	// submitted evaluation; Misses counts evaluations actually computed.
	Hits, Misses uint64
}

// Tally counts store acquisitions as hits and misses: plain atomics,
// so booking a job takes no lock and allocates nothing. The engine
// keeps one for its aggregate; callers own the ones they stamp on
// jobs.
type Tally struct {
	hits, misses atomic.Uint64
}

// book counts one acquisition.
func (t *Tally) book(hit bool) {
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
}

// Stats returns the tally's counts.
func (t *Tally) Stats() Stats {
	return Stats{Hits: t.hits.Load(), Misses: t.misses.Load()}
}

// Engine evaluates jobs on one socket with per-mode system memoization
// and a pluggable result store.
type Engine struct {
	sock    *platform.Socket
	workers int

	sysMu   sync.Mutex
	systems map[memsys.Mode]*memsys.System

	store resultstore.Store
	total Tally
}

// New builds an engine for the socket backed by the in-process result
// store. workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1
// degenerates to the sequential path.
func New(sock *platform.Socket, workers int) *Engine {
	return NewWithStore(sock, workers, resultstore.NewMemory())
}

// NewWithStore builds an engine over an explicit result store — a
// resultstore.Disk makes every computed point persistent and re-serves
// prior points as cache hits after a restart. The engine does not close
// the store; its owner does.
func NewWithStore(sock *platform.Socket, workers int, store resultstore.Store) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		sock:    sock,
		workers: workers,
		systems: make(map[memsys.Mode]*memsys.System),
		store:   store,
	}
}

// Workers returns the pool width.
func (e *Engine) Workers() int { return e.workers }

// SetWorkers resizes the pool for subsequent batches (<= 0 restores
// GOMAXPROCS). Not safe to call concurrently with RunBatch.
func (e *Engine) SetWorkers(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.workers = workers
}

// Socket exposes the engine's socket.
func (e *Engine) Socket() *platform.Socket { return e.sock }

// System returns the memoized stock system for a mode. Systems are
// read-only during solving, so one instance serves all workers.
func (e *Engine) System(mode memsys.Mode) *memsys.System {
	e.sysMu.Lock()
	defer e.sysMu.Unlock()
	sys, ok := e.systems[mode]
	if !ok {
		sys = memsys.New(e.sock, mode)
		e.systems[mode] = sys
	}
	return sys
}

// Run evaluates one job through the result store. Safe for concurrent
// use.
//
// The returned Result shares the cached Phases slice copy-on-write: its
// capacity is clamped to its length, so appending reallocates instead of
// corrupting the cache, and the shared elements must be treated as
// read-only. A cache-hit Run performs no allocation.
func (e *Engine) Run(job Job) (workload.Result, error) {
	if err := job.check(); err != nil {
		return workload.Result{}, err
	}
	return e.run(job, job.Key(), nil)
}

// check rejects a job Run cannot key or evaluate.
func (j Job) check() error {
	if j.Workload == nil {
		return fmt.Errorf("engine: nil workload")
	}
	if j.Tweak != nil && j.Variant == "" {
		return fmt.Errorf("engine: job with Tweak needs a Variant tag for cache identity")
	}
	return nil
}

// run is Run for a checked job under its key k. A freshly computed
// result is committed to the store at once, or, when recs is non-nil and
// the evaluation succeeded, appended to *recs for the caller to commit
// with the rest of its range.
func (e *Engine) run(job Job, k Key, recs *[]resultstore.Record) (workload.Result, error) {
	en, loaded := e.store.Acquire(k)
	e.account(job.Tally, loaded)
	en.Once.Do(func() {
		if en.Seeded {
			// Restored from a persistent store: the solved quantities are
			// on the entry; reattach the descriptor the store does not
			// persist.
			en.Res.Workload = job.Workload
			return
		}
		en.Res, en.Err = e.compute(job)
		switch {
		case recs == nil:
			e.store.Commit(k, en.Res, en.Err)
		case en.Err == nil:
			*recs = append(*recs, resultstore.Record{Key: k, Res: en.Res})
		}
		en.MarkDone()
	})
	return share(en)
}

// account books one store acquisition into the aggregate and, when
// the job carries one, its submitter's tally.
func (e *Engine) account(t *Tally, loaded bool) {
	e.total.book(loaded)
	if t != nil {
		t.book(loaded)
	}
}

// share returns a completed entry's result under the copy-on-write
// contract: the Phases slice is capacity-clamped so appending
// reallocates instead of corrupting the cache.
func share(en *resultstore.Entry) (workload.Result, error) {
	if en.Err != nil {
		// Failed entries stay cached; the zero result carries no slice to
		// protect.
		return en.Res, en.Err
	}
	res := en.Res
	res.Phases = res.Phases[:len(res.Phases):len(res.Phases)]
	return res, nil
}

// Cached reports whether the result under key k is already completed
// in the result store (including records persisted by a previous
// process) — the probe the fleet coordinator runs before dispatching a
// point to a worker, with the key it derived once for the job. Stores
// without the remote-lookup seam (resultstore.Prober) report nothing
// cached, which only costs a redundant dispatch.
func (e *Engine) Cached(k Key) bool {
	p, ok := e.store.(resultstore.Prober)
	return ok && p.Probe(k)
}

// CommitRemote completes a job with a result computed elsewhere (a
// fleet worker), under k, which must be job.Key(): the caller derived
// it once and passes it in so the fingerprint is not hashed again. The
// entry is claimed through the same singleflight Once as a local
// evaluation, the remote quantities are committed to the store with the
// job's descriptor reattached, and the returned result carries the same
// copy-on-write Phases contract as Run. If the key was already
// completed — or is being computed locally right now — the resident
// entry wins and the remote result is discarded, so concurrent local
// and remote evaluations of one point stay byte-identical (workload.Run
// is pure, both computed the same values). Accounting matches Run, job
// tally included: a fresh claim books a miss (the evaluation happened,
// just not here), a resident one a hit.
func (e *Engine) CommitRemote(job Job, k Key, res workload.Result, rerr error) (workload.Result, error) {
	if job.Workload == nil {
		return workload.Result{}, fmt.Errorf("engine: nil workload")
	}
	en, loaded := e.store.Acquire(k)
	e.account(job.Tally, loaded)
	en.Once.Do(func() {
		if en.Seeded {
			en.Res.Workload = job.Workload
			return
		}
		if rerr != nil {
			en.Err = rerr
		} else {
			en.Res = res
			en.Res.Workload = job.Workload
		}
		e.store.Commit(k, en.Res, en.Err)
		en.MarkDone()
	})
	return share(en)
}

func (e *Engine) compute(job Job) (workload.Result, error) {
	sys := e.System(job.Mode)
	if job.Tweak != nil {
		sys = memsys.New(e.sock, job.Mode)
		job.Tweak(sys)
	}
	if job.Mode == memsys.Placed {
		return workload.RunPlaced(job.Workload, sys, job.Threads, job.InDRAM)
	}
	return workload.Run(job.Workload, sys, job.Threads)
}

// RunBatch fans the jobs across the worker pool and returns their
// results in submission order. On failure it returns the first error in
// submission order (independent of scheduling) alongside the partial
// results.
func (e *Engine) RunBatch(jobs []Job) ([]workload.Result, error) {
	return e.RunBatchFunc(context.Background(), jobs, nil)
}

// RunBatchCtx is RunBatch with cancellation: the batch aborts between
// jobs as soon as ctx is done — jobs already solving finish (and commit
// to the store as complete entries), jobs not yet started are skipped —
// and the context error is returned with the partial results. A
// cancelled batch therefore never writes a partial entry to the result
// store.
func (e *Engine) RunBatchCtx(ctx context.Context, jobs []Job) ([]workload.Result, error) {
	return e.RunBatchFunc(ctx, jobs, nil)
}

// RunBatchFunc is RunBatchCtx with a completion hook: done (when
// non-nil) is invoked once per successfully evaluated job, from worker
// goroutines, possibly concurrently and out of submission order — the
// feed behind streaming sweep sessions. Jobs skipped by cancellation or
// failed by evaluation never reach done.
//
// Each worker keys its claimed index range through one Keyer, so a
// workload shared by consecutive jobs is fingerprinted once per range
// rather than once per job; the results are those of Run. The worker
// gathers the range's freshly computed results in a pooled buffer and
// commits them with one CommitBatch when the range ends, on the cancel
// path too, so a disk store appends one frame per range: done can see a
// point up to one range before the store persists it.
func (e *Engine) RunBatchFunc(ctx context.Context, jobs []Job, done func(i int, res workload.Result)) ([]workload.Result, error) {
	results := make([]workload.Result, len(jobs))
	errs := make([]error, len(jobs))
	var cancelled atomic.Bool
	run := func(lo, hi int) {
		var keys Keyer
		recs := recBufs.Get().(*[]resultstore.Record)
		defer e.commitRange(recs)
		for i := lo; i < hi; i++ {
			// Abort between jobs: claimed-but-unstarted indexes drain
			// fast once the context fires.
			if cancelled.Load() {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			job := jobs[i]
			if errs[i] = job.check(); errs[i] != nil {
				continue
			}
			results[i], errs[i] = e.run(job, keys.Key(job), recs)
			if errs[i] == nil && done != nil {
				done(i, results[i])
			}
		}
	}
	forEach(e.workers, len(jobs), run)
	if err := ctx.Err(); err != nil {
		return results, CancelError(err)
	}
	return results, FirstError(jobs, errs)
}

// recBufs pools the buffers batch workers gather a range's records in,
// so steady-state range commits allocate nothing per record.
var recBufs = sync.Pool{New: func() any { return new([]resultstore.Record) }}

// commitRange commits the records a worker gathered in one range and
// returns the buffer to its pool, cleared so it keeps no result alive.
func (e *Engine) commitRange(recs *[]resultstore.Record) {
	e.store.CommitBatch(*recs)
	clear(*recs)
	*recs = (*recs)[:0]
	recBufs.Put(recs)
}

// CancelError wraps a batch's context error in the engine's cancelled
// wording. Exported so the fleet execution path fails with the exact
// bytes a local batch would — sessions and NDJSON error lines stay
// byte-identical whether a sweep ran locally or on a fleet.
func CancelError(err error) error {
	return fmt.Errorf("engine: batch cancelled: %w", err)
}

// BatchError wraps one job's evaluation failure with its submission
// position, in the engine's batch-failure wording (see CancelError for
// why it is exported).
func BatchError(i int, job Job, err error) error {
	name := "<nil>"
	if job.Workload != nil {
		name = job.Workload.Name
	}
	return fmt.Errorf("engine: job %d (%s on %s @ %d): %w",
		i, name, job.Mode, job.Threads, err)
}

// FirstError reduces a batch's per-job errors to the first failure in
// submission order (independent of scheduling), wrapped by BatchError;
// nil when every job succeeded.
func FirstError(jobs []Job, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return BatchError(i, jobs[i], err)
		}
	}
	return nil
}

// Stats returns the cache accounting since construction; callers that
// want one run's share subtract a snapshot taken before it.
func (e *Engine) Stats() Stats { return e.total.Stats() }

// maxRange caps a claimed index range at the v2 block target, so a range
// commits at most one block's worth of records and a torn frame loses at
// most one range.
const maxRange = resultstore.BlockTarget

// forEach covers the indexes 0..n-1 across at most workers goroutines
// and waits, handing each worker its whole claimed range as fn(lo, hi)
// for the half-open [lo, hi). Ranges are claimed off one atomic
// cursor, so the synchronization cost is one atomic add per range
// instead of one channel operation per job; ranges are kept small
// relative to n/workers so heterogeneous job costs (cache hits vs
// fresh solves) still balance. No range holds more than maxRange
// indexes; a single worker takes 0..n-1 in order, in ranges of
// maxRange.
func forEach(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += maxRange {
			fn(lo, min(lo+maxRange, n))
		}
		return
	}
	chunk := min(max(n/(workers*8), 1), maxRange)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				fn(lo, min(hi, n))
			}
		}()
	}
	wg.Wait()
}

// Map runs fn for indices 0..n-1 across at most workers goroutines and
// returns the outputs in index order — the deterministic fan-out the
// experiment harness uses to parallelize whole experiments. On failure
// it returns the first error in index order.
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	forEach(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], errs[i] = fn(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Package resultstore is the pluggable result cache behind the
// evaluation engine. A Store maps an evaluation point's cache identity
// (Key — the workload fingerprint plus mode, threads, placement and
// variant) to a singleflight slot (Entry) holding the solved
// workload.Result, so every consumer of the engine — one-shot sweeps,
// resumable sessions, the nvmserve daemon — shares one result path.
//
// Two implementations ship:
//
//   - Memory: the engine's original 64-shard in-process map, moved here
//     behavior-preserving. Acquire on a hit is a shard read-lock and one
//     typed map lookup — no allocation — which keeps the engine's
//     cache-hit Run at 0 allocs/op.
//   - Disk: a crash-tolerant content-addressed store layered on Memory.
//     Results append to log segment files as CRC32C-framed binary
//     blocks — the record codec the compacted format uses, one block per
//     commit: a single record from Commit, or a whole run of records
//     from CommitBatch, which the engine calls once per claimed index
//     range — and are re-loaded as pre-seeded entries on Open, so a
//     restarted process re-serves every previously computed point as a
//     cache hit (the mechanism behind resumable sweep sessions and
//     nvmbench's -store warm cache). Compact folds the log into a
//     single binary columnar (v2) segment — sorted, dictionary/varint
//     encoded blocks plus a block index (see segment2.go for the format)
//     — which Open reads index-only: records stay on disk and fault in
//     lazily per block on first Acquire, so reopening a million-point
//     store costs milliseconds instead of a full replay. Fresh results
//     keep appending to the log alongside the v2 segment; the next
//     Compact folds them in.
//
// The singleflight protocol: Acquire returns the Entry for a key,
// creating it if this is the key's first submission (loaded reports
// which). The caller completes the entry exactly once through its Once;
// after computing a fresh result it calls Commit, or gathers it into a
// CommitBatch, so persistent stores can record it. Entries restored from
// disk carry Seeded == true: their quantitative fields are populated but
// the Workload descriptor pointer is not persisted, and the engine
// reattaches it from the job at first use.
package resultstore

import (
	"sync"
	"sync/atomic"

	"repro/internal/memsys"
	"repro/internal/workload"
)

// Key is the cache identity of an evaluation point. It is derived from
// workload.Fingerprint — see that method's stability contract: the
// fingerprint is persisted by disk stores, so its encoding must stay
// stable across releases or existing stores silently turn cold.
type Key struct {
	App         string
	Fingerprint uint64
	Mode        memsys.Mode
	Threads     int
	Placement   uint64
	Variant     string
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is an allocation-free FNV-1a over every key field, used to pick
// the cache shard.
func (k Key) Hash() uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(k.App); i++ {
		h = (h ^ uint64(k.App[i])) * fnvPrime64
	}
	for _, v := range [...]uint64{k.Fingerprint, uint64(k.Mode), uint64(k.Threads), k.Placement} {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v >> s & 0xff)) * fnvPrime64
		}
	}
	h = (h ^ 0xff) * fnvPrime64 // field separator
	for i := 0; i < len(k.Variant); i++ {
		h = (h ^ uint64(k.Variant[i])) * fnvPrime64
	}
	return h
}

// Entry is a singleflight cache slot: the first goroutine to claim it
// completes it through Once, concurrent claimants block on the same Once
// and then share the result. The fields are owned by that protocol — only
// the completing goroutine writes Res/Err, inside Once.
type Entry struct {
	Once sync.Once
	Res  workload.Result
	Err  error

	// Seeded marks an entry restored from a persistent store: Res holds
	// the solved quantities but not the Workload descriptor pointer
	// (descriptors are not persisted; the engine reattaches the job's
	// descriptor inside Once at first use).
	Seeded bool

	// done flips once the entry is complete: seeded at restore, or
	// marked by the completing goroutine (MarkDone, inside Once). It is
	// what Probe reports — an acquired-but-still-computing entry is not
	// yet a remotely servable result.
	done atomic.Bool
}

// MarkDone marks the entry complete. Called exactly once, by the
// goroutine that completed the entry inside its Once (stores seed
// restored entries as already done).
func (e *Entry) MarkDone() { e.done.Store(true) }

// Done reports whether the entry has been completed (or restored
// pre-completed from a persistent store).
func (e *Entry) Done() bool { return e.done.Load() || e.Seeded }

// Record is one stored point: its cache key and its solved quantities.
// The block codec, which log appends, compacted segments and fleet
// result posts share, stores it without the Workload descriptor.
type Record struct {
	Key Key
	Res workload.Result
}

// Store is the pluggable result cache the engine runs against.
//
// Implementations must make Acquire safe for concurrent use and
// allocation-free on the hit path (an existing entry). Each freshly
// computed result is recorded at most once, through Commit or inside one
// CommitBatch, by the goroutine that completed its entry, after the
// result is computed; in-memory stores may ignore both.
type Store interface {
	// Acquire returns the singleflight slot for a key, creating it if
	// this is the first submission. loaded reports whether the slot
	// already existed (a cache hit).
	Acquire(k Key) (e *Entry, loaded bool)

	// Commit records a freshly computed result for a key. Persistent
	// stores append it durably; failed evaluations (err != nil) are never
	// persisted — errors stay process-local singleflight state.
	Commit(k Key, res workload.Result, err error)

	// CommitBatch records a run of freshly computed, successful results
	// as one unit: a persistent store appends them as one block frame in
	// one write, so the run persists whole or, torn by a crash, not at
	// all. The store does not keep recs after returning.
	CommitBatch(recs []Record)

	// Len reports the number of entries resident in the store.
	Len() int

	// Close flushes and releases any resources. The store must not be
	// used after Close.
	Close() error
}

// Prober is the optional remote-lookup seam a Store may implement: a
// read-only probe reporting whether a completed result for the key is
// already resident, without creating a singleflight slot. The fleet
// coordinator probes before dispatching a chunk so points any worker
// (or a previous process) already evaluated are served from the shared
// store instead of travelling the wire again. Both shipped stores
// implement it; Disk's probe faults in the covering v2 block first, so
// a compacted million-point store answers probes lazily, exactly like
// Acquire.
type Prober interface {
	// Probe reports whether a completed (or seeded) result for the key
	// is resident. In-flight computations report false: the point is not
	// yet servable and a concurrent evaluation elsewhere is harmless —
	// the singleflight Once keeps the first completion authoritative.
	Probe(k Key) bool
}

// shardCount spreads the cache across independent locks so worker-pool
// lookups do not serialize. Must be a power of two.
const shardCount = 64

// shard is one lock-striped slice of the cache. The typed map keeps hit
// lookups allocation-free (no interface boxing).
type shard struct {
	mu sync.RWMutex
	m  map[Key]*Entry
}

// Memory is the in-process result store: the engine's original 64-shard
// singleflight map, behavior-preserving. The zero value is not usable;
// call NewMemory.
type Memory struct {
	shards [shardCount]shard
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

// Acquire returns the singleflight slot for a key, creating it if this
// is the first submission. The hit path is a shard read-lock and one
// typed map lookup — no allocation.
func (s *Memory) Acquire(k Key) (e *Entry, loaded bool) {
	sh := &s.shards[k.Hash()&(shardCount-1)]
	sh.mu.RLock()
	e = sh.m[k]
	sh.mu.RUnlock()
	if e != nil {
		return e, true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.m[k]; e != nil {
		return e, true
	}
	if sh.m == nil {
		sh.m = make(map[Key]*Entry)
	}
	e = &Entry{}
	sh.m[k] = e
	return e, false
}

// Commit is a no-op: Memory keeps results only in its entries.
func (s *Memory) Commit(Key, workload.Result, error) {}

// CommitBatch is a no-op, like Commit.
func (s *Memory) CommitBatch([]Record) {}

// Len reports the number of resident entries (completed or in flight).
func (s *Memory) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Close is a no-op.
func (s *Memory) Close() error { return nil }

// lookup returns the existing entry for a key, or nil, without creating
// one — the read-only probe Disk uses to decide whether a lazy v2 block
// fault is needed before committing to entry creation. Allocation-free.
func (s *Memory) lookup(k Key) *Entry {
	sh := &s.shards[k.Hash()&(shardCount-1)]
	sh.mu.RLock()
	e := sh.m[k]
	sh.mu.RUnlock()
	return e
}

// Probe reports whether a completed result for the key is resident —
// the read-only remote-lookup seam (see Prober). Allocation-free.
func (s *Memory) Probe(k Key) bool {
	e := s.lookup(k)
	return e != nil && e.Done()
}

// seed installs a pre-completed entry for a key — the path persistent
// stores use to restore results — and reports whether the key was new.
// An existing entry is kept unless replace is set: a newer log record
// replaces an older one while Open replays, but a key a live
// computation may hold (lazy block faults, compaction) is never
// replaced.
func (s *Memory) seed(k Key, res workload.Result, replace bool) bool {
	sh := &s.shards[k.Hash()&(shardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[Key]*Entry)
	}
	_, exists := sh.m[k]
	if exists && !replace {
		return false
	}
	sh.m[k] = &Entry{Res: res, Seeded: true}
	return !exists
}

// Package resultstore is the pluggable result cache behind the
// evaluation engine. A Store maps an evaluation point's cache identity
// (Key — the workload fingerprint plus mode, threads, placement and
// variant) to a singleflight slot (Entry) holding the solved
// workload.Result, so every consumer of the engine — one-shot sweeps,
// resumable sessions, the nvmserve daemon — shares one result path.
//
// Two implementations ship:
//
//   - Memory: the in-process index, 64 shards that each map a workload
//     to the group of its (Mode, Threads) points and keep the entries
//     in fixed chunks that never move (see shard). Acquire on a hit is
//     one shard lock, one typed map lookup per workload and a scan of
//     its points — no allocation — which keeps the engine's cache-hit
//     Run at 0 allocs/op.
//   - Disk: a crash-tolerant content-addressed store layered on Memory.
//     Results append to log segment files as CRC32C-framed binary
//     blocks — the record codec the compacted format uses, one block per
//     commit: a single record from Commit, or a whole run of records
//     from CommitBatch, which the engine calls once per claimed index
//     range — and are re-loaded as pre-seeded entries on Open, so a
//     restarted process re-serves every previously computed point as a
//     cache hit (the mechanism behind resumable sweep sessions and
//     nvmbench's -store warm cache). Compact, like Verify an offline
//     pass over a store directory no process holds, folds what Open
//     would serve, loaded through Open's own loader, into a single
//     binary columnar (v2) segment — sorted, dictionary/varint encoded
//     blocks plus a block index (see segment2.go for the format) —
//     which Open reads index-only: records stay on disk and fault in
//     lazily per block on first Acquire, so reopening a million-point
//     store costs milliseconds instead of a full replay. Fresh results
//     keep appending to the log alongside the v2 segment; the next
//     Compact folds them in. Open deletes no segment: only Compact and
//     Verify do, offline and under the store lock.
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

// The index's shape: shardCount shards, each keeping its entries in
// chunks of chunkSize slots.
const (
	shardBits  = 6
	shardCount = 1 << shardBits
	chunkBits  = 5
	chunkSize  = 1 << chunkBits
)

// workloadKey is the part of a Key that a workload's points share.
type workloadKey struct {
	App         string
	Fingerprint uint64
	Placement   uint64
	Variant     string
}

// point maps one (Mode, Threads) point of a workload to its slot in the
// shard's chunks.
type point struct {
	mode    memsys.Mode
	threads int
	slot    int
}

// group is one workload's points, held by value in its shard's map: the
// first inline, so a one-point workload allocates nothing of its own,
// and the rest in a list behind a pointer, which grows by doubling
// without writing the map again. Points hold slot numbers rather than
// pointers, so the lists are pointer-free and the collector does not
// scan them.
type group struct {
	first point
	more  *[]point
}

// find returns the slot of the (mode, threads) point, or -1.
func (g *group) find(mode memsys.Mode, threads int) int {
	if g.first.mode == mode && g.first.threads == threads {
		return g.first.slot
	}
	if g.more == nil {
		return -1
	}
	more := *g.more
	for i := range more {
		if p := &more[i]; p.mode == mode && p.threads == threads {
			return p.slot
		}
	}
	return -1
}

// shard is one of the index's independent parts, so worker-pool
// lookups do not serialize; Memory picks a key's shard by a
// multiplicative hash of its fingerprint. Inside a shard, a typed map
// (no interface boxing, so lookups allocate nothing) takes a workload —
// the key minus its mode and thread count — to the group of its (Mode,
// Threads) points, because scenario expansion and the engine's Keyer
// visit a workload's modes × threads points back to back: a hit or an
// insert touches one map entry per workload, not one per point. The
// entries live in fixed chunks that never move, so a slot's *Entry stays
// valid for the store's life, and the collector marks a few chunks
// instead of one object per point. One plain mutex guards each
// lookup-or-insert: the workers of one batch often share a workload's
// shard, and a read lock that upgraded to insert would take it twice.
type shard struct {
	mu     sync.Mutex
	groups map[workloadKey]group
	chunks []*[chunkSize]Entry
	n      int // slots in use
}

// slot returns the entry for a key and whether it already existed. A
// missing key gets a fresh slot when create is set, and nil otherwise.
// Caller holds mu.
func (sh *shard) slot(k Key, create bool) (e *Entry, loaded bool) {
	wk := workloadKey{App: k.App, Fingerprint: k.Fingerprint, Placement: k.Placement, Variant: k.Variant}
	g, ok := sh.groups[wk]
	if ok {
		if i := g.find(k.Mode, k.Threads); i >= 0 {
			return &sh.chunks[i>>chunkBits][i&(chunkSize-1)], true
		}
	}
	if !create {
		return nil, false
	}
	p := point{mode: k.Mode, threads: k.Threads, slot: sh.n}
	if sh.n&(chunkSize-1) == 0 {
		sh.chunks = append(sh.chunks, new([chunkSize]Entry))
	}
	sh.n++
	switch {
	case !ok:
		if sh.groups == nil {
			sh.groups = make(map[workloadKey]group)
		}
		sh.groups[wk] = group{first: p}
	case g.more == nil:
		more := append(make([]point, 0, 4), p)
		g.more = &more
		sh.groups[wk] = g
	default:
		*g.more = append(*g.more, p)
	}
	return &sh.chunks[p.slot>>chunkBits][p.slot&(chunkSize-1)], false
}

// Memory is the in-process result store: the sharded singleflight index
// above. The zero value is not usable; call NewMemory.
type Memory struct {
	shards [shardCount]shard
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

// shard picks a key's shard from its fingerprint alone, so all of a
// workload's points share one.
func (s *Memory) shard(k Key) *shard {
	return &s.shards[(k.Fingerprint*0x9e3779b97f4a7c15)>>(64-shardBits)]
}

// Acquire returns the singleflight slot for a key, creating it if this
// is the first submission. A hit is one shard lock, one typed map lookup
// for the key's workload and a scan of its points — no allocation.
func (s *Memory) Acquire(k Key) (e *Entry, loaded bool) {
	sh := s.shard(k)
	sh.mu.Lock()
	e, loaded = sh.slot(k, true)
	sh.mu.Unlock()
	return e, loaded
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
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Close is a no-op.
func (s *Memory) Close() error { return nil }

// lookup returns the existing entry for a key, or nil, without creating
// one — the read-only probe Disk uses to decide whether a lazy v2 block
// fault is needed before committing to entry creation. Allocation-free.
func (s *Memory) lookup(k Key) *Entry {
	sh := s.shard(k)
	sh.mu.Lock()
	e, _ := sh.slot(k, false)
	sh.mu.Unlock()
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
// overwrites an older one in place while Open replays, when no caller
// holds an entry yet, but an older layer — a v2 block faulted in while a
// live computation may hold its key, or the fallback layer under a
// damaged one — never replaces one.
func (s *Memory) seed(k Key, res workload.Result, replace bool) bool {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, exists := sh.slot(k, true)
	if exists && !replace {
		return false
	}
	e.Res, e.Seeded = res, true
	return !exists
}

// records returns a Record for every completed entry, in no particular
// order — the scratch index Compact writes out.
func (s *Memory) records() []Record {
	recs := make([]Record, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		add := func(wk workloadKey, p point) {
			if e := &sh.chunks[p.slot>>chunkBits][p.slot&(chunkSize-1)]; e.Done() {
				k := Key{App: wk.App, Fingerprint: wk.Fingerprint, Mode: p.mode, Threads: p.threads, Placement: wk.Placement, Variant: wk.Variant}
				recs = append(recs, Record{k, e.Res})
			}
		}
		for wk, g := range sh.groups {
			add(wk, g.first)
			if g.more != nil {
				for _, p := range *g.more {
					add(wk, p)
				}
			}
		}
		sh.mu.Unlock()
	}
	return recs
}

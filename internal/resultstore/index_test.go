package resultstore

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/memsys"
)

// workloadSweep returns the keys of n workloads, workload-major and in
// the order scenario expansion emits them: each workload's modes ×
// threads points back to back. Workload w gets fingerprint
// splitmix64(base+w).
func workloadSweep(base, n int, modes []memsys.Mode, threads []int) []Key {
	apps := [...]string{"BoxLib", "SNAP", "HPCG", "XSBench"}
	keys := make([]Key, 0, n*len(modes)*len(threads))
	for w := 0; w < n; w++ {
		fp := splitmix64(uint64(base + w))
		for _, m := range modes {
			for _, t := range threads {
				keys = append(keys, Key{App: apps[w%len(apps)], Fingerprint: fp, Mode: m, Threads: t})
			}
		}
	}
	return keys
}

// threadLadder returns the thread counts 1..n.
func threadLadder(n int) []int {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = i + 1
	}
	return ts
}

var allModes = []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM, memsys.UncachedNVM, memsys.Placed}

// One workload's 192 points, and workloads that differ from it only in
// App, Placement or Variant, each get an entry of their own, and every
// lookup finds its own. Len counts exactly the entries, and Probe
// reports only the completed ones.
func TestIndexWorkloadKeys(t *testing.T) {
	m := NewMemory()
	base := workloadSweep(0, 1, allModes, threadLadder(48))
	if len(base) != 192 {
		t.Fatalf("workload has %d points, want 192", len(base))
	}
	keys := append([]Key(nil), base...)
	for _, vary := range []func(*Key){
		func(k *Key) { k.App = "Hypre" },
		func(k *Key) { k.Placement = 7 },
		func(k *Key) { k.Variant = "no-wpq" },
	} {
		for _, k := range base {
			vary(&k)
			keys = append(keys, k)
		}
	}
	entries := make(map[*Entry]Key, len(keys))
	for i, k := range keys {
		e, loaded := m.Acquire(k)
		if loaded {
			t.Fatalf("key %d %+v reported loaded on first Acquire", i, k)
		}
		if prev, dup := entries[e]; dup {
			t.Fatalf("keys %+v and %+v share an entry", prev, k)
		}
		entries[e] = k
		if m.Probe(k) {
			t.Fatalf("in-flight key %+v probes true", k)
		}
		if i%2 == 0 {
			e.Once.Do(func() { e.Res.Threads = k.Threads; e.MarkDone() })
		}
		if got := m.Len(); got != i+1 {
			t.Fatalf("Len after %d inserts = %d", i+1, got)
		}
	}
	for e, k := range entries {
		got, loaded := m.Acquire(k)
		if !loaded || got != e {
			t.Fatalf("key %+v: Acquire returned %p (loaded=%v), want its own entry %p", k, got, loaded, e)
		}
	}
	for i, k := range keys {
		if m.Probe(k) != (i%2 == 0) {
			t.Errorf("key %d %+v probes %v, want %v", i, k, m.Probe(k), i%2 == 0)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(keys))
	}
	other := base[0]
	other.Threads = 49
	if m.Probe(other) || m.lookup(other) != nil || m.Len() != len(keys) {
		t.Fatal("a lookup of an absent point found or created an entry")
	}
}

// Entries never move: the *Entry a key's first Acquire returns is the
// one every later Acquire returns, with its contents intact, after
// 100,000 more inserts spread over every shard.
func TestIndexEntriesNeverMove(t *testing.T) {
	m := NewMemory()
	keys := append(workloadSweep(0, 1, allModes, threadLadder(48)), workloadSweep(1, 64, allModes[:1], []int{48})...)
	first := make([]*Entry, len(keys))
	for i, k := range keys {
		e, _ := m.Acquire(k)
		e.Once.Do(func() { e.Res.Threads = i; e.MarkDone() })
		first[i] = e
	}
	more := workloadSweep(1000, 100000/18+1, allModes[:3], []int{8, 16, 24, 32, 40, 48})
	for _, k := range more {
		if _, loaded := m.Acquire(k); loaded {
			t.Fatalf("fresh key %+v reported loaded", k)
		}
	}
	for i := range m.shards {
		if m.shards[i].n == 0 {
			t.Errorf("shard %d holds no entry after %d inserts", i, m.Len())
		}
	}
	for i, k := range keys {
		e, loaded := m.Acquire(k)
		if !loaded || e != first[i] {
			t.Fatalf("key %d moved: got %p (loaded=%v), want %p", i, e, loaded, first[i])
		}
		if e.Res.Threads != i || !e.Done() {
			t.Fatalf("key %d entry lost its contents: %+v", i, e.Res)
		}
	}
	if want := len(keys) + len(more); m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

// Eight goroutines acquire the keys of 1,000 workloads, each in its own
// order. Every key is created exactly once, and every caller gets the
// same entry for it.
func TestIndexConcurrentAcquire(t *testing.T) {
	const workers = 8
	m := NewMemory()
	keys := workloadSweep(0, 1000, allModes[:3], []int{24, 48})
	got := make([][]*Entry, workers)
	fresh := make([][]bool, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		order := rand.New(rand.NewPCG(uint64(g), 1)).Perm(len(keys))
		got[g] = make([]*Entry, len(keys))
		fresh[g] = make([]bool, len(keys))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				e, loaded := m.Acquire(keys[i])
				got[g][i], fresh[g][i] = e, !loaded
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		created := 0
		for g := 0; g < workers; g++ {
			if fresh[g][i] {
				created++
			}
			if got[g][i] != got[0][i] {
				t.Fatalf("key %+v: goroutines %d and 0 got different entries", k, g)
			}
		}
		if created != 1 {
			t.Fatalf("key %+v created %d times, want once", k, created)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(keys))
	}
}

// Replay overwrites a key's entry in place with the later record, both
// inside one log segment and across segments, with the workload's other
// points in between; Len and Persisted count each key once.
func TestIndexReplayKeepsLaterRecord(t *testing.T) {
	dir := t.TempDir()
	keys := workloadSweep(0, 2, allModes[:3], []int{24, 48})
	_, res := SyntheticRecord(0)
	version := func(r int) Record {
		out := res
		out.Slowdown = float64(r)
		return Record{Res: out}
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i, k := range keys {
		r := version(i)
		r.Key = k
		recs = append(recs, r)
	}
	d.CommitBatch(recs)
	d.Commit(keys[0], version(100).Res, nil) // same segment, after its workload's other points
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	d.Commit(keys[len(keys)-1], version(200).Res, nil) // a later segment
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(keys) || re.Persisted() != len(keys) {
		t.Fatalf("Len = %d, Persisted = %d, want %d each", re.Len(), re.Persisted(), len(keys))
	}
	for i, k := range keys {
		want := float64(i)
		switch i {
		case 0:
			want = 100
		case len(keys) - 1:
			want = 200
		}
		e, loaded := re.Acquire(k)
		if !loaded || !e.Seeded || e.Res.Slowdown != want {
			t.Errorf("key %d: loaded=%v seeded=%v slowdown %v, want a seeded hit with %v", i, loaded, e.Seeded, e.Res.Slowdown, want)
		}
	}
}

// The points of multi-point workloads that a compacted segment spreads
// over several blocks fault in lazily, and both Probe and Acquire find
// every one of them. A fault never replaces a resident entry: records a
// later log segment holds for the same keys win.
func TestIndexLazyFaultWorkloads(t *testing.T) {
	defer SetBlockSizeForTest(8)()
	dir := t.TempDir()
	keys := workloadSweep(0, 12, allModes[:3], []int{8, 16, 24, 32, 40, 48})
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i].Key = k
		_, recs[i].Res = SyntheticRecord(i)
	}
	d.CommitBatch(recs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	newer := map[int]bool{0: true, 40: true, len(keys) - 1: true}
	if d, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	for i := range newer {
		recs[i].Res.Slowdown = -1
		d.Commit(keys[i], recs[i].Res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(newer) {
		t.Fatalf("resident entries after a lazy open = %d, want the %d log records", re.Len(), len(newer))
	}
	for i, k := range keys {
		// Odd workloads fault in through Probe, even ones through Acquire.
		if (i/18)%2 == 1 && !re.Probe(k) {
			t.Fatalf("key %d of a lazy block probes false", i)
		}
		e, loaded := re.Acquire(k)
		if !loaded || !e.Seeded || !reflect.DeepEqual(e.Res, recs[i].Res) {
			t.Fatalf("key %d not served from its lazy block or log record (loaded=%v, slowdown %v)", i, loaded, e.Res.Slowdown)
		}
		if !re.Probe(k) {
			t.Fatalf("key %d probes false after Acquire", i)
		}
	}
	if re.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", re.Len(), len(keys))
	}
}

// Cold-acquiring a 7,200-point sweep of 400 eighteen-point workloads
// into a fresh store allocates less than one object per two keys: the
// index allocates per workload and per chunk, not per point. Hits
// allocate nothing.
func TestIndexColdSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	keys := workloadSweep(0, 400, allModes[:3], []int{8, 16, 24, 32, 40, 48})
	var m *Memory
	allocs := testing.AllocsPerRun(5, func() {
		m = NewMemory()
		for _, k := range keys {
			m.Acquire(k)
		}
	})
	if max := float64(len(keys)) / 2; allocs >= max {
		t.Errorf("cold sweep of %d keys allocates %.0f objects, want < %.0f", len(keys), allocs, max)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for _, k := range keys {
			m.Acquire(k)
		}
	}); allocs != 0 {
		t.Errorf("hits on %d keys allocate %.0f objects, want 0", len(keys), allocs)
	}
}

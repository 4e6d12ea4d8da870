package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/workload"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func paperJobs() []Job {
	var jobs []Job
	for _, e := range dwarfs.All() {
		w := e.New()
		for _, mode := range memsys.Modes() {
			for _, th := range []int{24, 48} {
				jobs = append(jobs, Job{Workload: w, Mode: mode, Threads: th})
			}
		}
	}
	return jobs
}

func TestRunCachesResults(t *testing.T) {
	e := New(sock(), 4)
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.UncachedNVM, Threads: 48}
	r1, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh but identical workload value must hit the same cache slot.
	r2, err := e.Run(Job{Workload: dwarfs.All()[0].New(), Mode: memsys.UncachedNVM, Threads: 48})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit", s)
	}
	if r1.Time != r2.Time || r1.Slowdown != r2.Slowdown {
		t.Errorf("cached result differs: %v vs %v", r1.Time, r2.Time)
	}
}

func TestDistinctJobsMiss(t *testing.T) {
	e := New(sock(), 2)
	w := dwarfs.All()[0].New()
	for _, job := range []Job{
		{Workload: w, Mode: memsys.DRAMOnly, Threads: 48},
		{Workload: w, Mode: memsys.UncachedNVM, Threads: 48},
		{Workload: w, Mode: memsys.UncachedNVM, Threads: 24},
	} {
		if _, err := e.Run(job); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Misses != 3 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 3 misses", s)
	}
}

func TestBatchCoalescesDuplicates(t *testing.T) {
	e := New(sock(), 8)
	w := dwarfs.All()[0].New()
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Workload: w, Mode: memsys.CachedNVM, Threads: 48}
	}
	results, err := e.RunBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 15 {
		t.Errorf("stats = %+v, want 1 miss + 15 hits", s)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("coalesced results differ at %d", i)
		}
	}
}

// The headline engine property: a batch fanned across many workers is
// identical to the same batch on one worker.
func TestBatchParallelMatchesSequential(t *testing.T) {
	jobs := paperJobs()
	seq := New(sock(), 1)
	par := New(sock(), 8)
	sres, err := seq.RunBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.RunBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sres) != len(pres) {
		t.Fatalf("result counts differ: %d vs %d", len(sres), len(pres))
	}
	for i := range sres {
		if !reflect.DeepEqual(sres[i], pres[i]) {
			t.Errorf("job %d (%s on %v @ %d) differs under parallelism",
				i, jobs[i].Workload.Name, jobs[i].Mode, jobs[i].Threads)
		}
	}
}

func TestSystemMemoizedPerMode(t *testing.T) {
	e := New(sock(), 2)
	if e.System(memsys.CachedNVM) != e.System(memsys.CachedNVM) {
		t.Error("system not memoized")
	}
	if e.System(memsys.CachedNVM) == e.System(memsys.DRAMOnly) {
		t.Error("modes share a system")
	}
}

func TestVariantJobs(t *testing.T) {
	e := New(sock(), 2)
	w, err := dwarfs.ByName("Hypre")
	if err != nil {
		t.Fatal(err)
	}
	stock, err := e.Run(Job{Workload: w.New(), Mode: memsys.CachedNVM, Threads: 48})
	if err != nil {
		t.Fatal(err)
	}
	tweaked, err := e.Run(Job{
		Workload: w.New(), Mode: memsys.CachedNVM, Threads: 48,
		Variant: "missOverlap=1.5",
		Tweak:   func(s *memsys.System) { s.MissOverlap = 1.5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stock.Time == tweaked.Time {
		t.Error("variant job not evaluated on a tweaked system")
	}
	// The tweak must not leak into the memoized stock system.
	again, err := e.Run(Job{Workload: w.New(), Mode: memsys.CachedNVM, Threads: 48})
	if err != nil {
		t.Fatal(err)
	}
	if again.Time != stock.Time {
		t.Error("stock system polluted by variant tweak")
	}
	if e.System(memsys.CachedNVM).MissOverlap == 1.5 {
		t.Error("memoized system mutated")
	}
}

func TestTweakRequiresVariant(t *testing.T) {
	e := New(sock(), 1)
	_, err := e.Run(Job{
		Workload: dwarfs.All()[0].New(), Mode: memsys.CachedNVM, Threads: 48,
		Tweak: func(s *memsys.System) { s.MissOverlap = 0.1 },
	})
	if err == nil {
		t.Error("Tweak without Variant should be rejected")
	}
}

func TestPlacedJob(t *testing.T) {
	e := New(sock(), 2)
	entry, err := dwarfs.ByName("ScaLAPACK")
	if err != nil {
		t.Fatal(err)
	}
	w := entry.New()
	if len(w.Structures) == 0 {
		t.Fatal("ScaLAPACK has no structure profile")
	}
	inDRAM := map[string]bool{w.Structures[0].Name: true}
	got, err := e.Run(Job{Workload: w, Mode: memsys.Placed, Threads: 48, InDRAM: inDRAM})
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.RunPlaced(w, memsys.New(e.Socket(), memsys.Placed), 48, inDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time {
		t.Errorf("placed via engine %v != direct %v", got.Time, want.Time)
	}
	// A different placement is a different cache identity.
	other, err := e.Run(Job{Workload: w, Mode: memsys.Placed, Threads: 48,
		InDRAM: map[string]bool{w.Structures[1].Name: true}})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses for 2 placements", s)
	}
	_ = other
}

func TestBatchErrorIsFirstInSubmissionOrder(t *testing.T) {
	e := New(sock(), 4)
	w := dwarfs.All()[0].New()
	jobs := []Job{
		{Workload: w, Mode: memsys.DRAMOnly, Threads: 48},
		{Workload: w, Mode: memsys.DRAMOnly, Threads: 99}, // invalid
		{Workload: nil, Mode: memsys.DRAMOnly, Threads: 48},
	}
	_, err := e.RunBatch(jobs)
	if err == nil {
		t.Fatal("expected error")
	}
	want := "job 1"
	if got := err.Error(); len(got) < len(want) || got[:14] != "engine: job 1 " {
		t.Errorf("error = %q, want the first failing job in submission order", got)
	}
}

func TestMapOrdered(t *testing.T) {
	out, err := Map(8, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	_, err = Map(4, 10, func(i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("odd %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "odd 1" {
		t.Errorf("err = %v, want first error in index order", err)
	}
}

// Run returns the cached Phases copy-on-write: appending to the
// returned slice must reallocate (capacity is clamped to length) rather
// than grow into — and corrupt — the cached entry other consumers share.
// The elements themselves are shared read-only by contract.
func TestResultIsolatedFromCache(t *testing.T) {
	e := New(sock(), 2)
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.UncachedNVM, Threads: 48}
	r1, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if cap(r1.Phases) != len(r1.Phases) {
		t.Fatalf("returned Phases capacity %d exceeds length %d: append would write into the cache",
			cap(r1.Phases), len(r1.Phases))
	}
	want := len(r1.Phases)
	r1.Phases = append(r1.Phases, workload.PhaseOutcome{})
	r1.Phases[want].Epoch.Mult = -1
	r2, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Phases) != want {
		t.Errorf("cache corrupted through an appended Result: %d phases, want %d",
			len(r2.Phases), want)
	}
	for _, po := range r2.Phases {
		if po.Epoch.Mult == -1 {
			t.Error("appended element leaked into the cached entry")
		}
	}
}

// A cache-hit Run is the common case inside overlapping sweeps and must
// not allocate: the typed sharded map avoids key boxing and the Phases
// slice is shared copy-on-write.
func TestRunCacheHitDoesNotAllocate(t *testing.T) {
	e := New(sock(), 1)
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.UncachedNVM, Threads: 48}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Run(job); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit Run allocates %v per call, want 0", allocs)
	}
}

// Per-session accounting must not reintroduce allocations or a lock on
// the hot path: a tallied hit is one more atomic add.
func TestRunCacheHitWithTallyDoesNotAllocate(t *testing.T) {
	e := New(sock(), 1)
	var tally Tally
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.UncachedNVM, Threads: 48, Tally: &tally}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Run(job); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit Run with a tally allocates %v per call, want 0", allocs)
	}
	if st := tally.Stats(); st.Hits == 0 || st.Misses != 1 {
		t.Errorf("tally = %+v, want 1 miss and many hits", st)
	}
}

// A nil workload in a batch surfaces as an error naming the job, not a
// panic while formatting it.
func TestBatchNilWorkloadErrors(t *testing.T) {
	e := New(sock(), 2)
	_, err := e.RunBatch([]Job{{Workload: nil, Mode: memsys.DRAMOnly, Threads: 48}})
	if err == nil {
		t.Fatal("nil workload should fail")
	}
}

func TestWorkersDefault(t *testing.T) {
	e := New(sock(), 0)
	if e.Workers() < 1 {
		t.Errorf("workers = %d", e.Workers())
	}
	e.SetWorkers(3)
	if e.Workers() != 3 {
		t.Errorf("workers = %d after SetWorkers(3)", e.Workers())
	}
}

func TestTally(t *testing.T) {
	e := New(sock(), 2)
	w := dwarfs.All()[0].New()
	// Two sessions submit the same evaluation point: one miss booked to
	// the first tally, one hit to the second — tallies must not split
	// the cache.
	var fig2, table3 Tally
	if _, err := e.Run(Job{Workload: w, Mode: memsys.DRAMOnly, Threads: 48, Tally: &fig2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Job{Workload: w, Mode: memsys.DRAMOnly, Threads: 48, Tally: &table3}); err != nil {
		t.Fatal(err)
	}
	if got := fig2.Stats(); got != (Stats{Misses: 1}) {
		t.Errorf("fig2 tally = %+v, want 1 miss", got)
	}
	if got := table3.Stats(); got != (Stats{Hits: 1}) {
		t.Errorf("table3 tally = %+v, want 1 hit", got)
	}
	// Untallied jobs count only in the aggregate.
	if _, err := e.Run(Job{Workload: w, Mode: memsys.UncachedNVM, Threads: 48}); err != nil {
		t.Fatal(err)
	}
	if fig2.Stats() != (Stats{Misses: 1}) || table3.Stats() != (Stats{Hits: 1}) {
		t.Errorf("untallied job booked to a tally: fig2 %+v, table3 %+v", fig2.Stats(), table3.Stats())
	}
	if s := e.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Errorf("aggregate stats = %+v", s)
	}
}

// A cancelled context aborts the batch between jobs: started jobs finish
// as whole cache entries, unstarted jobs never touch the store, and the
// context error is returned.
func TestRunBatchCtxCancelled(t *testing.T) {
	e := New(sock(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := paperJobs()
	_, err := e.RunBatchCtx(ctx, jobs)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("pre-cancelled batch touched the store: %+v", s)
	}
	if n := e.store.Len(); n != 0 {
		t.Errorf("pre-cancelled batch left %d store entries", n)
	}
	// A background context keeps RunBatch semantics intact.
	if _, err := e.RunBatchCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
}

// Mid-batch cancellation: the completion hook fires only for jobs that
// ran, and the store holds exactly those entries.
func TestRunBatchFuncCancelMidBatch(t *testing.T) {
	e := New(sock(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	jobs := paperJobs()
	var done []int
	_, err := e.RunBatchFunc(ctx, jobs, func(i int, res workload.Result) {
		done = append(done, i)
		if len(done) == 3 {
			cancel()
		}
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(done) < 3 || len(done) >= len(jobs) {
		t.Fatalf("completed %d of %d jobs after mid-batch cancel", len(done), len(jobs))
	}
	if n := e.store.Len(); n != len(done) {
		t.Errorf("store holds %d entries for %d completed jobs", n, len(done))
	}
}

// RunBatchFunc must report every completed job exactly once with its
// result, concurrently safe under many workers.
func TestRunBatchFuncReportsEachJob(t *testing.T) {
	e := New(sock(), 8)
	jobs := paperJobs()
	var mu sync.Mutex
	seen := make(map[int]workload.Result)
	results, err := e.RunBatchFunc(context.Background(), jobs, func(i int, res workload.Result) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[i]; dup {
			t.Errorf("job %d reported twice", i)
		}
		seen[i] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("hook saw %d jobs, want %d", len(seen), len(jobs))
	}
	for i, res := range seen {
		if !reflect.DeepEqual(res, results[i]) {
			t.Errorf("job %d hook result differs from batch result", i)
		}
	}
}

// RunBatchFunc keys each claimed index range through one Keyer. Every
// job must land under its own Job.Key() whatever the order of the
// workloads in a range: one coming back after another, equal content
// under distinct pointers, a nil, placements and a tweaked variant.
// Nothing is remembered past a range: a workload changed in place
// between batches misses under its new key.
func TestBatchKeysPerWorkloadRun(t *testing.T) {
	all := dwarfs.All()
	a, b, twin := all[0].New(), all[1].New(), all[1].New() // twin: b's content, another pointer
	entry, err := dwarfs.ByName("ScaLAPACK")
	if err != nil {
		t.Fatal(err)
	}
	p := entry.New()
	jobs := []Job{
		{Workload: a, Mode: memsys.DRAMOnly, Threads: 24},
		{Workload: a, Mode: memsys.DRAMOnly, Threads: 48},
		{Workload: b, Mode: memsys.CachedNVM, Threads: 48},
		{Workload: a, Mode: memsys.UncachedNVM, Threads: 48},  // a after b
		{Workload: twin, Mode: memsys.CachedNVM, Threads: 48}, // b's key
		{Workload: twin, Mode: memsys.CachedNVM, Threads: 24},
		{Workload: nil, Mode: memsys.DRAMOnly, Threads: 48},
		{Workload: p, Mode: memsys.Placed, Threads: 48, InDRAM: map[string]bool{p.Structures[0].Name: true}},
		{Workload: p, Mode: memsys.Placed, Threads: 48, InDRAM: map[string]bool{p.Structures[1].Name: true}},
		{Workload: a, Mode: memsys.CachedNVM, Threads: 48, Variant: "missOverlap=1.5",
			Tweak: func(s *memsys.System) { s.MissOverlap = 1.5 }},
		{Workload: a, Mode: memsys.CachedNVM, Threads: 48},
	}
	const wantErr = "engine: job 6 (<nil> on DRAM @ 48): engine: nil workload"
	for _, workers := range []int{1, 3} {
		e := New(sock(), workers)
		if _, err := e.RunBatch(jobs); err == nil || err.Error() != wantErr {
			t.Fatalf("workers=%d: batch error = %v, want %q", workers, err, wantErr)
		}
		distinct := map[Key]bool{}
		for i, job := range jobs {
			if job.Workload == nil {
				continue
			}
			k := job.Key()
			distinct[k] = true
			if !e.Cached(k) {
				t.Errorf("workers=%d: job %d not resident under its Job.Key()", workers, i)
			}
		}
		if n := e.store.Len(); n != len(distinct) || n != 9 {
			t.Errorf("workers=%d: store holds %d entries, want the %d distinct keys (9)", workers, n, len(distinct))
		}
	}

	e := New(sock(), 1)
	if _, err := e.RunBatch(jobs[:2]); err != nil {
		t.Fatal(err)
	}
	old := jobs[0].Key()
	a.Footprint *= 2
	before := e.Stats()
	if _, err := e.RunBatch(jobs[:2]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.Misses-before.Misses != 2 || got.Hits != before.Hits {
		t.Errorf("after changing a's footprint: stats %+v → %+v, want 2 new misses", before, got)
	}
	if k := jobs[0].Key(); k == old || !e.Cached(k) {
		t.Errorf("changed workload not resident under its new key (old %v, new %v)", old, k)
	}
}

// freshStore hands out a never-used entry on every Acquire, so each run
// of the same jobs solves them all again on a store that does no map
// work, and checks each range commit it receives. It takes no lock:
// single-worker engines only.
type freshStore struct {
	resultstore.Store
	entries []resultstore.Entry
	next    int
	commits int // records received through CommitBatch
	errs    []string
}

func newFreshStore(n int) *freshStore {
	return &freshStore{Store: resultstore.NewMemory(), entries: make([]resultstore.Entry, n)}
}

func (s *freshStore) Acquire(resultstore.Key) (*resultstore.Entry, bool) {
	s.next++
	return &s.entries[s.next-1], false
}

// CommitBatch checks the range cap, and that the buffer's spare capacity
// was cleared by the commit before: a pooled buffer must not keep
// earlier ranges' results alive.
func (s *freshStore) CommitBatch(recs []resultstore.Record) {
	if len(recs) > maxRange {
		s.errs = append(s.errs, fmt.Sprintf("range commit of %d records, over %d", len(recs), maxRange))
	}
	for _, r := range recs[len(recs):cap(recs)] {
		if r.Res.Workload != nil || r.Res.Phases != nil {
			s.errs = append(s.errs, "range buffer kept a committed record")
			break
		}
	}
	s.commits += len(recs)
}

// Steady-state range commits allocate nothing per record: a batch
// worker gathers its range's records in a pooled buffer, so a cold
// batch allocates what its solves allocate plus a constant per batch.
func TestRangeCommitBufferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var jobs []Job
	for _, entry := range dwarfs.All() {
		w := entry.New()
		for _, mode := range memsys.Modes() {
			for th := 1; th <= 48; th++ {
				jobs = append(jobs, Job{Workload: w, Mode: mode, Threads: th})
			}
		}
	}
	if len(jobs) <= maxRange {
		t.Fatalf("%d jobs fit one range; want several", len(jobs))
	}
	const runs = 8
	engines := make([]*Engine, runs+1)
	stores := make([]*freshStore, runs+1)
	for i := range engines {
		stores[i] = newFreshStore(len(jobs))
		engines[i] = NewWithStore(sock(), 1, stores[i])
		for _, mode := range memsys.Modes() {
			engines[i].System(mode) // build the systems off the clock
		}
	}
	e := engines[0]
	solves := testing.AllocsPerRun(runs, func() {
		for _, job := range jobs {
			if _, err := e.compute(job); err != nil {
				t.Fatal(err)
			}
		}
	})
	next := 0
	batch := testing.AllocsPerRun(runs, func() {
		if _, err := engines[next].RunBatch(jobs); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if extra := batch - solves; extra > 8 {
		t.Errorf("a %d-job cold batch allocates %.0f objects beyond its solves' %.0f, want <= 8", len(jobs), extra, solves)
	}
	for i, s := range stores {
		if s.commits != len(jobs) {
			t.Errorf("run %d committed %d records, want %d", i, s.commits, len(jobs))
		}
		for _, msg := range s.errs {
			t.Errorf("run %d: %s", i, msg)
		}
	}
}

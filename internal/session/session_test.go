package session

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

func smallSpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:    name,
		Apps:    []string{"XSBench", "Hypre"},
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM, memsys.UncachedNVM},
		Threads: []int{24, 48},
	}
}

func TestSessionRunsToCompletion(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	sp := smallSpec("sess-basic")
	s, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := outcomes(s)
	if err != nil {
		t.Fatal(err)
	}
	// The async session must produce exactly what a synchronous Run does.
	want, err := sp.Run(engine.New(sock(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, want) {
		t.Error("session outcomes differ from a synchronous scenario run")
	}
	st := s.Status()
	if st.State != Done || st.Completed != len(want) || st.Points != len(want) {
		t.Errorf("status = %+v, want done %d/%d", st, len(want), len(want))
	}
	if st.Finished == nil {
		t.Error("terminal status has no finish time")
	}
}

func TestStreamDeterministicOrder(t *testing.T) {
	m := NewManager(engine.New(sock(), 8))
	defer m.Close()
	sp := smallSpec("sess-stream")
	s, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []scenario.Outcome
	if err := s.Stream(context.Background(), func(o scenario.Outcome) error {
		streamed = append(streamed, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	outs, err := outcomes(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, outs) {
		t.Error("streamed outcomes differ from the final outcome list (order or content)")
	}
}

func TestSessionInvalidSpecRejected(t *testing.T) {
	m := NewManager(engine.New(sock(), 2))
	defer m.Close()
	if _, err := m.Submit(scenario.Spec{Name: "bad", Apps: []string{"NoSuchApp"}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestManagerGetAndList(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	s1, err := m.Submit(smallSpec("sess-a"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Submit(smallSpec("sess-b"))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(s1.ID()); !ok || got != s1 {
		t.Fatal("Get lost session 1")
	}
	if _, ok := m.Get("sweep-999999"); ok {
		t.Fatal("Get invented a session")
	}
	list := m.List()
	if len(list) != 2 || list[0].ID != s1.ID() || list[1].ID != s2.ID() {
		t.Fatalf("List = %+v, want [%s %s]", list, s1.ID(), s2.ID())
	}
	if err := s1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// gatedStore wraps a store with an admission gate on Acquire: each
// acquire consumes one token, so a test can let an exact number of jobs
// through, interrupt the sweep, then release the rest.
type gatedStore struct {
	resultstore.Store
	gate    chan struct{}
	release sync.Once
}

func newGatedStore(inner resultstore.Store, tokens int) *gatedStore {
	g := &gatedStore{Store: inner, gate: make(chan struct{}, 1024)}
	for i := 0; i < tokens; i++ {
		g.gate <- struct{}{}
	}
	return g
}

func (g *gatedStore) Acquire(k resultstore.Key) (*resultstore.Entry, bool) {
	<-g.gate
	return g.Store.Acquire(k)
}

// Release unblocks every pending and future Acquire.
func (g *gatedStore) Release() { g.release.Do(func() { close(g.gate) }) }

// A cancelled session stops between jobs: no new points start, the
// session reports Cancelled, and the store holds only whole entries for
// the points that completed.
func TestSessionCancelStopsBetweenJobs(t *testing.T) {
	inner := resultstore.NewMemory()
	gate := newGatedStore(inner, 2)
	defer gate.Release()
	m := NewManager(engine.NewWithStore(sock(), 1, gate))
	defer m.Close()
	sp := smallSpec("sess-cancel")
	s, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the two admitted points, then cancel and open the gate.
	deadline := time.Now().Add(10 * time.Second)
	for s.Status().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("admitted points never completed")
		}
		time.Sleep(time.Millisecond)
	}
	s.Cancel()
	gate.Release()
	if err := s.Wait(context.Background()); err == nil {
		t.Fatal("cancelled session reported success")
	}
	st := s.Status()
	if st.State != Cancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	// The single worker had at most one extra job past the ctx check when
	// cancel landed; everything else must have been skipped.
	if st.Completed > 3 || st.Completed == st.Points {
		t.Fatalf("completed %d of %d points after cancel", st.Completed, st.Points)
	}
	if inner.Len() != st.Completed {
		t.Errorf("store holds %d entries for %d completed points (partial entries?)",
			inner.Len(), st.Completed)
	}
	// A stream over the cancelled session ends with its error after the
	// completed deterministic prefix.
	streamed := 0
	err = s.Stream(context.Background(), func(scenario.Outcome) error { streamed++; return nil })
	if err == nil {
		t.Fatal("stream over a cancelled session reported success")
	}
	if streamed > st.Completed {
		t.Errorf("stream emitted %d outcomes, more than the %d completed", streamed, st.Completed)
	}
}

// The acceptance contract: a sweep interrupted mid-run resumes from the
// disk store — a restarted process re-serves every completed point as a
// cache hit, pays misses only for the remainder, and produces outcomes
// identical to an uninterrupted in-memory run.
func TestKillAndRestartResumesFromStore(t *testing.T) {
	dir := t.TempDir()
	sp := smallSpec("sess-resume")

	// Process 1: run behind an admission gate, "kill" (cancel) mid-sweep.
	disk1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGatedStore(disk1, 5)
	m1 := NewManager(engine.NewWithStore(sock(), 2, gate))
	s1, err := m1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s1.Status().Completed < 5 {
		if time.Now().After(deadline) {
			t.Fatal("admitted points never completed")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Cancel()
	gate.Release()
	_ = s1.Wait(context.Background())
	m1.Close()
	if err := disk1.Close(); err != nil {
		t.Fatal(err)
	}
	interrupted := s1.Status().Completed
	if interrupted == 0 || interrupted == s1.Size() {
		t.Fatalf("interrupted run completed %d of %d points; mid-run interruption failed", interrupted, s1.Size())
	}

	// Process 2: fresh store handle, fresh engine, same spec.
	disk2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	if disk2.Persisted() != interrupted {
		t.Fatalf("store persisted %d records, want the %d completed points", disk2.Persisted(), interrupted)
	}
	eng2 := engine.NewWithStore(sock(), 4, disk2)
	m2 := NewManager(eng2)
	defer m2.Close()
	s2, err := m2.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := outcomes(s2)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}

	// The resumed session's own accounting: every previously completed
	// point re-served as a hit, only the remainder computed.
	st := s2.Status()
	total := uint64(s2.Size())
	if st.Hits != uint64(interrupted) || st.Misses != total-uint64(interrupted) {
		t.Errorf("resume stats = %d hits + %d misses, want %d hits + %d misses",
			st.Hits, st.Misses, interrupted, total-uint64(interrupted))
	}

	// The resumed outcomes are identical to an uninterrupted run.
	want, err := sp.Run(engine.New(sock(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, want) {
		t.Error("resumed outcomes differ from an uninterrupted run")
	}
}

// The migration acceptance contract: after Compact rewrites the store
// into a v2 binary columnar segment, a restarted process re-serves every
// prior point as a cache hit — the records fault in lazily from the
// compacted blocks — with outcomes identical to the original run.
func TestCompactedStoreResumesAllHits(t *testing.T) {
	dir := t.TempDir()
	sp := smallSpec("sess-compact")

	// Process 1: full sweep onto the store, then migrate to v2.
	disk1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(engine.NewWithStore(sock(), 2, disk1))
	s1, err := m1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	outs1, err := outcomes(s1)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if err := disk1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := resultstore.Compact(dir); err != nil {
		t.Fatal(err)
	}

	// Process 2: the reopened store holds only the v2 segment; nothing
	// is resident until points fault in.
	disk2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	if disk2.Persisted() != s1.Size() {
		t.Fatalf("compacted store persisted %d records, want %d", disk2.Persisted(), s1.Size())
	}
	if disk2.Len() != 0 {
		t.Fatalf("compacted store has %d resident entries at open, want lazy 0", disk2.Len())
	}
	eng2 := engine.NewWithStore(sock(), 4, disk2)
	m2 := NewManager(eng2)
	defer m2.Close()
	s2, err := m2.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	outs2, err := outcomes(s2)
	if err != nil {
		t.Fatalf("sweep over compacted store failed: %v", err)
	}
	st := s2.Status()
	if st.Hits != uint64(s2.Size()) || st.Misses != 0 {
		t.Errorf("compacted resume stats = %d hits + %d misses, want %d hits + 0 misses", st.Hits, st.Misses, s2.Size())
	}
	if !reflect.DeepEqual(outs2, outs1) {
		t.Error("outcomes over the compacted store differ from the original run")
	}
}

// Concurrent sessions over one shared store, polled and streamed while
// running — the -race exercise for the session/store/tally paths.
func TestConcurrentSessionsSharedStore(t *testing.T) {
	dir := t.TempDir()
	disk, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	m := NewManager(engine.NewWithStore(sock(), 4, disk))
	defer m.Close()

	// Overlapping sweeps: the sessions share most evaluation points, so
	// the singleflight store and the session tallies see real contention.
	specs := make([]scenario.Spec, 6)
	for i := range specs {
		specs[i] = smallSpec(fmt.Sprintf("sess-conc-%d", i))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp scenario.Spec) {
			defer wg.Done()
			s, err := m.Submit(sp)
			if err != nil {
				errs[i] = err
				return
			}
			// Poll status and stream concurrently with evaluation.
			go func() {
				for !s.Status().State.Terminal() {
					m.List()
					time.Sleep(100 * time.Microsecond)
				}
			}()
			n := 0
			if err := s.Stream(context.Background(), func(scenario.Outcome) error { n++; return nil }); err != nil {
				errs[i] = err
				return
			}
			if n != s.Size() {
				errs[i] = fmt.Errorf("session %s streamed %d of %d outcomes", s.ID(), n, s.Size())
			}
		}(i, sp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	// All sessions expand to the same points: one compute each, the rest
	// hits.
	points := specs[0].Size()
	if st := m.Engine().Stats(); int(st.Misses) != points {
		t.Errorf("misses = %d, want %d (one compute per distinct point)", st.Misses, points)
	}
}

// Two concurrent sessions of one spec each count exactly their own
// points: together they compute every point once, and each point one
// of them computed is a hit for the other.
func TestConcurrentSubmitsCountOwnPoints(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	sp := smallSpec("sess-twin")
	var twins [2]*Session
	for i := range twins {
		s, err := m.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		twins[i] = s
	}
	var misses uint64
	for _, s := range twins {
		if err := s.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := s.Status()
		if st.Hits+st.Misses != uint64(s.Size()) {
			t.Errorf("%s: %d hits + %d misses, want %d points", s.ID(), st.Hits, st.Misses, s.Size())
		}
		misses += st.Misses
	}
	if misses != uint64(sp.Size()) {
		t.Errorf("sessions computed %d points between them, want %d", misses, sp.Size())
	}
}

// The manager rejects submissions after Close and drains its goroutines.
func TestManagerClose(t *testing.T) {
	m := NewManager(engine.New(sock(), 2))
	if _, err := m.Submit(smallSpec("sess-close")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit(smallSpec("sess-after-close")); err == nil {
		t.Fatal("Submit accepted after Close")
	}
}

var _ resultstore.Store = (*gatedStore)(nil)

// outcomes waits for s to finish and collects its outcome log in order.
func outcomes(s *Session) ([]scenario.Outcome, error) {
	if err := s.Wait(context.Background()); err != nil {
		return nil, err
	}
	var outs []scenario.Outcome
	err := s.Stream(context.Background(), func(o scenario.Outcome) error {
		outs = append(outs, o)
		return nil
	})
	return outs, err
}

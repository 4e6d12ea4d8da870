package session

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// tinySpec is a one-point sweep: the cheapest possible submission for
// retention churn.
func tinySpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:    name,
		Apps:    []string{"XSBench"},
		Modes:   []memsys.Mode{memsys.CachedNVM},
		Threads: []int{24},
	}
}

// A sustained submission loop must hold the manager's maps at the
// retention cap instead of growing one session per submission forever —
// the unbounded-retention leak nvmserve had under load.
func TestRetentionHoldsSteadyState(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	const cap = 8
	m.SetRetain(cap)

	const rounds = 100
	var first *Session
	for i := 0; i < rounds; i++ {
		s, err := m.Submit(tinySpec("retention-churn"))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = s
		}
		if err := s.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Eviction runs in the submit path and in each session's finishing
	// goroutine; after the last Wait a final evict may still be in
	// flight, so allow it a moment to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sweeps, plans := m.Count()
		if sweeps+plans <= cap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d submissions the manager holds %d sweeps + %d plans, want <= %d",
				rounds, sweeps, plans, cap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The oldest session is long evicted: Get must miss cleanly, and the
	// listing must not carry it.
	if _, ok := m.Get(first.ID()); ok {
		t.Errorf("evicted session %s still retrievable", first.ID())
	}
	for _, st := range m.List() {
		if st.ID == first.ID() {
			t.Errorf("evicted session %s still listed", first.ID())
		}
	}
	// The most recent session survives.
	last := m.List()
	if len(last) == 0 {
		t.Fatal("listing empty after churn")
	}
	if st := last[len(last)-1]; st.State != Done {
		t.Errorf("newest retained session state = %s", st.State)
	}
}

// Nothing outlives an evicted session, whatever its spec is called:
// under a churn of uniquely named specs the heap stays flat.
func TestRetentionFlatUnderUniqueSpecNames(t *testing.T) {
	m := NewManager(engine.New(sock(), 2))
	defer m.Close()
	m.SetRetain(16)
	churn := func(from, to int) {
		for i := from; i < to; i++ {
			s, err := m.Submit(tinySpec(fmt.Sprintf("unique-%05d", i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm up first, so the store, maps and pools are at steady state.
	churn(0, 100)
	before := heap()
	churn(100, 10100)
	if grown := int64(heap()) - int64(before); grown > 200<<10 {
		t.Errorf("heap grew %d KB over 10,000 uniquely named sessions, want < 200 KB", grown>>10)
	}
}

// Plans and sweeps share one cap, evicted oldest-first across both.
func TestRetentionInterleavesPlans(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	m.SetRetain(4)

	for i := 0; i < 6; i++ {
		s, err := m.Submit(tinySpec("retention-mix-sweep"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		p, err := m.SubmitPlan(smallSpec("retention-mix-plan"))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		sweeps, plans := m.Count()
		if sweeps+plans <= 4 {
			if sweeps == 0 || plans == 0 {
				t.Errorf("eviction wiped out one kind entirely: %d sweeps, %d plans", sweeps, plans)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cap not enforced: %d sweeps + %d plans", sweeps, plans)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedExecutor holds every batch until release is closed, then runs it
// on the engine, so a test decides when its sessions may finish.
type gatedExecutor struct {
	eng     *engine.Engine
	release chan struct{}
}

func (x gatedExecutor) ExecuteBatch(ctx context.Context, _ scenario.Spec, jobs []engine.Job, done func(int, workload.Result)) error {
	select {
	case <-x.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	_, err := x.eng.RunBatchFunc(ctx, jobs, done)
	return err
}

// Running sessions are never evicted, even when they exceed the cap;
// the map shrinks back once they finish.
func TestRetentionSparesRunning(t *testing.T) {
	eng := engine.New(sock(), 2)
	m := NewManager(eng)
	defer m.Close()
	release := make(chan struct{})
	m.SetExecutor(gatedExecutor{eng, release})
	m.SetRetain(2)

	var sessions []*Session
	for i := 0; i < 6; i++ {
		s, err := m.Submit(smallSpec(fmt.Sprintf("retention-burst-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	// The executor holds all six running, three times the cap: every
	// one must still be retrievable.
	for _, s := range sessions {
		if s.terminal() {
			t.Fatalf("session %s finished before its batch was released", s.ID())
		}
		if _, ok := m.Get(s.ID()); !ok {
			t.Errorf("running session %s evicted", s.ID())
		}
	}
	close(release)
	for _, s := range sessions {
		if err := s.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		sweeps, plans := m.Count()
		if sweeps+plans <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst did not drain to the cap: %d sessions", sweeps+plans)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// SetRetain(0) restores unbounded retention.
func TestRetentionDisabled(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	m.SetRetain(0)
	for i := 0; i < 10; i++ {
		s, err := m.Submit(tinySpec("retention-off"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if sweeps, _ := m.Count(); sweeps != 10 {
		t.Errorf("unbounded manager holds %d sessions, want 10", sweeps)
	}
}

// Count must agree with the listings without building them.
func TestCountMatchesList(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(tinySpec("count-sweep")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.SubmitPlan(smallSpec("count-plan")); err != nil {
		t.Fatal(err)
	}
	sweeps, plans := m.Count()
	if sweeps != len(m.List()) || plans != len(m.ListPlans()) {
		t.Errorf("Count = (%d,%d), listings = (%d,%d)", sweeps, plans, len(m.List()), len(m.ListPlans()))
	}
}

// Stream under churn: many concurrent streamers against one session
// while some disconnect mid-stream and the session itself is cancelled
// partway — the lost-wakeup and teardown races the wake() contract
// guards. Run under -race.
func TestStreamChurnRace(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	s, err := m.Submit(smallSpec("stream-churn"))
	if err != nil {
		t.Fatal(err)
	}

	const streamers = 16
	var wg sync.WaitGroup
	errs := make([]error, streamers)
	counts := make([]int, streamers)
	for i := 0; i < streamers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			switch i % 3 {
			case 1:
				// Disconnect almost immediately.
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*200*time.Microsecond)
				defer cancel()
			case 2:
				// Disconnect partway through.
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			errs[i] = s.Stream(ctx, func(scenario.Outcome) error {
				counts[i]++
				if i%3 == 2 && counts[i] == 2 {
					cancel()
				}
				return nil
			})
		}(i)
	}
	// Cancel the session while the streamers are attached.
	time.Sleep(2 * time.Millisecond)
	s.Cancel()
	wg.Wait()

	for i, err := range errs {
		switch i % 3 {
		case 0:
			// Full streamers see either the complete sweep (nil — the
			// cancel can lose the race with the final point) or the
			// session's cancellation after the completed prefix.
			if err != nil && !s.Status().State.Terminal() {
				t.Errorf("streamer %d: %v with non-terminal session", i, err)
			}
		default:
			// Disconnected streamers must return their own context error
			// promptly — or nil/cancelled if the stream finished first.
			if err == nil {
				continue
			}
			if counts[i] > s.Size() {
				t.Errorf("streamer %d emitted %d of %d points", i, counts[i], s.Size())
			}
		}
	}
	// Every emitted prefix is bounded by the sweep size.
	for i, n := range counts {
		if n > s.Size() {
			t.Errorf("streamer %d saw %d outcomes, sweep has %d", i, n, s.Size())
		}
	}
}

// A cancel landing exactly while streamers wait must wake all of them;
// none may hang. The test's deadline is the watchdog.
func TestStreamCancelWakesAllWaiters(t *testing.T) {
	m := NewManager(engine.New(sock(), 1))
	defer m.Close()
	// A bigger sweep so streamers are genuinely waiting mid-run.
	sp := scenario.Spec{
		Name:    "stream-wake",
		Apps:    []string{"XSBench", "Hypre", "BoxLib"},
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM, memsys.UncachedNVM},
		Threads: []int{8, 16, 24, 32, 40, 48},
	}
	s, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Stream(context.Background(), func(scenario.Outcome) error { return nil })
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(time.Millisecond)
	s.Cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("streamers still blocked 30s after session cancel (lost wakeup)")
	}
}

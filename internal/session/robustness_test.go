package session

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultline"
	"repro/internal/resultstore"
)

// Cancel racing Submit: cancellation fired from a separate goroutine
// the instant Submit returns races the evaluation goroutine's startup.
// Run under -race; the assertions are that nothing deadlocks and every
// session still reaches a terminal state.
func TestCancelRacesSubmit(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := m.Submit(smallSpec(fmt.Sprintf("race-cancel-%d", i)))
			if err != nil {
				t.Error(err)
				return
			}
			cancelled := make(chan struct{})
			go func() { s.Cancel(); close(cancelled) }()
			_ = s.Wait(context.Background())
			<-cancelled
			if !s.Status().State.Terminal() {
				t.Errorf("session %s not terminal after Wait", s.ID())
			}
		}(i)
	}
	wg.Wait()
}

// Wait racing retention eviction: waiters hold session handles while
// the retention cap evicts those sessions from the manager's maps.
// Eviction must never strand a waiter (the handle outlives the map
// entry) and the cap must hold once the burst drains.
func TestWaitRacesEviction(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	m.SetRetain(1)
	var wg sync.WaitGroup
	ids := make([]string, 6)
	for i := 0; i < 6; i++ {
		s, err := m.Submit(smallSpec(fmt.Sprintf("race-evict-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID()
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			if err := s.Wait(context.Background()); err != nil {
				t.Errorf("%s: %v", s.ID(), err)
			}
			// The handle stays fully usable after eviction.
			if st := s.Status(); st.State != Done {
				t.Errorf("%s: state %s after Wait", s.ID(), st.State)
			}
		}(s)
	}
	wg.Wait()
	m.Close() // drain the eval goroutines' trailing evicts
	m.SetRetain(1)
	sweeps, plans := m.Count()
	if sweeps+plans > 1 {
		t.Fatalf("retention cap 1 left %d sessions", sweeps+plans)
	}
	evicted := 0
	for _, id := range ids {
		if _, ok := m.Get(id); !ok {
			evicted++
		}
	}
	if evicted < 5 {
		t.Fatalf("%d of 6 sessions evicted, want ≥ 5", evicted)
	}
}

// A server-side deadline cancels a session exactly like Cancel: the
// engine stops between jobs and the session lands in Cancelled with
// context.DeadlineExceeded as its error.
func TestSubmitWithDeadline(t *testing.T) {
	m := NewManager(engine.New(sock(), 2))
	defer m.Close()

	s, err := m.SubmitWith(smallSpec("sess-deadline"), SubmitOptions{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if werr := s.Wait(context.Background()); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want DeadlineExceeded", werr)
	}
	if st := s.Status(); st.State != Cancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}

	// A generous deadline changes nothing for a sweep that fits in it.
	s2, err := m.SubmitWith(smallSpec("sess-deadline-ok"), SubmitOptions{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if werr := s2.Wait(context.Background()); werr != nil {
		t.Fatal(werr)
	}
	if st := s2.Status(); st.State != Done {
		t.Fatalf("state = %s, want done", st.State)
	}

	p, err := m.SubmitPlanWith(smallSpec("plan-deadline"), SubmitOptions{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if werr := p.Wait(context.Background()); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("plan Wait = %v, want DeadlineExceeded", werr)
	}
	if st := p.Status(); st.State != Cancelled {
		t.Fatalf("plan state = %s, want cancelled", st.State)
	}
}

// The chaos contract, in process: a sweep runs against a store whose
// filesystem injects a mid-append torn write, the process dies
// mid-sweep, and a restart on the same directory must (1) pass a scrub
// that reports the torn tail as a crash signature, not a failure, (2)
// re-serve every successfully persisted point as a cache hit without
// ever decoding the torn record, and (3) finish the sweep with
// outcomes identical to an uninterrupted run. The CI chaos-smoke job
// runs the same contract against a real daemon under kill -9 and a 1%
// probabilistic fault plan; this test pins the semantics with a
// deterministic plan.
func TestChaosFaultyStoreKillRestartResumes(t *testing.T) {
	dir := t.TempDir()
	sp := smallSpec("sess-chaos")

	// Process 1: the 4th segment write tears mid-record; an admission
	// gate holds the sweep mid-flight so the "kill" lands mid-sweep.
	in := faultline.New(faultline.Plan{Seed: 7, Rules: []faultline.Rule{
		{Op: faultline.OpWrite, Path: ".log", Nth: 4, Kind: faultline.Short},
	}})
	disk1, err := resultstore.OpenFS(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGatedStore(disk1, 6)
	m1 := NewManager(engine.NewWithStore(sock(), 2, gate))
	s1, err := m1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s1.Status().Completed < 6 {
		if time.Now().After(deadline) {
			t.Fatal("admitted points never completed")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Cancel()
	gate.Release()
	_ = s1.Wait(context.Background())
	m1.Close()
	if len(in.Events()) == 0 {
		t.Fatal("fault plan never fired")
	}
	if derr := disk1.Degraded(); !errors.Is(derr, faultline.ErrInjected) {
		t.Fatalf("Degraded = %v, want the injected fault", derr)
	}
	persisted := disk1.Persisted()
	completed := s1.Status().Completed
	if persisted >= completed {
		t.Fatalf("persisted %d of %d completed; the fault dropped nothing", persisted, completed)
	}
	disk1.Close() // returns the sticky injected error; the data is down

	// Scrub: the torn append is the expected crash signature — reported,
	// not failed, and nothing quarantined.
	rep, err := resultstore.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTails != 1 || len(rep.Quarantined) != 0 {
		t.Fatalf("scrub report = %+v, want 1 torn tail and no quarantines", rep)
	}
	if rep.RecordsOK != persisted {
		t.Fatalf("scrub found %d records, want the %d persisted", rep.RecordsOK, persisted)
	}

	// Process 2: clean filesystem, same directory. Every persisted point
	// re-serves as a hit; the torn record is never decoded (it shows up
	// as a miss and is recomputed); outcomes match an uninterrupted run.
	disk2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	if disk2.Persisted() != persisted {
		t.Fatalf("restart loaded %d records, want %d", disk2.Persisted(), persisted)
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
	st := s2.Status()
	total := uint64(s2.Size())
	if st.Hits != uint64(persisted) || st.Misses != total-uint64(persisted) {
		t.Errorf("resume stats = %d hits + %d misses, want %d hits + %d misses", st.Hits, st.Misses, persisted, total-uint64(persisted))
	}
	want, err := sp.Run(engine.New(sock(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, want) {
		t.Error("outcomes after faulty-store restart differ from an uninterrupted run")
	}
	if derr := disk2.Degraded(); derr != nil {
		t.Fatalf("clean restart reports degraded: %v", derr)
	}
}

package session

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/resultstore"
	"repro/internal/scenario"
)

func ladderSpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:    name,
		Apps:    []string{"XSBench", "Hypre"},
		Threads: []int{1, 2, 4, 8, 16, 24, 32, 40, 48},
	}
}

func TestPlanSessionRunsToCompletion(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	sp := ladderSpec("plan-basic")
	s, err := m.SubmitPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	res := s.result
	s.mu.Unlock()
	st := s.Status()
	if st.State != Done || st.Points != sp.Size() {
		t.Fatalf("status = %+v", st)
	}
	if st.Budget != res.Budget || st.Budget == 0 {
		t.Errorf("status budget %d, planner budget %d", st.Budget, res.Budget)
	}
	if !strings.HasPrefix(st.ID, "plan-") {
		t.Errorf("plan id %q", st.ID)
	}
	// The plan must have predicted a real share of the space, and the
	// status must mirror the planner's accounting.
	if st.Evaluated != res.Evaluations || st.Predicted != sp.Size()-res.Evaluations {
		t.Errorf("status accounting %d/%d, planner %d", st.Evaluated, st.Predicted, res.Evaluations)
	}
	if res.Evaluations >= sp.Size() {
		t.Errorf("plan evaluated the whole space (%d points)", res.Evaluations)
	}
	if len(st.Rounds) != len(res.Rounds) {
		t.Errorf("status carries %d rounds, planner %d", len(st.Rounds), len(res.Rounds))
	}
	if st.Rounds[0].Phase != "seed" || st.Rounds[len(st.Rounds)-1].Phase != "predict" {
		t.Errorf("round phases %+v", st.Rounds)
	}
	if len(st.Frontier) == 0 || !st.FrontierResolved {
		t.Errorf("terminal status missing frontier (%d members, resolved %v)", len(st.Frontier), st.FrontierResolved)
	}
	if st.Finished == nil {
		t.Error("terminal status has no finish time")
	}
}

// The point stream delivers every point exactly once: evaluated points
// as their rounds complete, then the predicted remainder.
func TestPlanSessionStream(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	s, err := m.SubmitPlan(ladderSpec("plan-stream"))
	if err != nil {
		t.Fatal(err)
	}
	var got []planner.PlannedPoint
	if err := s.Stream(context.Background(), func(p planner.PlannedPoint) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != s.Size() {
		t.Fatalf("streamed %d points, want %d", len(got), s.Size())
	}
	seen := map[int]bool{}
	sawPredicted := false
	for _, p := range got {
		if seen[p.Index] {
			t.Errorf("point %d streamed twice", p.Index)
		}
		seen[p.Index] = true
		if !p.Evaluated {
			sawPredicted = true
		} else if sawPredicted {
			t.Error("evaluated point streamed after the predicted remainder began")
		}
	}
	if !sawPredicted {
		t.Error("stream carried no predicted points")
	}
	// A second stream replays the full log.
	n := 0
	if err := s.Stream(context.Background(), func(planner.PlannedPoint) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != s.Size() {
		t.Errorf("replayed stream delivered %d points", n)
	}
}

func TestPlanSessionCancel(t *testing.T) {
	// Gate the store so the seed round blocks after two points: the plan
	// cannot finish before Cancel lands, whatever the scheduling.
	inner := resultstore.NewMemory()
	gate := newGatedStore(inner, 2)
	defer gate.Release()
	m := NewManager(engine.NewWithStore(sock(), 1, gate))
	defer m.Close()
	sp, err := scenario.ByName("full-cartesian")
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.SubmitPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	gate.Release()
	if err := s.Wait(context.Background()); err == nil {
		t.Error("cancelled plan should report its error")
	}
	if st := s.Status(); st.State != Cancelled {
		t.Errorf("state = %v", st.State)
	}
	// The stream of a cancelled plan terminates with its error.
	if err := s.Stream(context.Background(), func(planner.PlannedPoint) error { return nil }); err == nil {
		t.Error("stream over a cancelled plan reported success")
	}
}

func TestPlanSessionInvalidSpec(t *testing.T) {
	m := NewManager(engine.New(sock(), 1))
	defer m.Close()
	if _, err := m.SubmitPlan(scenario.Spec{Name: "bad", Apps: []string{"NoSuchApp"}}); err == nil {
		t.Error("invalid spec should be rejected at submit")
	}
	bad := ladderSpec("bad-plan")
	bad.Plan = &scenario.Plan{Seed: "psychic"}
	if _, err := m.SubmitPlan(bad); err == nil {
		t.Error("invalid plan block should be rejected at submit")
	}
}

// Plans and sweeps share the manager, the id sequence and — critically
// — the engine cache: a plan following a sweep of the same space costs
// zero new evaluations.
func TestPlanAfterSweepIsAllHits(t *testing.T) {
	m := NewManager(engine.New(sock(), 4))
	defer m.Close()
	sp := ladderSpec("shared-space")
	sw, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	miss := m.Engine().Stats().Misses
	ps, err := m.SubmitPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := m.Engine().Stats().Misses; after != miss {
		t.Errorf("plan recomputed %d points already swept", after-miss)
	}
	// The plan's own accounting: its evaluations, all hits, none of the
	// sweep's points.
	if st := ps.Status(); st.Misses != 0 || st.Hits != uint64(st.Evaluated) {
		t.Errorf("plan status %d hits + %d misses, want %d hits + 0 misses", st.Hits, st.Misses, st.Evaluated)
	}
	if lp := m.ListPlans(); len(lp) != 1 || lp[0].ID != ps.ID() {
		t.Errorf("ListPlans = %+v", lp)
	}
	if _, ok := m.GetPlan(ps.ID()); !ok {
		t.Error("GetPlan lost the session")
	}
	if _, ok := m.GetPlan(sw.ID()); ok {
		t.Error("sweep id resolved as a plan")
	}
}

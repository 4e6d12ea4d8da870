package session

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// countingExecutor wraps the default engine path, counting batches —
// the seam the fleet coordinator plugs into.
type countingExecutor struct {
	eng     *engine.Engine
	batches atomic.Int64
	points  atomic.Int64
}

func (x *countingExecutor) ExecuteBatch(ctx context.Context, sp scenario.Spec, jobs []engine.Job, done func(int, workload.Result)) error {
	x.batches.Add(1)
	x.points.Add(int64(len(jobs)))
	_, err := x.eng.RunBatchFunc(ctx, jobs, done)
	return err
}

// A pluggable executor sees every sweep batch and the session output is
// identical to the default path; SetExecutor(nil) restores the default.
func TestSetExecutorRoutesSweeps(t *testing.T) {
	eng := engine.New(sock(), 4)
	m := NewManager(eng)
	defer m.Close()
	x := &countingExecutor{eng: eng}
	m.SetExecutor(x)

	sp := smallSpec("exec-sweep")
	s, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := outcomes(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sp.Run(engine.New(sock(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs, want) {
		t.Error("executor-routed sweep differs from the synchronous run")
	}
	if x.batches.Load() != 1 || x.points.Load() != int64(len(want)) {
		t.Errorf("executor saw %d batches / %d points, want 1 / %d",
			x.batches.Load(), x.points.Load(), len(want))
	}

	m.SetExecutor(nil)
	if _, err := m.Submit(smallSpec("exec-default")); err != nil {
		t.Fatal(err)
	}
	if got := x.batches.Load(); got != 1 {
		t.Errorf("executor saw %d batches after reset, want 1", got)
	}
}

// Plans ride the executor too: every planner round's evaluations flow
// through ExecuteBatch, and the plan result matches the default path.
func TestSetExecutorRoutesPlans(t *testing.T) {
	eng := engine.New(sock(), 4)
	m := NewManager(eng)
	defer m.Close()
	x := &countingExecutor{eng: eng}
	m.SetExecutor(x)

	sp := ladderSpec("exec-plan")
	s, err := m.SubmitPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	points, err := planPoints(s)
	if err != nil {
		t.Fatal(err)
	}
	if x.batches.Load() == 0 {
		t.Fatal("plan rounds bypassed the executor")
	}
	if got, want := x.points.Load(), int64(s.Status().Evaluated); got != want {
		t.Errorf("executor saw %d points, planner evaluated %d", got, want)
	}

	// Same plan on a pristine default-path manager: identical resolution.
	m2 := NewManager(engine.New(sock(), 4))
	defer m2.Close()
	s2, err := m2.SubmitPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	points2, err := planPoints(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, points2) {
		t.Error("executor-routed plan resolved different points than the default path")
	}
}

// planPoints waits for s to finish and collects its point stream.
func planPoints(s *PlanSession) ([]planner.PlannedPoint, error) {
	if err := s.Wait(context.Background()); err != nil {
		return nil, err
	}
	var points []planner.PlannedPoint
	err := s.Stream(context.Background(), func(p planner.PlannedPoint) error {
		points = append(points, p)
		return nil
	})
	return points, err
}

package traffic

import (
	"context"
	"fmt"

	"repro/internal/planner"
	"repro/internal/scenario"
	"repro/internal/session"
)

// Submission is one unit of traffic: a resolved scenario spec, how to
// run it, and the SLO class it travels under. Remote targets forward
// the class as the X-SLO-Class header so the daemon's admission gate
// can shed bottom-up; empty means the daemon's default (batch).
type Submission struct {
	Spec  scenario.Spec
	Kind  Kind
	Class Class
}

// ShedError reports a submission the target refused for overload (HTTP
// 429) even after the retry budget was spent. The driver books sheds
// separately from failures: a shed is the daemon protecting itself, not
// the run going wrong.
type ShedError struct {
	// Target is the target's name; Retries how many re-submissions were
	// attempted before giving up.
	Target  string
	Retries int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("traffic: %s shed the submission (429) after %d retries", e.Target, e.Retries)
}

// RunStatus is the terminal snapshot of one submitted run, normalized
// across sweeps and plans, in-process and remote: the lifecycle state
// (the session.State vocabulary), the point count, and the run's own
// cache hits and misses.
type RunStatus struct {
	State  string
	Points int
	Hits   uint64
	Misses uint64
	Err    string
}

// stateDone is the terminal state of a fully successful run — the
// string form of session.Done, which the HTTP API also speaks.
const stateDone = string(session.Done)

// Handle follows one submitted run to completion.
type Handle interface {
	// Watch blocks until the run reaches a terminal state, invoking
	// onFirst (if non-nil) when the run's first resolved point is
	// observed — the admission-to-first-point moment. The error return
	// is transport-level only (context cancellation, a broken
	// connection); a run that completes as failed or cancelled comes
	// back as a nil error with the state in RunStatus.
	Watch(ctx context.Context, onFirst func()) (RunStatus, error)
}

// Target accepts traffic. The driver is target-agnostic: the same spec
// replays against an in-process session.Manager or a remote nvmserve.
type Target interface {
	Name() string
	Submit(ctx context.Context, sub Submission) (Handle, error)
}

// ManagerTarget drives an in-process session.Manager — the zero-network
// path the tracked benchmark uses, and nvmload's -inprocess mode.
type ManagerTarget struct {
	mgr *session.Manager
}

// NewManagerTarget wraps a session manager as a traffic target.
func NewManagerTarget(m *session.Manager) *ManagerTarget {
	return &ManagerTarget{mgr: m}
}

// Name identifies the target in reports.
func (t *ManagerTarget) Name() string { return "in-process" }

// Submit starts the sweep or plan on the manager.
func (t *ManagerTarget) Submit(_ context.Context, sub Submission) (Handle, error) {
	switch sub.Kind {
	case "", Sweep:
		s, err := t.mgr.Submit(sub.Spec)
		if err != nil {
			return nil, err
		}
		return localHandle[scenario.Outcome]{s, func() RunStatus {
			st := s.Status()
			return RunStatus{State: string(st.State), Points: st.Points, Hits: st.Hits, Misses: st.Misses, Err: st.Error}
		}}, nil
	case Plan:
		s, err := t.mgr.SubmitPlan(sub.Spec)
		if err != nil {
			return nil, err
		}
		return localHandle[planner.PlannedPoint]{s, func() RunStatus {
			st := s.Status()
			return RunStatus{State: string(st.State), Points: st.Points, Hits: st.Hits, Misses: st.Misses, Err: st.Error}
		}}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown submission kind %q", sub.Kind)
	}
}

// localHandle follows an in-process sweep (T = scenario.Outcome) or
// plan (T = planner.PlannedPoint).
type localHandle[T any] struct {
	run interface {
		Stream(ctx context.Context, emit func(T) error) error
		Wait(ctx context.Context) error
	}
	status func() RunStatus
}

func (h localHandle[T]) Watch(ctx context.Context, onFirst func()) (RunStatus, error) {
	fired := false
	h.run.Stream(ctx, func(T) error {
		if !fired && onFirst != nil {
			onFirst()
			fired = true
		}
		return nil
	})
	// A sweep's stream returns with its last point, which can be an
	// instant before the session transitions; Wait pins the terminal
	// state (returning the session error, which the status carries too).
	h.run.Wait(ctx)
	if err := ctx.Err(); err != nil {
		return RunStatus{}, err
	}
	return h.status(), nil
}

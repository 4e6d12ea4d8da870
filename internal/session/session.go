// Package session runs declarative sweeps asynchronously: a Manager
// accepts scenario.Spec submissions, evaluates each across the engine's
// worker pool in the background, and exposes the run as a Session that
// can be polled (Status — progress and the session's own cache hits
// and misses), streamed (Stream — completed outcomes in the spec's
// deterministic order, emitted as they become available; StreamBatches
// hands them over a published batch at a time) and cancelled
// (Cancel — a context propagated through the engine's batch dispatch,
// aborting between jobs so the result store is never left with partial
// entries).
//
// Plans run the same way (see plan.go): Manager.SubmitPlan resolves a
// spec through the adaptive planner (internal/planner) instead of
// exhaustively, with per-round evaluated-versus-predicted progress and
// a streamable point log. Both kinds share one core (core.go): an
// append-only item log with a published watermark, a terminal state
// and an engine.Tally that the session stamps on every job it submits,
// so its hit/miss counts cover exactly its own points, on whichever
// path — local engine or fleet — evaluated them.
//
// Sessions are process-local; durability lives one layer down. When the
// manager's engine is backed by a disk result store
// (resultstore.Disk), every point a session completes is persisted — an
// engine worker appends the points of each index range it claimed when
// the range ends, so a streamed point can reach a client up to one range
// before its record reaches the log — and a restarted process re-serves
// the persisted points as cache hits — resubmitting the same spec "resumes" the sweep, paying only for
// the points the previous run did not finish. The kill-and-restart test
// in this package pins that contract via the resumed session's hit and
// miss counts.
package session

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// State is a session's lifecycle stage.
type State string

const (
	// Running: the sweep is being evaluated.
	Running State = "running"
	// Done: every point evaluated successfully.
	Done State = "done"
	// Failed: a point failed; the error is on the status.
	Failed State = "failed"
	// Cancelled: the session's context fired before completion.
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != Running }

// Status is a point-in-time snapshot of a session.
type Status struct {
	ID          string `json:"id"`
	Spec        string `json:"spec"`
	Description string `json:"description,omitempty"`
	State       State  `json:"state"`
	// Points is the sweep size; Completed the points evaluated so far.
	Points    int `json:"points"`
	Completed int `json:"completed"`
	// Hits and Misses are this session's own cache accounting, one
	// booking per evaluated point: Hits counts points re-served from
	// the result store (persisted by a previous process — the resume
	// path — or computed by another session), Misses points this
	// session computed.
	Hits   uint64 `json:"cache_hits"`
	Misses uint64 `json:"cache_misses"`
	Error  string `json:"error,omitempty"`

	Started  time.Time  `json:"started"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Session is one asynchronous sweep run. Its log holds one outcome per
// point in the spec's order, published as the completed prefix.
type Session struct {
	core[scenario.Outcome]
	completed []bool
	ncomplete int
}

// Size returns the number of evaluation points in the sweep.
func (s *Session) Size() int { return s.size }

// complete records one evaluated point; called from engine worker
// goroutines, possibly concurrently and out of order.
func (s *Session) complete(i int, res workload.Result) {
	s.mu.Lock()
	s.items[i].Result = res
	s.completed[i] = true
	s.ncomplete++
	prefix := s.published
	for s.published < s.size && s.completed[s.published] {
		s.published++
	}
	advanced := s.published > prefix
	s.mu.Unlock()
	if advanced {
		s.cond.Broadcast()
	}
}

// Status snapshots the session, including its own cache accounting.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Status{
		ID:          s.id,
		Spec:        s.spec.Name,
		Description: s.spec.Description,
		State:       s.state,
		Points:      s.size,
		Completed:   s.ncomplete,
		Started:     s.started,
	}
	out.Hits, out.Misses, out.Error, out.Finished = s.shared()
	return out
}

// DefaultRetain is the manager's default retention cap: the total
// number of sessions (sweeps and plans together) kept in memory.
// Terminal sessions beyond the cap are evicted oldest-first; their
// evaluated points live on in the engine's result store, so a
// re-submission of the same spec re-serves them as cache hits even
// though the session id itself has become a 404.
const DefaultRetain = 1024

// Executor is the pluggable batch execution path behind sessions: it
// evaluates a spec's jobs, invoking done once per successfully
// evaluated job (from arbitrary goroutines, possibly out of submission
// order — exactly engine.RunBatchFunc's contract), and returns the
// batch error with engine semantics (first failure in submission
// order, or the wrapped context error on cancellation). The default
// executor runs batches on the manager's engine; a fleet coordinator
// substitutes itself via SetExecutor so the same sessions — sweeps and
// plan rounds alike — dispatch across workers with byte-identical
// streams, ordering, cancellation and error text. The jobs slice is
// the only thing sized like the batch: an Executor is free to
// dispatch it incrementally (the fleet coordinator windows dispatch,
// keeping its chunk bookkeeping O(workers x window) however many jobs
// the session submits), so sessions must not expect per-job progress
// to imply the whole batch was materialized anywhere.
type Executor interface {
	ExecuteBatch(ctx context.Context, sp scenario.Spec, jobs []engine.Job, done func(i int, res workload.Result)) error
}

// engineExecutor is the default executor: the manager's own engine.
type engineExecutor struct{ eng *engine.Engine }

func (x engineExecutor) ExecuteBatch(ctx context.Context, _ scenario.Spec, jobs []engine.Job, done func(i int, res workload.Result)) error {
	_, err := x.eng.RunBatchFunc(ctx, jobs, done)
	return err
}

// Manager owns the sessions (exhaustive sweeps and adaptive plans)
// running on one engine.
type Manager struct {
	eng  *engine.Engine
	exec Executor

	mu     sync.Mutex
	seq    int
	retain int
	runs   map[string]run
	wg     sync.WaitGroup
	closed bool
}

// NewManager builds a session manager over the engine.
func NewManager(eng *engine.Engine) *Manager {
	return &Manager{
		eng:    eng,
		exec:   engineExecutor{eng},
		retain: DefaultRetain,
		runs:   make(map[string]run),
	}
}

// SetExecutor replaces the batch execution path for subsequently
// submitted sessions (nil restores the engine-backed default). Call it
// before serving submissions; it is not synchronized with in-flight
// sessions.
func (m *Manager) SetExecutor(x Executor) {
	if x == nil {
		x = engineExecutor{m.eng}
	}
	m.exec = x
}

// SetRetain overrides the retention cap. n <= 0 disables eviction
// (every session is kept until Close — the pre-cap behaviour).
func (m *Manager) SetRetain(n int) {
	m.mu.Lock()
	m.retain = n
	m.mu.Unlock()
	m.evict()
}

// Count returns the number of retained sweep and plan sessions without
// snapshotting them, so health checks never build a Status.
func (m *Manager) Count() (sweeps, plans int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.runs {
		if _, ok := r.(*PlanSession); ok {
			plans++
		}
	}
	return len(m.runs) - plans, plans
}

// RunningCount reports the number of non-terminal sessions, sweeps and
// plans together — the load signal admission control sheds on. Holding
// m.mu while peeking each session's state is safe for the same reason
// evict's peek is: sessions never call back into the manager.
func (m *Manager) RunningCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.runs {
		if !r.terminal() {
			n++
		}
	}
	return n
}

// evict enforces the retention cap: while the session count exceeds
// it, the oldest terminal sessions (by submission sequence, sweeps and
// plans interleaved) are dropped. Running sessions are never evicted,
// so a burst larger than the cap shrinks back down as it completes.
// Holding m.mu while peeking at each session's state is safe: sessions
// never call back into the manager.
func (m *Manager) evict() {
	m.mu.Lock()
	defer m.mu.Unlock()
	over := len(m.runs) - m.retain
	if m.retain <= 0 || over <= 0 {
		return
	}
	victims := make([]run, 0, over)
	for _, r := range m.runs {
		if r.terminal() {
			victims = append(victims, r)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].order() < victims[j].order() })
	for _, r := range victims[:min(over, len(victims))] {
		delete(m.runs, r.ID())
	}
}

// Engine exposes the manager's engine.
func (m *Manager) Engine() *engine.Engine { return m.eng }

// SubmitOptions tunes a submission beyond the spec itself.
type SubmitOptions struct {
	// Deadline, when positive, bounds the session's wall-clock run: a
	// session still evaluating when it elapses is cancelled between jobs
	// exactly as by Cancel (the server-side per-request deadline; the
	// engine stops between jobs, so only whole results reach the store).
	Deadline time.Duration
}

// Submit validates and expands the spec, starts evaluating it in the
// background, and returns the session. Every job carries the session's
// tally, so its status counts exactly its own hits and misses.
func (m *Manager) Submit(sp scenario.Spec) (*Session, error) {
	return m.SubmitWith(sp, SubmitOptions{})
}

// SubmitWith is Submit with per-session options.
func (m *Manager) SubmitWith(sp scenario.Spec, opts SubmitOptions) (*Session, error) {
	s := &Session{}
	s.spec, s.items = sp, make([]scenario.Outcome, 0, sp.Size())
	jobs := make([]engine.Job, 0, sp.Size())
	err := sp.EachPoint(func(_ int, meta scenario.Meta, job engine.Job) bool {
		job.Tally = &s.tally
		s.items = append(s.items, scenario.Outcome{Meta: meta})
		jobs = append(jobs, job)
		return true
	})
	if err != nil {
		return nil, err
	}
	s.size, s.completed = len(jobs), make([]bool, len(jobs))
	err = s.start(m, s, "sweep", opts, func(ctx context.Context) (func(), error) {
		return nil, m.exec.ExecuteBatch(ctx, sp, jobs, s.complete)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// sessionContext builds a session's run context: cancellable, with the
// optional server-side deadline layered on. A deadline firing surfaces
// as context.DeadlineExceeded, which finish maps to Cancelled.
func sessionContext(opts SubmitOptions) (context.Context, context.CancelFunc) {
	if opts.Deadline > 0 {
		return context.WithTimeout(context.Background(), opts.Deadline)
	}
	return context.WithCancel(context.Background())
}

// get returns a retained session of kind S by id.
func get[S run](m *Manager, id string) (S, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.runs[id].(S)
	return s, ok
}

// snapshot returns the status of every retained session of kind S,
// oldest first.
func snapshot[S run, St any](m *Manager, status func(S) St) []St {
	m.mu.Lock()
	var runs []S
	for _, r := range m.runs {
		if s, ok := r.(S); ok {
			runs = append(runs, s)
		}
	}
	m.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].order() < runs[j].order() })
	out := make([]St, len(runs))
	for i, s := range runs {
		out[i] = status(s)
	}
	return out
}

// Get returns a sweep session by id.
func (m *Manager) Get(id string) (*Session, bool) { return get[*Session](m, id) }

// List snapshots every sweep session's status, oldest first.
func (m *Manager) List() []Status { return snapshot(m, (*Session).Status) }

// Close cancels every running session — sweeps and plans — and waits
// for their evaluation goroutines to drain. Further Submits are
// rejected.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	runs := make([]run, 0, len(m.runs))
	for _, r := range m.runs {
		runs = append(runs, r)
	}
	m.mu.Unlock()
	for _, r := range runs {
		r.Cancel()
	}
	m.wg.Wait()
}

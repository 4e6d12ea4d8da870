package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// core is what sweeps and plans share: identity, the session's own
// cache tally, the lifecycle, and an append-only item log. Items below
// the published watermark are final and never written again, so
// streams read them without holding the lock; the writer advances the
// watermark under mu and broadcasts on cond.
type core[T any] struct {
	id     string
	seq    int
	spec   scenario.Spec
	tally  engine.Tally
	cancel context.CancelFunc
	// size is the log length at which a stream is complete, or -1 when
	// the log ends only with the session.
	size int

	mu        sync.Mutex
	cond      sync.Cond
	items     []T
	published int
	state     State
	err       error
	started   time.Time
	finished  time.Time
}

// run is the manager's view of a session of either kind.
type run interface {
	ID() string
	Cancel()
	terminal() bool
	order() int
}

// ID returns the session's identifier.
func (c *core[T]) ID() string { return c.id }

// Cancel aborts the session: the engine batch stops between jobs,
// points already solving run to completion (and commit to the result
// store as whole entries), and the session transitions to Cancelled.
// Cancelling a terminal session is a no-op.
func (c *core[T]) Cancel() { c.cancel() }

func (c *core[T]) order() int { return c.seq }

// terminal reports whether the session has reached a final state.
func (c *core[T]) terminal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Terminal()
}

// start registers the session (self, which embeds c) under the next id
// of its kind and runs work in the background. work returns the run's
// error and, for a successful run, a commit that finish applies under
// the lock, so no snapshot sees the final product without the Done
// state.
func (c *core[T]) start(m *Manager, self run, kind string, opts SubmitOptions, work func(context.Context) (commit func(), err error)) error {
	ctx, cancel := sessionContext(opts)
	c.cancel = cancel
	c.cond.L = &c.mu
	c.state, c.started = Running, time.Now()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return fmt.Errorf("session: manager is closed")
	}
	m.seq++
	c.seq = m.seq
	c.id = fmt.Sprintf("%s-%06d", kind, m.seq)
	m.runs[c.id] = self
	m.wg.Add(1)
	m.mu.Unlock()
	m.evict()
	go func() {
		defer m.wg.Done()
		defer cancel()
		c.finish(work(ctx))
		m.evict()
	}()
	return nil
}

// wake re-runs every waiter's predicate after a caller context fires.
// The empty critical section is load-bearing: broadcasting while holding
// mu guarantees the signal cannot land in the window between a waiter's
// predicate check and its cond.Wait registration (a lost wakeup that
// would leave a disconnected streamer blocked until the next item is
// published).
func (c *core[T]) wake() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cond.Broadcast()
}

// finish transitions the session to its terminal state, applying
// commit when the run succeeded.
func (c *core[T]) finish(commit func(), err error) {
	c.mu.Lock()
	switch {
	case err == nil:
		c.state = Done
		if commit != nil {
			commit()
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		c.state, c.err = Cancelled, err
	default:
		c.state, c.err = Failed, err
	}
	c.finished = time.Now()
	c.mu.Unlock()
	c.cond.Broadcast()
}

// shared returns the status fields both session kinds report alike.
// Callers hold mu.
func (c *core[T]) shared() (hits, misses uint64, errText string, finished *time.Time) {
	st := c.tally.Stats()
	if c.err != nil {
		errText = c.err.Error()
	}
	if c.state.Terminal() {
		f := c.finished
		finished = &f
	}
	return st.Hits, st.Misses, errText, finished
}

// StreamBatches delivers the session's log in order, a batch at a
// time: each wake hands emit every item published since the last one,
// so a caught-up stream gets each item as it lands and a lagging one
// gets everything it fell behind on at once. The batch aliases the
// log's published prefix, which is never written again; emit must not
// modify it and must not keep it past its return. StreamBatches
// returns nil after the last item of a successful run — for a sweep as
// soon as its last point is out, for a plan once the plan is done; if
// the session fails or is cancelled it returns the session error after
// the items published before that; and if ctx fires first it returns
// ctx's error. Multiple streams may run concurrently.
func (c *core[T]) StreamBatches(ctx context.Context, emit func([]T) error) error {
	stop := context.AfterFunc(ctx, c.wake)
	defer stop()
	for next := 0; next != c.size; {
		c.mu.Lock()
		for next == c.published && !c.state.Terminal() && ctx.Err() == nil {
			c.cond.Wait()
		}
		batch, err := c.items[next:c.published:c.published], c.err
		c.mu.Unlock()
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if len(batch) == 0 {
			// Terminal with nothing left to publish.
			if err == nil && c.size >= 0 {
				return fmt.Errorf("session %s: point %d missing after completion", c.id, next)
			}
			return err
		}
		if eerr := emit(batch); eerr != nil {
			return eerr
		}
		next += len(batch)
	}
	return nil
}

// Stream is StreamBatches one item at a time: emit sees every item in
// log order, with the same return rules.
func (c *core[T]) Stream(ctx context.Context, emit func(T) error) error {
	return c.StreamBatches(ctx, func(batch []T) error {
		for _, it := range batch {
			if err := emit(it); err != nil {
				return err
			}
		}
		return nil
	})
}

// Wait blocks until the session reaches a terminal state or ctx fires,
// returning the session error (nil for Done).
func (c *core[T]) Wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, c.wake)
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.state.Terminal() && ctx.Err() == nil {
		c.cond.Wait()
	}
	if cerr := ctx.Err(); cerr != nil && !c.state.Terminal() {
		return cerr
	}
	return c.err
}

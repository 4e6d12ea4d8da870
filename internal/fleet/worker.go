package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/resultstore"
	"repro/internal/scenario"
)

// ErrStoreDegraded is returned by Worker.Run when the worker's disk
// store has fallen into read-only degraded mode: the worker self-evicts
// (deregisters and stops pulling), because results it computes from
// then on would not persist — a machine with a failing disk should
// drain from the fleet, not keep absorbing work. The coordinator
// re-queues nothing in this case: the worker finishes and posts its
// current chunk before leaving.
var ErrStoreDegraded = errors.New("fleet: worker result store degraded; self-evicting")

// Worker pulls chunks from a coordinator and evaluates them on its own
// engine. Zero value is not usable; fill the exported fields and call
// Run.
type Worker struct {
	// Base is the coordinator's base URL (http://host:port).
	Base string
	// Client is the HTTP client (nil means http.DefaultClient; use
	// traffic.SharedClient for the tuned pool).
	Client *http.Client
	// Eng evaluates this worker's chunks; its result store is the
	// worker's local cache (a disk store makes it persistent).
	Eng *engine.Engine
	// Name labels the worker in the coordinator's health report.
	Name string
	// Disk, when non-nil, is checked after every chunk: a degraded
	// store self-evicts the worker (see ErrStoreDegraded).
	Disk *resultstore.Disk
	// EvalDelay adds a deterministic per-point latency before each
	// evaluation — the synthetic cost knob for scheduler drills and the
	// speedup harness (the model solver is microseconds per point,
	// cheaper than one network hop; real fleets exist for workloads
	// where this is milliseconds or more).
	EvalDelay time.Duration

	mu    sync.Mutex
	id    string
	reply JoinReply
	lost  bool // a 404 told us the coordinator forgot us; rejoin

	// specs caches spec expansions keyed by specSum so one sweep's
	// chunks expand, and key, once.
	specs map[uint64]expansion
}

// expansion is one spec's jobs with their cache keys, index aligned:
// a record's key comes from here, so a point's fingerprint is hashed
// only inside Engine.Run.
type expansion struct {
	jobs []engine.Job
	keys []resultstore.Key
}

// Run joins the coordinator and serves work until ctx fires (graceful:
// a leave is posted and Run returns nil, even when ctx fires before a
// join lands), the coordinator refuses a join (the 4xx reply's error),
// or the local store degrades (ErrStoreDegraded, also after a leave).
// Transient coordinator unavailability is retried with a flat backoff;
// a coordinator that forgot this worker (404 on a pull or heartbeat)
// is rejoined transparently.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		w.Client = http.DefaultClient
	}
	if w.specs == nil {
		w.specs = make(map[uint64]expansion)
	}
	if joined, err := w.join(ctx); !joined {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)
	for {
		if err := ctx.Err(); err != nil {
			w.leave()
			return nil
		}
		if w.rejoinNeeded() {
			if joined, err := w.join(ctx); !joined {
				w.leave()
				return err
			}
		}
		chunks, status, err := w.pullWork(ctx)
		if err != nil {
			if ctx.Err() != nil {
				w.leave()
				return nil
			}
			if status == http.StatusNotFound {
				w.markLost()
				continue
			}
			// Coordinator unreachable; back off and retry (it may be
			// restarting — our registration dies with it, the 404 on
			// reconnect triggers the rejoin).
			if serr := sleepCtx(ctx, 100*time.Millisecond); serr != nil {
				w.leave()
				return nil
			}
			continue
		}
		if len(chunks) == 0 {
			continue // long-poll window expired empty
		}
		// Evaluate everything pulled, then post the completions as one
		// coalesced batch. A chunk interrupted by cancellation posts
		// nothing — the coordinator re-queues it whole when our
		// registration lapses, so no point is ever half-reported — but
		// chunks already finished still travel.
		results := make([]ChunkResult, 0, len(chunks))
		for i := range chunks {
			result, ok := w.evaluate(ctx, &chunks[i])
			if !ok {
				break
			}
			results = append(results, result)
		}
		if len(results) == 0 {
			continue
		}
		if err := w.postResults(ctx, results); err != nil {
			// The results could not be delivered. Drop our registration:
			// the coordinator will re-queue the chunks when it declares us
			// dead (or already has), and we start fresh.
			w.markLost()
			continue
		}
		if w.Disk != nil && w.Disk.Degraded() != nil {
			w.leave()
			return ErrStoreDegraded
		}
	}
}

// ID returns the worker's current registration (empty before join).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) markLost() {
	w.mu.Lock()
	w.lost = true
	w.mu.Unlock()
}

func (w *Worker) rejoinNeeded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lost
}

// join registers (or re-registers) with the coordinator and reports
// whether it joined. Transport errors and 5xx replies are retried until
// ctx fires (joined false, nil error), because a coordinator may be
// restarting. A 4xx reply is final and returned: the coordinator
// refused this worker (409: another protocol version; 404: a daemon
// without -fleet), and asking again cannot change its answer.
func (w *Worker) join(ctx context.Context) (bool, error) {
	body, _ := json.Marshal(JoinRequest{Name: w.Name, Protocol: ProtocolVersion})
	for {
		var reply JoinReply
		status, err := w.post(ctx, "/fleet/v1/join", body, &reply)
		if err == nil && status == http.StatusOK && reply.WorkerID != "" {
			w.mu.Lock()
			w.id, w.reply, w.lost = reply.WorkerID, reply, false
			w.mu.Unlock()
			return true, nil
		}
		if status >= 400 && status < 500 {
			return false, err
		}
		if sleepCtx(ctx, 100*time.Millisecond) != nil {
			return false, nil
		}
	}
}

// leave posts a best-effort deregistration (bounded, not ctx-bound:
// the caller's context is typically already cancelled).
func (w *Worker) leave() {
	id := w.ID()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	body, _ := json.Marshal(Heartbeat{WorkerID: id})
	w.post(ctx, "/fleet/v1/leave", body, nil)
}

// heartbeatLoop beats at the coordinator's requested cadence. A 404
// flags the main loop to rejoin; transport errors are left to the
// pull loop's own retry (beating a dead coordinator adds nothing).
// The main loop may rejoin while a beat sleeps or travels, so each beat
// reads the id after its sleep, and a 404 counts only while the id it
// answers is still current: a stale beat must not send a freshly
// rejoined worker to join again, registering it twice.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		every := time.Duration(w.reply.HeartbeatMS) * time.Millisecond
		w.mu.Unlock()
		if every <= 0 {
			every = DefaultHeartbeat
		}
		if err := sleepCtx(ctx, every); err != nil {
			return
		}
		id := w.ID()
		body, _ := json.Marshal(Heartbeat{WorkerID: id})
		status, _ := w.post(ctx, "/fleet/v1/heartbeat", body, nil)
		if status == http.StatusNotFound {
			w.mu.Lock()
			if w.id == id {
				w.lost = true
			}
			w.mu.Unlock()
		}
	}
}

// pullWork long-polls the next chunks: (nil, 200-class, nil) means the
// window expired empty.
func (w *Worker) pullWork(ctx context.Context) ([]WireChunk, int, error) {
	body, _ := json.Marshal(WorkRequest{WorkerID: w.ID()})
	var work WireWork
	status, err := w.post(ctx, "/fleet/v1/work", body, &work)
	if err != nil {
		return nil, status, err
	}
	if status == http.StatusNoContent {
		return nil, status, nil
	}
	return work.Chunks, status, nil
}

// evaluate runs one chunk through the local engine. Point failures are
// reported per point; a chunk that cannot be evaluated at all (bad
// spec, bad index) reports a chunk-level error. ok is false when the
// context fired mid-chunk — the result must not be posted.
func (w *Worker) evaluate(ctx context.Context, ch *WireChunk) (ChunkResult, bool) {
	out := ChunkResult{ChunkID: ch.ID}
	ex, err := w.expand(ch.Spec)
	if err != nil {
		out.Error = err.Error()
		return out, true
	}
	jobs := ex.jobs
	start := time.Now()
	recs := make([]resultstore.Record, 0, len(ch.Indexes))
	for _, idx := range ch.Indexes {
		if idx < 0 || idx >= len(jobs) {
			return ChunkResult{ChunkID: ch.ID,
				Error: fmt.Sprintf("index %d out of range (%d points)", idx, len(jobs))}, true
		}
		if w.EvalDelay > 0 {
			if err := sleepCtx(ctx, w.EvalDelay); err != nil {
				return out, false
			}
		}
		res, err := w.Eng.Run(jobs[idx])
		if err != nil {
			out.Failed = append(out.Failed, PointError{Index: idx, Error: err.Error()})
			continue
		}
		// The Workload descriptor does not travel; the coordinator
		// reattaches its own (content-identical) descriptor at commit.
		res.Workload = nil
		recs = append(recs, resultstore.Record{Key: ex.keys[idx], Res: res})
	}
	out.Frame = resultstore.AppendBlock(nil, recs)
	// Self-report the evaluation wall time for the adaptive sizer,
	// clamped to 1µs so a measured chunk never reads as unmeasured.
	out.ElapsedUS = max(1, time.Since(start).Microseconds())
	return out, true
}

// expand parses, expands and keys a spec, cached by content hash.
func (w *Worker) expand(spec []byte) (expansion, error) {
	sum := specSum(spec)
	w.mu.Lock()
	ex, ok := w.specs[sum]
	w.mu.Unlock()
	if ok {
		return ex, nil
	}
	sp, err := scenario.ParseSpec(spec, "chunk")
	if err != nil {
		return expansion{}, err
	}
	if _, ex.jobs, err = sp.Expand(); err != nil {
		return expansion{}, err
	}
	ex.keys = make([]resultstore.Key, len(ex.jobs))
	var kr engine.Keyer
	for i, job := range ex.jobs {
		ex.keys[i] = kr.Key(job)
	}
	w.mu.Lock()
	if len(w.specs) >= 8 {
		// A tiny cache only needs a tiny eviction policy.
		for k := range w.specs {
			delete(w.specs, k)
			break
		}
	}
	w.specs[sum] = ex
	w.mu.Unlock()
	return ex, nil
}

// postResults delivers one pull's completed chunks as a single
// coalesced binary /fleet/v1/results post, with a short retry. Each post
// gets a fresh body: net/http may still read a request body after Do
// returns, so a buffer is not reused across posts.
func (w *Worker) postResults(ctx context.Context, results []ChunkResult) error {
	rb := ResultBatch{WorkerID: w.ID(), Results: results}
	body := rb.Append(nil)
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		status, err := w.postAs(ctx, "/fleet/v1/results", "application/octet-stream", body, nil)
		if err == nil && status < 300 {
			return nil
		}
		if err == nil {
			err = fmt.Errorf("fleet: POST /fleet/v1/results: status %d", status)
		}
		last = err
		if serr := sleepCtx(ctx, 50*time.Millisecond); serr != nil {
			return serr
		}
	}
	return last
}

// post runs one JSON POST, decoding the reply into out when it is
// non-nil and the response carries a body.
func (w *Worker) post(ctx context.Context, path string, body []byte, out any) (int, error) {
	return w.postAs(ctx, path, "application/json", body, out)
}

// postAs is post with the request body's Content-Type.
func (w *Worker) postAs(ctx context.Context, path, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := w.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return resp.StatusCode, fmt.Errorf("fleet: POST %s: %s: %s",
			path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := decodeStrict(resp.Body, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// sleepCtx waits out d or ctx, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

package traffic

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/xrand"
)

// SLOHeader is the request header a submission's SLO class travels in;
// nvmserve's admission gate reads it to decide who sheds first.
const SLOHeader = "X-SLO-Class"

// RetryPolicy configures a remote target's resilience to transient
// submission failures: 429 (the daemon shedding load), 5xx, and
// connection errors are retried with exponential backoff and full
// jitter, honoring the daemon's Retry-After when it names a longer
// wait. The zero value disables retries.
type RetryPolicy struct {
	// Max is the retry budget beyond the first attempt.
	Max int
	// Base is the first backoff window; it doubles per retry (capped at
	// maxBackoff). Zero defaults to 100ms.
	Base time.Duration
	// Seed drives the jitter draws; the same seed replays the same
	// backoff sequence.
	Seed uint64
}

// maxBackoff caps the exponential backoff window.
const maxBackoff = 30 * time.Second

// NewTransport returns an HTTP transport tuned for sustained traffic
// against a handful of daemons: http.DefaultTransport's dialing and
// timeout behaviour with the idle pool widened. The default transport
// keeps only 2 idle connections per host, so a high-rate replay (or a
// fleet worker's pull/result loop) above that concurrency tears down
// and re-dials connections on every burst; 64 per host keeps one
// warm connection per in-flight stream at any realistic -concurrency.
func NewTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	return t
}

// sharedClient is the process-wide tuned client: one transport (one
// connection pool) shared by every remote target and fleet worker, so
// connection reuse spans targets pointing at the same daemon.
var sharedClient = &http.Client{Transport: NewTransport()}

// SharedClient returns the process-wide HTTP client over the tuned
// transport (see NewTransport). It has no overall request timeout —
// NDJSON streams are open-ended; bound requests with contexts.
func SharedClient() *http.Client { return sharedClient }

// RemoteTarget drives a live nvmserve daemon over its HTTP API:
// submissions POST to /v1/sweeps or /v1/plans, first-point latency is
// observed on the NDJSON stream, and the terminal snapshot comes from
// the status document.
type RemoteTarget struct {
	base   string
	client *http.Client
	retry  RetryPolicy

	// mu serializes the jitter generator; Submit is driven from the
	// replay loop but nothing forbids concurrent callers.
	mu  sync.Mutex
	rng *xrand.Rand
	// sleep waits out one backoff or the context, whichever first;
	// injectable so tests don't wait wall-clock time.
	sleep func(context.Context, time.Duration) error
}

// NewRemoteTarget wraps a daemon base URL (e.g. http://127.0.0.1:8080)
// as a traffic target. client nil means the process-wide tuned client
// (SharedClient — widened idle pool, so replay concurrency above 2
// reuses connections instead of re-dialing); give the streams no
// overall timeout — the driver's context bounds them.
func NewRemoteTarget(base string, client *http.Client) *RemoteTarget {
	if client == nil {
		client = SharedClient()
	}
	return &RemoteTarget{
		base:   strings.TrimRight(base, "/"),
		client: client,
		rng:    xrand.New(1),
		sleep:  sleepCtx,
	}
}

// WithRetry enables the retry policy and returns the target.
func (t *RemoteTarget) WithRetry(p RetryPolicy) *RemoteTarget {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	t.retry = p
	t.rng = xrand.New(seed)
	return t
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// backoff waits out retry attempt's window: full jitter over the
// doubled base, floored at the daemon's Retry-After when present.
func (t *RemoteTarget) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	window := t.retry.Base << attempt
	if window <= 0 || window > maxBackoff {
		window = maxBackoff
	}
	t.mu.Lock()
	wait := time.Duration(t.rng.Float64() * float64(window))
	t.mu.Unlock()
	if wait < retryAfter {
		wait = retryAfter
	}
	return t.sleep(ctx, wait)
}

// Name identifies the target in reports.
func (t *RemoteTarget) Name() string { return t.base }

// remoteReply is the union of the daemon's accepted-sweep and
// accepted-plan documents.
type remoteReply struct {
	ID        string `json:"id"`
	Status    string `json:"status_url"`
	Outcomes  string `json:"outcomes_url"`
	PointsURL string `json:"points_url"`
}

// remoteStatus is the slice of the daemon's status documents the driver
// consumes; sweeps and plans share these fields.
type remoteStatus struct {
	State  string `json:"state"`
	Points int    `json:"points"`
	Hits   uint64 `json:"cache_hits"`
	Misses uint64 `json:"cache_misses"`
	Error  string `json:"error"`
}

// Submit posts the spec (under its SLO-class header) and returns a
// handle over its stream and status URLs. Transient rejections — the
// daemon shedding with 429, a 5xx, a refused or reset connection — are
// retried per the target's RetryPolicy; a submission still shed when
// the budget runs out comes back as a *ShedError so the driver can
// account it separately from a failure.
func (t *RemoteTarget) Submit(ctx context.Context, sub Submission) (Handle, error) {
	path := "/v1/sweeps"
	if sub.Kind == Plan {
		path = "/v1/plans"
	}
	body, err := scenario.Encode(sub.Spec)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		h, code, retryAfter, err := t.submitOnce(ctx, path, body, sub.Class)
		if h != nil {
			h.retries = attempt
			return h, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Connection-level failures (no status at all) and 429/5xx are
		// transient; any other status (400 bad spec, 404 preset, a
		// malformed accept document) is the caller's or daemon's bug and
		// retrying cannot help.
		retryable := code == 0 || code == http.StatusTooManyRequests || code >= 500
		if !retryable || attempt >= t.retry.Max {
			if code == http.StatusTooManyRequests {
				return nil, &ShedError{Target: t.base, Retries: attempt}
			}
			return nil, err
		}
		if werr := t.backoff(ctx, attempt, retryAfter); werr != nil {
			return nil, werr
		}
	}
}

// submitOnce runs one submission attempt. On acceptance it returns the
// handle; on an HTTP rejection the status code (and any Retry-After)
// with err carrying the rendered failure; on a transport failure just
// the error.
func (t *RemoteTarget) submitOnce(ctx context.Context, path string, body []byte, class Class) (*remoteHandle, int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if class != "" {
		req.Header.Set(SLOHeader, string(class))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		retryAfter := time.Duration(0)
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			retryAfter = time.Duration(s) * time.Second
		}
		return nil, resp.StatusCode, retryAfter,
			fmt.Errorf("traffic: %s %s: %s: %s", http.MethodPost, path, resp.Status, bytes.TrimSpace(msg))
	}
	var reply remoteReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, resp.StatusCode, 0, fmt.Errorf("traffic: decoding %s reply: %w", path, err)
	}
	stream := reply.Outcomes
	if stream == "" {
		stream = reply.PointsURL
	}
	if reply.ID == "" || reply.Status == "" || stream == "" {
		return nil, resp.StatusCode, 0, fmt.Errorf("traffic: %s reply missing id/status/stream URLs", path)
	}
	return &remoteHandle{t: t, status: reply.Status, stream: stream}, resp.StatusCode, 0, nil
}

type remoteHandle struct {
	t       *RemoteTarget
	status  string
	stream  string
	retries int
}

// Retries reports how many re-submissions this run's admission took;
// the driver sums them into the per-class report.
func (h *remoteHandle) Retries() int { return h.retries }

// Watch consumes the run's NDJSON stream (invoking onFirst at the first
// data line), then polls the status document until the state is
// terminal. A stream answered with any status but 200 (an evicted
// session's 404, a 5xx) is an error, and onFirst never fires.
func (h *remoteHandle) Watch(ctx context.Context, onFirst func()) (RunStatus, error) {
	resp, err := h.t.get(ctx, h.stream)
	if err != nil {
		return RunStatus{}, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	fired := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 || bytes.HasPrefix(line, []byte(`{"error"`)) {
			continue
		}
		if !fired && onFirst != nil {
			onFirst()
			fired = true
		}
	}
	scanErr := sc.Err()
	resp.Body.Close()
	if err := ctx.Err(); err != nil {
		return RunStatus{}, err
	}
	if scanErr != nil {
		return RunStatus{}, fmt.Errorf("traffic: streaming %s: %w", h.stream, scanErr)
	}
	// The stream closes when the run's point log is complete; the status
	// document may trail it by the width of the run goroutine's final
	// transition, so poll briefly until terminal.
	for {
		st, err := h.t.getStatus(ctx, h.status)
		if err != nil {
			return RunStatus{}, err
		}
		if session.State(st.State).Terminal() {
			return RunStatus{
				State:  st.State,
				Points: st.Points,
				Hits:   st.Hits,
				Misses: st.Misses,
				Err:    st.Error,
			}, nil
		}
		select {
		case <-ctx.Done():
			return RunStatus{}, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// get issues GET path and returns the response when it is 200 OK; any
// other status becomes an error carrying up to 4 KiB of its body.
func (t *RemoteTarget) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("traffic: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (t *RemoteTarget) getStatus(ctx context.Context, path string) (remoteStatus, error) {
	resp, err := t.get(ctx, path)
	if err != nil {
		return remoteStatus{}, err
	}
	defer resp.Body.Close()
	var st remoteStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return remoteStatus{}, fmt.Errorf("traffic: decoding %s: %w", path, err)
	}
	return st, nil
}

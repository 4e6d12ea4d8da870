package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultline"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/session"
)

// blockingStore gates Acquire on tokens so tests can hold sessions live
// (or mid-sweep) for as long as the scenario needs.
type blockingStore struct {
	resultstore.Store
	gate    chan struct{}
	release sync.Once
}

func newBlockingStore(inner resultstore.Store, tokens int) *blockingStore {
	b := &blockingStore{Store: inner, gate: make(chan struct{}, max(tokens, 1024))}
	for i := 0; i < tokens; i++ {
		b.gate <- struct{}{}
	}
	return b
}

func (b *blockingStore) Acquire(k resultstore.Key) (*resultstore.Entry, bool) {
	<-b.gate
	return b.Store.Acquire(k)
}

func (b *blockingStore) Release() { b.release.Do(func() { close(b.gate) }) }

var _ resultstore.Store = (*blockingStore)(nil)

// newGatedServer builds a daemon whose sweeps never finish until the
// returned store is released, with the given admission bound and
// session timeout. Its engine runs one worker, so the points the gate
// admits are a sweep's first ones in spec order — the prefix a stream
// can deliver; with several workers they could be scattered across the
// sweep and a stream could not show them.
func newGatedServer(t *testing.T, tokens, maxLive int, timeout time.Duration) (*httptest.Server, *session.Manager, *blockingStore) {
	t.Helper()
	gate := newBlockingStore(resultstore.NewMemory(), tokens)
	t.Cleanup(gate.Release)
	eng := engine.NewWithStore(platform.NewPurley().Socket(0), 1, gate)
	mgr := session.NewManager(eng)
	t.Cleanup(func() { gate.Release(); mgr.Close() })
	srv := &server{mgr: mgr, adm: newAdmission(mgr, maxLive), sessTimeout: timeout}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, mgr, gate
}

// post submits a preset sweep with an SLO class header ("" omits it).
func post(t *testing.T, url, class string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweeps?preset=contention", nil)
	if err != nil {
		t.Fatal(err)
	}
	if class != "" {
		req.Header.Set(sloHeader, class)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// The admission ladder: with max-live 3, background is admitted below
// 1 live session, batch below 2, critical below 3 — so as the daemon
// fills, load sheds bottom-up with 429 + Retry-After while critical
// traffic keeps landing, and the shed counters attribute every
// rejection to its class.
func TestAdmissionShedsByClass(t *testing.T) {
	ts, _, _ := newGatedServer(t, 0, 3, 0)

	expect := func(class string, want int) {
		t.Helper()
		resp := post(t, ts.URL, class)
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("submit class=%q = %d, want %d (%s)", class, resp.StatusCode, want, body)
		}
		if want == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("shed response carries no Retry-After")
			}
			if !bytes.Contains(body, []byte("overloaded")) {
				t.Errorf("shed error %q does not say overloaded", body)
			}
		}
	}

	expect("critical", http.StatusAccepted) // live 1: background full
	expect("background", http.StatusTooManyRequests)
	expect("", http.StatusAccepted) // defaults to batch; live 2: batch full
	expect("batch", http.StatusTooManyRequests)
	expect("critical", http.StatusAccepted) // live 3: at the bound
	expect("critical", http.StatusTooManyRequests)

	var doc struct {
		Live    int               `json:"live"`
		MaxLive int               `json:"max_live"`
		Shed    map[string]uint64 `json:"shed"`
	}
	getJSON(t, ts.URL+"/healthz", &doc)
	if doc.Live != 3 || doc.MaxLive != 3 {
		t.Errorf("healthz live/max_live = %d/%d, want 3/3", doc.Live, doc.MaxLive)
	}
	want := map[string]uint64{"critical": 1, "batch": 1, "background": 1}
	for class, n := range want {
		if doc.Shed[class] != n {
			t.Errorf("healthz shed[%s] = %d, want %d (%v)", class, doc.Shed[class], n, doc.Shed)
		}
	}
}

// A malformed SLO class is a caller bug, not an overload: 400, and
// plans run through the same gate as sweeps.
func TestAdmissionClassValidationAndPlans(t *testing.T) {
	ts, _, _ := newGatedServer(t, 0, 1, 0)

	resp := post(t, ts.URL, "interactive")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(sloHeader)) {
		t.Fatalf("bad class = %d %s, want 400 naming %s", resp.StatusCode, body, sloHeader)
	}

	// Fill the daemon, then a background plan submission must shed.
	if resp := post(t, ts.URL, "critical"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill submit = %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plans?preset=contention", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(sloHeader, "background")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("plan submit under load = %d, want 429", presp.StatusCode)
	}
}

// -session-timeout is a server-side deadline: a sweep still running
// when it fires is cancelled between jobs, exactly like DELETE.
func TestSessionTimeoutCancelsSweep(t *testing.T) {
	ts, mgr, gate := newGatedServer(t, 0, 0, time.Nanosecond)
	resp := post(t, ts.URL, "")
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gate.Release()
	sess, ok := mgr.Get(sub.ID)
	if !ok {
		t.Fatalf("no session %s", sub.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sess.Status().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("session never terminated after its deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if st := sess.Status(); st.State != session.Cancelled {
		t.Fatalf("state after deadline = %s, want cancelled", st.State)
	}
}

// Graceful shutdown drains in-flight NDJSON streams on complete lines:
// when the manager closes mid-sweep, a connected outcome stream ends
// with whole, decodable lines — the last one the in-band error line of
// the cancelled session — never a torn record.
func TestShutdownDrainsStreamsOnCompleteLines(t *testing.T) {
	ts, mgr, gate := newGatedServer(t, 4, 0, 0)
	resp, err := http.Post(ts.URL+"/v1/sweeps?preset=full-cartesian", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	oresp, err := http.Get(ts.URL + sub.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	defer oresp.Body.Close()
	// Observe the stream live (the four gated points), then shut down
	// while it is connected.
	rd := bufio.NewReader(oresp.Body)
	for i := 0; i < 4; i++ {
		if _, err := rd.ReadString('\n'); err != nil {
			t.Fatalf("reading gated prefix: %v", err)
		}
	}
	done := make(chan struct{})
	go func() { mgr.Close(); close(done) }()
	gate.Release()
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if len(rest) == 0 {
		t.Fatal("stream ended with no drain output")
	}
	if rest[len(rest)-1] != '\n' {
		t.Fatalf("drained stream ends mid-line: ...%q", rest[max(0, len(rest)-40):])
	}
	lines := strings.Split(strings.TrimRight(string(rest), "\n"), "\n")
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("drained line %d is not complete JSON: %q", i, line)
		}
	}
	// Cancelled before its 48 points finished, the run must have closed
	// with its in-band error line; if the tiny sweep won the race and
	// completed, all points must be present instead.
	last := lines[len(lines)-1]
	if 4+len(lines) != sub.Points && !strings.Contains(last, `"error"`) {
		t.Fatalf("stream ended after %d/%d lines without an error line: %q",
			4+len(lines), sub.Points, last)
	}
}

// A store whose append path fails keeps serving (sweeps complete from
// memory) and the health probe headline flips to degraded, with the
// store block carrying the degraded flag and quarantine counter.
func TestHealthzReportsDegradedStore(t *testing.T) {
	dir := t.TempDir()
	in := faultline.New(faultline.Plan{Seed: 1, Rules: []faultline.Rule{
		{Op: faultline.OpWrite, Path: ".log", Nth: 1, Kind: faultline.Fail},
	}})
	d, err := resultstore.OpenFS(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	eng := engine.NewWithStore(platform.NewPurley().Socket(0), 4, d)
	mgr := session.NewManager(eng)
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer((&server{mgr: mgr, disk: d, adm: newAdmission(mgr, 0)}).handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/sweeps?preset=contention", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sess, _ := mgr.Get(sub.ID)
	if err := sess.Wait(t.Context()); err != nil {
		t.Fatalf("sweep over degraded store failed: %v", err)
	}

	var doc struct {
		Status string `json:"status"`
		Store  struct {
			Degraded    bool `json:"degraded"`
			Quarantined int  `json:"quarantined_segments"`
		} `json:"store"`
	}
	getJSON(t, ts.URL+"/healthz", &doc)
	if doc.Status != "degraded" || !doc.Store.Degraded {
		t.Fatalf("healthz = %+v, want degraded headline and store flag", doc)
	}
	if doc.Store.Quarantined != 0 {
		t.Errorf("quarantined_segments = %d, want 0", doc.Store.Quarantined)
	}
}

// A stop that lands the moment the daemon first answers /healthz must
// still shut it down in order: serve returns cleanly and the store is
// closed, free for the next process. main installs its signal handler
// before serving starts, so a SIGTERM in that window takes this path.
func TestServeStopsCleanlyAfterFirstHealthz(t *testing.T) {
	dir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, l, serveConfig{storeDir: dir, retain: session.DefaultRetain, drain: time.Second})
	}()
	url := "http://" + l.Addr().String() + "/healthz"
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned before answering /healthz: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve = %v, want a clean stop", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not stop")
	}
	d, err := resultstore.Open(dir)
	if err != nil {
		t.Fatalf("store still held after serve returned: %v", err)
	}
	d.Close()
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dwarfs"
	"repro/internal/engine"
	"repro/internal/faultline"
	"repro/internal/memsys"
	"repro/internal/ndjson"
	"repro/internal/planner"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/workload"
)

func sock() *platform.Socket { return platform.NewPurley().Socket(0) }

// fleetSpec is the standard test sweep: 2 apps x 3 modes x 2 threads =
// 12 points, or scaled up through the Scales axis.
func fleetSpec(name string, scales ...float64) scenario.Spec {
	return scenario.Spec{
		Name:    name,
		Apps:    []string{"XSBench", "Hypre"},
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM, memsys.UncachedNVM},
		Threads: []int{24, 48},
		Scales:  scales,
	}
}

// testFleet is a coordinator plus n in-process workers over one
// httptest server — the whole wire protocol, no real network.
type testFleet struct {
	coord   *Coordinator
	eng     *engine.Engine // the coordinator's engine (the shared dedup tier)
	ts      *httptest.Server
	workers []*Worker
	cancels []context.CancelFunc
	runs    []chan error
}

// tightOpts keeps the fleet cadence test-speed: 25ms heartbeats (so
// dead after 100ms of silence), 50ms poll windows.
func tightOpts() Options {
	return Options{Heartbeat: 25 * time.Millisecond, Poll: 50 * time.Millisecond}
}

func startFleet(t *testing.T, n int, opts Options, delay time.Duration) *testFleet {
	t.Helper()
	f := &testFleet{eng: engine.New(sock(), 4)}
	f.coord = New(f.eng, opts)
	t.Cleanup(f.coord.Close)
	mux := http.NewServeMux()
	f.coord.Routes(mux)
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	for i := 0; i < n; i++ {
		f.addWorker(t, fmt.Sprintf("w%d", i), delay, nil)
	}
	f.waitWorkers(t, n)
	return f
}

// addWorker starts one in-process worker; a non-nil client overrides
// the transport (the kill tests sever it mid-run).
func (f *testFleet) addWorker(t *testing.T, name string, delay time.Duration, client *http.Client) *Worker {
	t.Helper()
	w := &Worker{
		Base:      f.ts.URL,
		Client:    client,
		Eng:       engine.New(sock(), 1),
		Name:      name,
		EvalDelay: delay,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	f.workers = append(f.workers, w)
	f.cancels = append(f.cancels, cancel)
	f.runs = append(f.runs, done)
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("worker did not stop")
		}
	})
	return w
}

func (f *testFleet) waitWorkers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.coord.Workers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", f.coord.Workers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sweepBytes runs a sweep through a manager and returns the exact
// NDJSON stream a /v1/sweeps/{id}/outcomes client would read.
func sweepBytes(t *testing.T, m *session.Manager, sp scenario.Spec) []byte {
	t.Helper()
	s, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var enc ndjson.Encoder
	if err := s.Stream(context.Background(), func(o scenario.Outcome) error {
		buf.Write(enc.Outcome(o))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole contract: a sweep executed across the fleet is
// byte-for-byte the NDJSON stream the single-process path produces.
func TestFleetSweepByteIdenticalToLocal(t *testing.T) {
	f := startFleet(t, 2, tightOpts(), 0)
	fleetMgr := session.NewManager(f.eng)
	defer fleetMgr.Close()
	fleetMgr.SetExecutor(f.coord)
	localMgr := session.NewManager(engine.New(sock(), 4))
	defer localMgr.Close()

	sp := fleetSpec("fleet-vs-local")
	got := sweepBytes(t, fleetMgr, sp)
	want := sweepBytes(t, localMgr, sp)
	if !bytes.Equal(got, want) {
		t.Errorf("fleet NDJSON differs from local:\nfleet: %s\nlocal: %s", got, want)
	}
	st := f.coord.Stats()
	if st.PointsRemote == 0 {
		t.Errorf("no points travelled (stats %+v) — the sweep ran locally", st)
	}
	if st.Completed == 0 || st.Completed != st.Dispatched {
		t.Errorf("chunk accounting %+v, want every dispatched chunk completed", st)
	}
}

// A warm coordinator store serves everything locally: the second run of
// the same sweep dispatches nothing and still matches byte-for-byte.
func TestFleetWarmRunAllLocal(t *testing.T) {
	f := startFleet(t, 2, tightOpts(), 0)
	m := session.NewManager(f.eng)
	defer m.Close()
	m.SetExecutor(f.coord)

	sp := fleetSpec("fleet-warm")
	cold := sweepBytes(t, m, sp)
	before := f.coord.Stats()
	warm := sweepBytes(t, m, sp)
	after := f.coord.Stats()
	if !bytes.Equal(cold, warm) {
		t.Error("warm rerun differs from cold run")
	}
	if after.PointsRemote != before.PointsRemote {
		t.Errorf("warm rerun dispatched %d points, want 0",
			after.PointsRemote-before.PointsRemote)
	}
	if after.PointsLocal <= before.PointsLocal {
		t.Error("warm rerun served no local points")
	}
}

// Plans ride the same executor: an adaptive plan resolved across the
// fleet streams byte-identical points.
func TestFleetPlanByteIdenticalToLocal(t *testing.T) {
	f := startFleet(t, 2, tightOpts(), 0)
	fleetMgr := session.NewManager(f.eng)
	defer fleetMgr.Close()
	fleetMgr.SetExecutor(f.coord)
	localMgr := session.NewManager(engine.New(sock(), 4))
	defer localMgr.Close()

	sp := scenario.Spec{
		Name:    "fleet-plan",
		Apps:    []string{"XSBench", "Hypre"},
		Threads: []int{1, 2, 4, 8, 16, 24, 32, 40, 48},
	}
	stream := func(m *session.Manager) []byte {
		s, err := m.SubmitPlan(sp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		var enc ndjson.Encoder
		if err := s.Stream(context.Background(), func(p planner.PlannedPoint) error {
			buf.Write(enc.PlannedPoint(p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := stream(fleetMgr)
	want := stream(localMgr)
	if !bytes.Equal(got, want) {
		t.Error("fleet plan NDJSON differs from local")
	}
	if st := f.coord.Stats(); st.PointsRemote == 0 {
		t.Errorf("plan dispatched nothing (stats %+v)", st)
	}
}

// killableTransport severs a worker's link mid-run: it dies on the
// Nth result post (and every request after), so the worker is
// guaranteed to be holding undeliverable in-flight chunks — exactly
// what the coordinator sees when a worker process is killed mid-chunk.
type killableTransport struct {
	killAt  int64 // die on this result post
	results atomic.Int64
	dead    atomic.Bool
	base    http.RoundTripper
}

func (k *killableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/fleet/v1/results" && k.results.Add(1) >= k.killAt {
		k.dead.Store(true)
	}
	if k.dead.Load() {
		return nil, errors.New("killed")
	}
	return k.base.RoundTrip(r)
}

// Killing a worker mid-sweep re-queues its chunks whole for the
// survivors, and the client-visible stream is byte-identical to the
// single-process run — the acceptance criterion's golden comparison.
func TestFleetWorkerKillMidSweepByteIdentical(t *testing.T) {
	f := startFleet(t, 0, tightOpts(), 0)
	// The doomed worker's link dies on its first result post: the chunks
	// of its first pull are evaluated but undeliverable — in-flight
	// chunks the coordinator must re-queue whole.
	kt := &killableTransport{killAt: 1, base: http.DefaultTransport}
	f.addWorker(t, "doomed", 5*time.Millisecond, &http.Client{Transport: kt})
	f.waitWorkers(t, 1)

	fleetMgr := session.NewManager(f.eng)
	defer fleetMgr.Close()
	fleetMgr.SetExecutor(f.coord)

	// 2 apps x 3 modes x 2 threads x 4 scales = 48 points, 4 chunks.
	sp := fleetSpec("fleet-kill", 1, 2, 4, 8)
	s, err := fleetMgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Once the link is severed, bring up the survivor that pulls the dead
	// worker's re-queued chunks and carves the rest.
	deadline := time.Now().Add(10 * time.Second)
	for !kt.dead.Load() {
		if time.Now().After(deadline) {
			t.Fatal("kill never triggered")
		}
		time.Sleep(time.Millisecond)
	}
	f.addWorker(t, "survivor", 0, nil)

	var buf bytes.Buffer
	var enc ndjson.Encoder
	if err := s.Stream(context.Background(), func(o scenario.Outcome) error {
		buf.Write(enc.Outcome(o))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	localMgr := session.NewManager(engine.New(sock(), 4))
	defer localMgr.Close()
	if want := sweepBytes(t, localMgr, sp); !bytes.Equal(buf.Bytes(), want) {
		t.Error("post-kill fleet NDJSON differs from local")
	}
	st := f.coord.Stats()
	if st.Requeued == 0 {
		t.Errorf("worker death re-queued nothing (stats %+v)", st)
	}
	if st.Dead == 0 {
		t.Errorf("killed worker never declared dead (stats %+v)", st)
	}
}

// Concurrent submissions of the same sweep evaluate each point once
// fleet-wide: the second batch parks on the first batch's in-flight
// dispatches instead of travelling twice.
func TestFleetDedupAcrossConcurrentBatches(t *testing.T) {
	f := startFleet(t, 2, tightOpts(), 25*time.Millisecond)
	sp := fleetSpec("fleet-dedup")
	// Each batch is its own session: its own expansion, its own tally.
	var batches [2][]engine.Job
	var tallies [2]engine.Tally
	for i := range batches {
		_, jobs, err := sp.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for j := range jobs {
			jobs[j].Tally = &tallies[i]
		}
		batches[i] = jobs
	}
	n := uint64(sp.Size())

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f.coord.ExecuteBatch(context.Background(), sp, batches[i], nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	var evaluated uint64
	for _, w := range f.workers {
		evaluated += w.Eng.Stats().Misses
	}
	if evaluated != n {
		t.Errorf("workers evaluated %d points for %d unique (dup dispatch)", evaluated, n)
	}
	// Every path books to the batch that submitted the job: remote
	// commits to the owner, parked flights and local hits to the waiter.
	var misses uint64
	for i := range tallies {
		st := tallies[i].Stats()
		if st.Hits+st.Misses != n {
			t.Errorf("batch %d tally %+v, want %d bookings", i, st, n)
		}
		misses += st.Misses
	}
	if misses != n {
		t.Errorf("batches booked %d misses between them, want %d", misses, n)
	}
	if st := f.coord.Stats(); st.PointsCoalesced == 0 {
		t.Errorf("no points coalesced across concurrent batches (stats %+v)", st)
	}
}

// With no workers joined the coordinator degenerates to the exact
// single-process path.
func TestFleetZeroWorkersFallsBackLocal(t *testing.T) {
	f := startFleet(t, 0, tightOpts(), 0)
	m := session.NewManager(f.eng)
	defer m.Close()
	m.SetExecutor(f.coord)
	localMgr := session.NewManager(engine.New(sock(), 4))
	defer localMgr.Close()

	sp := fleetSpec("fleet-zero")
	got := sweepBytes(t, m, sp)
	want := sweepBytes(t, localMgr, sp)
	if !bytes.Equal(got, want) {
		t.Error("zero-worker fleet NDJSON differs from local")
	}
	st := f.coord.Stats()
	if st.Fallbacks == 0 || st.PointsRemote != 0 {
		t.Errorf("stats %+v, want a pure local fallback", st)
	}
}

// Specs that cannot travel (Custom builders are Go closures) run
// locally even with live workers.
func TestFleetCustomSpecRunsLocal(t *testing.T) {
	f := startFleet(t, 1, tightOpts(), 0)
	sp := scenario.Spec{
		Name:    "fleet-custom",
		Custom:  []scenario.Custom{{Label: "inline", New: dwarfs.All()[0].New}},
		Modes:   []memsys.Mode{memsys.DRAMOnly},
		Threads: []int{48},
	}
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.coord.ExecuteBatch(context.Background(), sp, jobs, nil); err != nil {
		t.Fatal(err)
	}
	st := f.coord.Stats()
	if st.Fallbacks == 0 || st.PointsRemote != 0 {
		t.Errorf("stats %+v, want local fallback for a Custom spec", st)
	}
}

// A batch holding a job without a workload fails with the local path's
// exact error while a worker is live, instead of panicking the
// coordinator: such a job has no key, runs locally, and no flight is
// looked up for it.
func TestFleetNilWorkloadFailsLikeLocal(t *testing.T) {
	f := startFleet(t, 1, tightOpts(), 0)
	sp := fleetSpec("fleet-nil")
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	jobs[3].Workload = nil
	_, want := engine.New(sock(), 2).RunBatchFunc(context.Background(), jobs, nil)
	got := f.coord.ExecuteBatch(context.Background(), sp, jobs, nil)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("fleet error = %v, want the local path's %v", got, want)
	}
}

// tamperResults is a worker transport that forges the first chunk of
// the first result post it carries and passes everything else through.
type tamperResults struct {
	forge func(cr *ChunkResult, recs []resultstore.Record)

	mu     sync.Mutex
	forged bool
	keys   []resultstore.Key // the forged chunk's honest record keys
}

func (tr *tamperResults) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/fleet/v1/results" {
		return http.DefaultTransport.RoundTrip(req) // heartbeats and pulls never wait on mu
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.forged {
		return http.DefaultTransport.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	var rb ResultBatch
	if err := rb.Decode(body); err != nil {
		return nil, err
	}
	cr := &rb.Results[0]
	recs, _, err := resultstore.ParseBlock(cr.Frame)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		tr.keys = append(tr.keys, r.Key)
	}
	tr.forge(cr, recs)
	tr.forged = true
	body = rb.Append(nil)
	req = req.Clone(req.Context())
	req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	return http.DefaultTransport.RoundTrip(req)
}

func (tr *tamperResults) forgedKeys() []resultstore.Key {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.keys
}

// A result chunk that does not answer the chunk it was given fails that
// chunk's points with a chunk-level error and commits none of them —
// least of all under a forged key — while the batch's other chunks,
// the rest of the same post included, still land.
func TestForgedChunkFailsAlone(t *testing.T) {
	reframe := func(cr *ChunkResult, recs []resultstore.Record) {
		cr.Frame = resultstore.AppendBlock(nil, recs)
	}
	for _, tc := range []struct {
		name, want string
		forge      func(cr *ChunkResult, recs []resultstore.Record)
	}{
		{"record under another index's key", "record key is not the point's key",
			func(cr *ChunkResult, recs []resultstore.Record) {
				recs[0].Key = recs[1].Key
				reframe(cr, recs)
			}},
		{"missing record", "records for",
			func(cr *ChunkResult, recs []resultstore.Record) { reframe(cr, recs[:len(recs)-1]) }},
		{"failed index outside the chunk", "is not in the chunk",
			func(cr *ChunkResult, _ []resultstore.Record) {
				cr.Failed = append(cr.Failed, PointError{Index: 1 << 30, Error: "boom"})
			}},
		{"flipped frame byte", "CRC mismatch",
			func(cr *ChunkResult, _ []resultstore.Record) { cr.Frame[len(cr.Frame)/2] ^= 0x10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &tamperResults{forge: tc.forge}
			f := startFleet(t, 0, tightOpts(), 0)
			f.addWorker(t, "w0", 0, &http.Client{Transport: tr})
			f.waitWorkers(t, 1)
			sp := fleetSpec("fleet-forged", 1, 2, 3, 4)
			_, jobs, err := sp.Expand()
			if err != nil {
				t.Fatal(err)
			}
			var landed atomic.Int64
			err = f.coord.ExecuteBatch(context.Background(), sp, jobs, func(int, workload.Result) { landed.Add(1) })
			forged := tr.forgedKeys()
			if len(forged) < 2 {
				t.Fatalf("forged a chunk of %d records, want one of at least 2", len(forged))
			}
			if err == nil || !strings.Contains(err.Error(), "fleet: chunk ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("batch error = %v, want a chunk-level %q", err, tc.want)
			}
			if got, want := landed.Load(), int64(len(jobs)-len(forged)); got != want {
				t.Errorf("%d points landed, want %d: all but the forged chunk's", got, want)
			}
			isForged := make(map[resultstore.Key]bool)
			for _, k := range forged {
				isForged[k] = true
			}
			for i, job := range jobs {
				k := job.Key()
				if committed := f.eng.Cached(k); committed == isForged[k] {
					t.Errorf("point %d: committed = %v, want %v", i, committed, !isForged[k])
				}
			}
		})
	}
}

// Cancelling a fleet-dispatched batch surfaces the same error text as
// the local path and unblocks promptly.
func TestFleetCancellation(t *testing.T) {
	f := startFleet(t, 2, tightOpts(), 50*time.Millisecond)
	sp := fleetSpec("fleet-cancel", 1, 2, 4, 8)
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.coord.ExecuteBatch(ctx, sp, jobs, nil) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		want := engine.CancelError(context.Canceled)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("cancelled batch error = %v, want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch never returned")
	}
}

// A worker stopped before its join lands — here the coordinator never
// answers — stops as cleanly as on every other cancellation path: Run
// returns nil, so a daemon stopped mid-join exits 0.
func TestWorkerStoppedMidJoinReturnsNil(t *testing.T) {
	release := make(chan struct{})
	mute := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(mute.Close)
	t.Cleanup(func() { close(release) })
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	midJoin, stop := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer stop()
	for name, ctx := range map[string]context.Context{"already cancelled": cancelled, "mid-join": midJoin} {
		w := &Worker{Base: mute.URL, Eng: engine.New(sock(), 1), Name: "never-joins"}
		if err := w.Run(ctx); err != nil {
			t.Errorf("%s: Run = %v, want nil", name, err)
		}
	}
}

// A coordinator that refuses a join (409 for another protocol version,
// 404 from a daemon without -fleet) gets no retries: Run returns the
// refusal at once instead of polling until it is stopped.
func TestWorkerRefusedJoinReturnsError(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusConflict} {
		refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "refused", code)
		}))
		t.Cleanup(refuse.Close)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		w := &Worker{Base: refuse.URL, Eng: engine.New(sock(), 1), Name: "refused"}
		err := w.Run(ctx)
		cancel()
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(code)) {
			t.Errorf("join answered %d: Run = %v, want that refusal", code, err)
		}
	}
}

// A coordinator that forgets its workers, as a restarted one does, gets
// each of them back exactly once. The heartbeat already asleep when the
// rejoin lands must not beat with the old id and, on that id's 404,
// send the fresh registration to join again: every extra join is one
// more worker in the coordinator's count until the reaper drops it.
func TestWorkerRejoinsOnceAfterCoordinatorForgets(t *testing.T) {
	var (
		mu      sync.Mutex
		joins   int
		current string
		forgot  bool
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Heartbeat // every non-join body carries worker_id
		if r.URL.Path != "/fleet/v1/join" {
			if err := decodeStrict(r.Body, &req); err != nil {
				t.Errorf("%s: %v", r.URL.Path, err)
			}
		}
		mu.Lock()
		known := req.WorkerID == current
		switch {
		case r.URL.Path == "/fleet/v1/join":
			joins++
			current = fmt.Sprintf("w-%d", joins)
			reply, _ := json.Marshal(JoinReply{WorkerID: current, HeartbeatMS: 100})
			mu.Unlock()
			w.Write(reply)
			return
		case r.URL.Path == "/fleet/v1/work" && known && !forgot:
			// The restart: every registration is forgotten, once.
			forgot, current, known = true, "", false
		}
		mu.Unlock()
		switch {
		case r.URL.Path == "/fleet/v1/leave":
			w.WriteHeader(http.StatusNoContent)
		case !known:
			http.Error(w, "unknown worker", http.StatusNotFound)
		case r.URL.Path == "/fleet/v1/work":
			// An empty long-poll window, kept short.
			select {
			case <-r.Context().Done():
			case <-time.After(20 * time.Millisecond):
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	t.Cleanup(stub.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 650*time.Millisecond)
	defer cancel()
	w := &Worker{Base: stub.URL, Eng: engine.New(sock(), 1), Name: "rejoiner"}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if joins != 2 {
		t.Errorf("worker joined %d times across six heartbeats and one forgetful restart, want 2", joins)
	}
}

// The coordinator speaks one protocol version: a join carrying none (as
// every worker built before the version existed) or another is refused
// with 409 Conflict naming both versions, and registers nobody.
func TestJoinRefusesOtherProtocolVersion(t *testing.T) {
	f := startFleet(t, 0, tightOpts(), 0)
	for _, c := range []struct {
		body string
		sent int
	}{
		{`{"name":"unversioned"}`, 0},
		{`{"name":"old","protocol":1}`, 1},
		{fmt.Sprintf(`{"name":"newer","protocol":%d}`, ProtocolVersion+1), ProtocolVersion + 1},
	} {
		resp, err := http.Post(f.ts.URL+"/fleet/v1/join", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("join %s = %s, want 409", c.body, resp.Status)
		}
		want := fmt.Sprintf("protocol %d, coordinator speaks %d", c.sent, ProtocolVersion)
		if !strings.Contains(string(msg), want) {
			t.Errorf("join %s refused with %q, want it to name both versions (%q)", c.body, msg, want)
		}
	}
	if n := f.coord.Workers(); n != 0 {
		t.Errorf("refused joins registered %d workers", n)
	}
}

// A worker whose disk store degrades self-evicts: Run returns
// ErrStoreDegraded after a graceful leave, and the sweep still
// finishes.
func TestWorkerDegradedStoreSelfEvicts(t *testing.T) {
	f := startFleet(t, 0, tightOpts(), 0)

	// A store whose 2nd append write fails. The worker commits each
	// point in its own write, and as the fleet's only worker when the
	// batch is submitted it pulls the whole sweep, so the chunks it
	// commits degrade the store and the post-chunk check fires.
	inj := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpWrite, Path: ".log", Nth: 2},
	}})
	d, err := resultstore.OpenFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	w := &Worker{
		Base:   f.ts.URL,
		Eng:    engine.NewWithStore(sock(), 1, d),
		Name:   "failing-disk",
		Disk:   d,
		Client: http.DefaultClient,
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	f.waitWorkers(t, 1)

	sp := fleetSpec("fleet-degraded", 1, 2)
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.coord.ExecuteBatch(context.Background(), sp, jobs, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrStoreDegraded) {
			t.Errorf("worker exit = %v, want ErrStoreDegraded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("degraded worker never self-evicted")
	}
	// The self-eviction was graceful: a leave, not a death sentence.
	deadline := time.Now().Add(5 * time.Second)
	for f.coord.Stats().Left == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("self-eviction not recorded as a leave (stats %+v)", f.coord.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// The acceptance criterion: with N in-process workers and a synthetic
// per-point latency, a cold sweep speeds up by at least 0.7N over the
// serial baseline (T1 = points x delay — what one evaluator paying the
// same per-point cost would take). The point count scales through
// FLEET_SPEEDUP_POINTS.
func TestFleetSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews the wall-clock speedup assertion")
	}
	const n = 4
	delay := 5 * time.Millisecond
	points := 64
	if v := os.Getenv("FLEET_SPEEDUP_POINTS"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < n {
			t.Fatalf("FLEET_SPEEDUP_POINTS=%q: need an int >= %d", v, n)
		}
		points = p
	}
	scales := make([]float64, points/4)
	for i := range scales {
		scales[i] = 1 + float64(i)/8
	}
	sp := scenario.Spec{
		Name:    "fleet-speedup",
		Apps:    []string{"XSBench"},
		Modes:   []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM},
		Threads: []int{24, 48},
		Scales:  scales,
	}
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != points {
		t.Fatalf("spec expands to %d points, want %d", len(jobs), points)
	}

	f := startFleet(t, n, tightOpts(), delay)
	start := time.Now()
	if err := f.coord.ExecuteBatch(context.Background(), sp, jobs, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	serial := time.Duration(points) * delay
	speedup := float64(serial) / float64(elapsed)
	t.Logf("fleet %d workers, %d points x %v: %v vs serial %v — speedup %.2fx",
		n, points, delay, elapsed, serial, speedup)
	if min := 0.7 * n; speedup < min {
		t.Errorf("speedup %.2fx < %.1fx (0.7 x %d workers)", speedup, min, n)
	}
	if st := f.coord.Stats(); st.PointsRemote != uint64(points) {
		t.Errorf("%d of %d points travelled (stats %+v)", st.PointsRemote, points, st)
	}
}

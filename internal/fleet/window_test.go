package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/workload"
)

// bigSpec builds a sweep of at least n points on the standard 12-point
// cross product, scaled through the Scales axis.
func bigSpec(name string, n int) scenario.Spec {
	scales := make([]float64, (n+11)/12)
	for i := range scales {
		scales[i] = 1 + float64(i)/1024
	}
	return fleetSpec(name, scales...)
}

// The tentpole's memory bound: a 100k-point sweep across an 8-worker
// in-process fleet completes with chunk bookkeeping bounded by the
// dispatch window — the high-water count of materialized unresolved
// chunks never exceeds workers × maxWorkChunks, no matter the sweep
// size.
func TestWindowedDispatchBoundsLiveChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-point sweep")
	}
	points := 100_008 // 12 × 8334
	if raceEnabled {
		points = 12_000 // the bound is identical; race slows evaluation ~10x
	}
	const n = 8
	// Default cadence, not the tight test one: 8 busy in-process engines
	// can stall a 25ms heartbeat long enough to get a worker spuriously
	// reaped, and a reap re-queues chunks outside the dispatch window.
	f := startFleet(t, n, Options{}, 0)
	sp := bigSpec("fleet-100k", points)
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < points {
		t.Fatalf("spec expands to %d points, want >= %d", len(jobs), points)
	}
	if err := f.coord.ExecuteBatch(context.Background(), sp, jobs, nil); err != nil {
		t.Fatal(err)
	}
	st := f.coord.Stats()
	if st.PointsRemote != uint64(len(jobs)) {
		t.Errorf("%d of %d points travelled (stats %+v)", st.PointsRemote, len(jobs), st)
	}
	// The bound is workers × window; the ×2 headroom tolerates one
	// spurious worker reap (its re-queued chunks stay live while the
	// survivors hold full windows). The pre-windowing coordinator
	// materialized points/chunkTarget ≈ 390+ chunks upfront at this
	// scale — orders of magnitude past this assertion.
	if bound := 2 * n * maxWorkChunks; st.ChunksLiveMax > bound {
		t.Errorf("chunks_live_max = %d, want <= 2 x workers x window = %d (windowed dispatch leak)",
			st.ChunksLiveMax, bound)
	}
	if st.ChunksLive != 0 {
		t.Errorf("chunks_live = %d after the sweep drained, want 0", st.ChunksLive)
	}
}

// The satellite on chunkTarget's clamp: the static seed formula spreads
// points four chunks deep per worker and caps at maxChunkPoints — at
// 100k points the per-chunk size saturates rather than the chunk count
// exploding (resident chunks are bounded by the window regardless).
func TestChunkTargetClamp(t *testing.T) {
	cases := []struct{ points, workers, want int }{
		{0, 1, 1}, // floor
		{1, 1, 1},
		{100, 4, 7}, // ceil(100/16)
		{48, 1, 12},
		{10_000, 8, 256},    // hits the cap
		{100_000, 8, 256},   // stays at the cap
		{100_000, 1000, 25}, // big fleets still get granular chunks
		{64, 0, 16},         // workers clamp to 1: ceil(64/4)
	}
	for _, c := range cases {
		if got := chunkTarget(c.points, c.workers); got != c.want {
			t.Errorf("chunkTarget(%d, %d) = %d, want %d", c.points, c.workers, got, c.want)
		}
	}
	if chunkTarget(1<<30, 1) != maxChunkPoints {
		t.Error("chunkTarget is not clamped to maxChunkPoints")
	}
}

// The adaptive sizer's deterministic trace: driving the scheduler
// directly with a fake clock and self-reported chunk timings, a fast
// worker's next chunk grows to EWMA×horizon while an 8×-slower
// worker's stays proportionally small.
func TestAdaptiveChunkSizingTrace(t *testing.T) {
	now := time.Unix(0, 0)
	s := newScheduler(25*time.Millisecond, 50*time.Millisecond, func() time.Time { return now })
	fast := s.join("fast").WorkerID
	slow := s.join("slow").WorkerID

	b := &batch{id: "b-1", identity: true}
	s.addSource(&chunkSource{b: b, runs: []span{{lo: 0, hi: 1000}}, seed: 10, remaining: 1000})

	// Cold start: both workers' windows fill with seed-sized chunks.
	fastChunks := pullUpTo(t, s, fast, maxWorkChunks)
	slowChunks := pullUpTo(t, s, slow, maxWorkChunks)
	if len(fastChunks) != maxWorkChunks || len(slowChunks) != maxWorkChunks {
		t.Fatalf("cold pull = %d/%d chunks, want %d each", len(fastChunks), len(slowChunks), maxWorkChunks)
	}
	for _, c := range append(fastChunks, slowChunks...) {
		if len(c.indexes) != 10 {
			t.Fatalf("cold chunk size %d, want seed 10", len(c.indexes))
		}
	}

	// The fast worker reports 10 points in 10ms (1000 pps): its next
	// chunk is EWMA × horizon(4 × 50ms poll) = 200 points.
	s.complete(fast, fastChunks[0].id, 10_000)
	if c := pullOne(t, s, fast); len(c.indexes) != 200 {
		t.Errorf("fast worker's adaptive chunk = %d points, want 200", len(c.indexes))
	}
	// The slow worker reports 10 points in 80ms (125 pps, 8x slower):
	// its next chunk is 125 × 0.2s = 25 points.
	s.complete(slow, slowChunks[0].id, 80_000)
	if c := pullOne(t, s, slow); len(c.indexes) != 25 {
		t.Errorf("slow worker's adaptive chunk = %d points, want 25", len(c.indexes))
	}

	// A second fast report at the same rate keeps the EWMA at 1000 pps,
	// but the tail guard now bounds the carve: the remainder split at
	// least two ways per live worker.
	s.complete(fast, fastChunks[1].id, 10_000)
	remaining := 1000 - 8*10 - 200 - 25 // carved so far
	wantTail := (remaining + 3) / 4     // ceil(remaining / (2 × 2 workers))
	if c := pullOne(t, s, fast); len(c.indexes) != wantTail {
		t.Errorf("tail-guarded chunk = %d points, want %d", len(c.indexes), wantTail)
	}
}

// pullOne pulls exactly one chunk without parking, failing if none is
// available.
func pullOne(t *testing.T, s *scheduler, id string) *chunk {
	t.Helper()
	c := pullNow(t, s, id)
	if c == nil {
		t.Fatalf("no chunk queued for %s", id)
	}
	return c
}

// The straggler analyzer end to end: one worker 8× slower than its
// three peers is flagged in the stats document, completes smaller
// chunks on average, and the sweep output is still byte-identical to
// the local run. Three fast workers (not one) because the flag
// compares against the fleet MEDIAN: in a two-worker fleet the median
// is the mean of both p50s, and no factor-k threshold with k=2 can
// ever fire.
func TestStragglerFlaggedAndSweepByteIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock latency ratios are unreliable under race instrumentation")
	}
	f := startFleet(t, 0, tightOpts(), 0)
	f.addWorker(t, "fast-0", 500*time.Microsecond, nil)
	f.addWorker(t, "fast-1", 500*time.Microsecond, nil)
	f.addWorker(t, "fast-2", 500*time.Microsecond, nil)
	f.addWorker(t, "slug", 4*time.Millisecond, nil)
	f.waitWorkers(t, 4)

	fleetMgr := session.NewManager(f.eng)
	defer fleetMgr.Close()
	fleetMgr.SetExecutor(f.coord)
	localMgr := session.NewManager(engine.New(sock(), 4))
	defer localMgr.Close()

	// A small warmup sweep gives every worker a measured EWMA, so the
	// main sweep below is carved adaptively from the first chunk — the
	// cold-start seed (which is throughput-blind by definition) would
	// otherwise dominate the per-worker chunk-size averages.
	warm := bigSpec("fleet-straggler-warm", 240)
	_, wjobs, err := warm.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.coord.ExecuteBatch(context.Background(), warm, wjobs, nil); err != nil {
		t.Fatal(err)
	}
	before := workerRows(f.coord)

	sp := bigSpec("fleet-straggler", 4800)
	got := sweepBytes(t, fleetMgr, sp)
	want := sweepBytes(t, localMgr, sp)
	if !bytes.Equal(got, want) {
		t.Error("straggler-fleet NDJSON differs from local")
	}

	fs := f.coord.FleetStats()
	after := workerRows(f.coord)
	slow := after["slug"]
	if !slow.Straggler {
		t.Errorf("8x-slower worker not flagged: %+v (median p50 %.3fms)", slow, fs.MedianP50PointMS)
	}
	if fs.Stragglers != 1 {
		t.Errorf("stats count %d stragglers, want 1", fs.Stragglers)
	}
	// The adaptive sizer starves the straggler of large chunks: over the
	// main sweep (warmup counters subtracted) its average completed
	// chunk is smaller than every fast peer's, and its measured
	// throughput stays below theirs.
	avg := func(name string) float64 {
		chunks := after[name].ChunksDone - before[name].ChunksDone
		if chunks == 0 {
			t.Fatalf("%s completed no chunks in the main sweep: %+v", name, after[name])
		}
		return float64(after[name].PointsDone-before[name].PointsDone) / float64(chunks)
	}
	slowAvg := avg("slug")
	for _, name := range []string{"fast-0", "fast-1", "fast-2"} {
		if after[name].Straggler {
			t.Errorf("%s flagged as straggler: %+v", name, after[name])
		}
		if fastAvg := avg(name); slowAvg >= fastAvg {
			t.Errorf("slug's chunks average %.1f points vs %s's %.1f, want smaller",
				slowAvg, name, fastAvg)
		}
		if slow.PointsPerSec >= after[name].PointsPerSec {
			t.Errorf("slug EWMA %.1f pps >= %s's %.1f pps",
				slow.PointsPerSec, name, after[name].PointsPerSec)
		}
	}
}

// workerRows snapshots the analyzer rows keyed by worker name.
func workerRows(c *Coordinator) map[string]WorkerHealth {
	rows, _ := c.sched.health()
	out := make(map[string]WorkerHealth, len(rows))
	for _, r := range rows {
		out[r.Name] = r
	}
	return out
}

// realResults builds a realistic completed-chunk payload by actually
// evaluating n points of the standard spec, in chunks of 64 framed the
// way a worker frames them — the wire-efficiency tests measure real
// result bodies, not toy strings. The point at index failAt, when in
// range, is reported failed instead of framed.
func realResults(t testing.TB, n, failAt int) []ChunkResult {
	t.Helper()
	sp := bigSpec("wire-fixture", n)
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sock(), 1)
	var out []ChunkResult
	for lo := 0; lo < n; lo += 64 {
		cr := ChunkResult{ChunkID: uint64(1 + lo/64), ElapsedUS: 1000}
		var recs []resultstore.Record
		for i := lo; i < min(lo+64, n); i++ {
			if i == failAt {
				cr.Failed = append(cr.Failed, PointError{Index: i, Error: "engine: nil workload"})
				continue
			}
			res, err := eng.Run(jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			res.Workload = nil
			recs = append(recs, resultstore.Record{Key: jobs[i].Key(), Res: res})
		}
		cr.Frame = resultstore.AppendBlock(nil, recs)
		out = append(out, cr)
	}
	return out
}

// The wire-efficiency bound: a coalesced 256-point result body costs at
// most 320 bytes per point (268 when written), inside the 512 the CI
// smoke asserts. Plain JSON results, about 660 bytes per point, fail
// both.
func TestWireBytesPerPointReduced(t *testing.T) {
	const points = 256
	rb := ResultBatch{WorkerID: "w-000001", Results: realResults(t, points, -1)}
	perPoint := float64(len(rb.Append(nil))) / points
	t.Logf("wire bytes/point: %.1f", perPoint)
	if perPoint > 320 {
		t.Errorf("result body costs %.1f bytes/point, want <= 320", perPoint)
	}
}

// A result body round-trips: what Append writes, Decode reads back to
// the same chunks, and each frame parses to the records that went in.
func TestResultBodyRoundTrip(t *testing.T) {
	want := ResultBatch{WorkerID: "w-000001", Results: append(realResults(t, 128, 5),
		ChunkResult{ChunkID: 9, Error: "bad spec"})}
	body := want.Append(nil)
	var got ResultBatch
	if err := got.Decode(body); err != nil {
		t.Fatal(err)
	}
	if got.WorkerID != want.WorkerID || len(got.Results) != len(want.Results) {
		t.Fatalf("decoded %q with %d chunks, want %q with %d", got.WorkerID, len(got.Results),
			want.WorkerID, len(want.Results))
	}
	for i, g := range got.Results {
		w := want.Results[i]
		if g.ChunkID != w.ChunkID || g.ElapsedUS != w.ElapsedUS || g.Error != w.Error ||
			!reflect.DeepEqual(g.Failed, w.Failed) || !bytes.Equal(g.Frame, w.Frame) {
			t.Errorf("chunk %d: decoded %+v, want %+v", i, g, w)
		}
	}
	if re := got.Append(nil); !bytes.Equal(re, body) {
		t.Error("decoded body re-encodes to other bytes")
	}
	if got.Results[0].Failed[0].Index != 5 {
		t.Errorf("chunk 0 failed points = %+v, want index 5", got.Results[0].Failed)
	}
}

// Decode refuses a body it cannot read whole: empty, truncated anywhere,
// a length past the end, or a varint encoded longer than it needs.
func TestResultBodyRejectsMalformed(t *testing.T) {
	rb := ResultBatch{WorkerID: "w-000001", Results: realResults(t, 64, 3)}
	body := rb.Append(nil)
	for _, cut := range []int{0, 1, 5, len(body) / 2, len(body) - 1} {
		var back ResultBatch
		if err := back.Decode(body[:cut]); err == nil {
			t.Errorf("body cut to %d of %d bytes decoded", cut, len(body))
		}
	}
	long := append([]byte{0x88, 0x00}, body[1:]...) // worker id length 8, over-long
	var back ResultBatch
	if err := back.Decode(long); err == nil {
		t.Error("over-long varint decoded")
	}
}

// decodeStrict takes exactly one document: anything after it but
// whitespace, a stray closing delimiter included, is rejected.
func TestDecodeStrictRejectsTrailingData(t *testing.T) {
	for body, ok := range map[string]bool{
		`{"worker_id":"w-1"}`:          true,
		"{\"worker_id\":\"w-1\"}\n \t": true,
		`{"worker_id":"w-1"}}`:         false,
		`{"worker_id":"w-1"}]`:         false,
		`{"worker_id":"w-1"} {}`:       false,
		`{"worker_id":"w-1"} x`:        false,
	} {
		var hb Heartbeat
		err := decodeStrict(strings.NewReader(body), &hb)
		if ok && (err != nil || hb.WorkerID != "w-1") {
			t.Errorf("decodeStrict(%q) = %v, %+v; want w-1", body, err, hb)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "trailing data")) {
			t.Errorf("decodeStrict(%q) error = %v, want trailing data", body, err)
		}
	}
}

// The worker's result encode path, evaluate's AppendBlock(nil, recs)
// per chunk and postResults' Append(nil), allocates once per frame and
// once for the body: the frame is encoded in the store's pooled scratch
// and copied out, and Append sizes the body before writing it.
func TestResultBodySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	rb := ResultBatch{WorkerID: "w-000001", Results: realResults(t, 128, 5)}
	recs := make([][]resultstore.Record, len(rb.Results))
	for i := range rb.Results {
		var err error
		if recs[i], _, err = resultstore.ParseBlock(rb.Results[i].Frame); err != nil {
			t.Fatal(err)
		}
	}
	encode := func() {
		for i := range rb.Results {
			rb.Results[i].Frame = resultstore.AppendBlock(nil, recs[i])
		}
		rb.Append(nil)
	}
	encode() // warm the pooled encoder
	want := float64(len(rb.Results) + 1)
	if allocs := testing.AllocsPerRun(50, encode); allocs != want {
		t.Errorf("result encode allocates %.0f objects/post, want %.0f: one per frame, one for the body", allocs, want)
	}
}

// The results endpoint reads a body of any framing up to maxBodyBytes,
// and refuses a larger one whole without counting it as a post.
func TestResultsEndpointBodyLimit(t *testing.T) {
	f := startFleet(t, 0, tightOpts(), 0)
	empty := (&ResultBatch{WorkerID: "w-000001"}).Append(nil)
	huge := make([]byte, maxBodyBytes+1)
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		// A reader without a length travels chunked.
		{"chunked", struct{ io.Reader }{bytes.NewReader(empty)}, http.StatusNoContent},
		{"oversize", bytes.NewReader(huge), http.StatusBadRequest},
		{"oversize chunked", struct{ io.Reader }{bytes.NewReader(huge)}, http.StatusBadRequest},
	} {
		resp, err := http.Post(f.ts.URL+"/fleet/v1/results", "application/octet-stream", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s body: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if posts := f.coord.FleetStats().ResultPosts; posts != 1 {
		t.Errorf("%d result posts counted, want 1: the oversize bodies are refused", posts)
	}
}

// The GET /fleet/v1/stats endpoint serves the analyzer document, and
// compresses large responses for clients that advertise gzip (checked
// on a raw transport: the default one hides the Content-Encoding).
func TestStatsEndpointAndResponseCompression(t *testing.T) {
	f := startFleet(t, 2, tightOpts(), 0)
	sp := bigSpec("fleet-stats", 96)
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.coord.ExecuteBatch(context.Background(), sp, jobs, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.ts.URL + "/fleet/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.Window != maxWorkChunks || fs.StragglerFactor != DefaultStragglerFactor {
		t.Errorf("stats window/factor = %d/%.1f, want %d/%.1f",
			fs.Window, fs.StragglerFactor, maxWorkChunks, DefaultStragglerFactor)
	}
	if len(fs.PerWorker) != 2 {
		t.Fatalf("stats carries %d worker rows, want 2", len(fs.PerWorker))
	}
	if fs.ResultPosts == 0 || fs.ResultBytesWire == 0 || fs.ResultBytesWire >= 512*fs.PointsRemote {
		t.Errorf("want result posts with wire bytes accounted, under 512 per remote point (stats %+v)", fs.CoordinatorStats)
	}

	// Raw request advertising gzip: a response past the floor comes
	// back compressed and inflates to valid JSON.
	req, err := http.NewRequest(http.MethodGet, f.ts.URL+"/fleet/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	rresp, err := raw.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	body, err := io.ReadAll(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rresp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var fs2 FleetStats
		if err := json.NewDecoder(zr).Decode(&fs2); err != nil {
			t.Fatalf("compressed stats do not inflate to JSON: %v", err)
		}
	} else if len(body) >= gzipMinBytes {
		t.Errorf("stats response (%d bytes, past the floor) not compressed", len(body))
	}
}

// The operator-facing document: GET /fleet/v1/stats (the same
// FleetStats the fleet block of /healthz serves) carries exactly these
// top-level and per-worker keys, so removing or renaming a field is a
// deliberate edit here.
func TestFleetStatsDocumentKeys(t *testing.T) {
	f := startFleet(t, 1, tightOpts(), 0)
	sp := bigSpec("fleet-keys", 24)
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.coord.ExecuteBatch(context.Background(), sp, jobs, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.ts.URL + "/fleet/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]any) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	wantTop := []string{
		"chunks_completed", "chunks_dispatched", "chunks_in_flight", "chunks_live",
		"chunks_live_max", "chunks_pending", "chunks_requeued", "dead", "fallbacks",
		"left", "median_p50_point_ms", "per_worker", "points_coalesced", "points_local",
		"points_remote", "result_bytes_wire", "result_posts",
		"straggler_factor", "stragglers", "window", "workers",
	}
	if got := keys(doc); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("stats keys:\n got %v\nwant %v", got, wantTop)
	}
	rows, _ := doc["per_worker"].([]any)
	if len(rows) != 1 {
		t.Fatalf("per_worker = %v, want one row", doc["per_worker"])
	}
	row, _ := rows[0].(map[string]any)
	wantRow := []string{
		"chunks_done", "id", "in_flight", "last_chunk_size", "name",
		"p50_point_ms", "p95_point_ms", "points_done", "points_per_sec", "straggler",
	}
	if got := keys(row); !reflect.DeepEqual(got, wantRow) {
		t.Errorf("per-worker keys:\n got %v\nwant %v", got, wantRow)
	}
}

// The analyzer's ring quantiles are nearest-rank (stats.Quantile): over
// samples 1..10 the p95 is the 10th value, not the 9th.
func TestLatRingQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n                int
		wantP50, wantP95 float64
	}{
		{10, 5, 10},
		{32, 16, 31},
	} {
		var r latRing
		for v := 1; v <= c.n; v++ {
			r.push(float64(v))
		}
		if p50, p95 := r.quantile(0.50), r.quantile(0.95); p50 != c.wantP50 || p95 != c.wantP95 {
			t.Errorf("samples 1..%d: p50 %v, p95 %v; want %v, %v", c.n, p50, p95, c.wantP50, c.wantP95)
		}
	}
	var empty latRing
	if q := empty.quantile(0.95); q != 0 {
		t.Errorf("empty ring p95 = %v, want 0", q)
	}
}

// A subset of the expansion submitted out of order still resolves: the
// non-identity mapping path (plan rounds submit job subsets) survives
// windowed dispatch, and every point lands exactly once.
func TestNonIdentityBatchDispatch(t *testing.T) {
	f := startFleet(t, 2, tightOpts(), 0)
	sp := bigSpec("fleet-subset", 48)
	_, jobs, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// A strict subset, reversed: neither length nor order matches the
	// expansion, so the identity fast-path must reject it.
	var subset []engine.Job
	for i := len(jobs) - 1; i >= 0; i -= 2 {
		subset = append(subset, jobs[i])
	}
	settled := make([]int, len(subset))
	err = f.coord.ExecuteBatch(context.Background(), sp, subset, func(i int, _ workload.Result) {
		settled[i]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range settled {
		if n != 1 {
			t.Errorf("subset position %d settled %d times, want 1", i, n)
		}
	}
	if st := f.coord.Stats(); st.PointsRemote != uint64(len(subset)) {
		t.Errorf("%d of %d subset points travelled (stats %+v)", st.PointsRemote, len(subset), st)
	}
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ndjson"
	"repro/internal/planner"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/session"
)

func newTestServer(t *testing.T, store resultstore.Store) (*httptest.Server, *session.Manager) {
	t.Helper()
	eng := engine.NewWithStore(platform.NewPurley().Socket(0), 4, store)
	mgr := session.NewManager(eng)
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer((&server{mgr: mgr, disk: diskOf(store)}).handler())
	t.Cleanup(ts.Close)
	return ts, mgr
}

func diskOf(store resultstore.Store) *resultstore.Disk {
	d, _ := store.(*resultstore.Disk)
	return d
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	dir := t.TempDir()
	d, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ts, _ := newTestServer(t, d)
	var doc map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &doc)
	if resp.StatusCode != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, doc)
	}
	if doc["store_dir"] != dir {
		t.Errorf("healthz store_dir = %v, want %s", doc["store_dir"], dir)
	}
	if _, ok := doc["store"]; !ok {
		t.Errorf("healthz missing store accounting: %v", doc)
	}
}

// The health report's store block tracks the on-disk composition: fresh
// evaluations land in a log segment, and a daemon restarted over the
// compacted store reports them in a binary columnar segment with a
// block index.
func TestHealthzStoreAccounting(t *testing.T) {
	dir := t.TempDir()
	d, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ts, mgr := newTestServer(t, d)

	resp, err := http.Post(ts.URL+"/v1/sweeps?preset=beyond-dram", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sess, _ := mgr.Get(sub.ID)
	if err := sess.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Records int `json:"store_records"`
		Store   resultstore.Stats
	}
	getJSON(t, ts.URL+"/healthz", &doc)
	if doc.Store.SegmentsLog != 1 || doc.Store.SegmentsV2 != 0 {
		t.Errorf("pre-compaction segments = log:%d v2:%d, want 1/0",
			doc.Store.SegmentsLog, doc.Store.SegmentsV2)
	}
	if doc.Store.Records != 16 || doc.Store.RecordsLog != 16 {
		t.Errorf("pre-compaction records = %+v, want 16 log records", doc.Store)
	}
	if doc.Store.Bytes <= 0 || doc.Store.BytesLog != doc.Store.Bytes {
		t.Errorf("pre-compaction bytes = %+v, want all bytes in the log", doc.Store)
	}

	ts.Close()
	mgr.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := resultstore.Compact(dir); err != nil {
		t.Fatal(err)
	}
	d, err = resultstore.Open(dir) // closed by the Cleanup above
	if err != nil {
		t.Fatal(err)
	}
	ts, _ = newTestServer(t, d)
	getJSON(t, ts.URL+"/healthz", &doc)
	if doc.Store.SegmentsV2 != 1 || doc.Store.RecordsV2 != 16 || doc.Store.RecordsLog != 0 {
		t.Errorf("post-compaction store = %+v, want 16 records in one v2 segment", doc.Store)
	}
	if doc.Store.IndexBytes <= 0 || doc.Store.Blocks < 1 {
		t.Errorf("post-compaction store = %+v, want a populated block index", doc.Store)
	}
	if doc.Records != 16 {
		t.Errorf("store_records = %d, want 16", doc.Records)
	}
}

func TestPresetsListsRegistry(t *testing.T) {
	ts, _ := newTestServer(t, resultstore.NewMemory())
	var presets []struct {
		Name   string `json:"name"`
		Points int    `json:"points"`
	}
	getJSON(t, ts.URL+"/v1/presets", &presets)
	found := false
	for _, p := range presets {
		if p.Name == "beyond-dram" && p.Points == 16 {
			found = true
		}
	}
	if !found {
		t.Fatalf("presets missing beyond-dram/16: %+v", presets)
	}
}

// The daemon's primary path: POST the shipped beyond-dram spec file,
// poll status to completion, stream the outcomes, and check them against
// the spec's size and schema.
func TestSubmitSpecAndStreamOutcomes(t *testing.T) {
	ts, _ := newTestServer(t, resultstore.NewMemory())
	spec, err := os.ReadFile("../../specs/beyond-dram.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Points != 16 || sub.ID == "" {
		t.Fatalf("submit = %d %+v", resp.StatusCode, sub)
	}

	// Stream every outcome (blocks until the sweep completes).
	oresp, err := http.Get(ts.URL + sub.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	defer oresp.Body.Close()
	if ct := oresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("outcomes content type = %q", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(oresp.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if rec["error"] != nil {
			t.Fatalf("stream error: %v", rec["error"])
		}
		lines = append(lines, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 16 {
		t.Fatalf("streamed %d outcomes, want 16", len(lines))
	}
	if lines[0]["app"] != "BoxLib" || lines[0]["mode"] != "cached-NVM" {
		t.Errorf("first outcome = %v, want BoxLib on cached-NVM (deterministic order)", lines[0])
	}

	// Status reflects completion and the session's own accounting.
	var st session.Status
	getJSON(t, ts.URL+sub.Status, &st)
	if st.State != session.Done || st.Completed != 16 {
		t.Errorf("status = %+v, want done 16/16", st)
	}
	if st.Hits+st.Misses != 16 {
		t.Errorf("session accounting %d hits + %d misses, want 16 total", st.Hits, st.Misses)
	}

	// The sweep list carries the session.
	var list []session.Status
	getJSON(t, ts.URL+"/v1/sweeps", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Errorf("sweep list = %+v", list)
	}
}

// Concurrent sweeps of one preset each report exactly their own points,
// and a plan over the swept space afterwards computes nothing new.
func TestSessionsCountOwnPointsOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, resultstore.NewMemory())
	type accepted struct {
		ID       string `json:"id"`
		Status   string `json:"status_url"`
		Outcomes string `json:"outcomes_url"`
		Points   string `json:"points_url"`
	}
	// run submits the preset and drains the session's stream.
	run := func(collection string) accepted {
		var sub accepted
		resp, err := http.Post(ts.URL+"/v1/"+collection+"?preset=beyond-dram", "", nil)
		if err != nil {
			t.Error(err)
			return sub
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Errorf("POST /v1/%s = %d (%v)", collection, resp.StatusCode, err)
			return sub
		}
		stream, err := http.Get(ts.URL + sub.Outcomes + sub.Points)
		if err != nil {
			t.Error(err)
			return sub
		}
		io.Copy(io.Discard, stream.Body)
		stream.Body.Close()
		return sub
	}
	type counts struct {
		State     session.State `json:"state"`
		Evaluated int           `json:"evaluated"`
		Hits      uint64        `json:"cache_hits"`
		Misses    uint64        `json:"cache_misses"`
	}

	var sweeps [2]accepted
	var wg sync.WaitGroup
	for i := range sweeps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sweeps[i] = run("sweeps")
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var misses uint64
	for _, sub := range sweeps {
		var st counts
		getJSON(t, ts.URL+sub.Status, &st)
		if st.Hits+st.Misses != 16 {
			t.Errorf("%s: %d hits + %d misses, want 16 points", sub.ID, st.Hits, st.Misses)
		}
		misses += st.Misses
	}
	if misses != 16 {
		t.Errorf("sweeps computed %d points between them, want 16", misses)
	}

	plan := run("plans")
	var st counts
	getJSON(t, ts.URL+plan.Status, &st)
	if st.State != session.Done || st.Misses != 0 || st.Hits != uint64(st.Evaluated) {
		t.Errorf("plan after sweeps = %+v, want done with every evaluation a hit", st)
	}

	// A plan id does not resolve as a sweep.
	var doc map[string]string
	resp := getJSON(t, ts.URL+"/v1/sweeps/"+plan.ID, &doc)
	if want := fmt.Sprintf("no sweep %q", plan.ID); resp.StatusCode != http.StatusNotFound || doc["error"] != want {
		t.Errorf("GET /v1/sweeps/%s = %d %q, want 404 %q", plan.ID, resp.StatusCode, doc["error"], want)
	}
}

func TestSubmitPresetByName(t *testing.T) {
	ts, _ := newTestServer(t, resultstore.NewMemory())
	resp, err := http.Post(ts.URL+"/v1/sweeps?preset=contention", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || sub.Spec != "contention" {
		t.Fatalf("preset submit = %d %+v", resp.StatusCode, sub)
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	ts, _ := newTestServer(t, resultstore.NewMemory())
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"empty body", "/v1/sweeps", "", http.StatusBadRequest},
		{"syntax", "/v1/sweeps", `{"name": "x", "apps": [`, http.StatusBadRequest},
		{"unknown app", "/v1/sweeps", `{"name": "x", "apps": ["NoSuchApp"]}`, http.StatusBadRequest},
		{"unknown axis", "/v1/sweeps", `{"name": "x", "threadz": [8]}`, http.StatusBadRequest},
		{"footprint overflow", "/v1/sweeps", `{"name":"h","apps":["XSBench"],"modes":["uncached-NVM"],"scales":[1e12]}`, http.StatusBadRequest},
		{"unknown preset", "/v1/sweeps?preset=nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]string
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != tc.want || doc["error"] == "" {
			t.Errorf("%s: status %d (want %d), error %q", tc.name, resp.StatusCode, tc.want, doc["error"])
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/sweeps/sweep-000042", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep id = %d, want 404", resp.StatusCode)
	}
}

func TestCancelSweep(t *testing.T) {
	ts, mgr := newTestServer(t, resultstore.NewMemory())
	resp, err := http.Post(ts.URL+"/v1/sweeps?preset=full-cartesian", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st session.Status
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", dresp.StatusCode)
	}
	// The session ends in a terminal state either way (cancelled mid-run,
	// or done if the tiny model beat the DELETE).
	sess, _ := mgr.Get(sub.ID)
	deadline := time.Now().Add(10 * time.Second)
	for !sess.Status().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("session never terminated after cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

// A fresh daemon's collection endpoints must render empty JSON arrays,
// never null — clients iterating the listings (jq, range over a decoded
// slice) break on a null document.
func TestFreshDaemonListsAreArrays(t *testing.T) {
	ts, _ := newTestServer(t, resultstore.NewMemory())
	for _, path := range []string{"/v1/sweeps", "/v1/plans", "/v1/presets"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(string(body))
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(trimmed, "[") {
			t.Errorf("GET %s = %d %q, want a JSON array", path, resp.StatusCode, trimmed)
		}
		if strings.HasPrefix(trimmed, "null") {
			t.Errorf("GET %s rendered null instead of []", path)
		}
	}
}

// The health probe reports session counters without walking the session
// maps; the counters must track submissions.
func TestHealthzSessionCounters(t *testing.T) {
	ts, mgr := newTestServer(t, resultstore.NewMemory())
	var doc struct {
		Sessions *int `json:"sessions"`
		Plans    *int `json:"plans"`
	}
	getJSON(t, ts.URL+"/healthz", &doc)
	if doc.Sessions == nil || doc.Plans == nil || *doc.Sessions != 0 || *doc.Plans != 0 {
		t.Fatalf("fresh healthz counters = %+v, want 0/0", doc)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps?preset=contention", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getJSON(t, ts.URL+"/healthz", &doc)
	if *doc.Sessions != 1 || *doc.Plans != 0 {
		t.Errorf("healthz after one sweep = %d sessions, %d plans", *doc.Sessions, *doc.Plans)
	}
	sweeps, plans := mgr.Count()
	if sweeps != 1 || plans != 0 {
		t.Errorf("Count = (%d,%d) disagrees with healthz", sweeps, plans)
	}
}

// The preset/body submission matrix, for both sweep and plan submission:
// exactly one spec source is accepted; a request carrying both is
// ambiguous and must 400 with a message naming each source rather than
// silently preferring one.
func TestSubmitPresetBodyMatrix(t *testing.T) {
	ts, _ := newTestServer(t, resultstore.NewMemory())
	body := `{"name": "matrix", "apps": ["XSBench"], "modes": ["cached-NVM"], "threads": [24]}`
	cases := []struct {
		name   string
		query  string
		body   string
		want   int
		errHas []string // substrings required in the error document
	}{
		{"preset only", "?preset=contention", "", http.StatusAccepted, nil},
		{"body only", "", body, http.StatusAccepted, nil},
		{"both", "?preset=contention", body, http.StatusBadRequest,
			[]string{"ambiguous", "contention", "body"}},
		{"neither", "", "", http.StatusBadRequest, []string{"empty body"}},
		{"unknown preset", "?preset=nope", "", http.StatusNotFound, nil},
	}
	for _, route := range []string{"/v1/sweeps", "/v1/plans"} {
		for _, tc := range cases {
			resp, err := http.Post(ts.URL+route+tc.query, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d (%s)", route, tc.name, resp.StatusCode, tc.want, raw)
				continue
			}
			if tc.want >= 400 {
				var doc map[string]string
				if err := json.Unmarshal(raw, &doc); err != nil || doc["error"] == "" {
					t.Errorf("%s %s: malformed error document %q", route, tc.name, raw)
					continue
				}
				for _, sub := range tc.errHas {
					if !strings.Contains(doc["error"], sub) {
						t.Errorf("%s %s: error %q does not name %q", route, tc.name, doc["error"], sub)
					}
				}
			}
		}
	}
}

// Retention over HTTP: with a small cap, churning sweeps through the
// daemon evicts the oldest terminal sessions, whose ids then 404 cleanly
// instead of accumulating forever.
func TestRetentionEvictsOverHTTP(t *testing.T) {
	ts, mgr := newTestServer(t, resultstore.NewMemory())
	mgr.SetRetain(2)
	var ids []string
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/sweeps?preset=contention", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var sub submitReply
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, sub.ID)
		sess, ok := mgr.Get(sub.ID)
		if !ok {
			t.Fatalf("submitted session %s not retrievable", sub.ID)
		}
		if err := sess.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Allow the post-finish eviction pass to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sweeps, plans := mgr.Count()
		if sweeps+plans <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention cap not enforced over HTTP: %d sessions", sweeps+plans)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := getJSON(t, ts.URL+"/v1/sweeps/"+ids[0], nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session GET = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/sweeps/"+ids[len(ids)-1], nil); resp.StatusCode != http.StatusOK {
		t.Errorf("retained session GET = %d, want 200", resp.StatusCode)
	}
}

// flushCounter is a ResponseWriter that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// A stream goes out one published batch at a time, flushed once per
// batch: a finished session has published its whole log, so its
// stream flushes once, not once per line or per window. (A caught-up
// stream still flushes each line as its point lands; the shutdown-drain
// test reads gated lines live.) The 2,160-point sweep and plan span
// three windows, and their bytes are the per-point rendering of their
// logs.
func TestFinishedStreamFlushesOnce(t *testing.T) {
	mgr := session.NewManager(engine.New(platform.NewPurley().Socket(0), 4))
	t.Cleanup(mgr.Close)
	h := (&server{mgr: mgr}).handler()
	sp := parseStreamSpec(t)
	sweep, err := mgr.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mgr.SubmitPlan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := plan.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var outs []scenario.Outcome
	if err := sweep.Stream(context.Background(), func(o scenario.Outcome) error {
		outs = append(outs, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var pts []planner.PlannedPoint
	if err := plan.Stream(context.Background(), func(p planner.PlannedPoint) error {
		pts = append(pts, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ url, want string }{
		{"/v1/sweeps/" + sweep.ID() + "/outcomes", render(outs, (*ndjson.Encoder).Outcome)},
		{"/v1/plans/" + plan.ID() + "/points", render(pts, (*ndjson.Encoder).PlannedPoint)},
	} {
		rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.url, nil))
		body := rec.Body.String()
		if rec.Code != http.StatusOK || strings.Count(body, "\n") != streamPoints || strings.Contains(body, `"error"`) {
			t.Fatalf("GET %s: %d with %d lines, want 200 with %d and no error line",
				tc.url, rec.Code, strings.Count(body, "\n"), streamPoints)
		}
		if rec.flushes != 1 {
			t.Errorf("GET %s flushed %d times, want once", tc.url, rec.flushes)
		}
		if body != tc.want {
			t.Errorf("GET %s: stream bytes differ from the per-point rendering", tc.url)
		}
	}
}

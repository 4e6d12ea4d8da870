package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ndjson"
	"repro/internal/planner"
	"repro/internal/platform"
	"repro/internal/scenario"
)

// streamSpec is a 2,160-point sweep: the eight apps × three modes × six
// thread counts × 15 footprint scales. Its finished stream spans three
// windows, and each full window splits into as many shares as there are
// CPUs, up to eight.
const streamSpec = `{"name": "stream-2160", "threads": [8, 16, 24, 32, 40, 48], ` +
	`"scales": [0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7, 7.5]}`

const streamPoints = 2160

// parseStreamSpec parses streamSpec and checks its size.
func parseStreamSpec(t *testing.T) scenario.Spec {
	t.Helper()
	sp, err := scenario.ParseSpec([]byte(streamSpec), "stream-2160")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Size() != streamPoints {
		t.Fatalf("stream spec has %d points, want %d", sp.Size(), streamPoints)
	}
	return sp
}

// inProcess runs sp as a sweep and as a plan in this process, returning
// the outcomes in spec order and the planned points in the order a plan
// session publishes them.
func inProcess(t testing.TB, sp scenario.Spec) ([]scenario.Outcome, []planner.PlannedPoint) {
	t.Helper()
	eng := engine.New(platform.NewPurley().Socket(0), 0)
	outs, err := sp.Run(eng)
	if err != nil {
		t.Fatal(err)
	}
	var pts []planner.PlannedPoint
	if _, err := planner.RunSpec(context.Background(), eng, sp, func(p planner.Progress) {
		pts = append(pts, p.Points...)
	}); err != nil {
		t.Fatal(err)
	}
	return outs, pts
}

// render is the per-item rendering a stream's bytes must equal.
func render[T any](items []T, encode func(*ndjson.Encoder, T) []byte) string {
	var b strings.Builder
	var enc ndjson.Encoder
	for _, it := range items {
		b.Write(encode(&enc, it))
	}
	return b.String()
}

// marshalLines is the stream encoding/json writes for items: each item's
// json.Marshal plus a newline. A stream's bytes must equal it, which
// holds the NDJSON encoder to encoding/json, not to itself.
func marshalLines[T any](t testing.TB, items []T) string {
	t.Helper()
	var b strings.Builder
	for _, it := range items {
		line, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// cycle repeats src to n items.
func cycle[T any](src []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = src[i%len(src)]
	}
	return out
}

// writeCounter records the bytes written to it and the number of Write
// calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// wantWrites is the number of shares, so of Writes, a batch of n items
// goes out in on p CPUs.
func wantWrites(n, p int) int {
	writes := 0
	for ; n > 0; n -= min(n, streamWindow) {
		writes += max(1, min(p, min(n, streamWindow)/minShare))
	}
	return writes
}

// The window renderer's bytes equal the per-item rendering at every
// length around the share and window boundaries, for both stream item
// types, with one Write per share. Run it under -cpu 1,2,4.
func TestStreamWindows(t *testing.T) {
	sp, err := scenario.ByName("full-cartesian")
	if err != nil {
		t.Fatal(err)
	}
	outs, pts := inProcess(t, sp)
	ls := takeLines()
	defer linePool.Put(ls)
	p := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, 127, 128, 255, 256, 257, 1023, 1024, 1025, 2160} {
		checkWindows(t, ls, "outcomes", cycle(outs, n), (*ndjson.Encoder).Outcome, p)
		checkWindows(t, ls, "planned points", cycle(pts, n), (*ndjson.Encoder).PlannedPoint, p)
	}
}

func checkWindows[T any](t *testing.T, ls *lines, what string, items []T, encode func(*ndjson.Encoder, T) []byte, p int) {
	t.Helper()
	var w writeCounter
	if err := writeLines(&w, ls, items, encode); err != nil {
		t.Fatal(err)
	}
	if w.String() != render(items, encode) {
		t.Errorf("%d %s on %d CPUs: bytes differ from the per-item rendering", len(items), what, p)
	}
	if want := wantWrites(len(items), p); w.writes != want {
		t.Errorf("%d %s on %d CPUs: %d writes, want one per share (%d)", len(items), what, p, w.writes, want)
	}
}

// Rendering a warmed window allocates per goroutine, not per line: one
// closure for each share after the first, so at most GOMAXPROCS+1 objects
// leaves room for the runtime and fails at one allocation per line.
func TestStreamWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sp, err := scenario.ByName("full-cartesian")
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := inProcess(t, sp)
	items := cycle(outs, streamWindow)
	ls := takeLines()
	defer linePool.Put(ls)
	encode := (*ndjson.Encoder).Outcome
	if err := writeLines(io.Discard, ls, items, encode); err != nil {
		t.Fatal(err)
	}
	limit := float64(runtime.GOMAXPROCS(0) + 1)
	for _, n := range []int{1, minShare, 2 * minShare, streamWindow} {
		allocs := testing.AllocsPerRun(20, func() {
			writeLines(io.Discard, ls, items[:n], encode)
		})
		if allocs > limit {
			t.Errorf("a warmed %d-item window allocates %.0f objects, want <= %.0f (GOMAXPROCS+1)", n, allocs, limit)
		}
	}
}

// submitBody posts a spec body to a session collection and returns the
// accepted reply.
func submitBody(t *testing.T, url, body string) submitReply {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s = %d", url, resp.StatusCode)
	}
	return sub
}

// getBody reads a whole response body.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// A 2,160-point sweep streamed while it solves, the same sweep streamed
// once it has finished, and a plan over its spec each come out
// byte-equal to encoding/json's rendering of the in-process results.
func TestStreamLiveAndFinished(t *testing.T) {
	const held = 600
	ts, mgr, gate := newGatedServer(t, held, 0, 0)
	sp := parseStreamSpec(t)
	outs, pts := inProcess(t, sp)
	want := marshalLines(t, outs)

	// The gate holds the one-worker sweep after its first points, so the
	// stream connects while it runs and reads the rest as it solves.
	sub := submitBody(t, ts.URL+"/v1/sweeps", streamSpec)
	resp, err := http.Get(ts.URL + sub.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	first, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading the first line: %v", err)
	}
	if sess, _ := mgr.Get(sub.ID); sess.Status().State.Terminal() {
		t.Fatal("sweep finished while held")
	}
	gate.Release()
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	live := first + string(rest)
	if live != want {
		t.Errorf("live stream (%d lines) differs from the in-process sweep (%d lines)",
			strings.Count(live, "\n"), streamPoints)
	}

	if finished := getBody(t, ts.URL+sub.Outcomes); finished != want {
		t.Errorf("finished stream (%d lines) differs from the in-process sweep", strings.Count(finished, "\n"))
	}

	plan := submitBody(t, ts.URL+"/v1/plans", streamSpec)
	if got := getBody(t, ts.URL+plan.PointsURL); got != marshalLines(t, pts) {
		t.Errorf("plan stream (%d lines) differs from the in-process plan (%d points)",
			strings.Count(got, "\n"), len(pts))
	}
}

// A 2,160-point sweep cancelled while its stream is connected ends the
// stream on complete lines, a prefix of encoding/json's rendering of the
// in-process sweep, and then the in-band error line.
func TestStreamCancelledMidSweep(t *testing.T) {
	const held = 1500 // past the first window
	ts, mgr, gate := newGatedServer(t, held, 0, 0)
	sp := parseStreamSpec(t)
	outs, _ := inProcess(t, sp)
	want := marshalLines(t, outs)

	sub := submitBody(t, ts.URL+"/v1/sweeps", streamSpec)
	sess, ok := mgr.Get(sub.ID)
	if !ok {
		t.Fatalf("no session %s", sub.ID)
	}
	// Wait until the held points are published, so the HTTP stream's
	// first batch renders a full window and a partial one.
	enough := errors.New("held prefix published")
	seen := 0
	if err := sess.StreamBatches(context.Background(), func(batch []scenario.Outcome) error {
		if seen += len(batch); seen >= held {
			return enough
		}
		return nil
	}); !errors.Is(err, enough) {
		t.Fatalf("in-process stream = %v before %d points", err, held)
	}

	resp, err := http.Get(ts.URL + sub.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	first, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading the first line: %v", err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	gate.Release()
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}

	got := first + string(rest)
	if !strings.HasSuffix(got, "\n") {
		t.Fatalf("stream ends mid-line: ...%q", got[max(0, len(got)-40):])
	}
	lines := strings.SplitAfter(strings.TrimSuffix(got, "\n"), "\n")
	last := lines[len(lines)-1]
	points := strings.Join(lines[:len(lines)-1], "")
	if !strings.HasPrefix(last, `{"error":`) || !json.Valid([]byte(last)) {
		t.Fatalf("last line %q, want the in-band error line", last)
	}
	if len(lines)-1 < held || len(lines)-1 >= streamPoints || !strings.HasPrefix(want, points) {
		t.Errorf("cancelled stream: %d point lines before the error line, want the in-process sweep's first %d or more of %d",
			len(lines)-1, held, streamPoints)
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/ndjson"
	"repro/internal/planner"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/session"
)

// maxSpecBytes bounds a submitted sweep spec; the largest shipped preset
// is a few KiB, inline workload definitions a few KiB more.
const maxSpecBytes = 4 << 20

// server is the HTTP/JSON surface over a session manager. All state
// lives in the manager (sessions) and its engine's result store
// (evaluated points); the server itself is stateless and safe for
// concurrent requests.
type server struct {
	mgr *session.Manager
	// disk is the engine's store when it is disk-backed (nil for the
	// in-memory store); it feeds the health report's record count.
	disk *resultstore.Disk
	// adm is the overload gate (admission.go); nil means unlimited
	// admission with no shed accounting.
	adm *admission
	// sessTimeout, when positive, becomes every admitted session's
	// server-side deadline: a sweep or plan still running when it fires
	// is cancelled between jobs, exactly as DELETE would.
	sessTimeout time.Duration
	// coord, when non-nil, is the fleet coordinator (-fleet mode): its
	// worker endpoints join the route table and its scheduler counters
	// join the health report.
	coord *fleet.Coordinator
}

// options bundles the submission options every admitted session gets.
func (s *server) options() session.SubmitOptions {
	return session.SubmitOptions{Deadline: s.sessTimeout}
}

// handler builds the daemon's route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.health)
	mux.HandleFunc("GET /v1/presets", s.presets)
	// Sweeps stream outcomes in the spec's deterministic order as their
	// points complete (items says how lines are written and flushed).
	// Plans resolve the spec through the adaptive planner (the spec's
	// optional "plan" block configures it) and stream real evaluations
	// as their rounds complete, then the model-predicted remainder when
	// the plan finishes.
	(&kind[scenario.Outcome, session.Status, *session.Session]{
		srv: s, noun: "sweep", stream: "outcomes",
		submit: s.mgr.SubmitWith, get: s.mgr.Get, list: s.mgr.List,
		encode: (*ndjson.Encoder).Outcome,
	}).routes(mux)
	(&kind[planner.PlannedPoint, session.PlanStatus, *session.PlanSession]{
		srv: s, noun: "plan", stream: "points",
		submit: s.mgr.SubmitPlanWith, get: s.mgr.GetPlan, list: s.mgr.ListPlans,
		encode: (*ndjson.Encoder).PlannedPoint,
	}).routes(mux)
	if s.coord != nil {
		s.coord.Routes(mux)
	}
	return mux
}

// writeJSON renders one response document.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr renders an error document.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	// Counts, not listings: List builds and sorts a full Status
	// snapshot per session, which is too heavy for a probe polled under
	// sustained traffic.
	sweeps, plans := s.mgr.Count()
	doc := map[string]any{
		"status":   "ok",
		"sessions": sweeps,
		"plans":    plans,
		"live":     s.mgr.RunningCount(),
		"workers":  s.mgr.Engine().Workers(),
	}
	if s.adm != nil {
		doc["max_live"] = s.adm.maxLive
		doc["shed"] = s.adm.snapshot()
	}
	// Process runtime vitals: cheap (ReadMemStats has been a handful of
	// microseconds since Go 1.9's concurrent implementation) and the
	// first thing a fleet operator wants when a node looks slow.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	doc["runtime"] = map[string]any{
		"goroutines": runtime.NumGoroutine(),
		"heap_bytes": ms.HeapAlloc,
		"gc_cycles":  ms.NumGC,
	}
	if s.coord != nil {
		// The full analyzer document — per-worker throughput, latency
		// quantiles and straggler flags — not just the counter block.
		doc["fleet"] = s.coord.FleetStats()
	}
	if s.disk != nil {
		doc["store_dir"] = s.disk.Dir()
		doc["store_records"] = s.disk.Persisted()
		st := s.disk.Stats()
		doc["store"] = st
		// A degraded store (append path down, serving from memory) is the
		// probe's headline, not a detail buried in the stats block.
		if st.Degraded {
			doc["status"] = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *server) presets(w http.ResponseWriter, r *http.Request) {
	type preset struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Points      int    `json:"points"`
	}
	ps := scenario.Presets()
	// Non-nil so an empty catalogue encodes as [] rather than null.
	out := make([]preset, 0, len(ps))
	for _, sp := range ps {
		out = append(out, preset{Name: sp.Name, Description: sp.Description, Points: sp.Size()})
	}
	writeJSON(w, http.StatusOK, out)
}

// submitReply is the accepted-session document: the session id plus
// the URLs to poll and stream it (outcomes_url for a sweep, points_url
// for a plan).
type submitReply struct {
	ID        string `json:"id"`
	Spec      string `json:"spec"`
	Points    int    `json:"points"`
	Status    string `json:"status_url"`
	Outcomes  string `json:"outcomes_url,omitempty"`
	PointsURL string `json:"points_url,omitempty"`
}

// readSpec resolves the request's sweep spec: the body is a scenario
// spec file (the schema under specs/), or empty with ?preset=<name> for
// a shipped preset. A request carrying both is ambiguous and rejected —
// silently preferring one source over the other would run a different
// sweep than the caller thinks they submitted. On failure it writes the
// error response and reports false.
func (s *server) readSpec(w http.ResponseWriter, r *http.Request) (scenario.Spec, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return scenario.Spec{}, false
	}
	if len(body) > maxSpecBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec exceeds %d bytes", maxSpecBytes))
		return scenario.Spec{}, false
	}
	if name := r.URL.Query().Get("preset"); name != "" {
		if len(body) != 0 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("ambiguous submission: both ?preset=%q and a %d-byte spec body were provided; send exactly one", name, len(body)))
			return scenario.Spec{}, false
		}
		sp, err := scenario.ByName(name)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return scenario.Spec{}, false
		}
		return sp, true
	}
	if len(body) == 0 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("empty body: POST a scenario spec (see /v1/presets and specs/*.json) or use ?preset=<name>"))
		return scenario.Spec{}, false
	}
	sp, err := scenario.ParseSpec(body, "request")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return scenario.Spec{}, false
	}
	return sp, true
}

// run is what the HTTP surface needs from a sweep or plan session: T
// is its stream item, St its status document.
type run[T, St any] interface {
	ID() string
	Size() int
	Cancel()
	Status() St
	StreamBatches(ctx context.Context, emit func([]T) error) error
}

// kind serves one session kind — sweeps or plans — under
// /v1/<noun>s: submit, list, status, cancel and the NDJSON stream.
type kind[T, St any, R run[T, St]] struct {
	srv    *server
	noun   string // "sweep" or "plan"
	stream string // the stream's sub-resource: "outcomes" or "points"
	submit func(scenario.Spec, session.SubmitOptions) (R, error)
	get    func(id string) (R, bool)
	list   func() []St
	encode func(*ndjson.Encoder, T) []byte
}

func (k *kind[T, St, R]) routes(mux *http.ServeMux) {
	base := "/v1/" + k.noun + "s"
	mux.HandleFunc("POST "+base, k.create)
	mux.HandleFunc("GET "+base, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, k.list())
	})
	mux.HandleFunc("GET "+base+"/{id}", k.status)
	mux.HandleFunc("DELETE "+base+"/{id}", k.cancel)
	mux.HandleFunc("GET "+base+"/{id}/"+k.stream, k.items)
}

// create starts a session: the body is a scenario spec file (the
// schema under specs/), or empty with ?preset=<name> to run a shipped
// preset.
func (k *kind[T, St, R]) create(w http.ResponseWriter, r *http.Request) {
	if !k.srv.gate(w, r) {
		return
	}
	sp, ok := k.srv.readSpec(w, r)
	if !ok {
		return
	}
	sess, err := k.submit(sp, k.srv.options())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	url := "/v1/" + k.noun + "s/" + sess.ID()
	reply := submitReply{ID: sess.ID(), Spec: sp.Name, Points: sess.Size(), Status: url}
	if k.stream == "outcomes" {
		reply.Outcomes = url + "/outcomes"
	} else {
		reply.PointsURL = url + "/points"
	}
	writeJSON(w, http.StatusAccepted, reply)
}

// find resolves the request's session id, writing the 404 itself.
func (k *kind[T, St, R]) find(w http.ResponseWriter, r *http.Request) (R, bool) {
	id := r.PathValue("id")
	sess, ok := k.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no %s %q", k.noun, id))
	}
	return sess, ok
}

func (k *kind[T, St, R]) status(w http.ResponseWriter, r *http.Request) {
	if sess, ok := k.find(w, r); ok {
		writeJSON(w, http.StatusOK, sess.Status())
	}
}

func (k *kind[T, St, R]) cancel(w http.ResponseWriter, r *http.Request) {
	if sess, ok := k.find(w, r); ok {
		sess.Cancel()
		writeJSON(w, http.StatusOK, sess.Status())
	}
}

// items streams the session's log as NDJSON, one flat record per line
// (the nvmbench -format json outcome schema, or
// planner.PlannedPoint.MarshalJSON). Each wake of the stream hands it
// every item published since the last one, and it renders that batch in
// windows of at most streamWindow items: a window is split into up to
// GOMAXPROCS contiguous shares of at least minShare items, shares after
// the first render on goroutines of their own while the handler renders
// the first, and each share goes to the connection as one Write, in
// order. The stream flushes once per batch before waiting again: a
// stream keeping up with the session gets a few items per batch, which
// render inline and flush as their points land, so a client reads
// results while the session is still running; a stream that fell
// behind (or a finished session's) goes out in a few large writes. If
// the session fails or is cancelled mid-stream, the final line is an
// {"error": ...} object.
func (k *kind[T, St, R]) items(w http.ResponseWriter, r *http.Request) {
	sess, ok := k.find(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	ls := takeLines()
	defer linePool.Put(ls)
	err := sess.StreamBatches(r.Context(), func(batch []T) error {
		if err := writeLines(w, ls, batch, k.encode); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil && r.Context().Err() == nil {
		// The status line is long gone; surface the failure in-band.
		w.Write(ls.shares[0].enc.Error(err))
	}
}

// A stream renders at most streamWindow items between writes, and a
// window is split across goroutines only into shares of at least
// minShare items, so the few items of a caught-up stream render inline.
const (
	streamWindow = 1024
	minShare     = 128
)

// lines is one stream's rendering state: an encoder and a line buffer
// per share, and the WaitGroup the handler waits on for shares after
// the first.
type lines struct {
	shares []lineShare
	wg     sync.WaitGroup
}

type lineShare struct {
	enc ndjson.Encoder
	buf []byte
}

// linePool keeps the rendering state of finished streams, so a stream
// reuses warm encoders and line buffers instead of growing its own.
var linePool = sync.Pool{New: func() any { return new(lines) }}

// takeLines takes a rendering state from the pool with one share per
// CPU the scheduler may run on.
func takeLines() *lines {
	ls := linePool.Get().(*lines)
	p := runtime.GOMAXPROCS(0)
	if len(ls.shares) < p {
		ls.shares = append(ls.shares, make([]lineShare, p-len(ls.shares))...)
	}
	ls.shares = ls.shares[:p]
	return ls
}

// writeLines renders batch to w as NDJSON lines, window by window, with
// one Write per share of each window. The shares' goroutines only read
// batch, and all of them have returned before writeLines does.
func writeLines[T any](w io.Writer, ls *lines, batch []T, encode func(*ndjson.Encoder, T) []byte) error {
	for len(batch) > 0 {
		window := batch[:min(len(batch), streamWindow)]
		batch = batch[len(window):]
		n := len(window)
		shares := ls.shares[:max(1, min(len(ls.shares), n/minShare))]
		k := len(shares)
		for i := 1; i < k; i++ {
			sh, part := &shares[i], window[i*n/k:(i+1)*n/k]
			ls.wg.Add(1)
			go func() {
				defer ls.wg.Done()
				renderShare(sh, part, encode)
			}()
		}
		renderShare(&shares[0], window[:n/k], encode)
		ls.wg.Wait()
		for i := range shares {
			if _, err := w.Write(shares[i].buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderShare renders part's lines into sh's buffer, replacing what it
// held.
func renderShare[T any](sh *lineShare, part []T, encode func(*ndjson.Encoder, T) []byte) {
	sh.buf = sh.buf[:0]
	for _, item := range part {
		sh.buf = append(sh.buf, encode(&sh.enc, item)...)
	}
}

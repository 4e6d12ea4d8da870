package traffic

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
)

// stubDaemon fakes the nvmserve surface the remote target consumes:
// submission, NDJSON streaming, status. The first status poll reports
// running to exercise the terminal-state polling loop.
func stubDaemon(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var submits, statusPolls atomic.Int64
	mux := http.NewServeMux()
	submit := func(kind string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var sp scenario.Spec
			if err := json.NewDecoder(r.Body).Decode(&sp); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			n := submits.Add(1)
			id := fmt.Sprintf("%s-%06d", kind, n)
			stream := "outcomes"
			streamKey := "outcomes_url"
			if kind == "plan" {
				stream = "points"
				streamKey = "points_url"
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":%q,"status_url":"/v1/%ss/%s",%q:"/v1/%ss/%s/%s"}`,
				id, kind, id, streamKey, kind, id, stream)
		}
	}
	mux.HandleFunc("POST /v1/sweeps", submit("sweep"))
	mux.HandleFunc("POST /v1/plans", submit("plan"))
	stream := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"app":"XSBench","time_s":1.0}`)
		fmt.Fprintln(w, `{"app":"XSBench","time_s":2.0}`)
	}
	mux.HandleFunc("GET /v1/sweeps/{id}/outcomes", stream)
	mux.HandleFunc("GET /v1/plans/{id}/points", stream)
	status := func(w http.ResponseWriter, r *http.Request) {
		if statusPolls.Add(1) == 1 {
			fmt.Fprint(w, `{"state":"running","points":2,"cache_hits":0,"cache_misses":0}`)
			return
		}
		fmt.Fprint(w, `{"state":"done","points":2,"cache_hits":3,"cache_misses":2}`)
	}
	mux.HandleFunc("GET /v1/sweeps/{id}", status)
	mux.HandleFunc("GET /v1/plans/{id}", status)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &submits
}

func TestRemoteTargetWatch(t *testing.T) {
	srv, submits := stubDaemon(t)
	tgt := NewRemoteTarget(srv.URL+"/", srv.Client())
	for _, kind := range []Kind{Sweep, Plan} {
		h, err := tgt.Submit(context.Background(), Submission{
			Spec: scenario.Spec{Name: "probe", Apps: []string{"XSBench"}},
			Kind: kind,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		fired := 0
		st, err := h.Watch(context.Background(), func() { fired++ })
		if err != nil {
			t.Fatalf("%s: watch: %v", kind, err)
		}
		if fired != 1 {
			t.Errorf("%s: onFirst fired %d times, want once", kind, fired)
		}
		if st.State != "done" || st.Points != 2 || st.Hits != 3 || st.Misses != 2 {
			t.Errorf("%s: status = %+v", kind, st)
		}
	}
	if submits.Load() != 2 {
		t.Errorf("daemon saw %d submissions, want 2", submits.Load())
	}
}

func TestRemoteTargetSubmitRejection(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"no such preset"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	tgt := NewRemoteTarget(srv.URL, srv.Client())
	_, err := tgt.Submit(context.Background(), Submission{
		Spec: scenario.Spec{Name: "probe", Apps: []string{"XSBench"}},
	})
	if err == nil || !strings.Contains(err.Error(), "no such preset") {
		t.Fatalf("submit error = %v, want the daemon's message", err)
	}
}

// A stream answered with anything but 200 — the 404 of a session the
// daemon's -retain cap evicted, whose indented JSON body opens with a
// bare "{" line, or a 5xx — is an error, and books no first point.
func TestRemoteTargetWatchRejectsNonOKStream(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusInternalServerError} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/sweeps/{id}/outcomes", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			fmt.Fprint(w, "{\n  \"error\": \"no sweep \\\"sweep-000001\\\"\"\n}\n")
		})
		srv := httptest.NewServer(mux)
		h := &remoteHandle{t: NewRemoteTarget(srv.URL, srv.Client()),
			status: "/v1/sweeps/sweep-000001", stream: "/v1/sweeps/sweep-000001/outcomes"}
		fired := false
		_, err := h.Watch(context.Background(), func() { fired = true })
		srv.Close()
		want := fmt.Sprintf("traffic: GET /v1/sweeps/sweep-000001/outcomes: %d %s: {", code, http.StatusText(code))
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%d stream: Watch error = %v, want prefix %q", code, err, want)
		}
		if fired {
			t.Errorf("%d stream fired onFirst", code)
		}
	}
}

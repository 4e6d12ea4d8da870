package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/session"
)

// discardWriter is a ResponseWriter and Flusher that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

// BenchmarkStreamFinishedSweep measures the NDJSON handler alone: it
// streams a finished 14,400-point sweep (100 footprint scales × 144
// points) into a writer that discards it, and reports ns per point.
func BenchmarkStreamFinishedSweep(b *testing.B) {
	scales := make([]string, 100)
	for i := range scales {
		scales[i] = fmt.Sprint(0.5 + 0.075*float64(i))
	}
	sp, err := scenario.ParseSpec([]byte(`{"name": "bench-14400", "threads": [8, 16, 24, 32, 40, 48], "scales": [`+
		strings.Join(scales, ", ")+`]}`), "bench")
	if err != nil {
		b.Fatal(err)
	}
	mgr := session.NewManager(engine.New(platform.NewPurley().Socket(0), 0))
	b.Cleanup(mgr.Close)
	sess, err := mgr.Submit(sp)
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	if sess.Size() != 14400 {
		b.Fatalf("sweep has %d points, want 14,400", sess.Size())
	}
	h := (&server{mgr: mgr}).handler()
	url := "/v1/sweeps/" + sess.ID() + "/outcomes"
	w := &discardWriter{h: make(http.Header)}
	for b.Loop() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sess.Size()), "ns/point")
}

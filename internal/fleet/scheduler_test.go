package fleet

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// testScheduler runs the test cadence (25ms heartbeats, so dead after
// 100ms of silence; 10ms polls); the fake clock makes liveness
// decisions explicit.
func testScheduler(now *time.Time) *scheduler {
	return newScheduler(25*time.Millisecond, 10*time.Millisecond, 0, func() time.Time { return *now })
}

// addChunks registers a source of n one-point chunks for b: seeded at
// one point, it carves chunk ids 1..n round-robin over the live
// workers in join order, within their dispatch windows.
func addChunks(s *scheduler, b *batch, n int) {
	s.addSource(&chunkSource{b: b, runs: []span{{lo: 0, hi: n}}, seed: 1, remaining: n})
}

// pullNow pulls one chunk with an already-cancelled context so an
// empty scheduler returns nil immediately instead of parking out the
// poll window.
func pullNow(t *testing.T, s *scheduler, id string) *chunk {
	t.Helper()
	if chunks := pullUpTo(t, s, id, 1); len(chunks) > 0 {
		return chunks[0]
	}
	return nil
}

// pullUpTo pulls up to max chunks without parking.
func pullUpTo(t *testing.T, s *scheduler, id string, max int) []*chunk {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chunks, err := s.pullN(ctx, id, max)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("pullN(%s): %v", id, err)
	}
	return chunks
}

// The determinism contract: the same chunk set against the same worker
// set produces the identical assignment trace, run after run.
func TestSchedulerDeterministicAssignment(t *testing.T) {
	build := func() []Assignment {
		now := time.Unix(0, 0)
		s := testScheduler(&now)
		s.EnableTrace()
		for i := 0; i < 3; i++ {
			s.join("w")
		}
		addChunks(s, &batch{id: "b-1"}, 8)
		return s.Trace()
	}
	first := build()
	if len(first) != 8 {
		t.Fatalf("trace has %d entries, want 8", len(first))
	}
	for i, a := range first {
		if a.Kind != "assign" {
			t.Errorf("entry %d kind %q, want assign", i, a.Kind)
		}
	}
	// Round-robin in join order: chunk i lands on worker i mod 3.
	for i, a := range first {
		want := []string{"w-000001", "w-000002", "w-000003"}[i%3]
		if a.Worker != want {
			t.Errorf("chunk %d on %s, want %s", a.Chunk, a.Worker, want)
		}
	}
	for run := 0; run < 3; run++ {
		if again := build(); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d trace differs:\n%v\n%v", run, first, again)
		}
	}
}

// An idle worker steals from the back of the longest queue; the victim
// keeps its front chunks.
func TestSchedulerSteal(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	s.EnableTrace()
	w1 := s.join("one").WorkerID
	w2 := s.join("two").WorkerID
	addChunks(s, &batch{id: "b-1"}, 4) // rr: 1,3 on w1; 2,4 on w2

	// w2 drains its own queue then steals w1's back chunk (id 3).
	got := []uint64{}
	for i := 0; i < 3; i++ {
		c := pullNow(t, s, w2)
		if c == nil {
			t.Fatalf("pull %d returned nothing", i)
		}
		got = append(got, c.id)
	}
	if want := []uint64{2, 4, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("w2 pulled %v, want %v (own front, own front, steal back)", got, want)
	}
	if s.stats().Stolen != 1 {
		t.Errorf("stolen = %d, want 1", s.stats().Stolen)
	}
	// w1 keeps its oldest chunk.
	if c := pullNow(t, s, w1); c == nil || c.id != 1 {
		t.Errorf("w1 pulled %v, want chunk 1", c)
	}
	tr := s.Trace()
	if last := tr[len(tr)-1]; last.Kind != "steal" || last.Chunk != 3 || last.Worker != w2 {
		t.Errorf("trace steal entry = %+v", last)
	}
}

// A silent worker is reaped and its chunks — queued and in-flight alike
// — re-queue whole onto the survivors, sorted by id.
func TestSchedulerReapRequeuesWhole(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	s.EnableTrace()
	w1 := s.join("one").WorkerID
	w2 := s.join("two").WorkerID
	addChunks(s, &batch{id: "b-1"}, 4) // 1,3 on w1; 2,4 on w2

	// w1 pulls chunk 1 in flight, then goes silent; w2 keeps beating.
	if c := pullNow(t, s, w1); c == nil || c.id != 1 {
		t.Fatalf("w1 pull = %v, want chunk 1", c)
	}
	now = now.Add(150 * time.Millisecond)
	if !s.heartbeatFrom(w2) {
		t.Fatal("live worker heartbeat rejected")
	}
	s.reap()

	st := s.stats()
	if st.Workers != 1 || st.Dead != 1 {
		t.Fatalf("stats after reap = %+v, want 1 live 1 dead", st)
	}
	if st.Requeued != 2 {
		t.Errorf("requeued = %d, want 2 (in-flight chunk 1 + queued chunk 3)", st.Requeued)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after evict, want 0", st.InFlight)
	}
	// Requeue placement is id-sorted: chunk 1 before chunk 3.
	var requeued []uint64
	for _, a := range s.Trace() {
		if a.Kind == "requeue" {
			requeued = append(requeued, a.Chunk)
			if a.Worker != w2 {
				t.Errorf("requeue of %d on %s, want %s", a.Chunk, a.Worker, w2)
			}
		}
	}
	if want := []uint64{1, 3}; !reflect.DeepEqual(requeued, want) {
		t.Errorf("requeue order %v, want %v", requeued, want)
	}
	// The dead worker's id is gone: heartbeat and pull both say rejoin.
	if s.heartbeatFrom(w1) {
		t.Error("reaped worker heartbeat accepted")
	}
	if _, err := s.pullN(context.Background(), w1, 1); !errors.Is(err, errUnknownWorker) {
		t.Errorf("reaped worker pull err = %v, want errUnknownWorker", err)
	}
}

// A zombie's late post still resolves its chunk if nobody recomputed
// it yet — results are keyed by chunk id, not by who holds the chunk.
func TestSchedulerZombiePostAccepted(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	w2 := s.join("two").WorkerID
	addChunks(s, &batch{id: "b-1"}, 2)
	c := pullNow(t, s, w1)
	if c == nil {
		t.Fatal("no chunk")
	}
	now = now.Add(150 * time.Millisecond)
	s.heartbeatFrom(w2)
	s.reap() // w1 dead, chunk re-queued to w2

	// w1's post races the recompute and wins: accepted once.
	if got := s.complete(w1, c.id, 0); got != c {
		t.Fatalf("zombie post rejected: %v", got)
	}
	// w2 pulls the requeued copy but it is already resolved — skipped.
	if got := pullNow(t, s, w2); got != nil && got.id == c.id {
		t.Error("resolved chunk handed out again")
	}
	// A second post of the same chunk is stale.
	if got := s.complete(w2, c.id, 0); got != nil {
		t.Errorf("duplicate completion accepted: %v", got)
	}
}

// With every worker gone, reclaim hands a batch's chunks back for
// local evaluation — and reports nothing while any worker survives.
func TestSchedulerReclaim(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	b := &batch{id: "b-1"}
	addChunks(s, b, 3)
	if got := s.reclaim(b); got != nil {
		t.Fatalf("reclaim with a live worker returned %d chunks", len(got))
	}
	s.leave(w1)
	got := s.reclaim(b)
	if len(got) != 3 {
		t.Fatalf("reclaimed %d chunks, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].id >= got[i].id {
			t.Errorf("reclaim order not id-sorted: %d before %d", got[i-1].id, got[i].id)
		}
	}
	if st := s.stats(); st.Pending != 0 {
		t.Errorf("pending = %d after reclaim, want 0", st.Pending)
	}
}

// A chunk-level error result carries no elapsed_us: the chunk counts as
// done, but its pull-to-post interval, which measured no work, feeds
// neither the worker's throughput EWMA nor its latency ring.
func TestSchedulerErrorChunkTakesNoSample(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w := s.join("one").WorkerID
	addChunks(s, &batch{id: "b-1"}, 1)
	c := pullNow(t, s, w)
	if c == nil {
		t.Fatal("no chunk")
	}
	now = now.Add(50 * time.Millisecond)
	if got := s.complete(w, c.id, 0); got != c {
		t.Fatalf("complete = %v, want the pulled chunk", got)
	}
	ws := s.workers[w]
	if ws.ewmaPps != 0 || ws.lat.n != 0 {
		t.Errorf("error chunk sampled: ewma %.1f pps, %d latency samples; want none", ws.ewmaPps, ws.lat.n)
	}
	if ws.chunksDone != 1 {
		t.Errorf("chunks done = %d, want 1", ws.chunksDone)
	}
}

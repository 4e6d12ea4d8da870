package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testScheduler runs the test cadence (25ms heartbeats, so dead after
// 100ms of silence; 10ms polls); the fake clock makes liveness
// decisions explicit.
func testScheduler(now *time.Time) *scheduler {
	return newScheduler(25*time.Millisecond, 10*time.Millisecond, func() time.Time { return *now })
}

// addChunks registers a source of n one-point chunks for b: seeded at
// one point, pulls carve chunk ids 1..n in pull order.
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

// Chunks exist only once a worker pulls: joins and a registered source
// carve nothing, and a pull materializes only what it hands out.
func TestSchedulerCarvesOnlyOnPull(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	s.join("two")
	addChunks(s, &batch{id: "b-1"}, 100)
	if st := s.stats(); st.ChunksLive != 0 || st.Dispatched != 0 {
		t.Fatalf("before any pull: %d chunks live, %d dispatched; want none", st.ChunksLive, st.Dispatched)
	}
	got := pullUpTo(t, s, w1, 2)
	if len(got) != 2 || got[0].id != 1 || got[1].id != 2 {
		t.Fatalf("first pull = %v, want chunks 1 and 2", got)
	}
	if st := s.stats(); st.ChunksLive != 2 || st.InFlight != 2 {
		t.Errorf("after one pull: %d chunks live, %d in flight; want 2 and 2", st.ChunksLive, st.InFlight)
	}
}

// A worker holding maxWorkChunks chunks in flight gets nothing more
// until one of them completes — however much work is waiting.
func TestSchedulerCapsInFlightPerWorker(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	s.join("two")
	addChunks(s, &batch{id: "b-1"}, 20)
	held := pullUpTo(t, s, w1, maxWorkChunks+1)
	if len(held) != maxWorkChunks {
		t.Fatalf("first pull = %d chunks, want the cap %d", len(held), maxWorkChunks)
	}
	if got := pullUpTo(t, s, w1, 1); len(got) != 0 {
		t.Fatalf("pull at the cap handed out %d chunks, want 0", len(got))
	}
	s.complete(w1, held[0].id, 0)
	if got := pullUpTo(t, s, w1, maxWorkChunks); len(got) != 1 {
		t.Errorf("pull after one completion = %d chunks, want 1", len(got))
	}
}

// A silent worker is reaped and its in-flight chunks re-queue whole;
// the next pull gets them back in id order before any fresh carve.
func TestSchedulerReapRequeuesWhole(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	w2 := s.join("two").WorkerID
	addChunks(s, &batch{id: "b-1"}, 8)

	// w1 pulls chunks 1-3 and w2 chunk 4; then w1 goes silent while w2
	// keeps beating.
	if got := pullUpTo(t, s, w1, 3); len(got) != 3 {
		t.Fatalf("w1 pulled %d chunks, want 3", len(got))
	}
	if c := pullNow(t, s, w2); c == nil || c.id != 4 {
		t.Fatalf("w2 pull = %v, want chunk 4", c)
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
	if st.Requeued != 3 || st.Pending != 3 {
		t.Errorf("requeued %d, pending %d; want w1's 3 in-flight chunks for both", st.Requeued, st.Pending)
	}
	if st.InFlight != 1 {
		t.Errorf("in-flight = %d after evict, want w2's 1", st.InFlight)
	}
	s.complete(w2, 4, 0)
	var ids []uint64
	for _, c := range pullUpTo(t, s, w2, maxWorkChunks) {
		ids = append(ids, c.id)
	}
	if want := []uint64{1, 2, 3, 5}; !reflect.DeepEqual(ids, want) {
		t.Errorf("survivor pulled %v, want %v (re-queued in id order, then a fresh carve)", ids, want)
	}
	if st := s.stats(); st.Pending != 0 {
		t.Errorf("pending = %d after the survivor's pull, want 0", st.Pending)
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
	s.reap() // w1 dead, chunk re-queued

	// w1's post races the recompute and wins: accepted once.
	if got := s.complete(w1, c.id, 0); got != c {
		t.Fatalf("zombie post rejected: %v", got)
	}
	// The zombie post resolved the re-queued copy: w2 never gets it.
	if got := pullNow(t, s, w2); got != nil && got.id == c.id {
		t.Error("resolved chunk handed out again")
	}
	// A second post of the same chunk is stale.
	if got := s.complete(w2, c.id, 0); got != nil {
		t.Errorf("duplicate completion accepted: %v", got)
	}
}

// With every worker gone, reclaim hands a batch's chunks back for
// local evaluation — the re-queued ones in id order, then the uncarved
// remainder — and reports nothing while any worker survives.
func TestSchedulerReclaim(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	b := &batch{id: "b-1"}
	addChunks(s, b, 3)
	if got := pullUpTo(t, s, w1, 2); len(got) != 2 {
		t.Fatalf("pulled %d chunks, want 2", len(got))
	}
	if got := s.reclaim(b); got != nil {
		t.Fatalf("reclaim with a live worker returned %d chunks", len(got))
	}
	s.leave(w1)
	got := s.reclaim(b)
	if len(got) != 3 {
		t.Fatalf("reclaimed %d chunks, want 3", len(got))
	}
	if got[0].id != 1 || got[1].id != 2 {
		t.Errorf("reclaim starts with chunks %d, %d; want the re-queued 1, 2", got[0].id, got[1].id)
	}
	if !reflect.DeepEqual(got[2].indexes, []int{2}) {
		t.Errorf("reclaimed remainder = %v, want the uncarved index 2", got[2].indexes)
	}
	if st := s.stats(); st.Pending != 0 || st.ChunksLive != 0 {
		t.Errorf("after reclaim: %d pending, %d live; want 0 and 0", st.Pending, st.ChunksLive)
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

// Four workers pull and complete concurrently while a fifth, holding a
// full window, goes silent and is reaped mid-run: every index is
// resolved exactly once, the dead worker's chunks included, and no
// chunk is left live.
func TestSchedulerConcurrentPullsWithReap(t *testing.T) {
	var clock atomic.Int64 // fake nanoseconds, shared by every goroutine
	s := newScheduler(25*time.Millisecond, 10*time.Millisecond,
		func() time.Time { return time.Unix(0, clock.Load()) })
	const points = 3000
	live := make([]string, 4)
	for i := range live {
		live[i] = s.join(fmt.Sprintf("live-%d", i)).WorkerID
	}
	doomed := s.join("doomed").WorkerID
	s.addSource(&chunkSource{b: &batch{id: "b-1"}, runs: []span{{lo: 0, hi: points}}, seed: 5, remaining: points})
	held := pullUpTo(t, s, doomed, maxWorkChunks)
	if len(held) != maxWorkChunks {
		t.Fatalf("doomed worker pulled %d chunks, want %d", len(held), maxWorkChunks)
	}

	var counts [points]atomic.Int32
	var resolved atomic.Int64
	quarter := make(chan struct{})
	var quarterOnce sync.Once
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range live {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for resolved.Load() < points && ctx.Err() == nil {
				chunks, err := s.pullN(ctx, id, maxWorkChunks)
				if err != nil {
					if ctx.Err() == nil {
						t.Errorf("pull by %s: %v", id, err)
					}
					return
				}
				for _, c := range chunks {
					// 1 ms per point: adaptive chunks of ~40 points.
					if s.complete(id, c.id, int64(1000*len(c.indexes))) == nil {
						continue
					}
					for _, i := range c.indexes {
						counts[i].Add(1)
					}
					if resolved.Add(int64(len(c.indexes))) >= points/4 {
						quarterOnce.Do(func() { close(quarter) })
					}
				}
			}
		}(id)
	}
	// Once a quarter of the sweep is in, let the doomed worker's silence
	// cross the dead interval while the live four beat.
	select {
	case <-quarter:
	case <-ctx.Done():
	}
	clock.Add(int64(150 * time.Millisecond))
	for _, id := range live {
		s.heartbeatFrom(id)
	}
	s.reap()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		t.Fatalf("run did not finish: %d of %d points resolved", resolved.Load(), points)
	}

	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("index %d resolved %d times, want exactly once", i, n)
		}
	}
	st := s.stats()
	if st.Workers != 4 || st.Dead != 1 || st.Requeued != maxWorkChunks {
		t.Errorf("stats %+v, want 4 live, 1 dead, %d requeued", st, maxWorkChunks)
	}
	if st.ChunksLive != 0 || st.Pending != 0 || st.InFlight != 0 {
		t.Errorf("after the run: %d live, %d pending, %d in flight; want all 0",
			st.ChunksLive, st.Pending, st.InFlight)
	}
}

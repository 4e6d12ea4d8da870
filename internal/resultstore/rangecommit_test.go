package resultstore_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// maxFrameRecords is the cap on a claimed index range, and so on the
// records one range commit writes: the v2 block target.
const maxFrameRecords = 1024

// rangeSpec is a cold 3,024-point sweep: every registry app at 21
// footprint scales, on each mode, at six thread counts. Every point has
// its own key.
func rangeSpec() scenario.Spec {
	scales := make([]float64, 21)
	for i := range scales {
		scales[i] = 0.5 + 0.25*float64(i)
	}
	return scenario.Spec{
		Name:    "range-commit",
		Threads: []int{8, 16, 24, 32, 40, 48},
		Scales:  scales,
	}
}

func purley() *platform.Socket { return platform.NewPurley().Socket(0) }

// A batch over a disk store commits each claimed index range as one
// frame: the log holds fewer frames than records, none over the range
// cap, on one worker and on several. Reopened, the store re-serves
// every point as a hit, bit-identical to an in-memory run.
func TestRangeCommitFramesAndReplay(t *testing.T) {
	sp := rangeSpec()
	n := sp.Size()
	if n < 3000 {
		t.Fatalf("spec holds %d points, want at least 3,000", n)
	}
	want, err := sp.Run(engine.New(purley(), 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			d, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sp.Run(engine.NewWithStore(purley(), workers, d)); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			frames, torn := resultstore.WalkLogForTest(onlySegment(t, dir, ".log"))
			records := 0
			for _, fr := range frames {
				if fr.Err != nil {
					t.Fatalf("frame at %d: %v", fr.Off, fr.Err)
				}
				if len(fr.Recs) > maxFrameRecords {
					t.Errorf("frame at %d holds %d records, over the %d cap", fr.Off, len(fr.Recs), maxFrameRecords)
				}
				records += len(fr.Recs)
			}
			if torn || records != n {
				t.Fatalf("log holds %d records (torn=%v), want %d", records, torn, n)
			}
			if len(frames) >= records {
				t.Errorf("log holds %d frames for %d records, want fewer frames than records", len(frames), records)
			}

			re, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			eng := engine.NewWithStore(purley(), workers, re)
			got, err := sp.Run(eng)
			if err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); st.Hits != uint64(n) || st.Misses != 0 {
				t.Errorf("reopened run: %+v, want %d hits and no misses", st, n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("reopened run differs from an in-memory run")
			}
		})
	}
}

// A batch cancelled mid-range still commits the range it was in: the
// store persists exactly the points the done hook saw, no more and no
// fewer.
func TestRangeCommitOnCancel(t *testing.T) {
	_, jobs, err := rangeSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			d, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			seen := map[resultstore.Key]bool{}
			_, err = engine.NewWithStore(purley(), workers, d).RunBatchFunc(ctx, jobs, func(i int, _ workload.Result) {
				mu.Lock()
				defer mu.Unlock()
				seen[jobs[i].Key()] = true
				if len(seen) == 100 {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(seen) >= len(jobs) {
				t.Fatalf("done saw all %d points; the cancel landed too late", len(seen))
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Persisted(); got != len(seen) {
				t.Fatalf("store persisted %d points, done saw %d", got, len(seen))
			}
			for k := range seen {
				if e, loaded := re.Acquire(k); !loaded || !e.Seeded {
					t.Fatalf("point %+v that done saw was not persisted", k)
				}
			}
		})
	}
}

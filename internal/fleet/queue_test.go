package fleet

import "testing"

func mkChunks(b *batch, n int) []*chunk {
	out := make([]*chunk, n)
	for i := range out {
		out[i] = &chunk{b: b, indexes: []int{i}}
	}
	return out
}

func TestQueueFIFOAndStealEnds(t *testing.T) {
	var q chunkQueue
	cs := mkChunks(&batch{}, 5)
	for i, c := range cs {
		c.id = uint64(i + 1)
		q.push(c)
	}
	if q.len() != 5 {
		t.Fatalf("len = %d", q.len())
	}
	if c := q.popFront(); c.id != 1 {
		t.Errorf("front = %d, want 1 (oldest)", c.id)
	}
	if c := q.popBack(); c.id != 5 {
		t.Errorf("back = %d, want 5 (newest, the steal end)", c.id)
	}
	got := q.drain(nil)
	if len(got) != 3 || got[0].id != 2 || got[2].id != 4 {
		t.Errorf("drain = %v", got)
	}
	if q.popFront() != nil || q.popBack() != nil {
		t.Error("empty queue popped something")
	}
}

// The ring wraps: interleaved push/pop walks head around the buffer
// without losing order.
func TestQueueWraparound(t *testing.T) {
	var q chunkQueue
	next := uint64(1)
	pushN := func(n int) {
		for i := 0; i < n; i++ {
			q.push(&chunk{id: next})
			next++
		}
	}
	want := uint64(1)
	pushN(6)
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			c := q.popFront()
			if c.id != want {
				t.Fatalf("round %d: popped %d, want %d", round, c.id, want)
			}
			want++
		}
		pushN(4)
	}
}

// The scheduler hot path — push, pull, steal — allocates nothing once
// the rings reach their high-water mark (the issue's 0-alloc budget).
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	var q chunkQueue
	cs := mkChunks(&batch{}, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range cs {
			q.push(c)
		}
		for i := 0; i < 8; i++ {
			q.popFront()
		}
		for q.popBack() != nil {
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state queue ops allocate %.1f per run, want 0", allocs)
	}
}

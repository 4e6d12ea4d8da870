package engine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// Cached is the coordinator's dispatch probe: false until the point's
// result is committed, true after.
func TestCached(t *testing.T) {
	e := New(sock(), 2)
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.CachedNVM, Threads: 48}
	if e.Cached(job.Key()) {
		t.Error("fresh engine reports a cached point")
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if !e.Cached(job.Key()) {
		t.Error("evaluated point not reported cached")
	}
	// An identical job value probes the same slot.
	if !e.Cached(Job{Workload: dwarfs.All()[0].New(), Mode: memsys.CachedNVM, Threads: 48}.Key()) {
		t.Error("content-identical job not reported cached")
	}
}

// CommitRemote lands a worker-computed result in the coordinator's
// store exactly as a local Run would: later Runs are hits with the
// identical result, workload descriptor reattached.
func TestCommitRemoteMatchesLocalRun(t *testing.T) {
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.UncachedNVM, Threads: 24}

	worker := New(sock(), 1)
	want, err := worker.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// The wire strips the workload descriptor (it re-derives from the
	// job); CommitRemote must reattach it.
	wire := want
	wire.Workload = nil

	var tally Tally
	job.Tally = &tally
	coord := New(sock(), 1)
	got, err := coord.CommitRemote(job, job.Key(), wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CommitRemote result differs from local run:\n%+v\n%+v", got, want)
	}
	hit, err := coord.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit, want) {
		t.Error("post-commit Run differs from the committed result")
	}
	if s := coord.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want the commit as the miss and the Run as a hit", s)
	}
	if s := tally.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("job tally = %+v, want the commit's miss and the Run's hit", s)
	}
	if !coord.Cached(job.Key()) {
		t.Error("committed point not reported cached")
	}
}

// A remote failure commits as the point's error, shared by every later
// acquire — identical to a local evaluation failing.
func TestCommitRemoteError(t *testing.T) {
	e := New(sock(), 1)
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.DRAMOnly, Threads: 48}
	boom := errors.New("worker exploded")
	if _, err := e.CommitRemote(job, job.Key(), workload.Result{}, boom); !errors.Is(err, boom) {
		t.Fatalf("CommitRemote err = %v, want the remote error", err)
	}
	if _, err := e.Run(job); err == nil || err.Error() != boom.Error() {
		t.Errorf("Run after failed commit = %v, want the committed error", err)
	}
}

// CommitRemote races Run safely: whoever claims the entry first wins,
// and both observers see the winner's result.
func TestCommitRemoteRacesRun(t *testing.T) {
	e := New(sock(), 4)
	job := Job{Workload: dwarfs.All()[0].New(), Mode: memsys.CachedNVM, Threads: 24}
	local, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// A late remote commit of a different value is discarded: the store
	// already holds the local result.
	wire := local
	wire.Workload = nil
	wire.Time = wire.Time * 2
	got, err := e.CommitRemote(job, job.Key(), wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, local) {
		t.Error("late CommitRemote overwrote the committed result")
	}
}

func TestCommitRemoteNilWorkload(t *testing.T) {
	e := New(sock(), 1)
	if _, err := e.CommitRemote(Job{Threads: 48}, Key{}, workload.Result{}, nil); err == nil {
		t.Fatal("nil-workload commit accepted")
	}
}

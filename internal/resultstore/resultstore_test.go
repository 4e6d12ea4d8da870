package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/workload"
)

// solved returns a real evaluated result (descriptor stripped, as stores
// persist them) and its cache key for the i-th registry app.
func solved(t testing.TB, i int, mode memsys.Mode, threads int) (Key, workload.Result) {
	t.Helper()
	entries := dwarfs.All()
	e := entries[i%len(entries)]
	w := e.New()
	sys := memsys.New(platform.NewPurley().Socket(0), mode)
	res, err := workload.Run(w, sys, threads)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{App: w.Name, Fingerprint: w.Fingerprint(), Mode: mode, Threads: threads}
	res.Workload = nil
	return k, res
}

func TestMemoryAcquireSingleflight(t *testing.T) {
	m := NewMemory()
	k, res := solved(t, 0, memsys.CachedNVM, 48)
	e1, loaded := m.Acquire(k)
	if loaded {
		t.Fatal("first Acquire reported loaded")
	}
	e1.Once.Do(func() { e1.Res = res })
	e2, loaded := m.Acquire(k)
	if !loaded || e2 != e1 {
		t.Fatal("second Acquire did not return the existing entry")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	other := k
	other.Threads = 24
	if _, loaded := m.Acquire(other); loaded {
		t.Fatal("distinct key reported loaded")
	}
}

func TestDiskPersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type pt struct {
		k   Key
		res workload.Result
	}
	var pts []pt
	for i := 0; i < 3; i++ {
		k, res := solved(t, i, memsys.UncachedNVM, 48)
		pts = append(pts, pt{k, res})
		e, loaded := d.Acquire(k)
		if loaded {
			t.Fatalf("point %d loaded in a fresh store", i)
		}
		e.Once.Do(func() { e.Res = res })
		d.Commit(k, res, nil)
	}
	if d.Persisted() != 3 {
		t.Fatalf("persisted = %d, want 3", d.Persisted())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 || re.Persisted() != 3 {
		t.Fatalf("reloaded Len=%d Persisted=%d, want 3/3", re.Len(), re.Persisted())
	}
	for i, p := range pts {
		e, loaded := re.Acquire(p.k)
		if !loaded || !e.Seeded {
			t.Fatalf("point %d not restored as a seeded hit", i)
		}
		if !reflect.DeepEqual(e.Res, p.res) {
			t.Errorf("point %d round-tripped inexactly:\n got %+v\nwant %+v", i, e.Res, p.res)
		}
	}
}

func TestDiskFailedEvaluationsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := solved(t, 0, memsys.DRAMOnly, 48)
	d.Commit(k, res, os.ErrInvalid)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Persisted() != 0 {
		t.Fatalf("failed evaluation persisted: %d records", re.Persisted())
	}
}

// A crash mid-append leaves a torn final frame; Open must load
// everything before it.
func TestDiskToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := solved(t, 0, memsys.CachedNVM, 24)
	d.Commit(k, res, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segment-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Half a second copy of the frame: its header declares more payload
	// than the file holds.
	if err := os.WriteFile(last, append(data, data[:len(data)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("truncated tail rejected: %v", err)
	}
	defer re.Close()
	if re.Persisted() != 1 {
		t.Fatalf("persisted = %d, want the 1 intact record", re.Persisted())
	}
	if _, loaded := re.Acquire(k); !loaded {
		t.Fatal("intact record not restored")
	}
}

// Mid-file corruption is data loss and must fail loudly, naming the file.
func TestDiskRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		k, res := solved(t, i, memsys.CachedNVM, 48)
		d.Commit(k, res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.log"))
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[frameOverhead] ^= 0xff // inside the first frame's payload: its CRC fails
	if err := os.WriteFile(segs[len(segs)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "segment-") {
		t.Fatalf("corrupt segment loaded silently (err = %v)", err)
	}
}

func TestDiskCompact(t *testing.T) {
	dir := t.TempDir()
	// Three generations of appends: three segments.
	var keys []Key
	for gen := 0; gen < 3; gen++ {
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		k, res := solved(t, gen, memsys.UncachedNVM, 24)
		keys = append(keys, k)
		d.Commit(k, res, nil)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected >= 3 segments before compaction, have %d", len(segs))
	}

	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	// One compacted v2 segment and no log segment.
	v2segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.seg"))
	if len(v2segs) != 1 {
		t.Fatalf("v2 segments after compaction = %d, want 1", len(v2segs))
	}
	segs, _ = filepath.Glob(filepath.Join(dir, "segment-*.log"))
	if len(segs) != 0 {
		t.Fatalf("log segments after compaction = %d, want 0", len(segs))
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Persisted() != 3 {
		t.Fatalf("persisted after compaction = %d, want 3", d.Persisted())
	}
	// The store keeps serving and accepting appends after compaction.
	k, res := solved(t, 3, memsys.DRAMOnly, 48)
	d.Commit(k, res, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Persisted() != 4 {
		t.Fatalf("persisted after reload = %d, want 4", re.Persisted())
	}
	for i, k := range keys {
		if _, loaded := re.Acquire(k); !loaded {
			t.Errorf("key %d lost by compaction", i)
		}
	}
}

// Duplicate keys across segments (two processes racing on one store, or
// pre-compaction history) resolve to the newest record.
func TestDiskLaterRecordWins(t *testing.T) {
	dir := t.TempDir()
	k, res := solved(t, 0, memsys.CachedNVM, 48)

	d1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1.Commit(k, res, nil)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	newer := res
	newer.Slowdown = res.Slowdown * 2
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2.Commit(k, newer, nil)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Persisted() != 1 {
		t.Fatalf("persisted = %d, want 1 (deduped)", re.Persisted())
	}
	e, loaded := re.Acquire(k)
	if !loaded || e.Res.Slowdown != newer.Slowdown {
		t.Fatalf("older record won: slowdown %v, want %v", e.Res.Slowdown, newer.Slowdown)
	}
}

// One process at a time: the segments are single-writer, so a second
// live handle on the same directory must be refused loudly rather than
// risk interleaved appends or compaction deleting the active segment.
func TestDiskSingleProcessLock(t *testing.T) {
	dir := t.TempDir()
	d1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("concurrent Open succeeded (err = %v), want in-use refusal", err)
	}
	// Compaction, an offline pass, refuses the held directory too, and
	// changes no file.
	files := listFiles(t, dir)
	if err := Compact(dir); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("Compact of a held store = %v, want in-use refusal", err)
	}
	if after := listFiles(t, dir); !reflect.DeepEqual(after, files) {
		t.Fatalf("refused Compact changed the directory: %v, then %v", files, after)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the store for the next process.
	d2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close refused: %v", err)
	}
	d2.Close()
}

// Commit writes each record as exactly the block frame of a one-record
// v2 block: the append log and compacted segments share one codec.
func TestCommitWritesBlockFrames(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 3; i++ {
		k, res := SyntheticRecord(i)
		d.Commit(k, res, nil)
		want = appendFrame(want, seg2FrameBlock, encodeBlock([]Record{{k, res}}))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.log"))
	if len(segs) != 1 {
		t.Fatalf("log segments = %v, want 1", segs)
	}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log holds %d bytes, want the %d bytes of three block frames", len(got), len(want))
	}
}

// Commit encodes into a pooled frame buffer outside the store lock and
// writes the frame in one call, so in steady state it allocates at most
// 2 objects per record.
func TestCommitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	k, res := SyntheticRecord(1)
	for i := 0; i < 8; i++ {
		d.Commit(k, res, nil) // grow the pooled encoder to the record's shape
	}
	if allocs := testing.AllocsPerRun(200, func() { d.Commit(k, res, nil) }); allocs > 2 {
		t.Errorf("Commit allocates %.1f objects per record, want <= 2", allocs)
	}
	if err := d.Degraded(); err != nil {
		t.Fatal(err)
	}
}

// A range commit encodes its run of records into the same pooled frame
// buffer and writes it in one call, so in steady state a 1,024-record
// CommitBatch allocates no more than one Commit: nothing per record.
func TestRangeCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	recs := make([]Record, 1024)
	for i := range recs {
		recs[i].Key, recs[i].Res = SyntheticRecord(i)
	}
	for i := 0; i < 4; i++ {
		d.CommitBatch(recs) // grow the pooled encoder to a full range
	}
	if allocs := testing.AllocsPerRun(20, func() { d.CommitBatch(recs) }); allocs > 2 {
		t.Errorf("CommitBatch allocates %.1f objects per %d records, want <= 2", allocs, len(recs))
	}
	if err := d.Degraded(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Persisted(), 25*len(recs); got != want {
		t.Errorf("Persisted = %d, want %d", got, want)
	}
}

// A directory an older release appended JSON lines to does not open.
// This release reads no JSON, and the error says so and that deleting
// the directory recomputes its points. Stat, which runs Open's loader,
// refuses it with the same error; Verify leaves the segment where it
// is, without quarantining it.
func TestOpenRefusesJSONLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "segment-00000001.jsonl")
	line := []byte(`{"v":1,"key":{"App":"HACC","Threads":48},"result":{}}` + "\n")
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open on a JSON-lines segment succeeded")
	}
	for _, want := range []string{"JSON-lines", "does not read", "deleting the directory recomputes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open error %q does not say %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "-store-compact") {
		t.Errorf("Open error %q points at an import that no longer exists", err)
	}
	if _, serr := Stat(dir); serr == nil || serr.Error() != err.Error() {
		t.Errorf("Stat error %v, want Open's refusal %q", serr, err)
	}
	if cerr := Compact(dir); cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("Compact error %v, want Open's refusal %q", cerr, err)
	}
	rep, err := Verify(dir)
	if err != nil || rep.SegmentsOK != 0 || rep.RecordsOK != 0 || len(rep.Quarantined) != 0 || rep.Salvaged != 0 {
		t.Errorf("Verify = %+v, %v; want nothing scrubbed", rep, err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, line) {
		t.Errorf("JSON-lines segment not left in place: %q, %v", got, err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "segment-*")); len(segs) != 1 {
		t.Errorf("segment files after Open, Stat, Compact and Verify = %v, want only the JSON-lines one", segs)
	}
}

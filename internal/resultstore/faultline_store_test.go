package resultstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultline"
)

// commitSynthetic opens the store dir over fs, commits records [0,n)
// of the synthetic population, and closes it, ignoring degradation.
func commitSynthetic(t *testing.T, dir string, fs faultline.FS, n int) {
	t.Helper()
	d, err := OpenFS(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k, res := SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	d.Close()
}

// requireHits asserts records [0,n) of the synthetic population are
// seeded hits that round-trip exactly.
func requireHits(t *testing.T, d *Disk, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k, res := SyntheticRecord(i)
		e, loaded := d.Acquire(k)
		if !loaded || !e.Seeded {
			t.Fatalf("record %d not restored as a seeded hit", i)
		}
		if !reflect.DeepEqual(e.Res, res) {
			t.Fatalf("record %d round-tripped inexactly", i)
		}
	}
}

// A failed append flips the store into read-only degraded mode: later
// commits are disk no-ops, the process keeps serving from memory,
// Degraded/Stats surface it, Close returns the original error — and a
// restart still loads everything persisted before the fault.
func TestAppendFaultDegradesReadOnly(t *testing.T) {
	dir := t.TempDir()
	// Fail the 4th write to the log segment (writes 1-3 are records 0-2;
	// lockDir bypasses the seam, so only segment I/O counts).
	in := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpWrite, Path: ".log", Nth: 4},
	}})
	d, err := OpenFS(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		k, res := SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	if err := d.Degraded(); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("Degraded() = %v, want injected fault", err)
	}
	if !d.Stats().Degraded {
		t.Fatal("Stats().Degraded = false after append fault")
	}
	if got := d.Persisted(); got != 3 {
		t.Fatalf("Persisted = %d after fault, want 3", got)
	}
	// The in-memory side still serves every committed record.
	if err := d.Close(); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("Close() = %v, want the sticky injected fault", err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Persisted() != 3 {
		t.Fatalf("reloaded Persisted = %d, want 3", re.Persisted())
	}
	requireHits(t, re, 3)
	if err := re.Degraded(); err != nil {
		t.Fatalf("fresh store reports degraded: %v", err)
	}
	if re.Stats().Degraded {
		t.Fatal("fresh store Stats().Degraded = true")
	}
}

// A short (torn) write mid-append leaves a torn final frame; because
// append errors are sticky, the torn record is always the segment's
// last, and Open drops exactly it — even when later restarts have
// stacked newer segments on top.
func TestShortWriteTornTailAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	in := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpWrite, Path: ".log", Nth: 3, Kind: faultline.Short},
	}})
	d, err := OpenFS(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		k, res := SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	d.Close() // returns the sticky fault; records 0,1 persisted, 2 torn

	// A later clean run appends more records in a newer segment, so the
	// torn segment is no longer the newest when the store next loads.
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		k, res := SyntheticRecord(i)
		d2.Commit(k, res, nil)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireHits(t, re, 2)
	for i := 5; i < 8; i++ {
		k, _ := SyntheticRecord(i)
		if _, loaded := re.Acquire(k); !loaded {
			t.Fatalf("record %d from the later run missing", i)
		}
	}
	k, _ := SyntheticRecord(2)
	if _, loaded := re.Acquire(k); loaded {
		t.Fatal("torn record 2 was decoded")
	}
}

// Verify quarantines a log segment with a corrupt frame mid-file,
// salvages the records of every other frame, and leaves the store
// openable again.
func TestVerifyQuarantinesCorruptLog(t *testing.T) {
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, 5)
	segs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 1's frame: the frame stays whole, so
	// the walk steps over it, but its CRC fails.
	_, _, first, err := parseFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	data[first+frameOverhead] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted mid-file corruption")
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Salvaged != 4 {
		t.Fatalf("report = %+v, want 1 quarantine, 4 salvaged", rep)
	}
	st, err := Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 {
		t.Fatalf("Stat().Quarantined = %d, want 1", st.Quarantined)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Verify: %v", err)
	}
	defer re.Close()
	requireHits(t, re, 1)
	k, _ := SyntheticRecord(1)
	if _, loaded := re.Acquire(k); loaded {
		t.Fatal("corrupt record 1 was decoded")
	}
	for i := 2; i < 5; i++ {
		k, _ := SyntheticRecord(i)
		if _, loaded := re.Acquire(k); !loaded {
			t.Fatalf("salvaged record %d missing", i)
		}
	}
}

// Verify quarantines a v2 segment with a corrupt block and salvages
// the intact blocks.
func TestVerifyQuarantinesCorruptV2Block(t *testing.T) {
	dir := t.TempDir()
	corruptBlockStore(t, dir)

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("report = %+v, want the v2 segment quarantined", rep)
	}
	if rep.Salvaged != 8 {
		t.Fatalf("salvaged %d records, want the 8 from intact blocks", rep.Salvaged)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	hits := 0
	for i := 0; i < 12; i++ {
		k, _ := SyntheticRecord(i)
		if _, loaded := re.Acquire(k); loaded {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("reopened store serves %d records, want 8 salvaged", hits)
	}
}

// Verify on a healthy store (log appends plus a compacted v2 segment)
// reports every segment clean and quarantines nothing.
func TestVerifyCleanStore(t *testing.T) {
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, 6)
	compactStore(t, dir)
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		k, res := SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 || rep.Salvaged != 0 {
		t.Fatalf("clean store report = %+v", rep)
	}
	if rep.SegmentsOK != 2 || rep.RecordsOK != 9 {
		t.Fatalf("report = %+v, want 2 segments / 9 records ok", rep)
	}
}

// A pre-compaction log numbered below an intact v2 segment is a
// leftover of a compaction interrupted before its deletes: the segment
// already holds its records, and Open leaves it unread. Verify deletes
// it once the segment's blocks decode, even when one of its frames is
// corrupt, rather than salvage its records into a log above the
// segment, where every reopen would count them a second time.
func TestVerifyDropsLogSupersededByCompaction(t *testing.T) {
	const n, leftover = 216, 10
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, n)
	compactStore(t, dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	seq, _, _ := parseSegName(filepath.Base(segs[0]))
	recs := make([]Record, leftover)
	for i := range recs {
		recs[i].Key, recs[i].Res = SyntheticRecord(i)
	}
	stale := filepath.Join(dir, logName(seq-1))
	if err := writeLog(faultline.OS{}, stale, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(stale)
	if err != nil {
		t.Fatal(err)
	}
	_, _, first, err := parseFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	data[first+frameOverhead] ^= 0xff // record 1's frame stays whole but fails its CRC
	if err := os.WriteFile(stale, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 || rep.Salvaged != 0 || rep.RecordsOK != n {
		t.Errorf("report = %+v, want no quarantine, no salvage, %d records ok", rep, n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("superseded log still present after Verify (stat: %v)", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, st := re.Persisted(), re.Stats(); got != n || st.Records != n {
		t.Errorf("reopened store: Persisted %d, Stats().Records %d, want %d distinct keys", got, st.Records, n)
	}
	requireHits(t, re, n)
}

// Open trusts a compacted segment's index without decoding its blocks,
// so it must not delete the pre-compaction log left below the segment:
// with one block corrupt, that log holds the only intact copy of the
// block's records. Verify decodes every block, quarantines the segment
// and keeps the log, and the store then serves every record.
func TestOpenKeepsLogUnderCorruptBlock(t *testing.T) {
	const n = 3000
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, n)
	log := filepath.Join(dir, logName(1))
	logData, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	compactStore(t, dir)
	if st, err := Stat(dir); err != nil || st.Blocks != 3 {
		t.Fatalf("Stat = %+v, %v; want three blocks", st, err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, _, first, err := parseFrame(seg[len(seg2FileMagic):])
	if err != nil {
		t.Fatal(err)
	}
	seg[len(seg2FileMagic)+first+frameOverhead] ^= 0xff // inside the middle block's payload
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, logData, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := os.Stat(log); err != nil {
		t.Errorf("Open deleted the log under the corrupt block: %v", err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	served := 0
	for i := 0; i < n; i++ {
		k, res := SyntheticRecord(i)
		if e, loaded := re.Acquire(k); loaded && reflect.DeepEqual(e.Res, res) {
			served++
		}
	}
	if served != n {
		t.Errorf("after Verify the store serves %d of %d records", served, n)
	}
}

// A torn compaction rename — the temp+rename discipline failing so a
// truncated v2 segment lands at the top sequence — must not lose data:
// Compact reports the failure and leaves the log segments intact, and
// the next Open keeps the pre-compaction segments as a seed layer.
func TestTornCompactRenameKeepsLog(t *testing.T) {
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, 10)

	in := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpRename, Path: ".seg", Nth: 1, Kind: faultline.Torn},
	}})
	if err := CompactFS(dir, in); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("Compact = %v, want injected rename fault", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName(1))); err != nil {
		t.Fatalf("failed Compact removed the log: %v", err)
	}

	// The torn .seg now outranks every log segment. Open must detect the
	// damage and fall back to the kept log segments for the full set.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireHits(t, re, 10)
}

// Compact writes what Open serves. Over a torn compacted segment that
// includes the pre-compaction log segments Open keeps as the fallback
// layer, so compacting such a store must keep every point, not only the
// torn segment's intact blocks (none here).
func TestCompactKeepsTornSegmentFallback(t *testing.T) {
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, 10)
	in := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpRename, Path: ".seg", Nth: 1, Kind: faultline.Torn},
	}})
	if err := CompactFS(dir, in); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("Compact = %v, want injected rename fault", err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireHits(t, re, 10)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	compactStore(t, dir)

	after, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if got := after.Persisted(); got != 10 {
		t.Fatalf("Persisted = %d after compacting the fallback layer, want 10", got)
	}
	requireHits(t, after, 10)
}

// corruptBlockStore writes 12 records into dir, compacts them into a v2
// segment of 4-record blocks and flips a byte inside the first block,
// returning the segment's path and its damaged bytes.
func corruptBlockStore(t *testing.T, dir string) (seg string, data []byte) {
	t.Helper()
	defer SetBlockSizeForTest(4)()
	commitSynthetic(t, dir, nil, 12)
	compactStore(t, dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(seg2FileMagic)+20] ^= 0xff // inside the first block frame
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	return segs[0], data
}

// A v2 block that fails its CRC fails Compact, which leaves every file
// in place, so the intact blocks and the log keep serving.
func TestCompactRefusesCorruptBlock(t *testing.T) {
	dir := t.TempDir()
	seg, data := corruptBlockStore(t, dir)

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 14; i++ {
		k, res := SyntheticRecord(i)
		re.Commit(k, res, nil)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	files := listFiles(t, dir)
	if err := Compact(dir); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("Compact = %v, want the corrupt block's CRC error", err)
	}
	if after := listFiles(t, dir); !reflect.DeepEqual(after, files) {
		t.Fatalf("failed Compact changed the directory: %v, then %v", files, after)
	}
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("failed Compact changed the v2 segment (read: %v)", err)
	}

	after, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	hits := 0
	for i := 0; i < 12; i++ {
		k, _ := SyntheticRecord(i)
		if _, loaded := after.Acquire(k); loaded {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("reopened store serves %d compacted records, want the 8 of the intact blocks", hits)
	}
	for i := 12; i < 14; i++ {
		k, _ := SyntheticRecord(i)
		if _, loaded := after.Acquire(k); !loaded {
			t.Fatalf("log record %d lost by the failed Compact", i)
		}
	}
}

// A fault while writing the compaction temp file fails Compact, cleans
// up the temp file, and leaves the store as it was: fully serving and
// appendable.
func TestCompactWriteFaultCleansTmp(t *testing.T) {
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, 6)
	files := listFiles(t, dir)
	in := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpWrite, Path: "compact.tmp", Nth: 1},
	}})
	if err := CompactFS(dir, in); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("Compact = %v, want injected write fault", err)
	}
	if after := listFiles(t, dir); !reflect.DeepEqual(after, files) {
		t.Fatalf("failed Compact changed the directory: %v, then %v", files, after)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	requireHits(t, d, 6)
	k, res := SyntheticRecord(6)
	d.Commit(k, res, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireHits(t, re, 7)
}

// A lazy v2 block whose read fails marks the store degraded and turns
// the block's records into recomputable misses instead of errors.
func TestLazyBlockReadFaultDegrades(t *testing.T) {
	defer SetBlockSizeForTest(4)()
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, 12)
	compactStore(t, dir)

	// Reads of the .seg during Open are magic (1), trailer (2) and index
	// (3); the 4th is the first lazy block fault-in — fail exactly it.
	in := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpRead, Path: ".seg", Nth: 4},
	}})
	re, err := OpenFS(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	misses := 0
	for i := 0; i < 12; i++ {
		k, _ := SyntheticRecord(i)
		if _, loaded := re.Acquire(k); !loaded {
			misses++
		}
	}
	if misses != 4 {
		t.Fatalf("%d misses, want exactly the 4 records of the unreadable block", misses)
	}
	if err := re.Degraded(); !errors.Is(err, faultline.ErrInjected) {
		t.Fatalf("Degraded() = %v, want injected fault", err)
	}
	if !re.Stats().Degraded {
		t.Fatal("Stats().Degraded = false after block read fault")
	}
}

// The live Stats touches no file — the health probe calls it on every
// poll, so its cost must not grow with the store — yet matches an
// offline Stat of the same directory exactly, bytes and quarantined
// segments included.
func TestLiveStatsReadsNoSegment(t *testing.T) {
	dir := t.TempDir()
	commitSynthetic(t, dir, nil, 12)
	compactStore(t, dir)
	if err := os.WriteFile(filepath.Join(dir, logName(1)+quarantineSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 20; i++ {
		k, res := SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Every open or read of a segment file, and every directory listing,
	// through the seam fires a (harmless) rule, so the injector's event
	// log counts them.
	in := faultline.New(faultline.Plan{Rules: []faultline.Rule{
		{Op: faultline.OpRead, Path: "segment-", Prob: 1, Kind: faultline.Delay, DelayMs: 1e-6},
		{Op: faultline.OpOpen, Path: "segment-", Prob: 1, Kind: faultline.Delay, DelayMs: 1e-6},
		{Op: faultline.OpReadDir, Prob: 1, Kind: faultline.Delay, DelayMs: 1e-6},
	}})
	re, err := OpenFS(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 20; i < 25; i++ {
		k, res := SyntheticRecord(i)
		re.Commit(k, res, nil)
	}
	before := len(in.Events())
	live := re.Stats()
	if n := len(in.Events()) - before; n != 0 {
		t.Fatalf("live Stats touched the store's files %d times: %+v", n, in.Events()[before:])
	}
	offline, err := Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if live != offline {
		t.Fatalf("live stats differ from the directory's:\n live    %+v\n offline %+v", live, offline)
	}
	if live.Records != 25 || live.RecordsV2 != 12 || live.RecordsLog != 13 || live.Quarantined != 1 {
		t.Fatalf("live stats %+v, want 25 records: 12 compacted + 13 in the log, and 1 quarantined segment", live)
	}
}

// Stat is Open's loader run read-only. On every kind of directory it
// fails exactly when Open does, with Open's error, and otherwise reports
// what the opened store's Stats do, less the empty log segment Open
// starts for its appends. It renames, resizes and deletes no file, and
// creates no directory: a missing one, which Open creates, is the one
// place Stat fails where Open does not.
func TestStatMatchesOpen(t *testing.T) {
	const n = 16
	// compactOverLog compacts n records and puts their log back below the
	// compacted segment, as an interrupted compaction cleanup leaves it;
	// tear truncates the segment to 64 bytes as well.
	compactOverLog := func(t *testing.T, dir string, tear bool) {
		commitSynthetic(t, dir, nil, n)
		log := filepath.Join(dir, logName(1))
		data, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		compactStore(t, dir)
		segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
		if len(segs) != 1 {
			t.Fatalf("segments = %v", segs)
		}
		if tear {
			if err := os.Truncate(segs[0], 64); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(log, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile := func(t *testing.T, path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		build   func(t *testing.T, dir string)
		records int // Open serves, when it opens
	}{
		{"log only", func(t *testing.T, dir string) { commitSynthetic(t, dir, nil, n) }, n},
		{"one key in two logs", func(t *testing.T, dir string) {
			commitSynthetic(t, dir, nil, n)
			commitSynthetic(t, dir, nil, 1)
		}, n},
		{"compacted", func(t *testing.T, dir string) {
			commitSynthetic(t, dir, nil, n)
			compactStore(t, dir)
		}, n},
		{"compacted under a newer log", func(t *testing.T, dir string) {
			commitSynthetic(t, dir, nil, n)
			compactStore(t, dir)
			commitSynthetic(t, dir, nil, n+4)
		}, n + n + 4}, // a log record overriding a compacted one counts again
		{"superseded log", func(t *testing.T, dir string) { compactOverLog(t, dir, false) }, n},
		{"torn segment", func(t *testing.T, dir string) { compactOverLog(t, dir, true) }, n},
		{"corrupt block", func(t *testing.T, dir string) { corruptBlockStore(t, dir) }, 12},
		{"block-less segment", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, seg2Name(1)), CraftedSegmentForTest(1<<40))
		}, 0},
		{"JSON-lines", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, "segment-00000001.jsonl"), []byte(`{"v":1}`+"\n"))
		}, 0},
		{"4-byte segment", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, seg2Name(1)), []byte(seg2FileMagic[:4]))
		}, 0},
		{"missing directory", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.build == nil {
				dir = filepath.Join(dir, "missing")
			} else {
				tc.build(t, dir)
			}
			files := listFiles(t, dir)
			st, statErr := Stat(dir)
			if after := listFiles(t, dir); !reflect.DeepEqual(after, files) {
				t.Errorf("Stat changed the directory: %v, then %v", files, after)
			}
			d, err := Open(dir)
			switch {
			case files == nil:
				if !errors.Is(statErr, os.ErrNotExist) || err != nil {
					t.Errorf("Stat error %v, Open error %v; want not-exist, then a created store", statErr, err)
				}
			case (statErr == nil) != (err == nil) || statErr != nil && statErr.Error() != err.Error():
				t.Errorf("Stat error %v, Open error %v; want the same", statErr, err)
			}
			if err != nil {
				return
			}
			want := d.Stats()
			d.Close()
			if want.Records != tc.records {
				t.Errorf("Open serves %d records, want %d", want.Records, tc.records)
			}
			want.SegmentsLog-- // the empty segment Open started for appends
			if statErr == nil && st != want {
				t.Errorf("Stat differs from the opened store's Stats:\n stat %+v\n open %+v", st, want)
			}
		})
	}
}

// compactStore compacts dir.
func compactStore(t *testing.T, dir string) {
	t.Helper()
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
}

// listFiles maps each file in dir to its size; nil when dir is missing.
func listFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]int64, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = fi.Size()
	}
	return files
}

// Every shipped fault plan must stay live: each of its rules has to
// match real store I/O, or a chaos drill that loads the plan passes
// without injecting anything. A small store workload runs under each
// plan until every rule has fired.
func TestFaultPlansFire(t *testing.T) {
	paths, err := filepath.Glob("../../faultplans/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fault plans found (%v)", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			plan, err := faultline.LoadPlan(path)
			if err != nil {
				t.Fatal(err)
			}
			in := faultline.New(plan)
			dir := t.TempDir()
			fired := make([]bool, len(plan.Rules))
			for round, missing := 0, len(plan.Rules); round < 20 && missing > 0; round++ {
				storeWorkload(dir, in, round)
				for _, ev := range in.Events() {
					if !fired[ev.Rule] {
						fired[ev.Rule] = true
						missing--
					}
				}
			}
			for i, ok := range fired {
				if !ok {
					t.Errorf("rule %d %+v never fired", i, plan.Rules[i])
				}
			}
		})
	}
}

// storeWorkload runs one round of every kind of store I/O over fs:
// appends, a reopen that replays them, a compaction, a scrub and a stat.
// Injected faults make steps fail; the workload carries on regardless.
func storeWorkload(dir string, fs faultline.FS, round int) {
	if d, err := OpenFS(dir, fs); err == nil {
		for i := 0; i < 100; i++ {
			k, res := SyntheticRecord(round*100 + i)
			d.Commit(k, res, nil)
		}
		d.Close()
	}
	if d, err := OpenFS(dir, fs); err == nil {
		d.Close()
	}
	CompactFS(dir, fs)
	VerifyFS(dir, fs)
	StatFS(dir, fs)
}

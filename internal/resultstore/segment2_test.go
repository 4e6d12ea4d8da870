package resultstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/workload"
)

// encodeBlock renders one record run as a columnar payload.
func encodeBlock(recs []Record) []byte {
	var e blockEncoder
	return e.appendPayload(make([]byte, 0, 64*len(recs)), recs)
}

func TestParseSegName(t *testing.T) {
	cases := []struct {
		name string
		seq  int
		kind int
		ok   bool
	}{
		{"segment-00000001.log", 1, kindLog, true},
		{"segment-00000042.log", 42, kindLog, true},
		{"segment-00000001.seg", 1, kindSeg, true},
		{"segment-99999999.seg", 99999999, kindSeg, true},
		{"segment-00000007.jsonl", 7, kindJSONL, true},
		// Near misses a Sscanf prefix match used to accept.
		{"segment-00000001.log.bak", 0, 0, false},
		{"segment-00000001.log~", 0, 0, false},
		{"segment-00000001.logx", 0, 0, false},
		{"segment-00000001.segx", 0, 0, false},
		{"segment-00000001.seg.tmp", 0, 0, false},
		{"segment-00000001.jsonl.bak", 0, 0, false},
		// Wrong digit counts, signs, or stray characters.
		{"segment-0000001.log", 0, 0, false},
		{"segment-000000001.log", 0, 0, false},
		{"segment-+0000001.log", 0, 0, false},
		{"segment--0000001.log", 0, 0, false},
		{"segment-0000000a.log", 0, 0, false},
		{"segment-00000001.lo", 0, 0, false},
		{"segment-00000001", 0, 0, false},
		{"segment-.log", 0, 0, false},
		{"Segment-00000001.log", 0, 0, false},
		{"xsegment-00000001.log", 0, 0, false},
		{"compact.tmp", 0, 0, false},
		{"LOCK", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		seq, kind, ok := parseSegName(c.name)
		if ok != c.ok || seq != c.seq || kind != c.kind {
			t.Errorf("parseSegName(%q) = (%d, %d, %v), want (%d, %d, %v)",
				c.name, seq, kind, ok, c.seq, c.kind, c.ok)
		}
	}
}

// Stray near-miss files in a store directory must not load as segments.
func TestDiskIgnoresNearMissFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := solved(t, 0, memsys.CachedNVM, 48)
	d.Commit(k, res, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A backup copy with garbage content: a prefix match would load it
	// and fail; an exact match skips it.
	if err := os.WriteFile(filepath.Join(dir, "segment-00000001.log.bak"),
		[]byte("not a frame at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("stray near-miss file broke Open: %v", err)
	}
	defer re.Close()
	if re.Persisted() != 1 {
		t.Fatalf("Persisted = %d, want 1", re.Persisted())
	}
}

func TestBlockCodecRoundTrip(t *testing.T) {
	var recs []Record
	for i := 0; i < 3; i++ {
		k, res := solved(t, i, memsys.Mode(i%4), 12+i)
		recs = append(recs, Record{k, res})
	}
	for i := 0; i < 40; i++ {
		k, res := SyntheticRecord(i)
		recs = append(recs, Record{k, res})
	}
	// Edge shapes: extreme key fields, no phases.
	k, res := SyntheticRecord(1000)
	k.Placement = 1<<63 + 12345
	k.Variant = "missOverlap=1.5"
	recs = append(recs, Record{k, res})
	k2 := k
	k2.Variant = ""
	recs = append(recs, Record{k2, workload.Result{}})

	payload := encodeBlock(recs)
	got, err := decodeBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Key != recs[i].Key {
			t.Errorf("record %d key = %+v, want %+v", i, got[i].Key, recs[i].Key)
		}
		if !reflect.DeepEqual(got[i].Res, recs[i].Res) {
			t.Errorf("record %d result differs:\n got %+v\nwant %+v", i, got[i].Res, recs[i].Res)
		}
	}

	// Empty block.
	empty, err := decodeBlock(encodeBlock(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty block round trip = (%v, %v)", empty, err)
	}
}

// The log→v2 migration property: Compact on an append-log store yields
// a v2 store in which every record round-trips bit-identically
// (workload.Result equality), and the migrated store re-serves every
// key as a seeded cache hit.
func TestCompactMigratesLogToV2(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Key]workload.Result)
	for i := 0; i < 4; i++ {
		for _, mode := range []memsys.Mode{memsys.DRAMOnly, memsys.CachedNVM, memsys.UncachedNVM} {
			k, res := solved(t, i, mode, 12+i)
			want[k] = res
			d.Commit(k, res, nil)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}

	// On disk: exactly one v2 segment, no log segments.
	v2segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.seg"))
	logs, _ := filepath.Glob(filepath.Join(dir, "segment-*.log"))
	if len(v2segs) != 1 || len(logs) != 0 {
		t.Fatalf("after migration: %d v2 + %d log segments, want 1 + 0", len(v2segs), len(logs))
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Persisted() != len(want) {
		t.Fatalf("Persisted = %d, want %d", re.Persisted(), len(want))
	}
	for k, res := range want {
		e, loaded := re.Acquire(k)
		if !loaded {
			t.Fatalf("key %+v not re-served after migration", k)
		}
		if !e.Seeded {
			t.Fatalf("key %+v entry not seeded", k)
		}
		if !reflect.DeepEqual(e.Res, res) {
			t.Fatalf("record %+v did not survive migration bit-identically:\n got %+v\nwant %+v", k, e.Res, res)
		}
	}
}

// Opening a compacted store reads only the index; blocks decode on the
// first Acquire that lands in their fingerprint range.
func TestV2LazyBlockFault(t *testing.T) {
	defer SetBlockSizeForTest(8)()
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		k, res := SyntheticRecord(i)
		keys[i] = k
		d.Commit(k, res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Persisted() != n {
		t.Fatalf("Persisted = %d, want %d", re.Persisted(), n)
	}
	if got := re.Len(); got != 0 {
		t.Fatalf("resident entries after lazy open = %d, want 0", got)
	}
	if _, loaded := re.Acquire(keys[0]); !loaded {
		t.Fatal("first key not served from lazy block")
	}
	if got := re.Len(); got == 0 || got >= n {
		t.Fatalf("resident entries after one fault = %d, want in (0, %d)", got, n)
	}
	for i, k := range keys {
		e, loaded := re.Acquire(k)
		if !loaded || !e.Seeded {
			t.Fatalf("key %d not served as seeded hit (loaded=%v)", i, loaded)
		}
		_, res := SyntheticRecord(i)
		if !reflect.DeepEqual(e.Res, res) {
			t.Fatalf("key %d result differs after lazy decode", i)
		}
	}
	if got := re.Len(); got != n {
		t.Fatalf("resident entries after full fault = %d, want %d", got, n)
	}
}

// A damaged trailer or index falls back to a sequential frame scan that
// recovers every intact block — the v2 counterpart of the log's torn
// tail tolerance. So does an index whose CRC holds but whose entries do
// not tile the blocks before it: trusting one would let Acquire, Stat or
// Verify read and allocate whatever an entry claims. A crafted file
// with an index and no blocks then holds no records.
func TestV2TrailerFallbackRecovers(t *testing.T) {
	defer SetBlockSizeForTest(4)()
	const n = 16
	recs := make([]Record, n)
	for i := range recs {
		recs[i].Key, recs[i].Res = SyntheticRecord(i)
	}
	var buf bytes.Buffer
	if err := writeSeg2(&buf, recs); err != nil {
		t.Fatal(err)
	}
	seg := buf.Bytes()
	indexOff := binary.LittleEndian.Uint64(seg[len(seg)-seg2TrailerLen:])
	_, payload, _, err := parseFrame(seg[indexOff:])
	if err != nil {
		t.Fatal(err)
	}
	metas, err := decodeIndex(payload)
	if err != nil || len(metas) != n/4 {
		t.Fatalf("pristine index: %d entries, %v; want %d", len(metas), err, n/4)
	}
	reindex := func(tamper func(m []blockMeta) []blockMeta) []byte {
		return withIndex(seg[:indexOff], tamper(append([]blockMeta(nil), metas...)))
	}
	openDamaged := func(data []byte) (string, *Disk) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seg2Name(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			t.Fatalf("damaged v2 segment broke Open: %v", err)
		}
		return dir, d
	}
	for name, data := range map[string][]byte{
		"torn trailer and index": seg[:len(seg)-seg2TrailerLen-10],
		"length 2^40":            reindex(func(m []blockMeta) []blockMeta { m[1].length = 1 << 40; return m }),
		"length 2^64-20":         reindex(func(m []blockMeta) []blockMeta { m[1].length = -20; return m }),
		"negative count":         reindex(func(m []blockMeta) []blockMeta { m[0].count = -1; return m }),
		"gap":                    reindex(func(m []blockMeta) []blockMeta { m[2].off++; return m }),
		"overlap":                reindex(func(m []blockMeta) []blockMeta { m[2].off--; return m }),
		"short last block":       reindex(func(m []blockMeta) []blockMeta { return m[:len(m)-1] }),
	} {
		dir, d := openDamaged(data)
		// Fallback loads eagerly: everything is resident.
		if d.Persisted() != n || d.Len() != n {
			t.Errorf("%s: Persisted %d, resident %d; want all %d", name, d.Persisted(), d.Len(), n)
		}
		for i := 0; i < n; i++ {
			k, res := SyntheticRecord(i)
			if e, loaded := d.Acquire(k); !loaded || !reflect.DeepEqual(e.Res, res) {
				t.Fatalf("%s: key %d not recovered intact (loaded=%v)", name, i, loaded)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st, err := Stat(dir); err != nil || st.Records != n || st.Blocks != 0 {
			t.Errorf("%s: Stat = %+v, %v; want %d records and no index", name, st, err, n)
		}
	}

	dir, d := openDamaged(CraftedSegmentForTest(1 << 40))
	if k, _ := SyntheticRecord(0); d.Persisted() != 0 || d.Probe(k) {
		t.Errorf("block-less segment: Persisted %d; want 0 and every key a miss", d.Persisted())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := Stat(dir); err != nil || st.Records != 0 {
		t.Errorf("block-less segment: Stat = %+v, %v; want 0 records", st, err)
	}
}

// A corrupt block is rejected by its CRC: its keys become cache misses
// (recomputed, never mis-decoded) and the error surfaces at Close.
func TestV2CorruptBlockIsRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		k, res := SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first block's payload (frame header is 9
	// bytes after the 8-byte file magic).
	data[len(seg2FileMagic)+9+4] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open should defer block validation: %v", err)
	}
	k, _ := SyntheticRecord(0)
	if _, loaded := re.Acquire(k); loaded {
		t.Fatal("key from corrupt block served as a hit")
	}
	err = re.Close()
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("Close error = %v, want CRC mismatch", err)
	}
}

// A compaction interrupted between its rename and its deletes leaves
// the pre-compaction segments below the v2 segment. Open leaves such a
// leftover unread and uncounted — newer log appends still override the
// v2 segment's records — and the next Compact or Verify deletes it.
func TestInterruptedCompactionCleanup(t *testing.T) {
	k0, res0 := SyntheticRecord(0)
	k1, res1 := SyntheticRecord(1)
	override := res0
	override.Slowdown = 99.5
	// build commits k0 and k1 to the log at seq 1 and hand-writes their
	// compacted v2 segment at seq 2, leaving the log in place (as if the
	// deletes never ran), plus a newer log segment at seq 3 overriding k0.
	build := func(t *testing.T) string {
		dir := t.TempDir()
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		d.Commit(k0, res0, nil)
		d.Commit(k1, res1, nil)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, seg2Name(2)))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeSeg2(f, []Record{{k0, res0}, {k1, res1}}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		frame := appendFrame(nil, seg2FrameBlock, encodeBlock([]Record{{k0, override}}))
		if err := os.WriteFile(filepath.Join(dir, logName(3)), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// serves checks a reopened store serves the v2 segment under the
	// override, and nothing of the leftover.
	serves := func(t *testing.T, dir string, persisted int) {
		t.Helper()
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Persisted() != persisted {
			t.Errorf("Persisted = %d, want %d", re.Persisted(), persisted)
		}
		e, loaded := re.Acquire(k0)
		if !loaded || e.Res.Slowdown != 99.5 {
			t.Errorf("newer log record did not win over v2 (loaded=%v, slowdown=%v)",
				loaded, e.Res.Slowdown)
		}
		if e, loaded := re.Acquire(k1); !loaded || !reflect.DeepEqual(e.Res, res1) {
			t.Errorf("v2-only record not served intact")
		}
	}
	leftover := func(dir string) bool {
		_, err := os.Stat(filepath.Join(dir, logName(1)))
		return err == nil
	}

	dir := build(t)
	for i := 0; i < 2; i++ {
		serves(t, dir, 3) // 2 in v2 + 1 override in the log
		if !leftover(dir) {
			t.Fatal("Open deleted the pre-compaction log")
		}
	}
	st, err := Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsLog != 1 || st.RecordsLog != 1 || st.SegmentsV2 != 1 {
		t.Errorf("Stat = %+v, want the leftover uncounted: 1 log segment of 1 record, 1 v2 segment", st)
	}

	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	if leftover(dir) {
		t.Error("Verify left the pre-compaction log in place")
	}
	serves(t, dir, 3)

	dir = build(t)
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	if leftover(dir) {
		t.Error("Compact left the pre-compaction log in place")
	}
	serves(t, dir, 2) // the override folded in
}

// Compacting twice (v2 → v2) keeps every record and the single-segment
// layout.
func TestDoubleCompact(t *testing.T) {
	dir := t.TempDir()
	const n = 10
	commitSynthetic(t, dir, nil, n)
	compactStore(t, dir)
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := SyntheticRecord(n)
	d.Commit(k, res, nil)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	compactStore(t, dir)
	if files := listFiles(t, dir); len(files) != 2 { // the segment and LOCK
		t.Fatalf("files after two compactions = %v, want one v2 segment", files)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Persisted() != n+1 {
		t.Fatalf("Persisted = %d, want %d", re.Persisted(), n+1)
	}
	for i := 0; i <= n; i++ {
		k, res := SyntheticRecord(i)
		e, loaded := re.Acquire(k)
		if !loaded || !reflect.DeepEqual(e.Res, res) {
			t.Fatalf("key %d lost or changed across double compaction", i)
		}
	}
}

func TestCloseRemovesEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*"))
	if len(segs) != 0 {
		t.Fatalf("idle open/close cycles left %d segment files: %v", len(segs), segs)
	}
}

func TestStatReportsComposition(t *testing.T) {
	dir := t.TempDir()
	const compacted = 12
	commitSynthetic(t, dir, nil, compacted)
	compactStore(t, dir)
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := SyntheticRecord(compacted)
	d.Commit(k, res, nil)

	// Stat works read-only against the directory of a live store.
	st, err := Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsLog != 1 || st.SegmentsV2 != 1 {
		t.Errorf("segments = %d log + %d v2, want 1 + 1", st.SegmentsLog, st.SegmentsV2)
	}
	if st.Records != compacted+1 || st.RecordsV2 != compacted || st.RecordsLog != 1 {
		t.Errorf("records = %d (log %d, v2 %d), want %d (1, %d)",
			st.Records, st.RecordsLog, st.RecordsV2, compacted+1, compacted)
	}
	if st.IndexBytes <= 0 || st.Blocks <= 0 {
		t.Errorf("index accounting empty: index_bytes=%d blocks=%d", st.IndexBytes, st.Blocks)
	}
	if st.Bytes <= st.BytesLog {
		t.Errorf("total bytes %d should exceed log bytes %d", st.Bytes, st.BytesLog)
	}

	// The live store's counters agree with the directory exactly.
	if live := d.Stats(); live != st {
		t.Errorf("live stats differ from the directory's:\n live %+v\n stat %+v", live, st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// The headline acceptance criterion: a compacted v2 store opens at
// least 20× faster than the same records left in the append log, which
// Open replays in full. The default population keeps the test quick;
// set RESULTSTORE_SPEEDUP_POINTS=1000000 to reproduce the 1M-point
// measurement from the README.
func TestV2OpenSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("store population is not short-mode material")
	}
	n := 20000
	if s := os.Getenv("RESULTSTORE_SPEEDUP_POINTS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad RESULTSTORE_SPEEDUP_POINTS %q", s)
		}
		n = v
	}

	recs := make([]Record, n)
	for i := range recs {
		recs[i].Key, recs[i].Res = SyntheticRecord(i)
	}

	// Equivalent stores: one log segment vs one v2 segment.
	logDir, v2dir := t.TempDir(), t.TempDir()
	var enc blockEncoder
	var log []byte
	for i := range recs {
		log = enc.appendFrame(log, recs[i:i+1])
	}
	if err := os.WriteFile(filepath.Join(logDir, logName(1)), log, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(v2dir, seg2Name(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSeg2(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	open := func(dir string) time.Duration {
		best := time.Duration(1<<62 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			d, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if d.Persisted() != n {
				t.Fatalf("%s: Persisted = %d, want %d", dir, d.Persisted(), n)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if elapsed < best {
				best = elapsed
			}
		}
		return best
	}
	v2t := open(v2dir)
	logT := open(logDir)
	ratio := float64(logT) / float64(v2t)
	t.Logf("open %d points: log replay %v, v2 %v (%.0f× faster)", n, logT, v2t, ratio)
	if ratio < 20 {
		t.Errorf("v2 open only %.1f× faster than the log replay, want >= 20×", ratio)
	}
}

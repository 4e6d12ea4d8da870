package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultline"
	"repro/internal/workload"
)

// The on-disk format: a store directory holds two kinds of segment file,
// both made of the CRC32C-checked block frames of segment2.go. Fresh
// results append to a log segment named segment-NNNNNNNN.log: a bare
// sequence of block frames, one per commit — a single record from
// Commit, or the run of records an engine worker solved in one claimed
// index range from CommitBatch. A record is the cache Key plus the
// solved workload.Result with the Workload descriptor pointer stripped
// (descriptors are reattached from the job at hit time; see
// Entry.Seeded). Open replays the log in full. Compact, an offline pass
// over a directory no process holds, writes what Open would serve, the
// fallback layer under a damaged v2 segment included, into a single
// columnar segment named segment-NNNNNNNN.seg (format v2; see
// segment2.go), which Open maps back in by reading only its trailer and
// block index — blocks decode lazily on the first Acquire that lands in
// their fingerprint range, so a compacted multi-million-point store
// opens in milliseconds.
//
// Records are content-addressed: the Key is derived from
// workload.Fingerprint, so identical evaluation points written by any
// process land on the same identity and later occurrences win on load.
// Segment sequence numbers order the files: a v2 segment is always older
// than any log segment alongside it (appends after a compaction get
// fresh, higher sequences), so log records override v2 records on load.
// Any segment numbered below the newest v2 segment is a leftover of a
// compaction interrupted between its rename and its deletes. Open leaves
// it unread and uncounted, and deletes nothing; the next Compact or
// Verify deletes it, each only after decoding every block of the v2
// segment above it. If that v2 segment is damaged, the leftovers stay as
// the fallback layer Open loads beneath its intact blocks.
//
// Durability: each commit's frame is encoded outside the store's lock
// and written to the active log segment in one write(2); fsync happens
// at Close. A crash can therefore lose the records of the current OS
// write-back window, plus the records engine workers still hold for the
// ranges in flight, and can leave a torn final frame, which Open
// tolerates (the torn frame's records are dropped, everything before it
// loads; a resumed sweep recomputes them). Every Open starts a fresh log
// segment, never appending to an old (possibly torn) one; Close removes
// it again if nothing was written to it. Compact writes the v2 segment
// via a temp file + fsync + rename, so a crash at any point leaves a
// loadable store.
//
// Older releases appended JSON lines to segment-NNNNNNNN.jsonl files,
// which this release does not read. Open refuses a directory that still
// holds them, and so do Stat and Compact, which run Open's loader;
// Verify leaves them alone. The store caches a pure function of its
// keys, so deleting such a directory loses nothing a recompute does not
// restore.

// Disk is the persistent result store: a Memory index over on-disk
// segments (log segments for appends, a binary columnar v2 segment from
// compaction). Safe for concurrent use.
type Disk struct {
	mem *Memory
	dir string
	fs  faultline.FS // all segment I/O goes through this seam

	mu       sync.Mutex     // serializes appends and close
	lock     *os.File       // exclusive cross-process directory lock (always real os)
	f        faultline.File // active log segment
	fpath    string
	written  int64 // bytes written to the active segment
	nextSeq  int
	st       Stats // on-disk composition, kept current by Open and Commit
	closed   bool
	writeErr error // first append failure; surfaced by Close

	seg2     atomic.Pointer[seg2] // newest v2 segment, lazily decoded; nil if none
	faultMu  sync.Mutex           // serializes lazy block faults
	faultErr error                // first lazy-decode failure; surfaced by Close
}

// Segment file kinds, by name extension.
const (
	kindJSONL = iota + 1 // ".jsonl": JSON lines from older releases, never read
	kindLog              // ".log": the append log
	kindSeg              // ".seg": a compacted v2 segment
)

func logName(seq int) string  { return fmt.Sprintf("segment-%08d.log", seq) }
func seg2Name(seq int) string { return fmt.Sprintf("segment-%08d.seg", seq) }

// parseSegName reports whether name is exactly a segment file name —
// "segment-" + 8 digits + ".log", ".seg" or ".jsonl" — returning the
// sequence number and kind. Anything else, including the near-misses a
// prefix match would accept ("segment-00000001.log.bak", nine digits, a
// signed number), is rejected.
func parseSegName(name string) (seq, kind int, ok bool) {
	const prefix = "segment-"
	const digits = 8
	if len(name) < len(prefix)+digits || name[:len(prefix)] != prefix {
		return 0, 0, false
	}
	for _, c := range []byte(name[len(prefix) : len(prefix)+digits]) {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	switch name[len(prefix)+digits:] {
	case ".log":
		return seq, kindLog, true
	case ".seg":
		return seq, kindSeg, true
	case ".jsonl":
		return seq, kindJSONL, true
	}
	return 0, 0, false
}

// segInfo is one segment file found in a store directory.
type segInfo struct {
	name string
	seq  int
	kind int
}

// scanDir lists the log and v2 segment files in dir, ordered by sequence
// number, and counts the JSON-lines segments it leaves out and the
// segments Verify has quarantined.
func scanDir(fs faultline.FS, dir string) (infos []segInfo, jsonl, quarantined int, err error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("resultstore: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, kind, ok := parseSegName(e.Name())
		switch {
		case strings.HasSuffix(e.Name(), quarantineSuffix):
			quarantined++
		case !ok:
		case kind == kindJSONL:
			jsonl++
		default:
			infos = append(infos, segInfo{name: e.Name(), seq: seq, kind: kind})
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].seq < infos[j].seq })
	return infos, jsonl, quarantined, nil
}

// splitLive separates a directory scan into the newest v2 segment (nil
// if none), the log segments that postdate it, and the stale leftovers
// of a compaction interrupted before its deletes (any log or v2 segment
// numbered below the newest v2 segment).
func splitLive(infos []segInfo) (v2 *segInfo, logs, stale []segInfo) {
	v2seq := -1
	for i := range infos {
		if infos[i].kind == kindSeg && infos[i].seq > v2seq {
			v2 = &infos[i]
			v2seq = infos[i].seq
		}
	}
	for _, si := range infos {
		switch {
		case si.seq < v2seq:
			stale = append(stale, si)
		case si.kind == kindLog:
			logs = append(logs, si)
		}
	}
	return v2, logs, stale
}

// readLog walks one log segment, passing every record of every intact
// block frame to add in file order. It reports a torn tail — an
// interrupted append, dropped — and the first corrupt frame, which the
// walk steps over, so add still sees the intact frames after it. The
// tail tolerance is sound because append errors are sticky: the first
// failed write ends a segment, so a torn record is always its last — and
// a restart starts a fresh segment, so a store can accumulate several
// tail-torn segments.
func readLog(data []byte, add func(Record)) (torn bool, bad error) {
	torn = walkFrames(data, func(off, _ int, _ byte, recs []Record, err error) bool {
		if err != nil {
			if bad == nil {
				bad = fmt.Errorf("frame at offset %d: %w", off, err)
			}
			return true
		}
		for _, r := range recs {
			add(r)
		}
		return true
	})
	return torn, bad
}

// Open opens (creating if needed) a disk store rooted at dir, maps every
// persisted record in as a pre-seeded cache entry — log segments replay
// in full, a compacted v2 segment loads only its block index, with
// blocks decoded on first use — and starts a fresh log segment for this
// process's appends. It deletes no segment: the leftovers of an
// interrupted compaction stay unread until Compact or Verify runs. A
// store serves one process at a time: Open fails if another live
// process holds the directory (share results across processes
// sequentially, or through one nvmserve daemon). It also refuses a
// directory that still holds JSON-lines segments from an older release,
// which it does not read.
func Open(dir string) (*Disk, error) { return OpenFS(dir, faultline.OS{}) }

// OpenFS is Open over an explicit filesystem seam — the real OS in
// production, a faultline.Injector under chaos tests. The cross-process
// directory lock always goes through the real OS (flock on an injected
// handle would test the injector, not the store).
func OpenFS(dir string, fs faultline.FS) (*Disk, error) {
	if fs == nil {
		fs = faultline.OS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	d := &Disk{mem: NewMemory(), dir: dir, fs: fs, lock: lock, nextSeq: 1}
	err = d.load()
	if err == nil {
		err = d.openSegment()
	}
	if err != nil {
		d.seg2.Load().close()
		unlock(lock)
		return nil, err
	}
	return d, nil
}

// load maps the directory's segments in: Open's loader, which Stat and
// Compact also run into a scratch store, to report and to rewrite what
// Open would serve. It deletes nothing, and leaves the segments an
// intact v2 segment supersedes unread. Log segments replay oldest
// first, each record replacing any earlier one for its key, so the
// newest occurrence wins; they postdate the v2 segment, whose records
// only fill the keys they leave.
func (d *Disk) load() error {
	infos, jsonl, quarantined, err := scanDir(d.fs, d.dir)
	if err != nil {
		return err
	}
	if jsonl > 0 {
		return fmt.Errorf("resultstore: %s holds %d JSON-lines segment(s) from an older release, which this release does not read; deleting the directory recomputes its points",
			d.dir, jsonl)
	}
	d.st.Quarantined = quarantined
	for _, si := range infos {
		d.nextSeq = max(d.nextSeq, si.seq+1)
	}
	v2, logs, stale := splitLive(infos)
	for _, si := range logs {
		if err := d.replay(si, true); err != nil {
			return err
		}
	}
	if v2 == nil {
		return nil
	}
	return d.loadSeg2(*v2, stale)
}

// replay seeds one log segment's records into the cache and adds the
// segment to the store's composition: its records and bytes count as
// log, and Records counts the keys that were new. A live segment's
// records replace earlier entries; a stale one's (the fallback layer
// under a damaged compaction) only fill keys nothing newer holds. A
// corrupt frame is an error naming the segment — Verify quarantines it
// and salvages the rest.
func (d *Disk) replay(si segInfo, live bool) error {
	path := filepath.Join(d.dir, si.name)
	data, err := d.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	_, bad := readLog(data, func(r Record) {
		d.st.RecordsLog++
		if d.mem.seed(r.Key, r.Res, live) {
			d.st.Records++
		}
	})
	d.st.SegmentsLog++
	d.st.Bytes += int64(len(data))
	d.st.BytesLog += int64(len(data))
	if bad != nil {
		return fmt.Errorf("resultstore: %s: %w", path, bad)
	}
	return nil
}

// loadSeg2 maps in the newest v2 segment. An intact one loads only its
// index — blocks fault in lazily — and the stale segments numbered below
// it stay unread and uncounted: the leftovers of a compaction whose
// deletes did not run, which Compact or Verify deletes once every block
// of this segment has decoded. A damaged one (a torn rewrite that
// escaped the temp+rename discipline) is recovered by a frame scan that
// seeds its intact blocks; its torn tail may have lost records the
// stale pre-compaction log segments still hold, so those load,
// best-effort, as the oldest layer.
func (d *Disk) loadSeg2(si segInfo, stale []segInfo) error {
	path := filepath.Join(d.dir, si.name)
	s2, recovered, err := openSeg2(d.fs, path)
	if err != nil {
		return err
	}
	d.st.SegmentsV2++
	if s2 != nil {
		d.st.Records += s2.count
		d.st.RecordsV2, d.st.IndexBytes, d.st.Blocks = s2.count, s2.indexBytes, len(s2.blocks)
		d.st.Bytes += s2.size
		d.seg2.Store(s2)
		return nil
	}
	d.st.RecordsV2 = len(recovered)
	d.st.Bytes += fileSize(d.fs, path)
	for _, r := range recovered {
		if d.mem.seed(r.Key, r.Res, false) {
			d.st.Records++
		}
	}
	for _, old := range stale {
		if old.kind == kindLog {
			d.replay(old, false) // best-effort: whatever decodes fills gaps
			continue
		}
		d.st.SegmentsV2++
		d.st.Bytes += fileSize(d.fs, filepath.Join(d.dir, old.name))
	}
	return nil
}

// fileSize reports a file's size, or 0 when it cannot be opened or
// stat'ed (deleted underneath a reader).
func fileSize(fs faultline.FS, path string) int64 {
	f, err := fs.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// openSegment starts the next log segment; creating it reads and syncs
// nothing. Caller holds mu (or has exclusive access during Open).
func (d *Disk) openSegment() error {
	path := filepath.Join(d.dir, logName(d.nextSeq))
	f, err := d.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	d.nextSeq++
	d.f = f
	d.fpath = path
	d.written = 0
	d.st.SegmentsLog++
	return nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Acquire returns the singleflight slot for a key; records restored from
// disk surface as already-loaded seeded entries, so previously computed
// points are re-served as cache hits after a restart. A record still
// inside an undecoded v2 block is faulted in first — the resident hit
// path stays allocation-free, and keys outside every block's
// fingerprint range skip the fault machinery entirely. Without a v2
// segment there is nothing to fault, so Acquire is the index's own.
func (d *Disk) Acquire(k Key) (*Entry, bool) {
	s := d.seg2.Load()
	if s == nil {
		return d.mem.Acquire(k)
	}
	if e := d.mem.lookup(k); e != nil {
		return e, true
	}
	if s.inRange(k.Fingerprint) {
		d.fault(s, k.Fingerprint)
	}
	return d.mem.Acquire(k)
}

// Probe reports whether a completed result for the key is resident —
// the read-only remote-lookup seam (see Prober). Like Acquire it faults
// in the covering v2 block first, so compacted records answer probes
// without a singleflight slot ever being created for a mere lookup.
func (d *Disk) Probe(k Key) bool {
	s := d.seg2.Load()
	if s == nil {
		return d.mem.Probe(k)
	}
	if e := d.mem.lookup(k); e != nil {
		return e.Done()
	}
	if s.inRange(k.Fingerprint) {
		d.fault(s, k.Fingerprint)
	}
	return d.mem.Probe(k)
}

// fault decodes every not-yet-loaded v2 block whose fingerprint range
// covers fp and seeds its records. A block that fails its CRC or decode
// is skipped permanently: its keys become cache misses and are
// recomputed, and the first such error is surfaced by Close.
func (d *Disk) fault(s *seg2, fp uint64) {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].maxFp >= fp })
	j := i
	for j < len(s.blocks) && s.blocks[j].minFp <= fp {
		j++
	}
	if err := d.faultBlocks(s, i, j); err != nil && d.faultErr == nil {
		d.faultErr = err
	}
}

// faultBlocks decodes the not-yet-loaded blocks i..j-1 of s and seeds
// their records (records already resident — log overrides, or
// process-computed entries — win). A block that fails its CRC or decode
// counts as loaded all the same, so it is never read again; the first
// such error is returned. Caller holds faultMu, or owns d alone.
func (d *Disk) faultBlocks(s *seg2, i, j int) (err error) {
	for ; i < j; i++ {
		b := &s.blocks[i]
		if b.loaded {
			continue
		}
		recs, berr := s.readBlock(i)
		if berr != nil && err == nil {
			err = berr
		}
		for _, r := range recs {
			d.mem.seed(r.Key, r.Res, false)
		}
		b.loaded = true
		s.loaded++
	}
	return err
}

// appendEncoder is the append path's and AppendBlock's scratch: a block
// encoder and the frame it renders into, pooled so each frame is encoded
// outside mu without allocating.
type appendEncoder struct {
	blockEncoder
	frame []byte
}

var appendEncoders = sync.Pool{New: func() any { return new(appendEncoder) }}

// Commit appends one freshly computed result to the active log segment
// as a one-record block frame (see CommitBatch). Failed evaluations are
// never persisted.
func (d *Disk) Commit(k Key, res workload.Result, err error) {
	if err != nil {
		return
	}
	d.writeFrame([]Record{{k, res}})
}

// CommitBatch appends a run of freshly computed results to the active
// log segment as one block frame, encoded before mu is taken so the lock
// covers only the single write; an empty run writes nothing. Append
// errors are sticky: the first one flips the store into read-only
// degraded mode — later commits become no-ops on disk while the
// in-memory entries keep serving the process — surfaced by Degraded,
// Stats and Close.
func (d *Disk) CommitBatch(recs []Record) {
	if len(recs) > 0 {
		d.writeFrame(recs)
	}
}

// writeFrame writes recs to the active log segment as one block frame in
// one write.
func (d *Disk) writeFrame(recs []Record) {
	e := appendEncoders.Get().(*appendEncoder)
	defer appendEncoders.Put(e)
	e.frame = e.appendFrame(e.frame[:0], recs)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.writeErr != nil {
		return
	}
	n, werr := d.f.Write(e.frame)
	d.written += int64(n)
	d.st.Bytes += int64(n)
	d.st.BytesLog += int64(n)
	if werr != nil {
		d.writeErr = werr
		return
	}
	d.st.Records += len(recs)
	d.st.RecordsLog += len(recs)
}

// Len reports the number of resident cache entries. Records inside
// not-yet-faulted v2 blocks are on disk but not resident, so after
// opening a compacted store Len starts near zero and grows as blocks
// fault in; Persisted counts them all.
func (d *Disk) Len() int { return d.mem.Len() }

// Persisted reports the number of records live on disk: those Open
// restored plus those appended since. A key counts once across the log
// layers; a v2 segment counts its records from its index, without
// decoding them, so a log record overriding one counts again until the
// next compaction. It trails the points an engine has completed by the
// ranges its workers have in flight: a worker commits a claimed range's
// records when the range ends. Stats().Records reads the same counter.
func (d *Disk) Persisted() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.st.Records
}

// Degraded reports whether the store has fallen back to read-only
// degraded mode, and why: a failed append (the store stops persisting
// but keeps serving and caching in memory) or a failed lazy block
// decode (the block's records become recomputable cache misses). Nil
// means fully healthy. The same error is returned again by Close.
func (d *Disk) Degraded() error {
	d.mu.Lock()
	writeErr := d.writeErr
	d.mu.Unlock()
	if writeErr != nil {
		return writeErr
	}
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	return d.faultErr
}

// Compact rewrites what Open would serve from a store directory — the
// log segments, the previous v2 segment, and the fallback layer under a
// damaged one — into a single fresh v2 binary columnar segment, and
// deletes every segment the directory held before. It is an offline
// pass, like Verify: it takes the store lock, so it fails on a directory
// a live process holds, and a missing directory is an error. It loads
// the directory through Open's own loader into a scratch store and
// decodes every v2 block there, so it refuses a directory Open refuses,
// and a block that fails to decode fails it. The rewrite is crash-safe:
// the segment is written to a temp file, fsynced, then renamed into
// place before the old segments are deleted, so a crash at any point
// leaves a loadable store, and the next Compact or Verify finishes the
// deletes of a crash between rename and delete. On any failure every
// segment stays in place.
func Compact(dir string) error { return CompactFS(dir, faultline.OS{}) }

// CompactFS is Compact over an explicit filesystem seam.
func CompactFS(dir string, fs faultline.FS) error {
	if fs == nil {
		fs = faultline.OS{}
	}
	lock, err := lockDir(dir)
	if err != nil {
		return err
	}
	defer unlock(lock)
	d := &Disk{mem: NewMemory(), dir: dir, fs: fs, nextSeq: 1}
	err = d.load()
	prev := d.seg2.Load()
	if err == nil && prev != nil {
		err = d.faultBlocks(prev, 0, len(prev.blocks))
	}
	prev.close()
	if err != nil {
		return err
	}
	recs := d.mem.records()
	// The temp file is removed on any failure below, and the old segments
	// are only deleted after the rename lands.
	tmpPath := filepath.Join(dir, "compact.tmp")
	tmp, err := fs.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := writeSeg2(tmp, recs); err != nil {
		tmp.Close()
		fs.Remove(tmpPath)
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fs.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmpPath)
		return err
	}
	// Collect the segments to delete before the compacted one exists, so
	// it can never delete itself.
	old, _, _, err := scanDir(fs, dir)
	if err != nil {
		fs.Remove(tmpPath)
		return err
	}
	if err := fs.Rename(tmpPath, filepath.Join(dir, seg2Name(d.nextSeq))); err != nil {
		fs.Remove(tmpPath)
		return fmt.Errorf("resultstore: %w", err)
	}
	syncDir(fs, dir)
	for _, si := range old {
		fs.Remove(filepath.Join(dir, si.name))
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss;
// best-effort on platforms where directories cannot be synced.
func syncDir(fs faultline.FS, dir string) {
	if f, err := fs.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// quarantineSuffix marks a segment file Verify moved aside: the name no
// longer parses as a segment, so Open and Stat skip its records, and
// the original bytes stay on disk for forensics.
const quarantineSuffix = ".quarantined"

// Stats describes a store directory's on-disk composition as Open loads
// it. The log counts include the fallback layer: the pre-compaction log
// segments Open replays under a damaged v2 segment. Segments an intact
// v2 segment supersedes are not counted; Open leaves them unread, and
// the next Compact or Verify deletes them.
type Stats struct {
	Dir          string `json:"dir"`
	SegmentsLog  int    `json:"segments_log"` // append-log segments
	SegmentsV2   int    `json:"segments_v2"`  // binary columnar segments
	Records      int    `json:"records"`      // distinct points Open serves, counted as Persisted counts them
	RecordsLog   int    `json:"records_log"`  // log records, a key's repeats included
	RecordsV2    int    `json:"records_v2"`
	Bytes        int64  `json:"bytes"`                // bytes of the counted segments
	BytesLog     int64  `json:"bytes_log"`            // log bytes Open must replay
	IndexBytes   int64  `json:"index_bytes"`          // v2 index bytes Open reads
	Blocks       int    `json:"blocks"`               // v2 blocks
	BlocksLoaded int    `json:"blocks_loaded"`        // lazily decoded so far (live stores)
	Quarantined  int    `json:"quarantined_segments"` // segments Verify moved aside
	Degraded     bool   `json:"degraded"`             // live store fell back to read-only (see Disk.Degraded)
}

// Stat reports what Open would load from a store directory. It runs
// Open's loader into a scratch store, read-only: it takes no lock, starts
// no log segment and deletes nothing, so it is safe against a directory
// a live daemon is serving. It therefore costs what an open costs —
// every log segment replays, a v2 segment reads only its index — and
// refuses what Open refuses, with Open's error. Unlike Open it creates
// nothing, so a missing directory is an error. A compaction that removes
// a segment while Stat reads it makes Stat fail; run it again.
func Stat(dir string) (Stats, error) { return StatFS(dir, faultline.OS{}) }

// StatFS is Stat over an explicit filesystem seam.
func StatFS(dir string, fs faultline.FS) (Stats, error) {
	if fs == nil {
		fs = faultline.OS{}
	}
	d := &Disk{mem: NewMemory(), dir: dir, fs: fs}
	err := d.load()
	defer d.seg2.Load().close()
	if err != nil {
		return Stats{}, err
	}
	return d.Stats(), nil
}

// Stats reports the live store's on-disk composition, exact to the
// byte, from the counters Open and Commit keep: it touches no file, so a
// health probe costs the same on any store size. The quarantine count is
// Open's, which cannot go stale while the store is open: Verify, the one
// pass that quarantines, needs the store lock. It adds lazy block-decode
// progress and whether the store has degraded to read-only.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	st := d.st
	st.Degraded = d.writeErr != nil
	d.mu.Unlock()
	st.Dir = d.dir
	d.faultMu.Lock()
	if s := d.seg2.Load(); s != nil {
		st.BlocksLoaded = s.loaded
	}
	if d.faultErr != nil {
		st.Degraded = true
	}
	d.faultMu.Unlock()
	return st
}

// Close fsyncs and closes the active segment and releases the store; an
// active segment nothing was written to is removed so idle open/close
// cycles do not accumulate empty files. It returns the first append or
// lazy-decode error, if any occurred.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var syncErr error
	if d.written > 0 {
		syncErr = d.f.Sync()
	}
	closeErr := d.f.Close()
	if d.written == 0 && closeErr == nil {
		d.fs.Remove(d.fpath)
	}
	d.seg2.Swap(nil).close()
	unlock(d.lock)
	for _, err := range []error{d.writeErr, d.faultErr, syncErr, closeErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

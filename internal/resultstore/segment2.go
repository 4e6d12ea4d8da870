package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/faultline"
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workload"
)

// The v2 segment format: a compact binary columnar layout for compacted
// stores, built so a multi-million-point store opens in milliseconds.
//
// File layout (all integers little-endian):
//
//	[8-byte magic "RSTORE2\n"]
//	block frame *      one per block of up to seg2BlockSize records
//	index frame        one, after the last block
//	[16-byte trailer]  index frame offset + CRC32C(offset) + magic "RS2I"
//
// Every frame is [kind u8][payloadLen u32][payload][crc u32] where crc is
// CRC32C (Castagnoli) over the payload: a torn or corrupt frame is
// detected, never mis-decoded. One walker (walkFrames) reads frame
// sequences: a frame whose header or declared payload runs past the end
// of the data is a torn tail — the signature of an interrupted write —
// and ends the walk; a complete frame that fails its CRC or decode is
// corruption, and the walk steps over it by its declared length.
//
// A block's payload is columnar: records are globally sorted by
// fingerprint (full cache-key order for ties), fingerprints are stored
// as one raw u64 plus wrapping uvarint deltas, small because the
// records are sorted, low-cardinality strings (app,
// variant, phase name, bound-by resource) are dictionary-coded, small
// integers are varint-packed, and float64 quantities are raw IEEE bits
// so every record round-trips bit-identically. The per-phase quantities
// (times, achieved traffic, solver diagnostics) are flattened into
// phase-major columns behind a per-record phase-count column.
//
// The index frame holds one entry per block — frame offset, payload
// length, record count, min/max fingerprint — so Open reads the trailer
// plus the index and nothing else; blocks decode lazily on the first
// Acquire whose fingerprint lands in their range. If the trailer or
// index is unreadable (a torn file that escaped the temp+rename
// discipline), or the index entries do not tile the blocks before it,
// Open falls back to a sequential frame scan that loads every intact
// block eagerly and drops the torn tail.
//
// v2 segments are written only by Compact, an offline pass over a store
// directory (temp file + fsync + rename).
// Live appends use the same block frames: the append log (see disk.go)
// is a bare sequence of unsorted block frames, one per commit — a single
// record, or an engine worker's claimed index range — so appends,
// replay, Verify, Stat and the recovery scan above share one record
// codec and one frame walker. AppendBlock and ParseBlock export that codec: fleet
// result posts carry one block frame per chunk, records in chunk order.

const (
	seg2FileMagic    = "RSTORE2\n"
	seg2TrailerMagic = "RS2I"
	seg2TrailerLen   = 16

	seg2FrameBlock = 1
	seg2FrameIndex = 2

	// frameOverhead is a frame's kind, length and CRC bytes.
	frameOverhead = 9
)

// BlockTarget is the records-per-block target of a v2 segment. The
// engine caps a claimed index range at it, so a range commits at most
// one block's worth of records.
const BlockTarget = 1024

// seg2BlockSize is the block target in effect; a var so tests can force
// multi-block segments from small record sets.
var seg2BlockSize = BlockTarget

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// keyLess is the canonical record order inside a v2 segment: fingerprint
// first (the index axis), then the remaining key fields for a total
// deterministic order.
func keyLess(a, b Key) bool {
	if a.Fingerprint != b.Fingerprint {
		return a.Fingerprint < b.Fingerprint
	}
	if a.App != b.App {
		return a.App < b.App
	}
	if a.Mode != b.Mode {
		return a.Mode < b.Mode
	}
	if a.Threads != b.Threads {
		return a.Threads < b.Threads
	}
	if a.Placement != b.Placement {
		return a.Placement < b.Placement
	}
	return a.Variant < b.Variant
}

// --- column writer ---

// s2writer accumulates one block payload.
type s2writer struct {
	b []byte
}

func (w *s2writer) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *s2writer) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *s2writer) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *s2writer) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *s2writer) str(s string)     { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }

// take returns the bytes written and drops the writer's reference to
// them, so a pooled encoder never holds on to a caller's buffer.
func (w *s2writer) take() []byte {
	b := w.b
	w.b = nil
	return b
}

// dict is an order-of-first-use string dictionary for one
// low-cardinality column (apps, variants, phase names or bound-by
// resources).
type dict struct {
	idx  map[string]int
	strs []string
}

func (d *dict) code(s string) uint64 {
	if d.idx == nil {
		d.idx = make(map[string]int)
	}
	i, ok := d.idx[s]
	if !ok {
		i = len(d.strs)
		d.idx[s] = i
		d.strs = append(d.strs, s)
	}
	return uint64(i)
}

func (w *s2writer) dict(d *dict) {
	w.uvarint(uint64(len(d.strs)))
	for _, s := range d.strs {
		w.str(s)
	}
}

// blockEncoder renders record runs as columnar block payloads. Its
// dictionary and scratch columns are reused from call to call, so once
// they have grown to a block's shape, encoding allocates nothing — the
// property the log's per-commit appends rest on. The column loops walk
// records and phases by index: a Record is 168 bytes, so ranging by
// value would copy each one once per column.
type blockEncoder struct {
	w      s2writer
	d      dict
	codes  []uint64
	phases []workload.PhaseOutcome
}

// appendFrame appends recs to dst as one block frame: the bytes of
// appendFrame(dst, seg2FrameBlock, payload) for recs' columnar payload,
// encoded in place.
func (e *blockEncoder) appendFrame(dst []byte, recs []Record) []byte {
	at := len(dst)
	dst = e.appendPayload(append(dst, seg2FrameBlock, 0, 0, 0, 0), recs)
	payload := dst[at+5:]
	binary.LittleEndian.PutUint32(dst[at+1:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// dictColumn writes one dictionary-coded string column of n values: the
// dictionary in order of first use, then one code per value.
func (e *blockEncoder) dictColumn(n int, value func(i int) string) {
	clear(e.d.idx)
	e.d.strs = e.d.strs[:0]
	e.codes = e.codes[:0]
	for i := 0; i < n; i++ {
		e.codes = append(e.codes, e.d.code(value(i)))
	}
	e.w.dict(&e.d)
	for _, c := range e.codes {
		e.w.uvarint(c)
	}
}

// appendPayload appends the columnar payload of recs to dst.
func (e *blockEncoder) appendPayload(dst []byte, recs []Record) []byte {
	w := &e.w
	w.b = dst
	n := len(recs)
	w.uvarint(uint64(n))
	if n == 0 {
		return w.take()
	}

	// Key columns. Fingerprints are wrapping deltas, which pack small
	// only when the run is sorted: Compact's blocks are, while fleet
	// frames keep chunk order and pay up to 10 bytes a delta.
	w.u64(recs[0].Key.Fingerprint)
	for i := 1; i < n; i++ {
		w.uvarint(recs[i].Key.Fingerprint - recs[i-1].Key.Fingerprint)
	}
	e.dictColumn(n, func(i int) string { return recs[i].Key.App })
	for i := range recs {
		w.uvarint(uint64(recs[i].Key.Mode))
	}
	for i := range recs {
		w.uvarint(uint64(recs[i].Key.Threads))
	}
	for i := range recs {
		w.uvarint(recs[i].Key.Placement)
	}
	e.dictColumn(n, func(i int) string { return recs[i].Key.Variant })

	// Result headline columns. Mode/Threads are persisted independently
	// of the key's so a record round-trips even if they ever diverge.
	for i := range recs {
		w.uvarint(uint64(recs[i].Res.Mode))
	}
	for i := range recs {
		w.uvarint(uint64(recs[i].Res.Threads))
	}
	for i := range recs {
		w.f64(float64(recs[i].Res.Time))
	}
	for i := range recs {
		w.f64(recs[i].Res.FoMValue)
	}
	for i := range recs {
		w.f64(recs[i].Res.Slowdown)
	}
	for i := range recs {
		w.f64(float64(recs[i].Res.AvgDRAMRead))
	}
	for i := range recs {
		w.f64(float64(recs[i].Res.AvgDRAMWrite))
	}
	for i := range recs {
		w.f64(float64(recs[i].Res.AvgNVMRead))
	}
	for i := range recs {
		w.f64(float64(recs[i].Res.AvgNVMWrite))
	}

	// Phase columns, flattened phase-major behind a per-record count.
	for i := range recs {
		w.uvarint(uint64(len(recs[i].Res.Phases)))
	}
	for i := range recs {
		e.phases = append(e.phases, recs[i].Res.Phases...)
	}
	phases := e.phases
	e.dictColumn(len(phases), func(i int) string { return phases[i].Phase.Name })
	for i := range phases {
		w.f64(phases[i].Phase.Share)
	}
	for i := range phases {
		w.f64(float64(phases[i].Phase.ReadBW))
	}
	for i := range phases {
		w.f64(float64(phases[i].Phase.WriteBW))
	}
	for i := range phases {
		w.uvarint(uint64(len(phases[i].Phase.ReadMix)))
	}
	for i := range phases {
		for _, c := range phases[i].Phase.ReadMix {
			w.varint(int64(c.Pattern))
			w.f64(c.Weight)
		}
	}
	for i := range phases {
		w.varint(int64(phases[i].Phase.WritePattern))
	}
	for i := range phases {
		w.varint(int64(phases[i].Phase.WorkingSet))
	}
	for i := range phases {
		w.f64(phases[i].Phase.LatencyBound)
	}
	for i := range phases {
		w.f64(phases[i].Phase.AliasFactor)
	}
	for i := range phases {
		w.varint(int64(phases[i].Phase.Iterations))
	}
	for i := range phases {
		w.f64(phases[i].Epoch.Mult)
	}
	e.dictColumn(len(phases), func(i int) string { return string(phases[i].Epoch.BoundBy) })
	for i := range phases {
		w.f64(phases[i].Epoch.HitRate)
	}
	for i := range phases {
		w.f64(float64(phases[i].Epoch.DRAMRead))
	}
	for i := range phases {
		w.f64(float64(phases[i].Epoch.DRAMWrite))
	}
	for i := range phases {
		w.f64(float64(phases[i].Epoch.NVMRead))
	}
	for i := range phases {
		w.f64(float64(phases[i].Epoch.NVMWrite))
	}
	for i := range phases {
		w.f64(phases[i].Epoch.BWMult)
	}
	for i := range phases {
		w.f64(phases[i].Epoch.LatMult)
	}
	for i := range phases {
		w.f64(float64(phases[i].Time))
	}
	// The scratch must not keep the caller's phase slices and names alive.
	clear(phases)
	e.phases = phases[:0]
	return w.take()
}

// --- column reader ---

// s2reader decodes a block payload with sticky error tracking so the
// fuzzed decode path can never panic on malformed input.
type s2reader struct {
	b   []byte
	off int
	err error
}

func (r *s2reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("resultstore: v2 block: truncated or invalid %s at offset %d", what, r.off)
	}
}

func (r *s2reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *s2reader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *s2reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *s2reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

func (r *s2reader) str(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count validates a declared element count against the bytes that
// remain, so a hostile count cannot drive a giant allocation.
func (r *s2reader) count(what string, perElem int) int {
	v := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if perElem < 1 {
		perElem = 1
	}
	if v > uint64((len(r.b)-r.off)/perElem+1) {
		r.fail(what + " count")
		return 0
	}
	return int(v)
}

func (r *s2reader) dict(what string) []string {
	n := r.count(what+" dict", 1)
	if r.err != nil {
		return nil
	}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = r.str(what)
	}
	return strs
}

func (r *s2reader) coded(what string, d []string) string {
	c := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if c >= uint64(len(d)) {
		r.fail(what + " dict code")
		return ""
	}
	return d[c]
}

// decodeBlock parses one columnar block payload back into records.
func decodeBlock(payload []byte) ([]Record, error) {
	r := &s2reader{b: payload}
	n := r.count("records", 8)
	if r.err != nil {
		return nil, r.err
	}
	if n == 0 {
		if r.off != len(r.b) {
			return nil, fmt.Errorf("resultstore: v2 block: %d trailing bytes", len(r.b)-r.off)
		}
		return nil, nil
	}
	recs := make([]Record, n)

	fp := r.u64("fingerprint")
	recs[0].Key.Fingerprint = fp
	for i := 1; i < n; i++ {
		fp += r.uvarint("fingerprint delta")
		recs[i].Key.Fingerprint = fp
	}
	apps := r.dict("app")
	for i := range recs {
		recs[i].Key.App = r.coded("app", apps)
	}
	for i := range recs {
		recs[i].Key.Mode = memsys.Mode(r.uvarint("key mode"))
	}
	for i := range recs {
		recs[i].Key.Threads = int(r.uvarint("key threads"))
	}
	for i := range recs {
		recs[i].Key.Placement = r.uvarint("placement")
	}
	variants := r.dict("variant")
	for i := range recs {
		recs[i].Key.Variant = r.coded("variant", variants)
	}

	for i := range recs {
		recs[i].Res.Mode = memsys.Mode(r.uvarint("result mode"))
	}
	for i := range recs {
		recs[i].Res.Threads = int(r.uvarint("result threads"))
	}
	for i := range recs {
		recs[i].Res.Time = units.Duration(r.f64("time"))
	}
	for i := range recs {
		recs[i].Res.FoMValue = r.f64("fom")
	}
	for i := range recs {
		recs[i].Res.Slowdown = r.f64("slowdown")
	}
	for i := range recs {
		recs[i].Res.AvgDRAMRead = units.Bandwidth(r.f64("avg dram read"))
	}
	for i := range recs {
		recs[i].Res.AvgDRAMWrite = units.Bandwidth(r.f64("avg dram write"))
	}
	for i := range recs {
		recs[i].Res.AvgNVMRead = units.Bandwidth(r.f64("avg nvm read"))
	}
	for i := range recs {
		recs[i].Res.AvgNVMWrite = units.Bandwidth(r.f64("avg nvm write"))
	}

	counts := make([]int, n)
	total := 0
	for i := range counts {
		counts[i] = r.count("phase", 8)
		total += counts[i]
	}
	if r.err != nil {
		return nil, r.err
	}
	if total > len(r.b)-r.off+1 {
		return nil, fmt.Errorf("resultstore: v2 block: phase total %d exceeds payload", total)
	}
	phases := make([]workload.PhaseOutcome, total)
	names := r.dict("phase name")
	for i := range phases {
		phases[i].Phase.Name = r.coded("phase name", names)
	}
	for i := range phases {
		phases[i].Phase.Share = r.f64("share")
	}
	for i := range phases {
		phases[i].Phase.ReadBW = units.Bandwidth(r.f64("read bw"))
	}
	for i := range phases {
		phases[i].Phase.WriteBW = units.Bandwidth(r.f64("write bw"))
	}
	mixLens := make([]int, total)
	for i := range mixLens {
		mixLens[i] = r.count("mix", 9)
	}
	for i := range phases {
		if mixLens[i] == 0 {
			continue
		}
		mix := make(memsys.PatternMix, mixLens[i])
		for j := range mix {
			mix[j].Pattern = memdev.Pattern(r.varint("mix pattern"))
			mix[j].Weight = r.f64("mix weight")
		}
		phases[i].Phase.ReadMix = mix
	}
	for i := range phases {
		phases[i].Phase.WritePattern = memdev.Pattern(r.varint("write pattern"))
	}
	for i := range phases {
		phases[i].Phase.WorkingSet = units.Bytes(r.varint("working set"))
	}
	for i := range phases {
		phases[i].Phase.LatencyBound = r.f64("latency bound")
	}
	for i := range phases {
		phases[i].Phase.AliasFactor = r.f64("alias factor")
	}
	for i := range phases {
		phases[i].Phase.Iterations = int(r.varint("iterations"))
	}
	for i := range phases {
		phases[i].Epoch.Mult = r.f64("mult")
	}
	bounds := r.dict("bound-by")
	for i := range phases {
		phases[i].Epoch.BoundBy = memsys.Resource(r.coded("bound-by", bounds))
	}
	for i := range phases {
		phases[i].Epoch.HitRate = r.f64("hit rate")
	}
	for i := range phases {
		phases[i].Epoch.DRAMRead = units.Bandwidth(r.f64("epoch dram read"))
	}
	for i := range phases {
		phases[i].Epoch.DRAMWrite = units.Bandwidth(r.f64("epoch dram write"))
	}
	for i := range phases {
		phases[i].Epoch.NVMRead = units.Bandwidth(r.f64("epoch nvm read"))
	}
	for i := range phases {
		phases[i].Epoch.NVMWrite = units.Bandwidth(r.f64("epoch nvm write"))
	}
	for i := range phases {
		phases[i].Epoch.BWMult = r.f64("bw mult")
	}
	for i := range phases {
		phases[i].Epoch.LatMult = r.f64("lat mult")
	}
	for i := range phases {
		phases[i].Time = units.Duration(r.f64("phase time"))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("resultstore: v2 block: %d trailing bytes", len(r.b)-r.off)
	}
	at := 0
	for i := range recs {
		if counts[i] > 0 {
			recs[i].Res.Phases = phases[at : at+counts[i] : at+counts[i]]
		}
		at += counts[i]
	}
	return recs, nil
}

// --- frames ---

// errTornFrame reports a frame whose header or declared payload runs
// past the end of the data: the signature of an interrupted write.
var errTornFrame = errors.New("resultstore: frame runs past the end of the data")

// appendFrame wraps a payload as [kind][len][payload][crc32c].
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// parseFrame reads the frame starting at data[0], returning its kind,
// CRC-verified payload and total length. A frame that runs past the end
// of data is errTornFrame; one that fails its CRC still reports its
// length, so a walker can step over it.
func parseFrame(data []byte) (kind byte, payload []byte, frameLen int, err error) {
	if len(data) < frameOverhead {
		return 0, nil, 0, errTornFrame
	}
	kind = data[0]
	n := binary.LittleEndian.Uint32(data[1:5])
	if uint64(n) > uint64(len(data)-frameOverhead) {
		return 0, nil, 0, errTornFrame
	}
	frameLen = int(n) + frameOverhead
	payload = data[5 : 5+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[5+n:]) {
		return kind, nil, frameLen, fmt.Errorf("resultstore: frame: CRC mismatch")
	}
	return kind, payload, frameLen, nil
}

// AppendBlock appends recs to dst as one block frame, in the order
// given: the frame a log append writes, holding any number of records.
// The frame is encoded in Commit's pooled scratch and copied onto dst,
// so AppendBlock allocates at most once: to grow dst when the frame
// does not fit.
func AppendBlock(dst []byte, recs []Record) []byte {
	e := appendEncoders.Get().(*appendEncoder)
	defer appendEncoders.Put(e)
	e.frame = e.appendFrame(e.frame[:0], recs)
	return append(dst, e.frame...)
}

// ParseBlock reads the block frame at the start of data and returns its
// records and the frame's length. A frame that runs past the end of
// data is torn and reports length 0. A complete frame that fails its
// CRC, is not a block or does not decode is an error that still reports
// its length, so a walker can step over it.
func ParseBlock(data []byte) (recs []Record, frameLen int, err error) {
	kind, payload, frameLen, err := parseFrame(data)
	if err == nil && kind != seg2FrameBlock {
		err = fmt.Errorf("resultstore: frame kind %d is not a block", kind)
	}
	if err == nil {
		recs, err = decodeBlock(payload)
	}
	return recs, frameLen, err
}

// walkFrames visits the complete frames of data in order, decoding block
// frames: visit gets each frame's offset, length and kind, a block's
// records, and err when the frame is corrupt — it fails its CRC, is not
// a block, or does not decode. The walk steps over a corrupt frame by
// its declared length, so one bad frame never hides the intact frames
// after it, and it ends early when visit returns false. A frame whose
// header or declared payload runs past the end of data is a torn tail:
// the walk stops there and reports it.
func walkFrames(data []byte, visit func(off, n int, kind byte, recs []Record, err error) bool) (torn bool) {
	for off := 0; off < len(data); {
		recs, n, err := ParseBlock(data[off:])
		if errors.Is(err, errTornFrame) {
			return true
		}
		if !visit(off, n, data[off], recs, err) {
			return false
		}
		off += n
	}
	return false
}

// blockMeta is one index entry: where a block's frame lives and which
// fingerprint range it covers.
type blockMeta struct {
	off    int64 // frame start offset in the file
	length int   // frame payload length
	count  int
	minFp  uint64
	maxFp  uint64
	loaded bool
}

func encodeIndex(metas []blockMeta) []byte {
	w := &s2writer{}
	w.uvarint(uint64(len(metas)))
	for _, m := range metas {
		w.uvarint(uint64(m.off))
		w.uvarint(uint64(m.length))
		w.uvarint(uint64(m.count))
		w.u64(m.minFp)
		w.u64(m.maxFp)
	}
	return w.b
}

func decodeIndex(payload []byte) ([]blockMeta, error) {
	r := &s2reader{b: payload}
	n := r.count("index", 19)
	metas := make([]blockMeta, n)
	for i := range metas {
		metas[i].off = int64(r.uvarint("block offset"))
		metas[i].length = int(r.uvarint("block length"))
		metas[i].count = int(r.uvarint("block count"))
		metas[i].minFp = r.u64("block min fp")
		metas[i].maxFp = r.u64("block max fp")
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("resultstore: v2 index: %d trailing bytes", len(r.b)-r.off)
	}
	return metas, nil
}

// writeSeg2 renders a full v2 segment (sorted blocks, index, trailer)
// into w. Records are sorted in place.
func writeSeg2(w io.Writer, recs []Record) error {
	sort.Slice(recs, func(i, j int) bool { return keyLess(recs[i].Key, recs[j].Key) })
	var enc blockEncoder
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, seg2FileMagic...)
	off := int64(len(buf))
	var metas []blockMeta
	for at := 0; at < len(recs); at += seg2BlockSize {
		end := min(at+seg2BlockSize, len(recs))
		chunk := recs[at:end]
		start := len(buf)
		buf = enc.appendFrame(buf, chunk)
		frameLen := len(buf) - start
		metas = append(metas, blockMeta{
			off:    off,
			length: frameLen - frameOverhead,
			count:  len(chunk),
			minFp:  chunk[0].Key.Fingerprint,
			maxFp:  chunk[len(chunk)-1].Key.Fingerprint,
		})
		off += int64(frameLen)
		if len(buf) >= 1<<20 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	indexOff := off
	buf = appendFrame(buf, seg2FrameIndex, encodeIndex(metas))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	buf = binary.LittleEndian.AppendUint32(buf,
		crc32.Checksum(buf[len(buf)-8:], crcTable))
	buf = append(buf, seg2TrailerMagic...)
	_, err := w.Write(buf)
	return err
}

// seg2 is an open v2 segment: the block index plus an open read handle;
// block payloads decode lazily through Disk.faultBlocks.
type seg2 struct {
	path   string
	f      faultline.File
	blocks []blockMeta
	count  int   // total records across blocks
	size   int64 // file bytes

	indexBytes int64
	loaded     int // blocks decoded so far
}

func (s *seg2) close() {
	if s != nil && s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// openSeg2 opens a v2 segment. The fast path reads the 16-byte trailer
// and the index frame only. If the trailer or index is damaged, the
// fallback scans frames from the start, eagerly decoding every intact
// block and dropping the torn tail; the records are then returned for
// immediate seeding and the handle is nil.
func openSeg2(fs faultline.FS, path string) (*seg2, []Record, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("resultstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("resultstore: %w", err)
	}
	size := fi.Size()
	if size < int64(len(seg2FileMagic)) {
		f.Close()
		return nil, nil, fmt.Errorf("resultstore: %s: not a v2 segment (short file)", path)
	}
	magic := make([]byte, len(seg2FileMagic))
	if _, err := f.ReadAt(magic, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("resultstore: %s: %w", path, err)
	}
	if string(magic) != seg2FileMagic {
		f.Close()
		return nil, nil, fmt.Errorf("resultstore: %s: not a v2 segment (bad magic)", path)
	}

	if metas, indexBytes, ok := readSeg2Index(f, size); ok {
		s := &seg2{path: path, f: f, blocks: metas, size: size, indexBytes: indexBytes}
		for _, m := range metas {
			s.count += m.count
		}
		return s, nil, nil
	}

	// Trailer or index unreadable: sequential recovery scan.
	recs, err := scanSeg2(f, size)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("resultstore: %s: %w", path, err)
	}
	return nil, recs, nil
}

// readSeg2Index reads the trailer and index frame; ok is false when
// either is damaged, or the index does not tile the file's blocks, and
// the caller should fall back to a scan.
func readSeg2Index(f faultline.File, size int64) (metas []blockMeta, indexBytes int64, ok bool) {
	if size < int64(len(seg2FileMagic))+seg2TrailerLen {
		return nil, 0, false
	}
	tr := make([]byte, seg2TrailerLen)
	if _, err := f.ReadAt(tr, size-seg2TrailerLen); err != nil {
		return nil, 0, false
	}
	if string(tr[12:16]) != seg2TrailerMagic ||
		crc32.Checksum(tr[0:8], crcTable) != binary.LittleEndian.Uint32(tr[8:12]) {
		return nil, 0, false
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	if indexOff < int64(len(seg2FileMagic)) || indexOff >= size-seg2TrailerLen {
		return nil, 0, false
	}
	frame := make([]byte, size-seg2TrailerLen-indexOff)
	if _, err := f.ReadAt(frame, indexOff); err != nil {
		return nil, 0, false
	}
	kind, payload, _, err := parseFrame(frame)
	if err != nil || kind != seg2FrameIndex {
		return nil, 0, false
	}
	metas, err = decodeIndex(payload)
	if err != nil || !tiles(metas, indexOff) {
		return nil, 0, false
	}
	return metas, int64(len(frame)), true
}

// tiles reports whether index entries tile the bytes between the file
// magic and the index frame: every block frame starts where the one
// before it ends, and the last ends where the index begins. writeSeg2
// always writes such an index. One that does not is crafted or damaged,
// and trusting it would let readBlock allocate whatever length an entry
// claims.
func tiles(metas []blockMeta, indexOff int64) bool {
	end := int64(len(seg2FileMagic))
	for _, m := range metas {
		if m.off != end || m.count < 0 || m.length < 0 ||
			int64(m.length) > indexOff-end-frameOverhead {
			return false
		}
		end += frameOverhead + int64(m.length)
	}
	return end == indexOff
}

// scanSeg2 recovers a damaged segment by walking its frames from the
// top: every intact block is decoded, corrupt blocks are skipped, and
// the index frame or a torn tail ends the scan.
func scanSeg2(f faultline.File, size int64) ([]Record, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	var recs []Record
	walkFrames(data[len(seg2FileMagic):], func(_, _ int, kind byte, blockRecs []Record, err error) bool {
		if kind == seg2FrameIndex {
			return false // blocks precede the index; nothing left to recover
		}
		if err == nil {
			recs = append(recs, blockRecs...)
		}
		return true
	})
	return recs, nil
}

// readBlock decodes block i from disk, verifying its frame CRC.
func (s *seg2) readBlock(i int) ([]Record, error) {
	m := s.blocks[i]
	frame := make([]byte, frameOverhead+m.length)
	if _, err := s.f.ReadAt(frame, m.off); err != nil {
		return nil, fmt.Errorf("resultstore: %s: block %d: %w", s.path, i, err)
	}
	kind, payload, _, err := parseFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %s: block %d: %w", s.path, i, err)
	}
	if kind != seg2FrameBlock {
		return nil, fmt.Errorf("resultstore: %s: block %d: frame kind %d", s.path, i, kind)
	}
	recs, err := decodeBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %s: block %d: %w", s.path, i, err)
	}
	if len(recs) != m.count {
		return nil, fmt.Errorf("resultstore: %s: block %d: %d records, index says %d",
			s.path, i, len(recs), m.count)
	}
	return recs, nil
}

// inRange reports whether fp falls inside some block's fingerprint
// range. It reads only the immutable index fields, so it is safe to call
// without the fault lock; the loaded-aware scan happens under it.
func (s *seg2) inRange(fp uint64) bool {
	i := sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].maxFp >= fp })
	return i < len(s.blocks) && s.blocks[i].minFp <= fp
}

package fleet

// The coordinator/worker wire protocol: strict-JSON request and reply
// documents for the coordinator endpoints —
//
//	POST /fleet/v1/join       JoinRequest   -> JoinReply (409: another protocol version)
//	POST /fleet/v1/heartbeat  Heartbeat     -> 204 (404: unknown worker, rejoin)
//	POST /fleet/v1/leave      Heartbeat     -> 204 (queued chunks re-queue)
//	POST /fleet/v1/work       WorkRequest   -> WireWork (up to maxWorkChunks chunks),
//	                                           or 204 after the long-poll window
//	POST /fleet/v1/results    ResultBatch   -> 204 (gzip Content-Encoding optional)
//	GET  /fleet/v1/stats      -> FleetStats (straggler analyzer)
//
// Results travel as the solved quantities only: like the disk store's
// records, the Workload descriptor pointer is stripped on the wire and
// reattached by the coordinator from the job at commit time
// (engine.CommitRemote). encoding/json round-trips float64 bit-exactly,
// so a fleet-evaluated point is byte-identical to a local one — the
// property FuzzDecodeBody's round trip checks.
//
// Coordinator and workers ship as one binary and speak one protocol
// version: a join that carries any other ProtocolVersion, or none, is
// refused with 409 Conflict, so a version-skewed worker stops at join
// instead of failing later on a strict decode. Response compression
// needs no protocol at all: Go's HTTP transport advertises
// Accept-Encoding: gzip and decompresses transparently.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/workload"
)

// ProtocolVersion is the wire protocol this build speaks. A worker
// sends it in every join; the coordinator refuses any other value.
const ProtocolVersion = 2

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// Name labels the worker in health reports (host:pid style); the
	// coordinator assigns the authoritative WorkerID.
	Name string `json:"name"`
	// Protocol is the worker's ProtocolVersion.
	Protocol int `json:"protocol"`
}

// JoinReply carries the worker's assigned identity and the cadence the
// coordinator expects: heartbeat every HeartbeatMS, declared dead after
// DeadAfterMS of silence, work long-polls held at most PollMS.
type JoinReply struct {
	WorkerID    string `json:"worker_id"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	DeadAfterMS int64  `json:"dead_after_ms"`
	PollMS      int64  `json:"poll_ms"`
}

// Heartbeat is the body of /fleet/v1/heartbeat and /fleet/v1/leave.
type Heartbeat struct {
	WorkerID string `json:"worker_id"`
}

// WorkRequest pulls the next chunks for a worker; the coordinator holds
// the request up to its poll window when no work is available.
type WorkRequest struct {
	WorkerID string `json:"worker_id"`
}

// WireWork is the work response: up to maxWorkChunks chunks, more than
// one only when the worker's queue is deep.
type WireWork struct {
	Chunks []WireChunk `json:"chunks"`
}

// WireChunk is one unit of dispatched work: a contiguous run of point
// indexes into the deterministic expansion of a scenario spec. The
// worker re-expands the spec (expansion is a pure function of the spec
// bytes, and workload fingerprints are content-addressed, so both
// sides derive identical jobs and cache keys) and evaluates exactly
// the indexed points.
type WireChunk struct {
	ID uint64 `json:"id"`
	// Spec is the scenario spec, scenario.Encode bytes. Workers cache
	// the expansion keyed by a hash of these bytes, so the chunks of one
	// sweep pay for expansion once.
	Spec json.RawMessage `json:"spec"`
	// Indexes are the expansion indexes to evaluate, ascending.
	Indexes []int `json:"indexes"`
}

// PointResult is one evaluated point of a chunk: the expansion index it
// answers, and either the solved quantities (Workload stripped) or the
// evaluation error, never both.
type PointResult struct {
	Index  int              `json:"index"`
	Result *workload.Result `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// ChunkResult posts a completed chunk back. Error reports a
// chunk-level failure (undecodable spec, index out of range) — the
// worker could not evaluate the chunk at all, and the coordinator
// fails the batch rather than re-queueing what cannot succeed.
type ChunkResult struct {
	ChunkID uint64        `json:"chunk_id"`
	Points  []PointResult `json:"points,omitempty"`
	Error   string        `json:"error,omitempty"`
	// ElapsedUS self-reports the chunk's evaluation wall time in
	// microseconds — the adaptive sizer's throughput sample, free of
	// queueing and post-coalescing delay. A chunk-level error carries
	// none, so a chunk that did no work feeds no sample.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
}

// ResultBatch coalesces the chunks one pull completed into one POST
// (/fleet/v1/results); WorkerID names the poster for all of them.
type ResultBatch struct {
	WorkerID string        `json:"worker_id"`
	Results  []ChunkResult `json:"results"`
}

// maxBodyBytes bounds any protocol body. Chunks dominate: a spec is a
// few KiB and a chunk result carries tens of ~400-byte points.
const maxBodyBytes = 8 << 20

// decodeStrict parses one JSON document, rejecting unknown fields at
// every nesting level and trailing data — the same convention as the
// scenario, traffic and faultline file formats, applied to the wire so
// a version-skewed fleet fails loudly instead of silently dropping
// fields. It stays apart from those files' decoder (internal/jsonfile)
// because it reads a request or reply stream capped at maxBodyBytes,
// never holding a whole file in hand: a wire error names the document
// type, and a line:col into a body nobody can see would say nothing.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fleet: decoding %T: %w", v, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("fleet: %T: trailing data", v)
	}
	return nil
}

// Pooled POST-body codec: the worker's steady-state result path
// serializes every completed batch, so the buffers, the json.Encoder's
// target and the gzip state are all reused instead of reallocated per
// request (the AllocsPerRun test pins the steady state). The same
// pools back the coordinator's compressed responses and request-body
// decompression.

// gzipMinBytes is the compression floor: bodies smaller than this ship
// plain, since gzip's ~20-byte framing and CPU buy nothing on a
// heartbeat-sized document.
const gzipMinBytes = 512

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

var gzwPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return zw
}}

var gzrPool sync.Pool // *gzip.Reader, lazily constructed

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// putBuf returns a buffer to the pool. Oversized one-off buffers are
// dropped so a single huge batch cannot pin its high-water mark
// forever.
func putBuf(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= 4<<20 {
		bufPool.Put(buf)
	}
}

// encodePost serializes v into a pooled buffer, gzip-compressing
// through a pooled writer when the JSON clears the compression floor;
// gzipped reports which (the caller sets Content-Encoding from it).
// Return the buffer via putBuf when the request cycle is done.
func encodePost(v any) (buf *bytes.Buffer, gzipped bool, err error) {
	plain := getBuf()
	if err := json.NewEncoder(plain).Encode(v); err != nil {
		putBuf(plain)
		return nil, false, err
	}
	if plain.Len() < gzipMinBytes {
		return plain, false, nil
	}
	zbuf := getBuf()
	zw := gzwPool.Get().(*gzip.Writer)
	zw.Reset(zbuf)
	_, err = zw.Write(plain.Bytes())
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	gzwPool.Put(zw)
	putBuf(plain)
	if err != nil {
		putBuf(zbuf)
		return nil, false, err
	}
	return zbuf, true, nil
}

// decodeBody is decodeStrict behind optional gzip: when gzipped (the
// request carried Content-Encoding: gzip) the stream is decompressed
// through a pooled reader first. The body size limit applies to the
// compressed bytes; the decompressed document is still decoded
// strictly.
func decodeBody(r io.Reader, gzipped bool, v any) error {
	if !gzipped {
		return decodeStrict(r, v)
	}
	limited := io.LimitReader(r, maxBodyBytes)
	zr, _ := gzrPool.Get().(*gzip.Reader)
	var err error
	if zr == nil {
		zr, err = gzip.NewReader(limited)
	} else {
		err = zr.Reset(limited)
	}
	if err != nil {
		return fmt.Errorf("fleet: decoding %T: %w", v, err)
	}
	err = decodeStrict(zr, v)
	if cerr := zr.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("fleet: decoding %T: %w", v, cerr)
	}
	gzrPool.Put(zr)
	return err
}

// EncodeResultBatch renders rb exactly as the worker's result path puts
// it on the wire — pooled JSON encode, gzip above the compression floor
// — and returns a copy of the payload plus whether it was compressed.
// It exists for benchmarks and tooling that measure the wire format
// from outside the package; the worker itself stays on the pooled
// zero-copy path.
func EncodeResultBatch(rb ResultBatch) ([]byte, bool, error) {
	buf, gzipped, err := encodePost(rb)
	if err != nil {
		return nil, false, err
	}
	out := append([]byte(nil), buf.Bytes()...)
	putBuf(buf)
	return out, gzipped, nil
}

// specSum is the worker-side expansion cache key: FNV-1a over the
// spec's encoded bytes.
func specSum(spec []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range spec {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

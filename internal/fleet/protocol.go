package fleet

// The coordinator/worker wire protocol: strict-JSON documents for
// joining, beating, leaving, pulling work and reading stats, and one
// binary body for posting results —
//
//	POST /fleet/v1/join       JoinRequest   -> JoinReply (409: another protocol version)
//	POST /fleet/v1/heartbeat  Heartbeat     -> 204 (404: unknown worker, rejoin)
//	POST /fleet/v1/leave      Heartbeat     -> 204 (queued chunks re-queue)
//	POST /fleet/v1/work       WorkRequest   -> WireWork (up to maxWorkChunks chunks),
//	                                           or 204 after the long-poll window
//	POST /fleet/v1/results    ResultBatch   -> 204 (binary body, ResultBatch.Append)
//	GET  /fleet/v1/stats      -> FleetStats (straggler analyzer)
//
// Results travel in the store's own record codec: each chunk's solved
// points are one resultstore block frame, the CRC32C-framed, bit-exact
// codec the append log writes, so a fleet-evaluated point is
// byte-identical to a local one. Like the log's records, a frame's
// records carry their cache keys and no Workload descriptor: the
// coordinator checks every key against the key it derived for that
// point and reattaches its own descriptor at commit
// (engine.CommitRemote), so a worker cannot write under a key it was
// not given.
//
// Coordinator and workers ship as one binary and speak one protocol
// version: a join that carries any other ProtocolVersion, or none, is
// refused with 409 Conflict, so a version-skewed worker stops at join
// instead of failing later on a strict decode. Response compression
// needs no protocol at all: Go's HTTP transport advertises
// Accept-Encoding: gzip and decompresses transparently.

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ProtocolVersion is the wire protocol this build speaks. A worker
// sends it in every join; the coordinator refuses any other value.
const ProtocolVersion = 3

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

// ChunkResult is one completed chunk of a result post. Error reports a
// chunk-level failure (undecodable spec, index out of range): the
// worker could not evaluate the chunk at all, and the coordinator fails
// its points rather than re-queueing what cannot succeed. Otherwise
// Failed lists the points whose evaluation failed, and Frame holds the
// chunk's other points, in chunk order, as one resultstore block frame.
type ChunkResult struct {
	ChunkID uint64
	// ElapsedUS self-reports the chunk's evaluation wall time in
	// microseconds — the adaptive sizer's throughput sample, free of
	// queueing and post-coalescing delay. A chunk-level error carries
	// none, so a chunk that did no work feeds no sample.
	ElapsedUS int64
	Error     string
	Failed    []PointError
	Frame     []byte
}

// PointError is one chunk point whose evaluation failed: its expansion
// index and the error's text.
type PointError struct {
	Index int
	Error string
}

// ResultBatch coalesces the chunks one pull completed into one POST
// (/fleet/v1/results); WorkerID names the poster for all of them.
type ResultBatch struct {
	WorkerID string
	Results  []ChunkResult
}

// Append appends rb's binary body to dst: the worker id, then per chunk
// its id, elapsed_us, error, failed points and frame, to the end of the
// body. Integers are uvarints (a signed one as its two's-complement
// bits) and strings and frames are uvarint-length-prefixed. dst grows
// at most once, to maxLen, before anything is written.
func (rb *ResultBatch) Append(dst []byte) []byte {
	dst = slices.Grow(dst, rb.maxLen())
	dst = appendBytes(dst, rb.WorkerID)
	for _, cr := range rb.Results {
		dst = binary.AppendUvarint(dst, cr.ChunkID)
		dst = binary.AppendUvarint(dst, uint64(cr.ElapsedUS))
		dst = appendBytes(dst, cr.Error)
		dst = binary.AppendUvarint(dst, uint64(len(cr.Failed)))
		for _, pe := range cr.Failed {
			dst = binary.AppendUvarint(dst, uint64(pe.Index))
			dst = appendBytes(dst, pe.Error)
		}
		dst = appendBytes(dst, cr.Frame)
	}
	return dst
}

// maxLen bounds the length of rb's body: its strings and frames, and
// every varint at its longest.
func (rb *ResultBatch) maxLen() int {
	n := binary.MaxVarintLen64 + len(rb.WorkerID)
	for _, cr := range rb.Results {
		n += 5*binary.MaxVarintLen64 + len(cr.Error) + len(cr.Frame)
		for _, pe := range cr.Failed {
			n += 2*binary.MaxVarintLen64 + len(pe.Error)
		}
	}
	return n
}

// appendBytes appends s behind its uvarint length.
func appendBytes[T string | []byte](dst []byte, s T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Decode parses a result body strictly: every varint minimal and every
// length inside the body, so a body that decodes re-encodes through
// Append to exactly its own bytes. Frames alias data and are not parsed
// here: the coordinator parses each one against the chunk it answers.
func (rb *ResultBatch) Decode(data []byte) error {
	r := bodyReader{b: data}
	*rb = ResultBatch{WorkerID: string(r.bytes())}
	for r.err == nil && len(r.b) > 0 {
		var cr ChunkResult
		cr.ChunkID = r.uvarint()
		cr.ElapsedUS = int64(r.uvarint())
		cr.Error = string(r.bytes())
		for n := r.uvarint(); n > 0 && r.err == nil; n-- {
			cr.Failed = append(cr.Failed, PointError{Index: int(r.uvarint()), Error: string(r.bytes())})
		}
		cr.Frame = r.bytes()
		rb.Results = append(rb.Results, cr)
	}
	return r.err
}

// bodyReader consumes a result body; the first malformed field sticks.
type bodyReader struct {
	b   []byte
	err error
}

var errBadBody = errors.New("fleet: result body: truncated or non-minimal varint")

// uvarint reads one uvarint, rejecting an over-long encoding (one that
// ends in a zero byte), which would re-encode to other bytes.
func (r *bodyReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.err == nil && (n <= 0 || n > 1 && r.b[n-1] == 0) {
		r.err = errBadBody
	}
	if r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads one length-prefixed string or frame, aliasing the body.
func (r *bodyReader) bytes() []byte {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errBadBody
	}
	if r.err != nil {
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// maxBodyBytes bounds any protocol body. Chunks dominate: a spec is a
// few KiB and a chunk result carries up to 256 ~300-byte records.
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

// gzipMinBytes is the response compression floor: bodies smaller than
// this ship plain, since gzip's ~20-byte framing and CPU buy nothing on
// a heartbeat-sized document.
const gzipMinBytes = 512

// gzwPool reuses the coordinator's response gzip writers.
var gzwPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return zw
}}

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

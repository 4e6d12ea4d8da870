package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/scenario"
)

// FuzzDecodeBody drives arbitrary bytes through every decoder a peer's
// body meets: the strict JSON of the join, work, heartbeat and leave
// requests and of a pulled WireWork, and the binary result body.
// Nothing may panic. A JSON document that decodes must re-encode and
// decode back to the same document; a result body that decodes must
// re-encode to exactly its own bytes, and every frame it carries goes
// through resultstore.ParseBlock, which must keep a frame it accepts
// stable across a re-encode.
func FuzzDecodeBody(f *testing.F) {
	spec, err := scenario.Encode(fleetSpec("fuzz-wire"))
	if err != nil {
		f.Fatal(err)
	}
	var work WireWork
	for i := 0; i < 4; i++ {
		work.Chunks = append(work.Chunks, WireChunk{ID: uint64(i + 1), Spec: spec, Indexes: []int{3 * i, 3*i + 1, 3*i + 2}})
	}
	var docs [][]byte
	for _, doc := range []any{
		work,
		JoinRequest{Name: "w0", Protocol: ProtocolVersion},
		Heartbeat{WorkerID: "w-000001"},
	} {
		data, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, data)
	}
	for _, data := range docs {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(flipped(data, len(data)/2))
	}
	// Real result posts: two 64-point chunks, one point of the first
	// failed, and an error-only chunk. Each also goes in truncated inside
	// its last frame and with a byte flipped in its header and in a frame.
	for _, rb := range []ResultBatch{
		{WorkerID: "w-000001", Results: realResults(f, 128, 5)},
		{WorkerID: "w-000001", Results: []ChunkResult{{ChunkID: 1, Error: "bad spec"}}},
	} {
		body := rb.Append(nil)
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)-3])
		f.Add(flipped(body, 3))
		f.Add(flipped(body, len(body)-5))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes[JoinRequest](t, data)
		reencodes[WorkRequest](t, data)
		reencodes[Heartbeat](t, data)
		reencodes[WireWork](t, data)
		var rb ResultBatch
		if rb.Decode(data) != nil {
			return
		}
		if re := rb.Append(nil); !bytes.Equal(re, data) {
			t.Fatalf("result body re-encodes to other bytes:\n%x\n%x", data, re)
		}
		for _, cr := range rb.Results {
			recs, _, err := resultstore.ParseBlock(cr.Frame)
			if err != nil {
				continue
			}
			frame := resultstore.AppendBlock(nil, recs)
			back, _, err := resultstore.ParseBlock(frame)
			if err != nil || !bytes.Equal(resultstore.AppendBlock(nil, back), frame) {
				t.Fatalf("chunk %d: a parsed frame does not survive a re-encode (%v)", cr.ChunkID, err)
			}
		}
	})
}

// flipped returns a copy of data with one bit of byte i flipped.
func flipped(data []byte, i int) []byte {
	out := bytes.Clone(data)
	out[i] ^= 0x10
	return out
}

// reencodes checks the JSON round trip for one body type: if data
// decodes as a T, its re-encoding decodes to the same document.
// Documents compare as canonical JSON, because a raw spec comes back
// compacted.
func reencodes[T any](t *testing.T, data []byte) {
	var first T
	if decodeStrict(bytes.NewReader(data), &first) != nil {
		return
	}
	enc, err := json.Marshal(first)
	if err != nil {
		t.Fatalf("decoded %T does not re-encode: %v", first, err)
	}
	var second T
	if err := decodeStrict(bytes.NewReader(enc), &second); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", first, err)
	}
	if again, _ := json.Marshal(second); !bytes.Equal(enc, again) {
		t.Fatalf("%T changed across the round trip:\n%s\n%s", first, enc, again)
	}
}

package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// FuzzDecodeBody drives arbitrary bytes, plain and gzipped, through the
// wire decoder into every body a peer sends: the join, work, heartbeat
// and leave requests, a pulled WireWork and a posted ResultBatch.
// Nothing may panic, and a body that decodes must re-encode through
// encodePost and decode back to the same document.
func FuzzDecodeBody(f *testing.F) {
	spec, err := scenario.Encode(fleetSpec("fuzz-wire"))
	if err != nil {
		f.Fatal(err)
	}
	var work WireWork
	for i := 0; i < 4; i++ {
		work.Chunks = append(work.Chunks, WireChunk{ID: uint64(i + 1), Spec: spec, Indexes: []int{3 * i, 3*i + 1, 3*i + 2}})
	}
	plain, err := json.Marshal(work)
	if err != nil {
		f.Fatal(err)
	}
	type seed struct {
		data    []byte
		gzipped bool
	}
	seeds := []seed{{plain, false}}
	buf, gzipped, err := encodePost(work)
	if err != nil || !gzipped {
		f.Fatalf("multi-chunk work: gzipped %v, err %v", gzipped, err)
	}
	seeds = append(seeds, seed{append([]byte(nil), buf.Bytes()...), gzipped})
	putBuf(buf)
	for _, rb := range []ResultBatch{
		{WorkerID: "w-000001", Results: []ChunkResult{{ChunkID: 1, Error: "bad spec"}}},
		{WorkerID: "w-000001", Results: realResults(f, 64)},
	} {
		data, gzipped, err := EncodeResultBatch(rb)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, seed{data, gzipped})
	}
	for _, req := range []any{
		JoinRequest{Name: "w0", Protocol: ProtocolVersion},
		Heartbeat{WorkerID: "w-000001"},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, seed{data, false})
	}
	for _, s := range seeds {
		f.Add(s.data, s.gzipped)
		f.Add(s.data[:len(s.data)/2], s.gzipped)
		flipped := append([]byte(nil), s.data...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped, s.gzipped)
	}
	f.Fuzz(func(t *testing.T, data []byte, gzipped bool) {
		reencodes[JoinRequest](t, data, gzipped)
		reencodes[WorkRequest](t, data, gzipped)
		reencodes[Heartbeat](t, data, gzipped)
		reencodes[WireWork](t, data, gzipped)
		reencodes[ResultBatch](t, data, gzipped)
	})
}

// reencodes checks the wire round trip for one body type: if data
// decodes as a T, encodePost's rendering of it decodes to the same
// document. Documents compare as canonical JSON, because a raw spec
// comes back compacted.
func reencodes[T any](t *testing.T, data []byte, gzipped bool) {
	var first T
	if decodeBody(bytes.NewReader(data), gzipped, &first) != nil {
		return
	}
	buf, gz, err := encodePost(first)
	if err != nil {
		t.Fatalf("decoded %T does not re-encode: %v", first, err)
	}
	var second T
	err = decodeBody(bytes.NewReader(buf.Bytes()), gz, &second)
	putBuf(buf)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", first, err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("%T changed across the round trip:\n%s\n%s", first, a, b)
	}
}

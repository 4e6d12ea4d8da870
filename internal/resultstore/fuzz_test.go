package resultstore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
)

// beyondDram returns the beyond-dram preset sweep's evaluation points as
// store records, descriptors stripped. The first key takes one exotic
// but schema-valid shape: placement and variant set.
func beyondDram(tb testing.TB) []resultstore.Record {
	tb.Helper()
	sp, err := scenario.ByName("beyond-dram")
	if err != nil {
		tb.Fatal(err)
	}
	outs, err := sp.Run(engine.New(platform.NewPurley().Socket(0), 0))
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]resultstore.Record, len(outs))
	for i, o := range outs {
		k := resultstore.Key{
			App:         o.App,
			Fingerprint: o.Result.Workload.Fingerprint(),
			Mode:        o.Mode,
			Threads:     o.Threads,
		}
		if i == 0 {
			k.Placement, k.Variant = 1<<63, "missOverlap=1.5"
		}
		res := o.Result
		res.Workload = nil
		recs[i] = resultstore.Record{Key: k, Res: res}
	}
	return recs
}

// FuzzSegmentV2RoundTrip drives the v2 binary block codec with arbitrary
// frame bytes. The frame layer's CRC32C must reject every corruption —
// a frame that fails its checksum returns an error, never a mis-decoded
// payload — and any block payload that does decode must survive an
// encode/decode round trip exactly. The corpus is seeded with real
// frames: the beyond-dram preset sweep's records encoded exactly as
// Compact writes them, plus synthetic edge shapes.
func FuzzSegmentV2RoundTrip(f *testing.F) {
	recs := beyondDram(f)
	sort.Slice(recs, func(i, j int) bool {
		return recs[i].Key.Fingerprint < recs[j].Key.Fingerprint
	})
	f.Add(resultstore.AppendBlock(nil, recs))
	f.Add(resultstore.AppendBlock(nil, recs[:1]))
	f.Add(resultstore.AppendBlock(nil, nil))
	f.Add([]byte{resultstore.FrameBlockKind, 0, 0, 0})                            // short header
	f.Add([]byte{resultstore.FrameBlockKind, 4, 0, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0}) // bad CRC

	f.Fuzz(func(t *testing.T, frame []byte) {
		recs, _, err := resultstore.ParseBlock(frame)
		if err != nil {
			return // corrupt, foreign or undecodable frames are rejected cleanly
		}
		// A block that decodes must round-trip exactly through the
		// columnar encoder.
		recs2, _, err := resultstore.ParseBlock(resultstore.AppendBlock(nil, recs))
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("block round trip drifted:\n first  %+v\n second %+v", recs, recs2)
		}
	})
}

// beyondDramSegment runs the beyond-dram sweep against a disk store on
// one engine worker, compacting it when ext is ".seg", and returns the
// one segment file with that extension it leaves: real bytes, exactly as
// a batch's range commit (".log": the worker's one range, as one
// 16-record frame) or Compact (".seg", in blocks of four records so the
// index has several entries) writes them.
func beyondDramSegment(f *testing.F, ext string) []byte {
	defer resultstore.SetBlockSizeForTest(4)()
	dir := f.TempDir()
	d, err := resultstore.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	sp, err := scenario.ByName("beyond-dram")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sp.Run(engine.NewWithStore(platform.NewPurley().Socket(0), 1, d)); err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	if ext == ".seg" {
		if err := resultstore.Compact(dir); err != nil {
			f.Fatal(err)
		}
	}
	return onlySegment(f, dir, ext)
}

// onlySegment returns the bytes of the one segment file with extension
// ext in dir.
func onlySegment(tb testing.TB, dir, ext string) []byte {
	tb.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil || len(segs) != 1 {
		tb.Fatalf("%s segments = %v (%v), want 1", ext, segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// directLog commits the beyond-dram sweep's records to a disk store one
// Commit at a time and returns the log it leaves: one-record frames.
func directLog(f *testing.F) []byte {
	dir := f.TempDir()
	d, err := resultstore.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range beyondDram(f) {
		d.Commit(r.Key, r.Res, nil)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	return onlySegment(f, dir, ".log")
}

// FuzzAppendLog drives the frame walker that replays log segments (and
// serves Verify, Stat and the v2 recovery scan) with arbitrary bytes, a
// cut point and a bit to flip. Beyond never panicking, three properties
// hold: every record the walk loads re-encodes to the identical frame;
// cutting the data inside a frame makes that frame a torn tail and
// leaves every frame before the cut as it was; and flipping one bit of
// an intact frame's payload or checksum condemns that frame alone as
// corrupt. The corpus is seeded with both log layouts a real
// beyond-dram sweep leaves — one-record frames from direct Commit calls
// and the multi-record frame of an engine batch's range commit — and
// with the two back to back, cuts inside the multi-record frame (which
// must drop it whole as a torn tail), truncations and bit flips.
func FuzzAppendLog(f *testing.F) {
	direct := directLog(f)
	batched := beyondDramSegment(f, ".log")
	if frames, torn := resultstore.WalkLogForTest(batched); torn || len(frames) != 1 || len(frames[0].Recs) < 2 {
		f.Fatalf("engine batch log: %d frames (torn=%v), want one multi-record frame", len(frames), torn)
	}
	mixed := append(bytes.Clone(direct), batched...)
	flipped := bytes.Clone(mixed)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(direct, uint32(len(direct)), uint32(0))
	f.Add(batched, uint32(len(batched)/2), uint32(3))
	f.Add(mixed, uint32(len(direct)+len(batched)/2), uint32(7))
	f.Add(mixed[:len(mixed)-1], uint32(len(direct)), uint32(7))
	f.Add(direct[:len(direct)/2], uint32(3), uint32(1<<20))
	f.Add(mixed[:5], uint32(2), uint32(0))
	f.Add(flipped, uint32(len(mixed)), uint32(12345))
	f.Add([]byte{}, uint32(0), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint32) {
		frames, torn := resultstore.WalkLogForTest(data)
		end := 0
		var intact []resultstore.LogFrame
		for _, fr := range frames {
			if fr.Off != end {
				t.Fatalf("frame at %d, want %d: frames must tile the data", fr.Off, end)
			}
			end = fr.Off + fr.Len
			if fr.Err != nil {
				continue
			}
			intact = append(intact, fr)
			re := resultstore.AppendBlock(nil, fr.Recs)
			if !bytes.Equal(re, data[fr.Off:end]) {
				t.Fatalf("frame at %d: its records re-encode to a different frame", fr.Off)
			}
		}
		if torn != (end < len(data)) {
			t.Fatalf("walk covered %d of %d bytes but torn=%v", end, len(data), torn)
		}

		// A cut inside a frame tears it: the frames wholly before the cut
		// walk as before, and the rest is a torn tail.
		c := int(cut % uint32(len(data)+1))
		var want []resultstore.LogFrame
		boundary := 0
		for _, fr := range frames {
			if fr.Off+fr.Len <= c {
				want = append(want, fr)
				boundary = fr.Off + fr.Len
			}
		}
		got, ctorn := resultstore.WalkLogForTest(data[:c])
		if !sameFrames(got, want) || ctorn != (c > boundary) {
			t.Fatalf("cut at %d: %d frames, torn=%v; want %d frames, torn=%v",
				c, len(got), ctorn, len(want), c > boundary)
		}

		// One flipped bit in an intact frame's payload or checksum makes
		// that frame corrupt and leaves every other frame as it was.
		if len(intact) == 0 {
			return
		}
		fr := intact[int(flip%uint32(len(intact)))]
		at := fr.Off + 5 + int(flip/uint32(len(intact)))%(fr.Len-5)
		mutated := bytes.Clone(data)
		mutated[at] ^= 1 << (flip >> 29)
		mf, mtorn := resultstore.WalkLogForTest(mutated)
		if mtorn != torn || len(mf) != len(frames) {
			t.Fatalf("bit flip at %d changed the frame layout", at)
		}
		for i := range mf {
			if mf[i].Off == fr.Off {
				if mf[i].Err == nil {
					t.Fatalf("bit flip at %d in the frame at %d went undetected", at, fr.Off)
				}
				continue
			}
			if !sameFrame(mf[i], frames[i]) {
				t.Fatalf("bit flip in the frame at %d changed the frame at %d", fr.Off, mf[i].Off)
			}
		}
	})
}

// sameFrames reports whether two walks saw the same frames with the same
// verdicts.
func sameFrames(a, b []resultstore.LogFrame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFrame(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameFrame compares frames by place and verdict; equal bytes decode to
// equal records.
func sameFrame(a, b resultstore.LogFrame) bool {
	return a.Off == b.Off && a.Len == b.Len && (a.Err == nil) == (b.Err == nil)
}

// FuzzOpenSegment drives the v2 segment open path — trailer, index and
// lazily faulted blocks — with arbitrary bytes written as a store's only
// segment. Stat, Open, Acquires that fault in every indexed block and
// Verify must return, never panic or allocate what a damaged index
// claims; Stat, which runs Open's loader, must fail exactly when Open
// does, with its error, and otherwise count the records Open persisted;
// and a store Verify has scrubbed must open, compact and open again.
// The corpus is seeded with a real compacted beyond-dram segment, a
// truncation and a bit flip of it, and two crafted indexes whose one
// entry claims a block of 2^40 or 2^64-20 bytes with no block bytes
// behind it.
func FuzzOpenSegment(f *testing.F) {
	seg := beyondDramSegment(f, ".seg")
	flipped := bytes.Clone(seg)
	flipped[len(seg)/2] ^= 0x10
	f.Add(seg)
	f.Add(seg[:len(seg)-1])
	f.Add(flipped)
	f.Add(resultstore.CraftedSegmentForTest(1 << 40))
	f.Add(resultstore.CraftedSegmentForTest(1<<64 - 20))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "segment-00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, statErr := resultstore.Stat(dir)
		d, err := resultstore.OpenFS(dir, nil)
		if (statErr == nil) != (err == nil) || statErr != nil && statErr.Error() != err.Error() {
			t.Fatalf("Stat error %v, Open error %v; want the same", statErr, err)
		}
		if err == nil {
			if st.Records != d.Persisted() {
				t.Fatalf("Stat counts %d records, Open persisted %d", st.Records, d.Persisted())
			}
			for _, r := range d.BlockRangesForTest() {
				d.Acquire(resultstore.Key{Fingerprint: r[0]})
				d.Acquire(resultstore.Key{Fingerprint: r[1]})
			}
			d.Close() // reports a block that failed to decode; that is allowed
		}
		if _, err := resultstore.Verify(dir); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		d, err = resultstore.OpenFS(dir, nil)
		if err != nil {
			t.Fatalf("scrubbed store does not open: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("scrubbed store: %v", err)
		}
		if err := resultstore.Compact(dir); err != nil {
			t.Fatalf("scrubbed store does not compact: %v", err)
		}
		if d, err = resultstore.OpenFS(dir, nil); err != nil {
			t.Fatalf("compacted store does not open: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("compacted store: %v", err)
		}
	})
}

// TestFrameCRCRejectsBitFlips deterministically pins the CRC property
// the fuzz target probes: flipping any single byte of a framed block is
// detected.
func TestFrameCRCRejectsBitFlips(t *testing.T) {
	var recs []resultstore.Record
	for i := 0; i < 5; i++ {
		k, res := resultstore.SyntheticRecord(i)
		recs = append(recs, resultstore.Record{Key: k, Res: res})
	}
	sort.Slice(recs, func(i, j int) bool {
		return recs[i].Key.Fingerprint < recs[j].Key.Fingerprint
	})
	frame := resultstore.AppendBlock(nil, recs)
	if _, _, err := resultstore.ParseBlock(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for i := 5; i < len(frame); i++ { // every payload and CRC byte
		corrupt := append([]byte(nil), frame...)
		corrupt[i] ^= 0x01
		if _, _, err := resultstore.ParseBlock(corrupt); err == nil {
			t.Fatalf("bit flip at byte %d not detected by CRC", i)
		}
	}
}

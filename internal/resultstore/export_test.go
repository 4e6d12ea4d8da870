package resultstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Test hooks for the external resultstore_test package (which needs
// scenario/engine — importers of this package — to seed real records).

// FrameBlockKind is the block frame kind byte.
const FrameBlockKind = seg2FrameBlock

// LogFrame is one frame of a log segment as the frame walker saw it.
type LogFrame struct {
	Off, Len int      // where the frame sits in the walked data
	Recs     []Record // its records, when it is intact
	Err      error    // why it is corrupt, otherwise
}

// WalkLogForTest walks a log segment's frames with the walker replay,
// Verify and Stat use, returning every frame it visited and whether the
// data ends in a torn tail.
func WalkLogForTest(data []byte) (frames []LogFrame, torn bool) {
	torn = walkFrames(data, func(off, n int, _ byte, recs []Record, err error) bool {
		frames = append(frames, LogFrame{Off: off, Len: n, Recs: recs, Err: err})
		return true
	})
	return frames, torn
}

// SetBlockSizeForTest overrides the v2 records-per-block target so small
// record sets produce multi-block segments; the returned func restores
// the default.
func SetBlockSizeForTest(n int) (restore func()) {
	old := seg2BlockSize
	seg2BlockSize = n
	return func() { seg2BlockSize = old }
}

// withIndex renders a v2 segment from its leading bytes (file magic and
// block frames) followed by an index frame listing metas and a valid
// trailer, whether or not metas describe those blocks.
func withIndex(blocks []byte, metas []blockMeta) []byte {
	indexOff := len(blocks)
	buf := appendFrame(bytes.Clone(blocks), seg2FrameIndex, encodeIndex(metas))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(buf)-8:], crcTable))
	return append(buf, seg2TrailerMagic...)
}

// CraftedSegmentForTest renders a v2 segment that holds no blocks: the
// file magic, then a valid index frame and trailer whose one entry
// claims a block of length bytes spanning every fingerprint.
func CraftedSegmentForTest(length uint64) []byte {
	return withIndex([]byte(seg2FileMagic), []blockMeta{{
		off: int64(len(seg2FileMagic)), length: int(length), count: 1, maxFp: math.MaxUint64}})
}

// BlockRangesForTest returns the fingerprint range of every entry in
// the open store's v2 segment index; none without one.
func (d *Disk) BlockRangesForTest() [][2]uint64 {
	s := d.seg2.Load()
	if s == nil {
		return nil
	}
	ranges := make([][2]uint64, len(s.blocks))
	for i, b := range s.blocks {
		ranges[i] = [2]uint64{b.minFp, b.maxFp}
	}
	return ranges
}

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultline"
)

// VerifyReport is the outcome of a store scrub: which segments passed
// their integrity walk, which were quarantined, and how many records
// were salvaged out of the quarantined ones.
type VerifyReport struct {
	Dir         string   `json:"dir"`
	SegmentsOK  int      `json:"segments_ok"`
	Quarantined []string `json:"quarantined,omitempty"` // file names moved aside
	RecordsOK   int      `json:"records_ok"`            // records that decoded clean
	Salvaged    int      `json:"salvaged"`              // unique records rescued from quarantined segments
	TornTails   int      `json:"torn_tails"`            // log segments ending in a torn append (normal crash signature)
}

// Verify scrubs a store directory: it walks every segment's frames —
// each log record and each v2 block CRC-checked and decoded —
// quarantines corrupt segments by renaming them with a ".quarantined"
// suffix (Open and Stat skip them; the bytes stay for forensics), and
// salvages their still-decodable records into a fresh log segment, so a
// single bad frame never costs the rest of its segment. An intact newest
// v2 segment supersedes the segments numbered below it, leftovers of a
// compaction interrupted before its deletes, which it already holds:
// once every one of its blocks has decoded, Verify deletes them
// unwalked, as Compact does, rather than salvage their records on top of
// the compacted ones (Open leaves them unread). A damaged one leaves
// them as the fallback layer, walked and salvaged like any other
// segment. Corruption is reported in the returned report, never as an
// error; the error path is for the scrub itself failing (unreadable
// directory, store locked by a live process). JSON-lines segments from
// older releases are left alone: this release does not read them.
//
// A torn final frame of a log segment is the normal crash-mid-append
// signature, counted in TornTails and not quarantined. Salvage is safe
// under reordering because records are content-addressed: a key is
// derived from the workload fingerprint and evaluation is
// deterministic, so every persisted occurrence of a key carries the
// same result.
func Verify(dir string) (VerifyReport, error) { return VerifyFS(dir, faultline.OS{}) }

// VerifyFS is Verify over an explicit filesystem seam.
func VerifyFS(dir string, fs faultline.FS) (VerifyReport, error) {
	if fs == nil {
		fs = faultline.OS{}
	}
	lock, err := lockDir(dir)
	if err != nil {
		return VerifyReport{}, err
	}
	defer unlock(lock)
	infos, _, _, err := scanDir(fs, dir)
	if err != nil {
		return VerifyReport{}, err
	}
	rep := VerifyReport{Dir: dir}
	maxSeq := 0
	for _, si := range infos {
		maxSeq = max(maxSeq, si.seq)
	}
	v2, _, stale := splitLive(infos)
	var v2ok bool
	var v2recs []Record
	if v2 != nil {
		v2ok, v2recs = verifyV2(fs, filepath.Join(dir, v2.name))
	}
	if v2ok {
		for _, si := range stale {
			fs.Remove(filepath.Join(dir, si.name))
		}
		infos = infos[len(stale):] // stale is infos' prefix: it sorts by sequence
	}
	var salvage []Record
	seen := make(map[Key]bool)
	for _, si := range infos {
		path := filepath.Join(dir, si.name)
		var ok, torn bool
		var recs []Record
		switch {
		case v2 != nil && si.seq == v2.seq:
			ok, recs = v2ok, v2recs
		case si.kind == kindLog:
			ok, torn, recs = verifyLog(fs, path)
		default:
			ok, recs = verifyV2(fs, path)
		}
		if torn {
			rep.TornTails++
		}
		if ok {
			rep.SegmentsOK++
			rep.RecordsOK += len(recs)
			continue
		}
		rep.RecordsOK += len(recs)
		if err := fs.Rename(path, path+quarantineSuffix); err != nil {
			return rep, fmt.Errorf("resultstore: quarantining %s: %w", si.name, err)
		}
		rep.Quarantined = append(rep.Quarantined, si.name)
		for _, r := range recs {
			if !seen[r.Key] {
				seen[r.Key] = true
				salvage = append(salvage, r)
			}
		}
	}
	if len(salvage) > 0 {
		if err := writeLog(fs, filepath.Join(dir, logName(maxSeq+1)), salvage); err != nil {
			return rep, fmt.Errorf("resultstore: salvage: %w", err)
		}
		rep.Salvaged = len(salvage)
		syncDir(fs, dir)
	}
	return rep, nil
}

// verifyLog walks a log segment's frames. A torn final frame is the
// crash signature, not corruption; a complete frame that fails its CRC
// or decode condemns the segment. Decodable records are returned either
// way.
func verifyLog(fs faultline.FS, path string) (ok, torn bool, recs []Record) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return false, false, nil
	}
	torn, bad := readLog(data, func(r Record) { recs = append(recs, r) })
	return bad == nil, torn, recs
}

// verifyV2 opens a v2 segment and decodes every block, CRCs checked by
// the frame walk. A damaged trailer or index (the handle-less recovery
// path) or any failing block condemns the segment; intact blocks'
// records are returned either way.
func verifyV2(fs faultline.FS, path string) (ok bool, recs []Record) {
	s, recovered, err := openSeg2(fs, path)
	if err != nil {
		return false, nil
	}
	if s == nil {
		return false, recovered
	}
	defer s.close()
	ok = true
	for i := range s.blocks {
		blockRecs, err := s.readBlock(i)
		if err != nil {
			ok = false
			continue
		}
		recs = append(recs, blockRecs...)
	}
	return ok, recs
}

// writeLog writes records as a fresh log segment at path, one frame per
// record, and fsyncs it.
func writeLog(fs faultline.FS, path string, recs []Record) error {
	var enc blockEncoder
	var buf []byte
	for i := range recs {
		buf = enc.appendFrame(buf, recs[i:i+1])
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

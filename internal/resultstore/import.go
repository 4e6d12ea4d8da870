package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/faultline"
	"repro/internal/workload"
)

// Stores written by older releases kept fresh results as JSON lines, one
// record per line, in segment-NNNNNNNN.jsonl files. Open refuses a
// directory that still holds them; ImportJSONL converts them into log
// segments and is the only reader of the JSON format left.

// jsonRecord is one JSON-lines record: the cache Key and the solved
// result, marshalled by their exported Go field names.
type jsonRecord struct {
	V      int             `json:"v"`
	Key    Key             `json:"key"`
	Result workload.Result `json:"result"`
}

// decodeJSONRecord parses one JSON-lines record.
func decodeJSONRecord(line []byte) (Key, workload.Result, error) {
	var r jsonRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return Key{}, workload.Result{}, err
	}
	if r.V != 1 {
		return Key{}, workload.Result{}, fmt.Errorf("resultstore: JSON record version %d, want 1", r.V)
	}
	r.Result.Workload = nil
	return r.Key, r.Result, nil
}

// ImportJSONL converts every JSON-lines segment in dir into a log
// segment with the same sequence number, so record precedence does not
// change, and returns how many records it imported. A torn final line —
// an interrupted append — is dropped; a complete line that fails to
// decode is an error naming its file and line, and leaves that segment
// and the ones after it unconverted. Each conversion is crash-safe: the
// log segment and the directory are synced before the JSON-lines file is
// removed, and rerunning the import redoes an interrupted conversion.
// Like Open, it fails if another process holds the store.
func ImportJSONL(dir string) (int, error) {
	fs := faultline.OS{}
	lock, err := lockDir(dir)
	if err != nil {
		return 0, err
	}
	defer unlock(lock)
	infos, err := scanDir(fs, dir)
	if err != nil {
		return 0, err
	}
	imported := 0
	for _, si := range infos {
		if si.kind != kindJSONL {
			continue
		}
		path := filepath.Join(dir, si.name)
		recs, err := readJSONL(fs, path)
		if err != nil {
			return imported, err
		}
		if err := writeLog(fs, filepath.Join(dir, logName(si.seq)), recs); err != nil {
			return imported, fmt.Errorf("resultstore: importing %s: %w", si.name, err)
		}
		syncDir(fs, dir)
		if err := fs.Remove(path); err != nil {
			return imported, fmt.Errorf("resultstore: %w", err)
		}
		imported += len(recs)
	}
	syncDir(fs, dir)
	return imported, nil
}

// readJSONL decodes every record of a JSON-lines segment.
func readJSONL(fs faultline.FS, path string) ([]rec, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	lines := bytes.Split(data, []byte{'\n'})
	var recs []rec
	for li, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		k, res, err := decodeJSONRecord(line)
		if err != nil {
			// Records end in '\n', so a failing final split element is an
			// unterminated torn tail; a complete line that fails to decode
			// is corruption.
			if li == len(lines)-1 {
				break
			}
			return nil, fmt.Errorf("resultstore: %s:%d: %w", path, li+1, err)
		}
		recs = append(recs, rec{k, res})
	}
	return recs, nil
}

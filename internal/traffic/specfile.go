package traffic

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// The traffic-spec file schema is the Spec struct itself: plain tagged
// fields, no translation layer, decoded strictly. Unknown fields are
// rejected at every nesting level — the top-level decoder's
// DisallowUnknownFields propagates into Client/Arrival/Template/Phase,
// and an inline scenario spec is strict through scenario.Spec's own
// UnmarshalJSON. The files under traffic/ at the repository root are
// generated by nvmload -export-specs and pinned byte-for-byte by test,
// exactly like specs/.

// Encode renders the spec as an indented traffic file (the exact bytes
// WriteSpecs ships under traffic/).
func Encode(s Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

var unknownField = regexp.MustCompile(`json: unknown field "([^"]+)"`)

// ParseSpec decodes and validates one traffic spec from file bytes. src
// names the source (a path) for error messages; decode errors carry
// line:col positions so a broken file points at its own defect.
func ParseSpec(data []byte, src string) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, specError(data, src, err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return Spec{}, positioned(data, src, int64(len(data)-len(rest)), errors.New("trailing data after the spec"))
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", src, err)
	}
	return s, nil
}

// specError upgrades a decode error with a line:col position when one
// can be recovered (offset-carrying errors, unknown fields).
func specError(data []byte, src string, err error) error {
	var off int64 = -1
	switch e := err.(type) {
	case *json.SyntaxError:
		off = e.Offset
	case *json.UnmarshalTypeError:
		off = e.Offset
	default:
		if m := unknownField.FindStringSubmatch(err.Error()); m != nil {
			if i := bytes.Index(data, []byte(`"`+m[1]+`"`)); i >= 0 {
				off = int64(i) + 1
			}
		}
	}
	return positioned(data, src, off, err)
}

// positioned prefixes err with src and, when off is a byte offset into
// data, its line:col.
func positioned(data []byte, src string, off int64, err error) error {
	if off < 0 || off > int64(len(data)) {
		return fmt.Errorf("%s: %w", src, err)
	}
	line, col := 1, 1
	for _, c := range data[:off] {
		col++
		if c == '\n' {
			line++
			col = 1
		}
	}
	return fmt.Errorf("%s:%d:%d: %w", src, line, col, err)
}

// LoadSpec reads and validates one traffic spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("traffic: %w", err)
	}
	return ParseSpec(data, path)
}

// WriteSpecs exports the specs as <name>.json files under dir (created
// if missing) — the exporter behind nvmload -export-specs and the
// generator of the pinned traffic/ tree.
func WriteSpecs(dir string, specs []Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	for _, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("traffic: cannot export a nameless spec")
		}
		b, err := Encode(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name+".json"), b, 0o644); err != nil {
			return fmt.Errorf("traffic: %w", err)
		}
	}
	return nil
}

package traffic

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/jsonfile"
)

// The traffic-spec file schema is the Spec struct itself: plain tagged
// fields, no translation layer, decoded by internal/jsonfile's strict
// decoder, the one scenario specs and fault plans use. Unknown fields
// are rejected at every nesting level — the decoder's
// DisallowUnknownFields propagates into Client/Arrival/Template/Phase,
// and an inline scenario spec is strict through scenario.Spec's own
// UnmarshalJSON. The files under traffic/ at the repository root are
// generated by nvmload -export-specs and pinned byte-for-byte by test,
// exactly like specs/.

// Encode renders the spec as an indented traffic file (the exact bytes
// WriteSpecs ships under traffic/).
func Encode(s Spec) ([]byte, error) {
	return jsonfile.Encode(s)
}

// ParseSpec decodes and validates one traffic spec from file bytes. src
// names the source (a path) for error messages; decode errors carry
// src:line:col positions so a broken file points at its own defect.
func ParseSpec(data []byte, src string) (Spec, error) {
	var s Spec
	if err := jsonfile.Decode(data, src, &s); err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", src, err)
	}
	return s, nil
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

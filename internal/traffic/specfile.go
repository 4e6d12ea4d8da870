package traffic

import (
	"fmt"
	"os"

	"repro/internal/jsonfile"
)

// The traffic-spec file schema is the Spec struct itself: plain tagged
// fields, no translation layer, decoded by internal/jsonfile's strict
// decoder, the one scenario specs and fault plans use. Unknown fields
// are rejected at every nesting level — the decoder's
// DisallowUnknownFields propagates into Client/Arrival/Template/Phase,
// and an inline scenario spec is strict through scenario.Spec's own
// UnmarshalJSON. The presets are the files under traffic/ at the
// repository root (see Presets), and each one's bytes are exactly what
// Encode renders for it, which the repository's traffic-file tests pin.

// Encode renders the spec as an indented traffic file: for a preset,
// the exact bytes of its file under traffic/.
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

package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/jsonfile"
	"repro/internal/memsys"
)

// The spec-file schema is the struct tags on Spec, Sized, Composite,
// Part and Plan: a sweep as data, so new scenarios open without
// recompiling. Modes are the paper's names ("DRAM", "cached-NVM",
// "uncached-NVM"); workload sources beyond registry apps are the inline
// workload schema (internal/workload), resized registry applications
// ("sized") and fused multi-application workloads ("composite"). Files
// decode through internal/jsonfile's strict decoder, and every preset
// encodes byte-stably — the files under specs/ are generated by
// nvmbench -export-specs and pinned by test.

// MarshalJSON renders an outcome as a flat record — the schema behind
// nvmbench's -format json scenario output: the evaluation point, the
// headline quantities and the per-device achieved traffic, with the mode
// by name rather than enum value.
func (o Outcome) MarshalJSON() ([]byte, error) {
	rec := struct {
		App           string  `json:"app"`
		Mode          string  `json:"mode"`
		Threads       int     `json:"threads"`
		Scale         float64 `json:"scale"`
		TimeSeconds   float64 `json:"time_s"`
		FoM           float64 `json:"fom"`
		FoMUnit       string  `json:"fom_unit,omitempty"`
		Slowdown      float64 `json:"slowdown"`
		DRAMReadGBps  float64 `json:"dram_read_gbps"`
		DRAMWriteGBps float64 `json:"dram_write_gbps"`
		NVMReadGBps   float64 `json:"nvm_read_gbps"`
		NVMWriteGBps  float64 `json:"nvm_write_gbps"`
	}{
		App:           o.App,
		Mode:          o.Mode.String(),
		Threads:       o.Threads,
		Scale:         o.Scale,
		TimeSeconds:   o.Result.Time.Seconds(),
		FoM:           o.Result.FoMValue,
		Slowdown:      o.Result.Slowdown,
		DRAMReadGBps:  o.Result.AvgDRAMRead.GBpsValue(),
		DRAMWriteGBps: o.Result.AvgDRAMWrite.GBpsValue(),
		NVMReadGBps:   o.Result.AvgNVMRead.GBpsValue(),
		NVMWriteGBps:  o.Result.AvgNVMWrite.GBpsValue(),
	}
	if o.Result.Workload != nil {
		rec.FoMUnit = o.Result.Workload.FoM.Unit
	}
	return json.Marshal(rec)
}

// modeAliases maps the accepted shorthand spellings to modes. The
// canonical names are the Mode Stringer's (what spec files encode); the
// aliases are the CLI spellings the commands have historically taken
// plus Intel's marketing names. This is the single mode parser — every
// command and the spec codec resolve names here, so the accepted
// vocabulary cannot drift between surfaces again.
var modeAliases = map[string]memsys.Mode{
	"dram":      memsys.DRAMOnly,
	"cached":    memsys.CachedNVM,
	"memory":    memsys.CachedNVM, // Intel Memory mode
	"uncached":  memsys.UncachedNVM,
	"appdirect": memsys.UncachedNVM, // Intel App Direct mode
}

// ParseMode resolves a memory-configuration name: the paper's canonical
// spellings ("DRAM", "cached-NVM", "uncached-NVM", as the Mode Stringer
// renders them) plus the CLI shorthands ("cached", "uncached",
// "memory", "appdirect"), case-insensitively. Only the three paper-wide
// modes are accepted: Placed needs a per-structure plan no spec file
// can carry (Validate rejects it), so advertising it here would only
// teach a dead end.
func ParseMode(name string) (memsys.Mode, error) {
	for _, m := range memsys.Modes() {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	if m, ok := modeAliases[strings.ToLower(name)]; ok {
		return m, nil
	}
	var names []string
	for _, m := range memsys.Modes() {
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("unknown mode %q (have %s; shorthands dram|cached|uncached|memory|appdirect)",
		name, strings.Join(names, ", "))
}

// Modes is a spec's memory-mode axis. Files carry it as mode names:
// the paper's canonical spellings on encode, anything ParseMode
// accepts on decode.
type Modes []memsys.Mode

// MarshalJSON writes the modes by name.
func (ms Modes) MarshalJSON() ([]byte, error) {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return json.Marshal(names)
}

// UnmarshalJSON reads mode names through ParseMode.
func (ms *Modes) UnmarshalJSON(data []byte) error {
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		// The offset in err is relative to the list, not the file, so it
		// must not be reported as a file position.
		return fmt.Errorf("modes: %v", err)
	}
	var out Modes
	for _, name := range names {
		m, err := ParseMode(name)
		if err != nil {
			return err
		}
		out = append(out, m)
	}
	*ms = out
	return nil
}

// specFields is Spec without its methods, so encoding/json reads the
// struct tags instead of recursing into Spec's codec.
type specFields Spec

// MarshalJSON encodes the spec in the file schema. Specs carrying Custom
// builders cannot be serialized: a Go closure has no file form — declare
// the workload as an inline descriptor, a sized app or a composite
// instead.
func (s Spec) MarshalJSON() ([]byte, error) {
	if len(s.Custom) > 0 {
		return nil, fmt.Errorf("scenario %s: Custom builders are Go closures and cannot be marshaled; use Workloads, Sized or Composite", s.Name)
	}
	return json.Marshal(specFields(s))
}

// UnmarshalJSON decodes the file schema, rejecting unknown fields so a
// typoed axis name fails loudly instead of silently sweeping defaults —
// also where a spec is nested in another document (a traffic file's
// submit template) whose decoder's strictness stops at this method.
// Structural decoding only; LoadSpec/ParseSpec run Validate on top.
func (s *Spec) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f specFields
	if err := dec.Decode(&f); err != nil {
		return err
	}
	*s = Spec(f)
	return nil
}

// Encode renders the spec as an indented spec file (the exact bytes
// WriteSpecs ships under specs/).
func Encode(s Spec) ([]byte, error) {
	return jsonfile.Encode(s)
}

// ParseSpec decodes and validates one spec from file bytes. src names
// the source (a path) for error messages; decode errors carry
// src:line:col positions so a broken file points at its own defect.
func ParseSpec(data []byte, src string) (Spec, error) {
	var s Spec
	// Decoding the fields directly skips UnmarshalJSON's second pass:
	// jsonfile.Decode is strict already.
	if err := jsonfile.Decode(data, src, (*specFields)(&s)); err != nil {
		return Spec{}, err
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("%s: spec has no name", src)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", src, err)
	}
	return s, nil
}

// LoadSpec reads and validates one spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return ParseSpec(data, path)
}

// LoadDir loads every *.json spec in a directory in name order,
// rejecting duplicate spec names across files. All files are attempted:
// a broken spec does not hide defects in the files after it, and the
// returned error (errors.Join) names every failing file.
func LoadDir(dir string) ([]Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	var specs []Spec
	var errs []error
	seen := map[string]string{}
	for _, p := range paths {
		s, err := LoadSpec(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if prev, dup := seen[s.Name]; dup {
			errs = append(errs, fmt.Errorf("scenario: %s: duplicate spec name %q (already in %s)", p, s.Name, prev))
			continue
		}
		seen[s.Name] = p
		specs = append(specs, s)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return specs, nil
}

// WriteSpecs exports the specs as <name>.json files under dir (created
// if missing) — the exporter behind nvmbench -export-specs and the
// generator of the pinned specs/ tree.
func WriteSpecs(dir string, specs []Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	for _, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("scenario: cannot export a nameless spec")
		}
		b, err := Encode(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name+".json"), b, 0o644); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

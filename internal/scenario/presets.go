package scenario

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/specs"
)

// presets decodes the shipped spec files once, on first use. A shipped
// file that fails to decode is a build defect, which the repository's
// spec-file tests catch, so it panics with the file:line:col error.
var presets = sync.OnceValue(func() []Spec {
	ps, err := loadFS(specs.FS, "specs")
	if err != nil {
		panic(err)
	}
	return ps
})

// Presets returns the named scenarios, the spec files under specs/ at
// the repository root, in file-name order: one per paper sweep (the
// experiment functions in internal/experiments declare these shapes
// when regenerating the figures) plus sweeps beyond the paper's
// evaluation — the full-cartesian stress sweep, the capacity-pressure
// sweep and the hyperthread-oversubscription ladder. Each call returns
// fresh copies, which the caller may modify.
func Presets() []Spec {
	ps := presets()
	out := make([]Spec, len(ps))
	for i, s := range ps {
		out[i] = s.clone()
	}
	return out
}

// Names lists the preset names in file-name order.
func Names() []string {
	var out []string
	for _, s := range presets() {
		out = append(out, s.Name)
	}
	return out
}

// ByName returns a fresh copy of the named preset, matched
// case-insensitively.
func ByName(name string) (Spec, error) {
	for _, s := range presets() {
		if strings.EqualFold(s.Name, name) {
			return s.clone(), nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(Names(), ", "))
}

// clone returns a copy of a decoded spec (which has no Custom builders)
// whose slices and plan are its own. Inline workload descriptors stay
// shared: like the engine, which shares one descriptor across every job
// built from it, a spec treats them as read-only.
func (s Spec) clone() Spec {
	s.Apps = slices.Clone(s.Apps)
	s.Workloads = slices.Clone(s.Workloads)
	s.Sized = slices.Clone(s.Sized)
	s.Composite = slices.Clone(s.Composite)
	for i := range s.Composite {
		s.Composite[i].Parts = slices.Clone(s.Composite[i].Parts)
	}
	s.Modes = slices.Clone(s.Modes)
	s.Threads = slices.Clone(s.Threads)
	s.Scales = slices.Clone(s.Scales)
	if s.Plan != nil {
		p := *s.Plan
		s.Plan = &p
	}
	return s
}

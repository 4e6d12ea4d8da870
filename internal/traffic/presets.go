package traffic

import (
	"fmt"
	"io/fs"

	shipped "repro/traffic"
)

// Presets returns the shipped traffic specs — the load shapes the
// harness, CI and the tracked benchmark replay: the files under
// traffic/ at the repository root, in file-name order. Each call
// decodes them afresh, so callers own what they get. A shipped file
// that fails to decode is a build defect, which the repository's
// traffic-file tests catch, so it panics with the file:line:col error.
func Presets() []Spec {
	// The embedded directory holds only the *.json files it was built
	// from, so neither the listing nor a read of a listed file can fail.
	entries, _ := fs.ReadDir(shipped.FS, ".")
	out := make([]Spec, len(entries))
	for i, e := range entries {
		data, _ := fs.ReadFile(shipped.FS, e.Name())
		s, err := ParseSpec(data, "traffic/"+e.Name())
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}

// ByName returns the shipped traffic preset with the given name.
func ByName(name string) (Spec, error) {
	var names []string
	for _, s := range Presets() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Spec{}, fmt.Errorf("traffic: unknown preset %q (have %v)", name, names)
}

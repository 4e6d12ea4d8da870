package repro

// The shipped scenario spec files are the presets: internal/scenario
// embeds specs/*.json and decodes them. These tests pin that each file
// is in the form Encode writes — the fleet ships Encode bytes and
// workers key their expansion cache on them — and that the registry is
// what the directory holds.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestSpecFilesMatchPresets(t *testing.T) {
	specs, err := scenario.LoadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	if presets := scenario.Presets(); !reflect.DeepEqual(presets, specs) {
		t.Errorf("the preset registry differs from specs/:\nregistry: %+v\nspecs/:   %+v", presets, specs)
	}
}

func TestSpecFileBytesPinned(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("specs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec files under specs/ (%v)", err)
	}
	for _, path := range paths {
		sp, err := scenario.LoadSpec(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if stem := strings.TrimSuffix(filepath.Base(path), ".json"); sp.Name != stem {
			t.Errorf("%s: spec name %q, want its file stem %q", path, sp.Name, stem)
		}
		want, err := scenario.Encode(sp)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is not in encoded form; write it as scenario.Encode renders it:\n%s", path, want)
		}
	}
}

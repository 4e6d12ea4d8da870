package repro

// The shipped traffic spec files are the presets: internal/traffic
// embeds traffic/*.json and decodes them. These tests pin that each
// file is in the form Encode writes and that the registry is what the
// directory holds.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func TestTrafficFilesMatchPresets(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("traffic", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specs []traffic.Spec
	for _, path := range paths {
		sp, err := traffic.LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	if presets := traffic.Presets(); !reflect.DeepEqual(presets, specs) {
		t.Errorf("the preset registry differs from traffic/:\nregistry: %+v\ntraffic/: %+v", presets, specs)
	}
}

func TestTrafficFileBytesPinned(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("traffic", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no traffic files under traffic/ (%v)", err)
	}
	for _, path := range paths {
		sp, err := traffic.LoadSpec(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if stem := strings.TrimSuffix(filepath.Base(path), ".json"); sp.Name != stem {
			t.Errorf("%s: spec name %q, want its file stem %q", path, sp.Name, stem)
		}
		want, err := traffic.Encode(sp)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is not in encoded form; write it as traffic.Encode renders it:\n%s", path, want)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func TestResolveSpec(t *testing.T) {
	sp, err := resolveSpec("bursty-two-class")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "bursty-two-class" {
		t.Fatalf("resolved %q", sp.Name)
	}
	if _, err := resolveSpec("no-such-preset"); err == nil {
		t.Fatal("unknown preset resolved")
	}

	dir := t.TempDir()
	b, err := traffic.Encode(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bursty-two-class.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err = resolveSpec(filepath.Join(dir, "bursty-two-class.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "bursty-two-class" {
		t.Fatalf("file path resolved %q", sp.Name)
	}
	if _, err := resolveSpec(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file resolved")
	}
}

func TestBuildTargetFlagMatrix(t *testing.T) {
	if _, _, err := buildTarget("", false, 0, traffic.RetryPolicy{}); err == nil {
		t.Error("no target accepted")
	}
	if _, _, err := buildTarget("http://x", true, 0, traffic.RetryPolicy{}); err == nil {
		t.Error("both targets accepted")
	}
	tgt, cleanup, err := buildTarget("http://127.0.0.1:1", false, 0, traffic.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	cleanup()
	if tgt.Name() != "http://127.0.0.1:1" {
		t.Errorf("remote target name %q", tgt.Name())
	}
	tgt, cleanup, err = buildTarget("", true, 2, traffic.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if tgt.Name() != "in-process" {
		t.Errorf("in-process target name %q", tgt.Name())
	}
}

func TestRunLoadFormats(t *testing.T) {
	tgt, cleanup, err := buildTarget("", true, 4, traffic.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	sp, err := resolveSpec("bursty-two-class")
	if err != nil {
		t.Fatal(err)
	}
	opts := traffic.Options{FullSpeed: true, MaxInFlight: 8}

	var table bytes.Buffer
	rep, err := runLoad(context.Background(), &table, tgt, sp, opts, "table")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("replay not clean: %+v", rep.Total)
	}
	if !strings.Contains(table.String(), "critical") || !strings.Contains(table.String(), "total") {
		t.Errorf("table output missing rows:\n%s", table.String())
	}

	var out bytes.Buffer
	if _, err := runLoad(context.Background(), &out, tgt, sp, opts, "json"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spec    string `json:"spec"`
		Classes []struct {
			Class      string `json:"class"`
			Offered    int    `json:"offered"`
			FirstPoint struct {
				P99 float64 `json:"p99"`
			} `json:"first_point_s"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("json report: %v\n%s", err, out.String())
	}
	if doc.Spec != "bursty-two-class" || len(doc.Classes) != 2 {
		t.Errorf("json report = %+v", doc)
	}

	if _, err := runLoad(context.Background(), &out, tgt, sp, opts, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestListPresets(t *testing.T) {
	var out bytes.Buffer
	listPresets(&out)
	for _, s := range traffic.Presets() {
		if !strings.Contains(out.String(), s.Name) {
			t.Errorf("listing missing %s:\n%s", s.Name, out.String())
		}
	}
}

// -rate-scale multiplies the aggregate rate for overload drills, and a
// scaled spec must still validate.
func TestScaleRate(t *testing.T) {
	sp, err := traffic.ByName("bursty-two-class")
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := scaleRate(sp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Rate != 4*sp.Rate {
		t.Errorf("scaled rate = %v, want %v", scaled.Rate, 4*sp.Rate)
	}
	if _, err := scaleRate(sp, 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := scaleRate(sp, float64(traffic.MaxRate)); err == nil {
		t.Error("scale past MaxRate accepted")
	}
}

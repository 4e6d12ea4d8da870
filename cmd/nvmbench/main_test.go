package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/scenario"
)

// The unknown-preset error must teach: every valid name, straight from
// the preset registry, so the user's next invocation can succeed.
func TestUnknownPresetErrorListsNames(t *testing.T) {
	err := runScenarioNamed(core.NewMachine(), "no-such-sweep", "text", io.Discard)
	if err == nil {
		t.Fatal("unknown preset should fail")
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list preset %q", err, name)
		}
	}
}

func TestExportSpecsRoundTrips(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := exportSpecs(dir, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), dir) {
		t.Errorf("export summary %q does not name the directory", out.String())
	}
	specs, err := scenario.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(scenario.Presets()) {
		t.Errorf("exported %d specs, want %d", len(specs), len(scenario.Presets()))
	}
}

// userSpec is the README's worked example: a spec a user would author
// by hand, exercising the sized and composite stanzas.
const userSpec = `{
  "name": "my-sweep",
  "description": "XSBench at paper size and doubled, plus a fused solver pair",
  "apps": ["XSBench"],
  "sized": [{"app": "XSBench", "scale": 2, "label": "XSBench-2x"}],
  "composite": [{"label": "hypre+fft", "parts": [{"app": "Hypre", "weight": 3}, {"app": "FFT", "weight": 1}]}],
  "modes": ["DRAM", "uncached-NVM"],
  "threads": [48]
}
`

func TestRunSpecFileEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "my-sweep.json")
	if err := os.WriteFile(path, []byte(userSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runSpecs(core.NewMachine(), path, "text", &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"== scenario my-sweep", "XSBench-2x", "hypre+fft", "uncached-NVM", "cache hits/misses"} {
		if !strings.Contains(text, want) {
			t.Errorf("spec run output missing %q:\n%s", want, text)
		}
	}
}

func TestRunSpecDirJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.json"), []byte(userSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	second := strings.Replace(userSpec, "my-sweep", "second-sweep", 1)
	if err := os.WriteFile(filepath.Join(dir, "b.json"), []byte(second), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runSpecs(core.NewMachine(), dir, "json", &out); err != nil {
		t.Fatal(err)
	}
	var docs []struct {
		Name     string `json:"name"`
		Points   int    `json:"points"`
		Outcomes []struct {
			App      string  `json:"app"`
			Mode     string  `json:"mode"`
			TimeS    float64 `json:"time_s"`
			Slowdown float64 `json:"slowdown"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(out.String()), &docs); err != nil {
		t.Fatalf("%v in:\n%s", err, out.String())
	}
	if len(docs) != 2 || docs[0].Name != "my-sweep" || docs[1].Name != "second-sweep" {
		t.Fatalf("docs = %+v", docs)
	}
	for _, d := range docs {
		if d.Points != 6 || len(d.Outcomes) != 6 {
			t.Errorf("%s: points = %d, want 3 sources x 2 modes", d.Name, d.Points)
		}
		for _, o := range d.Outcomes {
			if o.Mode != "DRAM" && o.Mode != "uncached-NVM" {
				t.Errorf("%s: mode %q not a name", d.Name, o.Mode)
			}
			if o.TimeS <= 0 {
				t.Errorf("%s: %s non-positive time", d.Name, o.App)
			}
		}
	}
}

func TestRunSpecsBadInput(t *testing.T) {
	m := core.NewMachine()
	if err := runSpecs(m, filepath.Join(t.TempDir(), "missing.json"), "text", io.Discard); err == nil {
		t.Error("missing spec file should fail")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runSpecs(m, path, "text", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "bad.json:") {
		t.Errorf("broken spec error should carry the path and position, got %v", err)
	}
	good := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(good, []byte(userSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSpecs(m, good, "yaml", io.Discard); err == nil {
		t.Error("unknown format should fail")
	}
}

// --- benchmark baseline plumbing ---

func fakeSuite(ns float64, allocs int64) benchkit.Suite {
	return benchkit.Suite{
		GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64",
		CalibrationNs: 1000,
		Records: []benchkit.Record{
			{Name: "BenchmarkFake", Iterations: 10, NsPerOp: ns, AllocsPerOp: allocs},
		},
	}
}

func TestWriteBenchJSONAndGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	measure := func() benchkit.Suite { return fakeSuite(500, 3) }
	var out strings.Builder
	if err := writeBenchJSON(path, &out, measure); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 benchmark records") {
		t.Errorf("unexpected output %q", out.String())
	}

	// Same numbers: gate passes.
	ok, err := gateBench(path, 0.10, io.Discard, measure)
	if err != nil || !ok {
		t.Fatalf("identical run should pass the gate: ok=%v err=%v", ok, err)
	}

	// Alloc regression: gate fails with a diagnostic.
	var diag strings.Builder
	ok, err = gateBench(path, 0.10, &diag, func() benchkit.Suite { return fakeSuite(500, 4) })
	if err != nil || ok {
		t.Fatalf("alloc regression should fail the gate: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(diag.String(), "REGRESSION") || !strings.Contains(diag.String(), "allocs/op") {
		t.Errorf("diagnostic should name the regression, got %q", diag.String())
	}

	// Time regression beyond tolerance fails; within tolerance passes.
	ok, _ = gateBench(path, 0.10, io.Discard, func() benchkit.Suite { return fakeSuite(600, 3) })
	if ok {
		t.Error("20% time regression should fail a 10% gate")
	}
	ok, _ = gateBench(path, 0.30, io.Discard, func() benchkit.Suite { return fakeSuite(600, 3) })
	if !ok {
		t.Error("20% time regression should pass a 30% gate")
	}
}

// Re-pinning an existing baseline must keep the historical before-suite
// and the hand-written note, replacing only the gating suite.
func TestWriteBenchJSONPreservesHistory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	before := fakeSuite(900, 10)
	doc := benchkit.Baseline{Note: "headline numbers", Before: &before, Suite: fakeSuite(500, 3)}
	if err := doc.Write(path); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchJSON(path, io.Discard, func() benchkit.Suite { return fakeSuite(400, 2) }); err != nil {
		t.Fatal(err)
	}
	back, err := benchkit.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Note != "headline numbers" {
		t.Errorf("note lost on re-pin: %q", back.Note)
	}
	if back.Before == nil || back.Before.Records[0].AllocsPerOp != 10 {
		t.Error("before-suite lost on re-pin")
	}
	if back.Suite.Records[0].AllocsPerOp != 2 {
		t.Errorf("gating suite not replaced: %+v", back.Suite.Records[0])
	}
}

func TestPrintBaselineTxt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := writeBenchJSON(path, io.Discard, func() benchkit.Suite { return fakeSuite(500, 3) }); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printBaselineTxt(path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkFake") || !strings.Contains(out.String(), "ns/op") {
		t.Errorf("not benchstat-consumable: %q", out.String())
	}
	if err := printBaselineTxt(filepath.Join(dir, "missing.json"), io.Discard); err == nil {
		t.Error("missing baseline should fail")
	}
}

// The -store warm-cache contract: a second run of the same sweep against
// the same store directory recomputes nothing — every point is re-served
// from disk as a cache hit — and renders byte-identical output.
func TestStoreWarmRunServesHits(t *testing.T) {
	dir := t.TempDir()
	const preset = "beyond-dram"

	cold, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := core.NewMachineWithStore(cold)
	var out1 strings.Builder
	if err := runScenarioNamed(m1, preset, "text", &out1); err != nil {
		t.Fatal(err)
	}
	// Fresh engines: their aggregate Stats are the run's own delta.
	st1 := m1.Engine().Stats()
	if st1.Misses == 0 {
		t.Fatal("cold run computed nothing")
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got, want := warm.Persisted(), int(st1.Misses); got != want {
		t.Fatalf("store persisted %d records, want %d", got, want)
	}
	m2 := core.NewMachineWithStore(warm)
	var out2 strings.Builder
	if err := runScenarioNamed(m2, preset, "text", &out2); err != nil {
		t.Fatal(err)
	}
	st2 := m2.Engine().Stats()
	if st2.Misses != 0 || st2.Hits != st1.Hits+st1.Misses {
		t.Errorf("warm run stats = %+v, want all %d points as hits", st2, st1.Hits+st1.Misses)
	}
	// The rendered tables agree except for the cache accounting line.
	strip := func(s string) string {
		lines := strings.Split(s, "\n")
		var kept []string
		for _, l := range lines {
			if !strings.HasPrefix(l, "points:") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(out1.String()) != strip(out2.String()) {
		t.Errorf("warm run output differs from cold run:\n--- cold ---\n%s--- warm ---\n%s", out1.String(), out2.String())
	}
}

// The store inspection and compaction flags: stats reflect the on-disk
// composition before and after -store-compact folds the append log
// into a v2 binary columnar segment.
func TestStoreStatsAndCompact(t *testing.T) {
	dir := t.TempDir()
	d, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		k, res := resultstore.SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	var before strings.Builder
	if err := runStoreStats(dir, &before); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"0 v2 (binary columnar) + 1 log (append log)",
		"24 persisted (0 v2 + 24 log)",
		"-store-compact", // the hint appears while log points remain
	} {
		if !strings.Contains(before.String(), want) {
			t.Errorf("pre-compaction stats missing %q:\n%s", want, before.String())
		}
	}

	var cout strings.Builder
	if err := runStoreCompact(dir, &cout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cout.String(), "24 points in 1 v2 segment") {
		t.Errorf("compact report = %q", cout.String())
	}

	var after strings.Builder
	if err := runStoreStats(dir, &after); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1 v2 (binary columnar) + 0 log (append log)",
		"24 persisted (24 v2 + 0 log)",
	} {
		if !strings.Contains(after.String(), want) {
			t.Errorf("post-compaction stats missing %q:\n%s", want, after.String())
		}
	}
	if strings.Contains(after.String(), "-store-compact") {
		t.Errorf("hint should disappear once no log points remain:\n%s", after.String())
	}

	// The estimate tracks the composition: log replay cost gone, index
	// read in its place.
	bst, err := resultstore.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if est := estOpenSeconds(bst); est <= 0 {
		t.Errorf("post-compaction open estimate = %v, want > 0", est)
	}

	if err := runStoreStats(filepath.Join(dir, "missing"), io.Discard); err == nil {
		t.Error("stats on a missing directory should fail")
	}
}

// -store-verify: the scrub quarantines a corrupt segment, salvages its
// decodable records, and -store-stats then reports the quarantine;
// a clean store verifies with no findings.
func TestStoreVerify(t *testing.T) {
	dir := t.TempDir()
	d, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		k, res := resultstore.SyntheticRecord(i)
		d.Commit(k, res, nil)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	var clean strings.Builder
	if err := runStoreVerify(dir, &clean); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clean.String(), "no corruption found") ||
		!strings.Contains(clean.String(), "8 record(s) intact") {
		t.Errorf("clean verify = %q", clean.String())
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[9] ^= 0xff // inside the first record's frame: its CRC fails
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runStoreVerify(dir, &out); err != nil {
		t.Fatalf("scrub failed on corruption (should quarantine, not error): %v", err)
	}
	if !strings.Contains(out.String(), "quarantined:") ||
		!strings.Contains(out.String(), "salvaged 7 record(s)") {
		t.Errorf("verify on corrupt store = %q", out.String())
	}

	var st strings.Builder
	if err := runStoreStats(dir, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.String(), "quarantine: 1 corrupt segment(s)") {
		t.Errorf("stats after scrub = %q", st.String())
	}

	// The store reopens on the salvage, serving the 7 intact records.
	d2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Persisted() != 7 {
		t.Errorf("reopened store persisted = %d, want 7", d2.Persisted())
	}
}

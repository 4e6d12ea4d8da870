package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// --- benchmark gate plumbing ---

// benchOutput renders go test -bench lines for the calibration spin and
// every tracked bench, with the given tracked ns/op and allocs/op, the
// -GOMAXPROCS suffix included as go test prints it.
func benchOutput(ns float64, allocs int64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	fmt.Fprintf(&b, "%s-2\t500\t2000000 ns/op\t0 B/op\t0 allocs/op\n", benchkit.CalibrationName)
	for _, be := range benchkit.Tracked() {
		fmt.Fprintf(&b, "%s-2\t100\t%g ns/op\t64 B/op\t%d allocs/op\n", be.Name, ns, allocs)
	}
	b.WriteString("PASS\n")
	return b.String()
}

func TestWriteBenchJSONAndGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_0.txt")
	if err := os.WriteFile(path, []byte(benchOutput(500, 3)), 0o644); err != nil {
		t.Fatal(err)
	}
	gateRun := func(cur string) (bool, string, error) {
		var out strings.Builder
		ok, err := gateBench(path, strings.NewReader(cur), &out)
		return ok, out.String(), err
	}

	// Same numbers: gate passes.
	if ok, out, err := gateRun(benchOutput(500, 3)); err != nil || !ok {
		t.Fatalf("identical run should pass the gate: ok=%v err=%v\n%s", ok, err, out)
	}

	// Alloc regression: gate fails with a diagnostic.
	ok, out, err := gateRun(benchOutput(500, 4))
	if err != nil || ok {
		t.Fatalf("alloc regression should fail the gate: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(out, "REGRESSION BenchmarkTraceBuild: allocs/op 3 -> 4") {
		t.Errorf("diagnostic should name the regression, got %q", out)
	}

	// Time regression beyond the 10% tolerance fails; within it passes.
	if ok, _, _ := gateRun(benchOutput(600, 3)); ok {
		t.Error("20% time regression should fail a 10% gate")
	}
	if ok, out, _ := gateRun(benchOutput(525, 3)); !ok {
		t.Errorf("5%% time regression should pass a 10%% gate:\n%s", out)
	}

	// A run missing a tracked bench fails and names it.
	cur := strings.Replace(benchOutput(500, 3), "BenchmarkStoreAppend-2", "BenchmarkStoreAppendX-2", 1)
	ok, out, err = gateRun(cur)
	if err != nil || ok || !strings.Contains(out, "REGRESSION BenchmarkStoreAppend: missing from current run") {
		t.Errorf("missing bench: ok=%v err=%v\n%s", ok, err, out)
	}

	// A run without the calibration spin cannot be judged.
	cur = strings.Replace(benchOutput(500, 3), benchkit.CalibrationName, "BenchmarkSomethingElse", 1)
	if _, _, err := gateRun(cur); err == nil || !strings.Contains(err.Error(), benchkit.CalibrationName) {
		t.Errorf("run without calibration: error = %v, want one naming %s", err, benchkit.CalibrationName)
	}
	if _, err := gateBench(filepath.Join(t.TempDir(), "missing.txt"), strings.NewReader(""), io.Discard); err == nil {
		t.Error("missing baseline should fail")
	}
}

// The committed baseline pins every tracked bench and the calibration
// spin: gated against itself it passes.
func TestCommittedBaselineGates(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_0.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if ok, err := gateBench("../../BENCH_0.txt", bytes.NewReader(data), &out); err != nil || !ok {
		t.Fatalf("BENCH_0.txt against itself: ok=%v err=%v\n%s", ok, err, out.String())
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

	// Compaction is offline: it fails while a process holds the store.
	held, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := runStoreCompact(dir, io.Discard); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Errorf("compacting a held store = %v, want the in-use refusal", err)
	}
	if err := held.Close(); err != nil {
		t.Fatal(err)
	}

	var cout strings.Builder
	if err := runStoreCompact(dir, &cout); err != nil {
		t.Fatal(err)
	}
	// The before figures are the log's, as Stat loads it.
	for _, want := range []string{"24 points in 1 segments", "-> 24 points in 1 v2 segment", "open cost: "} {
		if !strings.Contains(cout.String(), want) {
			t.Errorf("compact report missing %q:\n%s", want, cout.String())
		}
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

	// Inspecting or compacting a missing directory fails and creates
	// nothing.
	missing := filepath.Join(dir, "missing")
	if err := runStoreStats(missing, io.Discard); err == nil {
		t.Error("stats on a missing directory should fail")
	}
	if err := runStoreCompact(missing, io.Discard); err == nil {
		t.Error("compacting a missing directory should fail")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("a missing store directory was created (stat: %v)", err)
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

package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dwarfs"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// fileSpec is a representative user-authored spec exercising every
// serializable workload source.
func fileSpec(t *testing.T) Spec {
	t.Helper()
	w := dwarfs.All()[0].New()
	return Spec{
		Name:        "user-sweep",
		Description: "inline + sized + composite sources",
		Apps:        []string{"Hypre"},
		Workloads:   []*workload.Workload{w},
		Sized:       []Sized{{App: "XSBench", Scale: 2, Label: "XSBench-XXL"}},
		Composite:   []Composite{{Label: "hypre+fft", Parts: []Part{{App: "Hypre", Weight: 3}, {App: "FFT", Weight: 1}}}},
		Modes:       []memsys.Mode{memsys.DRAMOnly, memsys.UncachedNVM},
		Threads:     []int{8, 48},
		Scales:      []float64{1, 2},
	}
}

func TestPresetsRoundTripJSON(t *testing.T) {
	for _, sp := range Presets() {
		b, err := Encode(sp)
		if err != nil {
			t.Fatalf("%s: encode: %v", sp.Name, err)
		}
		got, err := ParseSpec(b, sp.Name+".json")
		if err != nil {
			t.Fatalf("%s: parse: %v", sp.Name, err)
		}
		if !reflect.DeepEqual(got, sp) {
			t.Errorf("%s: round trip drifted:\nfile: %+v\nGo:   %+v", sp.Name, got, sp)
		}
	}
}

func TestSpecEncodeIdempotent(t *testing.T) {
	sp := fileSpec(t)
	b1, err := Encode(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(b1, "mem")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("encode not idempotent:\n%s\nvs\n%s", b1, b2)
	}
}

func TestSpecWithAllSourcesRuns(t *testing.T) {
	sp := fileSpec(t)
	sp.Modes = []memsys.Mode{memsys.UncachedNVM}
	sp.Threads = []int{48}
	sp.Scales = nil
	// 1 app + 1 inline + 1 sized + 1 composite = 4 sources.
	if sp.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", sp.Size())
	}
	outs, err := sp.Run(eng(2))
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(outs))
	for i, o := range outs {
		labels[i] = o.App
		if o.Result.Time <= 0 {
			t.Errorf("%s: non-positive time", o.App)
		}
	}
	want := []string{"Hypre", "HACC", "XSBench-XXL", "hypre+fft"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
}

func TestMarshalRejectsCustomBuilders(t *testing.T) {
	sp := Spec{Name: "x", Custom: []Custom{{Label: "c", New: dwarfs.All()[0].New}}}
	if _, err := json.Marshal(sp); err == nil {
		t.Error("Custom builders must not marshal silently")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range memsys.Modes() {
		got, err := ParseMode(strings.ToUpper(m.String()))
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	// The CLI shorthands (historically private to nvmsim/nvmtrace, now
	// canonical here so the vocabulary cannot drift between surfaces).
	aliases := map[string]memsys.Mode{
		"dram": memsys.DRAMOnly, "DRAM": memsys.DRAMOnly,
		"cached": memsys.CachedNVM, "Memory": memsys.CachedNVM, "cached-nvm": memsys.CachedNVM,
		"uncached": memsys.UncachedNVM, "APPDIRECT": memsys.UncachedNVM, "uncached-NVM": memsys.UncachedNVM,
	}
	for name, want := range aliases {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseMode("optane")
	if err == nil || !strings.Contains(err.Error(), "cached-NVM") {
		t.Errorf("unknown mode error should list valid names, got %v", err)
	}
	// Placed cannot appear in a spec file (it needs a per-structure
	// plan), so ParseMode must neither accept nor advertise it.
	if _, err := ParseMode("write-aware"); err == nil {
		t.Error("ParseMode should reject Placed")
	} else if !strings.Contains(err.Error(), "have DRAM, cached-NVM, uncached-NVM") ||
		strings.Contains(err.Error(), "write-aware (") {
		t.Errorf("unknown-mode error should advertise exactly the paper modes: %v", err)
	}
}

// The optional "plan" block configures the adaptive planner and must
// round-trip with the same strictness as the rest of the schema.
func TestSpecPlanBlockRoundTrip(t *testing.T) {
	src := `{
  "name": "planned",
  "apps": ["XSBench"],
  "threads": [8, 24, 48],
  "plan": {"seed": "stride", "budget_frac": 0.4, "threshold": 0.1, "objective": "time", "max_rounds": 3}
}`
	sp, err := ParseSpec([]byte(src), "plan.json")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: SeedStride, BudgetFrac: 0.4, Threshold: 0.1, Objective: ObjectiveTime, MaxRounds: 3}
	if sp.Plan == nil || *sp.Plan != *want {
		t.Fatalf("plan = %+v, want %+v", sp.Plan, want)
	}
	b, err := Encode(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(b, "reencoded.json")
	if err != nil {
		t.Fatal(err)
	}
	if back.Plan == nil || *back.Plan != *sp.Plan {
		t.Errorf("plan did not survive re-encoding: %+v", back.Plan)
	}

	// Unknown fields inside the block fail loudly, like everywhere else.
	if _, err := ParseSpec([]byte(`{"name": "x", "plan": {"sedd": "edges"}}`), "typo.json"); err == nil ||
		!strings.Contains(err.Error(), "sedd") {
		t.Errorf("typoed plan field should be rejected by name, got %v", err)
	}
	// Bad knob values are caught by Validate.
	for _, bad := range []string{
		`{"name": "x", "plan": {"seed": "psychic"}}`,
		`{"name": "x", "plan": {"budget_frac": 1.5}}`,
		`{"name": "x", "plan": {"threshold": -1}}`,
		`{"name": "x", "plan": {"objective": "vibes"}}`,
		`{"name": "x", "plan": {"max_rounds": -2}}`,
	} {
		if _, err := ParseSpec([]byte(bad), "bad.json"); err == nil {
			t.Errorf("invalid plan %s should fail validation", bad)
		}
	}
	// An empty block is valid: every knob defaults.
	sp, err = ParseSpec([]byte(`{"name": "x", "plan": {}}`), "empty.json")
	if err != nil {
		t.Fatal(err)
	}
	d := sp.Plan.Defaults()
	if d.Seed != SeedEdges || d.BudgetFrac != 0.5 || d.Threshold != 0.05 ||
		d.Objective != ObjectiveTime || d.MaxRounds != 8 {
		t.Errorf("defaults = %+v", d)
	}
	// A full seed without an explicit budget means the exhaustive
	// control — the budget must default to the whole space, not 50%.
	if d := (Plan{Seed: SeedFull}).Defaults(); d.BudgetFrac != 1 {
		t.Errorf("full-seed default budget = %v, want 1", d.BudgetFrac)
	}
	if d := (Plan{Seed: SeedFull, BudgetFrac: 0.3}).Defaults(); d.BudgetFrac != 0.3 {
		t.Errorf("explicit budget overridden: %v", d.BudgetFrac)
	}
}

func TestParseSpecErrorQuality(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"syntax", "{\n  \"name\": \"x\",\n  broken\n}", "bad.json:3:"},
		{"unknown-field", "{\n  \"name\": \"x\",\n  \"thread\": [8]\n}", "bad.json:3:"},
		{"unknown-field-named", "{\"name\": \"x\", \"thread\": [8]}", `unknown field "thread"`},
		{"type", "{\n  \"name\": \"x\",\n  \"threads\": \"8\"\n}", "bad.json:3:"},
		{"bad-mode", `{"name": "x", "modes": ["fast"]}`, `unknown mode "fast"`},
		{"bad-app", `{"name": "x", "apps": ["NoSuchApp"]}`, "unknown application"},
		{"no-name", `{"threads": [8]}`, "no name"},
		{"bad-threads", `{"name": "x", "threads": [0]}`, "threads 0"},
		{"bad-composite", `{"name": "x", "composite": [{"label": "c", "parts": []}]}`, "no parts"},
		{"bad-sized", `{"name": "x", "sized": [{"app": "FFT", "scale": 0}]}`, "scale 0 is not finite and positive"},
		{"nested-unknown-field", `{"name": "x", "workloads": [{"name": "w", "seeed": 42}]}`, `unknown field "seeed"`},
		// Sized, Composite, Part and Plan decode through their struct tags
		// alone, so strictness must reach into each of them.
		{"sized-unknown-field", "{\"name\": \"x\", \"sized\": [{\"app\": \"FFT\", \"scale\": 2,\n  \"lable\": \"big\"}]}", `bad.json:2:4: json: unknown field "lable"`},
		{"composite-unknown-field", "{\"name\": \"x\", \"composite\": [{\"label\": \"c\",\n  \"partz\": []}]}", `bad.json:2:4: json: unknown field "partz"`},
		{"parts-unknown-field", "{\"name\": \"x\", \"composite\": [{\"label\": \"c\", \"parts\": [{\"app\": \"FFT\",\n  \"wieght\": 1}]}]}", `bad.json:2:4: json: unknown field "wieght"`},
		{"plan-unknown-field", "{\"name\": \"x\", \"plan\": {\"seed\": \"edges\",\n  \"budget\": 0.5}}", `bad.json:2:4: json: unknown field "budget"`},
		{"trailing-data", "{\"name\": \"x\", \"apps\": [\"FFT\"]}\n\n  {}", "bad.json:3:3: trailing data after the document"},
		{"dup-label", `{"name": "x", "apps": ["FFT"], "composite": [{"label": "FFT", "parts": [{"app": "Hypre", "weight": 1}]}]}`, "duplicate workload label"},
		// Sizes whose scaled footprint leaves [1, 2^63) bytes: past 2^63
		// it would overflow, under 1 it would truncate to 0 bytes.
		{"scale-overflows", `{"name": "h", "apps": ["XSBench"], "modes": ["uncached-NVM"], "scales": [1e12]}`, "XSBench: scale 1e+12 gives a footprint of"},
		{"scale-underflows", `{"name": "h", "apps": ["XSBench"], "scales": [1e-300]}`, "XSBench: scale 1e-300 gives a footprint of"},
		{"sized-overflows", `{"name": "h", "sized": [{"app": "XSBench", "scale": 1e12}]}`, `sized "XSBench": scale 1e+12 gives a footprint of`},
		{"sized-underflows", `{"name": "h", "sized": [{"app": "XSBench", "scale": 1e-300}]}`, `sized "XSBench": scale 1e-300 gives a footprint of`},
		{"inline-negative-footprint", `{"name": "h", "workloads": [` + inlineWorkload(t, -5) + `]}`, "non-positive footprint"},
		{"inline-huge-footprint", `{"name": "h", "workloads": [` + inlineWorkload(t, 1e12) + `]}`, "footprint"},
		{"weights-overflow", `{"name": "h", "composite": [{"label": "c", "parts": [{"app": "Hypre", "weight": 1e308}, {"app": "FFT", "weight": 1e308}]}]}`, "weights sum past the float64 range"},
	}
	for _, c := range cases {
		_, err := ParseSpec([]byte(c.src), "bad.json")
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

// inlineWorkload renders a registry workload as an inline spec-file
// descriptor with its footprint set to gib GiB.
func inlineWorkload(t *testing.T, gib float64) string {
	t.Helper()
	b, err := json.Marshal(dwarfs.All()[0].New())
	if err != nil {
		t.Fatal(err)
	}
	var w map[string]any
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	w["footprint_gib"] = gib
	b, err = json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestLoadSpecAndDir(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range Presets() {
		b, err := Encode(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sp.Name+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// One file loads alone.
	sp, err := LoadSpec(filepath.Join(dir, "beyond-dram.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ByName("beyond-dram")
	if !reflect.DeepEqual(sp, want) {
		t.Errorf("loaded %+v, want %+v", sp, want)
	}
	// The directory loads in name order and covers every preset.
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(Presets()) {
		t.Fatalf("loaded %d specs, want %d", len(specs), len(Presets()))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name >= specs[i].Name {
			t.Errorf("LoadDir order: %q before %q", specs[i-1].Name, specs[i].Name)
		}
	}
	// Non-spec files are ignored; duplicate names across files are not.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err != nil {
		t.Errorf("non-JSON files should be ignored: %v", err)
	}
	dup, _ := Encode(want)
	if err := os.WriteFile(filepath.Join(dir, "zz-dup.json"), dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate spec names should fail, got %v", err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory should fail")
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestFuseComposite(t *testing.T) {
	w, err := Fuse(Composite{Label: "duo", Parts: []Part{{App: "Hypre", Weight: 3}, {App: "FFT", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	mustNew := func(app string) *workload.Workload {
		e, err := dwarfs.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		return e.New()
	}
	hy, fft := mustNew("Hypre"), mustNew("FFT")
	if len(w.Phases) != len(hy.Phases)+len(fft.Phases) {
		t.Errorf("phases = %d, want %d", len(w.Phases), len(hy.Phases)+len(fft.Phases))
	}
	if w.Footprint != hy.Footprint+fft.Footprint {
		t.Errorf("footprint %v, want coexisting sum %v", w.Footprint, hy.Footprint+fft.Footprint)
	}
	if !strings.HasPrefix(w.Phases[0].Name, "Hypre/") {
		t.Errorf("phase names should be app-prefixed, got %q", w.Phases[0].Name)
	}
	// The dominant part anchors the profiling concurrency.
	if w.BaseThreads != hy.BaseThreads {
		t.Errorf("base threads %d, want Hypre's %d", w.BaseThreads, hy.BaseThreads)
	}
	if w.FoM.Higher {
		t.Error("composite FoM must be time-based")
	}
	for _, bad := range []Composite{
		{Label: "", Parts: []Part{{App: "FFT", Weight: 1}}},
		{Label: "x"},
		{Label: "x", Parts: []Part{{App: "FFT", Weight: 0}}},
		{Label: "x", Parts: []Part{{App: "NoSuchApp", Weight: 1}}},
	} {
		if _, err := Fuse(bad); err == nil {
			t.Errorf("Fuse(%+v) should fail", bad)
		}
	}
}

func TestOutcomeJSON(t *testing.T) {
	sp := Spec{Name: "j", Apps: []string{"FFT"}, Modes: []memsys.Mode{memsys.UncachedNVM}, Threads: []int{48}}
	outs, err := sp.Run(eng(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec["mode"] != "uncached-NVM" {
		t.Errorf("mode = %v, want the name, not the enum", rec["mode"])
	}
	for _, k := range []string{"app", "threads", "scale", "time_s", "fom", "slowdown", "nvm_read_gbps"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("outcome JSON missing %q: %s", k, b)
		}
	}
}

// A directory with several broken specs reports every failure with its
// file name — one typo must not hide the defects in the files after it.
func TestLoadDirReportsEveryBrokenFile(t *testing.T) {
	dir := t.TempDir()
	good, err := Encode(Presets()[0])
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"aa-good.json":    string(good),
		"bb-syntax.json":  `{"name": "bb", "apps": [`,
		"cc-unknown.json": `{"name": "cc", "apps": ["NoSuchApp"]}`,
		"dd-axis.json":    `{"name": "dd", "threadz": [8]}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = LoadDir(dir)
	if err == nil {
		t.Fatal("broken specs loaded silently")
	}
	for _, name := range []string{"bb-syntax.json", "cc-unknown.json", "dd-axis.json"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s:\n%v", name, err)
		}
	}
	if strings.Contains(err.Error(), "aa-good.json") {
		t.Errorf("error names the good file:\n%v", err)
	}
}

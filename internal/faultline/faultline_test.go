package faultline

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan([]byte(`{"seed": 7, "rules": [
		{"op": "write", "prob": 0.25, "kind": "short"},
		{"op": "read", "path": ".seg", "nth": 3, "kind": "flip"},
		{"op": "sync", "nth": 1},
		{"op": "open", "prob": 1, "kind": "delay", "delay_ms": 0.5}
	]}`), "plan.json")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 4 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Rules[1].Path != ".seg" || p.Rules[1].Nth != 3 || p.Rules[1].Kind != Flip {
		t.Fatalf("rules[1] = %+v", p.Rules[1])
	}

	bad := []string{
		`{"rules": [{"op": "chmod", "nth": 1}]}`,            // unknown op
		`{"rules": [{"op": "write", "nth": 1, "prob": 1}]}`, // nth+prob
		`{"rules": [{"op": "write"}]}`,                      // no trigger
		`{"rules": [{"op": "write", "prob": 2}]}`,           // prob > 1
		`{"rules": [{"op": "write", "nth": 1, "kind": "melt"}]}`,
		`{"rules": [{"op": "write", "nth": 1, "kind": "delay"}]}`, // delay w/o delay_ms
		`{"rules": [{"op": "write", "nth": 1}], "extra": true}`,   // unknown field
		`{"rules": []}}`,        // trailing data: a stray closing brace
		`{"rules": []}]`,        // a stray closing bracket
		`{"rules": []} {}`,      // a second document
		`{"rules": []} garbage`, // trailing garbage
	}
	for _, s := range bad {
		if _, err := ParsePlan([]byte(s), "bad.json"); err == nil {
			t.Errorf("ParsePlan(%s) accepted invalid plan", s)
		}
	}
}

// A typo in a plan file names the file and its own line:col, like a
// typo in a scenario or traffic spec.
func TestLoadPlanErrorPosition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	plan := "{\"seed\": 7, \"rules\": [\n  {\"op\": \"write\", \"nht\": 1}\n]}\n"
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadPlan(path)
	want := path + `:2:20: json: unknown field "nht"`
	if err == nil || err.Error() != want {
		t.Errorf("LoadPlan error = %v, want %q", err, want)
	}
}

// TestDeterministicSequence pins the acceptance criterion: the same
// seed and plan produce the identical fault sequence, run after run.
func TestDeterministicSequence(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Op: OpWrite, Prob: 0.3, Kind: Short},
		{Op: OpSync, Nth: 2},
		{Op: OpRead, Prob: 0.5, Kind: Flip},
	}}
	run := func() []Event {
		in := NewOver(plan, discard{})
		f, err := in.OpenFile("x", os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			f.Write([]byte("0123456789"))
			f.Sync()
			f.Read(make([]byte, 8))
		}
		return in.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("plan injected nothing over 60 operations")
	}
	if len(a) != len(b) {
		t.Fatalf("runs injected %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And the sequence is a pure function of the seed: a different seed
	// yields a different probabilistic schedule (Nth rules excluded).
	plan2 := plan
	plan2.Seed = 43
	in2 := NewOver(plan2, discard{})
	f, _ := in2.OpenFile("x", os.O_WRONLY, 0o644)
	for i := 0; i < 20; i++ {
		f.Write([]byte("0123456789"))
		f.Sync()
		f.Read(make([]byte, 8))
	}
	c := in2.Events()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical fault sequences")
	}
}

// TestDeterministicUnderConcurrency: the set of (rule, N) decisions is
// interleaving-independent even when operations race.
func TestDeterministicUnderConcurrency(t *testing.T) {
	plan := Plan{Seed: 9, Rules: []Rule{{Op: OpWrite, Prob: 0.4}}}
	run := func() map[Event]bool {
		in := NewOver(plan, discard{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, _ := in.OpenFile("x", os.O_WRONLY, 0o644)
				for i := 0; i < 25; i++ {
					f.Write([]byte("abcdef"))
				}
			}()
		}
		wg.Wait()
		set := make(map[Event]bool)
		for _, e := range in.Events() {
			set[e] = true
		}
		return set
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults injected")
	}
	if len(a) != len(b) {
		t.Fatalf("decision sets differ in size: %d vs %d", len(a), len(b))
	}
	for e := range a {
		if !b[e] {
			t.Fatalf("decision %+v in run A only", e)
		}
	}
}

func TestKinds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.log")
	if err := os.WriteFile(path, []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("fail", func(t *testing.T) {
		in := New(Plan{Rules: []Rule{{Op: OpOpen, Nth: 1}}})
		if _, err := in.Open(path); !errors.Is(err, ErrInjected) {
			t.Fatalf("Open err = %v, want ErrInjected", err)
		}
		if f, err := in.Open(path); err != nil { // nth=1 only fires once
			t.Fatalf("second Open: %v", err)
		} else {
			f.Close()
		}
	})

	t.Run("short", func(t *testing.T) {
		p := filepath.Join(dir, "short.log")
		in := New(Plan{Rules: []Rule{{Op: OpWrite, Nth: 1, Kind: Short}}})
		f, err := in.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Write([]byte("0123456789"))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("Write err = %v, want ErrInjected", err)
		}
		if n != 5 {
			t.Fatalf("short write wrote %d bytes, want 5", n)
		}
		f.Close()
		data, _ := os.ReadFile(p)
		if string(data) != "01234" {
			t.Fatalf("file = %q, want torn half", data)
		}
	})

	t.Run("flip", func(t *testing.T) {
		in := New(Plan{Rules: []Rule{{Op: OpRead, Nth: 1, Kind: Flip}}})
		got, err := in.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == "hello world" {
			t.Fatal("flip read returned pristine data")
		}
		diff := 0
		for i := range got {
			diff += popcount(got[i] ^ "hello world"[i])
		}
		if diff != 1 {
			t.Fatalf("flip changed %d bits, want exactly 1", diff)
		}
	})

	t.Run("torn-rename", func(t *testing.T) {
		src := filepath.Join(dir, "compact.tmp")
		dst := filepath.Join(dir, "compact.seg")
		if err := os.WriteFile(src, []byte("0123456789abcdef"), 0o644); err != nil {
			t.Fatal(err)
		}
		in := New(Plan{Rules: []Rule{{Op: OpRename, Nth: 1, Kind: Torn}}})
		if err := in.Rename(src, dst); !errors.Is(err, ErrInjected) {
			t.Fatalf("Rename err = %v, want ErrInjected", err)
		}
		data, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal("torn rename left no destination:", err)
		}
		if string(data) != "01234567" {
			t.Fatalf("destination = %q, want truncated half", data)
		}
		if _, err := os.Stat(src); err != nil {
			t.Fatal("torn rename removed the source:", err)
		}
	})

	t.Run("delay", func(t *testing.T) {
		in := New(Plan{Rules: []Rule{{Op: OpSync, Nth: 1, Kind: Delay, DelayMs: 2}}})
		var slept time.Duration
		in.sleep = func(d time.Duration) { slept = d }
		f, err := in.OpenFile(filepath.Join(dir, "d.log"), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Sync(); err != nil {
			t.Fatal("delay must not fail the op:", err)
		}
		if slept != 2*time.Millisecond {
			t.Fatalf("slept %v, want 2ms", slept)
		}
	})

	t.Run("path-filter", func(t *testing.T) {
		in := New(Plan{Rules: []Rule{{Op: OpRead, Path: ".seg", Prob: 1}}})
		if _, err := in.ReadFile(path); err != nil {
			t.Fatalf("non-matching path perturbed: %v", err)
		}
		if len(in.Events()) != 0 {
			t.Fatal("rule fired on non-matching path")
		}
	})
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fs FS = OS{}
	if err := fs.MkdirAll(filepath.Join(dir, "a/b"), 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "a/b/x.log")
	f, err := fs.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := fs.ReadFile(p)
	if err != nil || string(got) != "data" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	ents, err := fs.ReadDir(filepath.Join(dir, "a/b"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fs.Rename(p, p+".2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(p + ".2"); err != nil {
		t.Fatal(err)
	}
}

func TestErrInjectedWrapped(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Op: OpRemove, Nth: 1}}})
	err := in.Remove("/nonexistent")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want wrap of ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "rule 0") {
		t.Fatalf("err %q does not name its rule", err)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// discard is an FS whose files swallow writes and serve zero reads —
// enough surface for decision-sequence tests with no disk behind them.
type discard struct{}

func (discard) MkdirAll(string, os.FileMode) error    { return nil }
func (discard) ReadDir(string) ([]os.DirEntry, error) { return nil, nil }
func (discard) ReadFile(string) ([]byte, error)       { return nil, nil }
func (discard) Rename(string, string) error           { return nil }
func (discard) Remove(string) error                   { return nil }
func (discard) Open(string) (File, error)             { return discardFile{}, nil }
func (discard) OpenFile(string, int, os.FileMode) (File, error) {
	return discardFile{}, nil
}

type discardFile struct{}

func (discardFile) Read(p []byte) (int, error)            { return len(p), nil }
func (discardFile) ReadAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Write(p []byte) (int, error)           { return len(p), nil }
func (discardFile) Close() error                          { return nil }
func (discardFile) Sync() error                           { return nil }
func (discardFile) Stat() (os.FileInfo, error)            { return nil, os.ErrInvalid }

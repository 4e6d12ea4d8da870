// Command nvmbench regenerates the paper's tables and figures and runs
// declarative sweep scenarios, named or loaded from spec files.
//
// Usage:
//
//	nvmbench -list
//	nvmbench -run fig2
//	nvmbench -run all [-workers 1] [-threads 48] [-low 24] [-samples 200]
//	nvmbench -scenario full-cartesian [-workers 8]
//	nvmbench -scenario full-cartesian -store results/   # warm runs are near-instant
//	nvmbench -spec specs/beyond-dram.json [-format json]
//	nvmbench -spec mysweeps/ [-workers 8]
//	go test -run '^$' -bench <tracked> -benchmem -count=5 . | nvmbench -bench-gate BENCH_0.txt
//	nvmbench -store-stats results/
//	nvmbench -store-compact results/
//	nvmbench -store-verify results/
//
// Each experiment prints its rows/series plus the paper-shape checks
// (who wins, by what factor) with PASS/DEVIATION status. The
// experiments fan out across the evaluation engine's worker pool
// (-workers; 1 runs them one after another in registry order), and the
// output is byte-identical whatever the worker count. -scenario runs a
// named sweep preset (see -list); -spec runs user-authored spec files —
// one file or a whole directory — through the same engine, so new
// sweeps open without recompiling. The presets themselves ship as spec
// files under specs/, the seed corpus for authoring new ones.
//
// -store backs the engine with the disk result store
// (internal/resultstore): every evaluated point is appended to the store
// directory, one log frame per range of points an engine worker claimed,
// and any later run — nvmbench or the nvmserve daemon — sharing the
// directory re-serves those points as cache hits, so a repeated sweep
// costs only its cold points.
// -store-stats inspects such a directory read-only through the store's
// own loader (segment formats, points, index size, and the open cost,
// measured), so it also works while a daemon serves the directory.
// -store-compact rewrites what that loader serves into one indexed
// binary columnar (v2) segment that later runs open in near-constant
// time. A directory holding the JSON-lines segments of an older release
// does not open: this release does not read them, and deleting the
// directory recomputes its points.
// -store-verify scrubs the directory after a crash or suspected
// corruption: checksums are walked, corrupt segments quarantined with
// their decodable records salvaged, and torn final records (interrupted
// appends) tolerated. Compaction and the scrub are offline passes: they
// take the store lock, so they fail while another process (a -store
// run or an nvmserve daemon) holds the directory.
//
// -bench-gate is the performance gate (internal/benchkit): it reads a
// `go test -bench` run of the tracked hot-path benchmarks and the
// calibration spin from stdin, and fails on any allocs/op regression
// past a bench's slack, or a calibration-normalized time/op regression
// past its tolerance, against a baseline in the same format (CI gates
// against BENCH_0.txt). <tracked> is the CI bench job's -bench regexp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/units"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and scenario presets, then exit")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	scen := flag.String("scenario", "", "run a named scenario preset instead of an experiment")
	spec := flag.String("spec", "", "run scenario spec file(s): a *.json path or a directory of them")
	storeDir := flag.String("store", "", "back the engine with a disk result store at this directory: evaluated points persist and later runs re-serve them as cache hits")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	threads := flag.Int("threads", 48, "full concurrency level")
	low := flag.Int("low", 24, "low concurrency level (Fig 6)")
	samples := flag.Int("samples", 200, "trace resolution in samples")
	format := flag.String("format", "text", "output format: text|json")
	benchGate := flag.String("bench-gate", "", "gate the go test -bench output read from stdin against this baseline file, then exit (non-zero on regression)")
	storeStats := flag.String("store-stats", "", "print what a result store directory holds, as an open would load it, and how long loading it took, then exit")
	storeCompact := flag.String("store-compact", "", "compact a result store directory into one binary columnar (v2) segment, then exit")
	storeVerify := flag.String("store-verify", "", "scrub a result store directory: walk every segment's checksums, quarantine corrupt segments (salvaging their decodable records), then exit")
	flag.Parse()

	if *benchGate != "" {
		ok, err := gateBench(*benchGate, os.Stdin, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *storeStats != "" {
		if err := runStoreStats(*storeStats, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *storeCompact != "" {
		if err := runStoreCompact(*storeCompact, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *storeVerify != "" {
		if err := runStoreVerify(*storeVerify, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		fmt.Println("experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Doc)
		}
		fmt.Println("\nscenario presets (-scenario):")
		for _, s := range scenario.Presets() {
			fmt.Printf("  %-26s %3d points  %s\n", s.Name, s.Size(), s.Description)
		}
		return
	}

	m := core.NewMachine()
	if *storeDir != "" {
		d, err := resultstore.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		// Flush and fsync appended results on every return path below;
		// fatal exits skip this, which the store's append-tolerant format
		// survives.
		defer func() {
			if err := d.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nvmbench: closing store:", err)
			}
		}()
		defer func() {
			// Accounting goes to stderr so the -format json document on
			// stdout stays a single parseable value.
			fmt.Fprintf(os.Stderr, "result store: %d records at %s\n", d.Persisted(), d.Dir())
		}()
		m = core.NewMachineWithStore(d)
	}
	ctx := m.Context()
	ctx.Threads, ctx.LowThreads, ctx.TraceSamples = *threads, *low, *samples
	ctx.Engine.SetWorkers(*workers)

	if *scen != "" || *spec != "" {
		// A scenario fixes its own sweep axes and always batches through
		// the engine, so the experiment flags would be silently ignored;
		// reject them instead. -scenario and -spec are likewise exclusive.
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "run", "threads", "low", "samples":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			fatal(fmt.Errorf("scenario sweeps are defined by the spec; drop %s",
				strings.Join(conflicts, ", ")))
		}
		if *scen != "" && *spec != "" {
			fatal(fmt.Errorf("-scenario and -spec are mutually exclusive"))
		}
		var err error
		if *scen != "" {
			err = runScenarioNamed(m, *scen, *format, os.Stdout)
		} else {
			err = runSpecs(m, *spec, *format, os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	var reports []core.Report
	if *run == "all" {
		rs, err := m.RunAllExperiments()
		if err != nil {
			fatal(err)
		}
		reports = rs
	} else {
		r, err := m.Experiment(*run)
		if err != nil {
			fatal(err)
		}
		reports = []core.Report{r}
	}

	deviations := 0
	for _, r := range reports {
		for _, c := range r.Checks {
			if !c.Pass {
				deviations++
			}
		}
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fatal(err)
		}
	case "text":
		for _, r := range reports {
			fmt.Println(r)
			fmt.Println()
		}
		fmt.Printf("experiments: %d, paper-shape deviations: %d\n", len(reports), deviations)
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	if deviations > 0 {
		os.Exit(1)
	}
}

// runScenarioNamed runs one preset sweep through the machine's engine.
func runScenarioNamed(m *core.Machine, name, format string, w io.Writer) error {
	sp, err := scenario.ByName(name)
	if err != nil {
		return err
	}
	return runScenarios(m, []core.Scenario{sp}, format, w)
}

// runSpecs loads one spec file or a directory of them and runs each
// sweep through the machine's engine.
func runSpecs(m *core.Machine, path, format string, w io.Writer) error {
	var specs []core.Scenario
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		specs, err = scenario.LoadDir(path)
		if err != nil {
			return err
		}
	} else {
		sp, err := scenario.LoadSpec(path)
		if err != nil {
			return err
		}
		specs = []core.Scenario{sp}
	}
	return runScenarios(m, specs, format, w)
}

// runScenarios evaluates the specs one after another and renders them.
// Runs are sequential, so the engine's Stats delta around each is
// exactly that run's cache accounting.
func runScenarios(m *core.Machine, specs []core.Scenario, format string, w io.Writer) error {
	all := make([][]core.Outcome, len(specs))
	stats := make([]engine.Stats, len(specs))
	for i, sp := range specs {
		before := m.Engine().Stats()
		outs, err := m.RunScenario(sp)
		if err != nil {
			return err
		}
		after := m.Engine().Stats()
		all[i], stats[i] = outs, engine.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	}
	return renderScenarios(m, specs, all, stats, format, w)
}

// renderScenarios prints sweep outcomes: a table plus each run's cache
// accounting in text mode, or a spec-keyed JSON document.
func renderScenarios(m *core.Machine, specs []core.Scenario, all [][]core.Outcome, stats []engine.Stats, format string, w io.Writer) error {
	switch format {
	case "json":
		type doc struct {
			Name        string         `json:"name"`
			Description string         `json:"description,omitempty"`
			Points      int            `json:"points"`
			Outcomes    []core.Outcome `json:"outcomes"`
		}
		docs := make([]doc, len(specs))
		for i, sp := range specs {
			docs[i] = doc{Name: sp.Name, Description: sp.Description, Points: len(all[i]), Outcomes: all[i]}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(docs)
	case "text":
		for i, sp := range specs {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "== scenario %s: %s ==\n", sp.Name, sp.Description)
			fmt.Fprint(w, scenario.Table(all[i]))
			fmt.Fprintf(w, "points: %d, workers: %d, cache hits/misses: %d/%d\n",
				len(all[i]), m.Engine().Workers(), stats[i].Hits, stats[i].Misses)
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// gateBench gates a `go test -bench` run of the tracked benchmarks,
// read from cur, against the baseline file in the same format: any
// allocs/op increase past a bench's slack fails, and so does any
// calibration-normalized time/op ratio above its tolerance. It reports
// whether the gate passed.
func gateBench(baselinePath string, cur io.Reader, w io.Writer) (bool, error) {
	f, err := os.Open(baselinePath)
	if err != nil {
		return false, err
	}
	defer f.Close()
	base, err := benchkit.Parse(f)
	if err != nil {
		return false, fmt.Errorf("%s: %w", baselinePath, err)
	}
	run, err := benchkit.Parse(cur)
	if err != nil {
		return false, fmt.Errorf("current run: %w", err)
	}
	tracked := benchkit.Tracked()
	regs, err := benchkit.Gate(tracked, base, run)
	if err != nil {
		return false, err
	}
	fmt.Fprint(w, benchkit.Diff(tracked, base, run))
	if len(regs) == 0 {
		fmt.Fprintf(w, "bench gate PASS against %s (time tolerance %.0f%%)\n", baselinePath, 100*benchkit.Tolerance)
		return true, nil
	}
	fmt.Fprintf(w, "bench gate FAIL against %s:\n", baselinePath)
	for _, r := range regs {
		fmt.Fprintf(w, "  REGRESSION %s\n", r)
	}
	return false, nil
}

// runStoreStats prints what a result store directory holds and what an
// open of it costs, measured: Stat runs Open's loader. Read-only: it
// never takes the store lock, so it works on a directory a live daemon
// is serving.
func runStoreStats(dir string, w io.Writer) error {
	start := time.Now()
	st, err := resultstore.Stat(dir)
	took := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "result store: %s\n", st.Dir)
	fmt.Fprintf(w, "  segments:  %d v2 (binary columnar) + %d log (append log)\n",
		st.SegmentsV2, st.SegmentsLog)
	fmt.Fprintf(w, "  points:    %d persisted (%d v2 + %d log)\n",
		st.Records, st.RecordsV2, st.RecordsLog)
	fmt.Fprintf(w, "  bytes:     %s on disk (%s v2 + %s log)\n",
		units.Bytes(st.Bytes), units.Bytes(st.Bytes-st.BytesLog), units.Bytes(st.BytesLog))
	fmt.Fprintf(w, "  index:     %s in %d blocks\n", units.Bytes(st.IndexBytes), st.Blocks)
	fmt.Fprintf(w, "  open cost: %.1f ms measured (replay %s log + read %s v2 index)\n",
		1e3*took.Seconds(), units.Bytes(st.BytesLog), units.Bytes(st.IndexBytes))
	if st.Quarantined > 0 {
		fmt.Fprintf(w, "  quarantine: %d corrupt segment(s) set aside by a scrub (nvmbench -store-verify)\n", st.Quarantined)
	}
	if st.RecordsLog > 0 {
		fmt.Fprintf(w, "  hint: nvmbench -store-compact %s folds the log points into the indexed v2 segment\n", dir)
	}
	return nil
}

// runStoreVerify scrubs a result store directory: every segment's
// checksums and framing are walked, corrupt segments are quarantined
// (renamed aside) with their decodable records salvaged into a fresh
// segment, and torn final records — the crash signature of an
// interrupted append — are reported but tolerated. Corruption is a
// finding, not a failure: the command errors only when the scrub itself
// cannot run.
func runStoreVerify(dir string, w io.Writer) error {
	rep, err := resultstore.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "verified %s: %d segment(s) ok, %d record(s) intact\n",
		rep.Dir, rep.SegmentsOK, rep.RecordsOK)
	if rep.TornTails > 0 {
		fmt.Fprintf(w, "  torn tails: %d (interrupted appends; tolerated, the whole records before them load)\n",
			rep.TornTails)
	}
	for _, q := range rep.Quarantined {
		fmt.Fprintf(w, "  quarantined: %s\n", q)
	}
	if len(rep.Quarantined) > 0 {
		fmt.Fprintf(w, "  salvaged %d record(s) from quarantined segments into a fresh segment\n", rep.Salvaged)
	} else if rep.TornTails == 0 {
		fmt.Fprintf(w, "  no corruption found\n")
	}
	return nil
}

// runStoreCompact rewrites a store directory into a single v2 binary
// columnar segment and reports the composition and open cost before and
// after, both from Stat, which runs Open's loader. Compaction is an
// offline pass: it fails on a directory a live process holds, and on a
// missing one.
func runStoreCompact(dir string, w io.Writer) error {
	start := time.Now()
	before, err := resultstore.Stat(dir)
	opened := time.Since(start)
	if err != nil {
		return err
	}
	if err := resultstore.Compact(dir); err != nil {
		return err
	}
	start = time.Now()
	after, err := resultstore.Stat(dir)
	reopened := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compacted %s: %d points in %d segments (%s) -> %d points in 1 v2 segment (%s, %s index)\n",
		dir, before.Records, before.SegmentsLog+before.SegmentsV2, units.Bytes(before.Bytes),
		after.Records, units.Bytes(after.Bytes), units.Bytes(after.IndexBytes))
	fmt.Fprintf(w, "open cost: %.1f ms -> %.1f ms, measured\n",
		1e3*opened.Seconds(), 1e3*reopened.Seconds())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmbench:", err)
	os.Exit(2)
}

// Package core is the library's primary entry point: it wires the
// platform model, the memory-system solver, the eight Seven-Dwarfs
// application models and the experiment harness behind a small API.
//
// Typical use:
//
//	m := core.NewMachine()
//	res, err := m.RunApp("XSBench", core.UncachedNVM, 48)
//	fmt.Println(res.Slowdown)
//
//	rep, err := m.Experiment("table3")
//	fmt.Println(rep)
package core

import (
	"repro/internal/dwarfs"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Mode re-exports the main-memory configurations.
type Mode = memsys.Mode

// The three paper-wide configurations plus per-structure placement.
const (
	DRAMOnly    = memsys.DRAMOnly
	CachedNVM   = memsys.CachedNVM
	UncachedNVM = memsys.UncachedNVM
	Placed      = memsys.Placed
)

// Result re-exports the workload evaluation result.
type Result = workload.Result

// Report re-exports an experiment report.
type Report = experiments.Report

// Machine is a simulated NVM-based memory system host.
type Machine struct {
	ctx *experiments.Context
}

// NewMachine builds the paper's Intel Purley testbed.
func NewMachine() *Machine {
	return &Machine{ctx: experiments.NewContext()}
}

// ResultStore re-exports the pluggable result cache behind the engine.
type ResultStore = resultstore.Store

// NewMachineWithStore builds the testbed over an explicit result store.
// With a disk store (resultstore.Open) every evaluated sweep point is
// persisted — a batch worker appends each claimed index range when the
// range ends — and re-served as a cache hit by later processes — the warm-cache path behind nvmbench -store and the
// nvmserve daemon. The machine does not close the store; its owner does.
func NewMachineWithStore(store ResultStore) *Machine {
	return &Machine{ctx: experiments.NewContextWithStore(store)}
}

// Platform exposes the underlying hardware description.
func (m *Machine) Platform() *platform.Machine { return m.ctx.Machine }

// Apps lists the registered applications.
func (m *Machine) Apps() []string { return dwarfs.Names() }

// Workload returns the paper-input workload descriptor of an app.
func (m *Machine) Workload(app string) (*workload.Workload, error) {
	e, err := dwarfs.ByName(app)
	if err != nil {
		return nil, err
	}
	return e.New(), nil
}

// Scenario re-exports the declarative sweep spec.
type Scenario = scenario.Spec

// Outcome re-exports one evaluated sweep point.
type Outcome = scenario.Outcome

// RunApp evaluates an application on a memory configuration at the given
// concurrency (1..48 on the local socket), through the machine's
// evaluation engine (repeated points are served from its cache).
func (m *Machine) RunApp(app string, mode Mode, threads int) (Result, error) {
	w, err := m.Workload(app)
	if err != nil {
		return Result{}, err
	}
	return m.ctx.RunAt(w, mode, threads)
}

// RunScenario expands a declarative sweep and evaluates it across the
// engine's worker pool, returning outcomes in the spec's canonical
// order. Use scenario presets (scenario.Names lists them) or construct a
// Spec directly for arbitrary sweeps.
func (m *Machine) RunScenario(sp Scenario) ([]Outcome, error) {
	return m.ctx.RunScenario(sp)
}

// RunScenarioNamed runs a preset scenario by name.
func (m *Machine) RunScenarioNamed(name string) (Scenario, []Outcome, error) {
	sp, err := scenario.ByName(name)
	if err != nil {
		return Scenario{}, nil, err
	}
	outs, err := m.RunScenario(sp)
	return sp, outs, err
}

// RunAll evaluates the full cartesian product of the given applications,
// modes and thread counts as one engine batch. Empty slices take the
// paper defaults (all eight apps, the three paper-wide modes, 48
// threads).
func (m *Machine) RunAll(apps []string, modes []Mode, threads []int) ([]Outcome, error) {
	return m.RunScenario(Scenario{Name: "adhoc", Apps: apps, Modes: modes, Threads: threads})
}

// Experiment regenerates one of the paper's tables or figures by id
// (table1, table2, fig2, table3, fig3 ... fig12).
func (m *Machine) Experiment(id string) (Report, error) {
	fn, err := experiments.ByID(id)
	if err != nil {
		return Report{}, err
	}
	return fn(m.ctx)
}

// RunAllExperiments regenerates the full evaluation with the
// experiments fanned across the engine's worker pool, returning the
// reports in registry order. They are byte-identical whatever the
// worker count; one worker runs the experiments in that order.
func (m *Machine) RunAllExperiments() ([]Report, error) {
	return experiments.RunAll(m.ctx)
}

// Engine exposes the machine's concurrent evaluation engine (worker
// count, cache statistics).
func (m *Machine) Engine() *engine.Engine { return m.ctx.Engine }

// Context exposes the experiment context for advanced tuning (trace
// resolution, noise, concurrency levels).
func (m *Machine) Context() *experiments.Context { return m.ctx }

// Package repro reproduces "Demystifying the Performance of HPC
// Scientific Applications on NVM-based Memory Systems" (Peng, Wu, Ren,
// Li, Gokhale — IPDPS 2020) as a Go library.
//
// The public entry point is internal/core (see README.md for the
// architecture overview); cmd/nvmbench regenerates every table and
// figure of the paper's evaluation, and bench_test.go exposes one
// testing.B benchmark per experiment.
//
// Evaluation flows through two layers added on top of the original
// harness: internal/scenario declares sweeps (application set, mode
// set, thread sweep, footprint scales) as data, and internal/engine
// executes them as (workload, mode, threads) job batches across a
// worker pool with per-mode system memoization and result caching.
// Parallel execution is deterministic: cmd/nvmbench -run all (or
// core.Machine.RunAllExperiments) regenerates the full evaluation
// fanned across the engine's workers, and the reports are
// byte-identical whatever the worker count. Named scenario presets —
// the paper's sweep shapes plus stress sweeps beyond them — run via
// cmd/nvmbench -scenario or core.Machine.RunScenarioNamed.
//
// Scenarios are also data: scenario.Spec's struct tags are its JSON
// schema (scenario.LoadSpec / LoadDir / Encode), so new sweeps —
// including resized and fused multi-application workloads — open from
// spec files without recompiling (cmd/nvmbench -spec). The 13 presets
// are the files specs/*.json, embedded by package specs; specs_test.go
// pins each file to the bytes scenario.Encode writes for it. Spec,
// traffic and fault-plan files share one codec, internal/jsonfile: a
// strict decoder whose errors read file:line:col, and the encoder that
// renders every shipped file. The reproduced
// numbers themselves are pinned too: the golden corpus under
// internal/experiments/testdata/golden holds one canonical text
// artifact per experiment and preset, compared byte-for-byte by
// `go test -run Golden` and regenerated with -update, so
// behaviour-preserving refactors are provably so.
//
// Results are persistent and servable: internal/resultstore puts the
// engine's result cache behind a pluggable Store interface — the
// in-process sharded index (still 0 allocs/op on a cache hit) or a
// disk-backed content-addressed store (an append log of CRC32C-framed
// binary record blocks keyed by workload fingerprint, one block per
// range of points an engine worker claimed, crash-tolerant, and
// compactable into one indexed columnar segment) that re-serves
// previously computed points as cache hits across process restarts. internal/session runs sweeps asynchronously on top
// (Submit / Status / Stream / Cancel, with cancellation propagated into
// engine batch dispatch so partial results are never persisted), and
// cmd/nvmserve exposes the whole stack as an HTTP/JSON daemon: POST a
// spec to /v1/sweeps, poll /v1/sweeps/{id}, stream NDJSON outcomes, and
// resume interrupted sweeps from the shared store (cmd/nvmbench -store
// uses the same directory for warm-cache CLI runs).
//
// Sweeps also resolve adaptively: internal/planner is the paper's
// Section V "evaluate few, predict the rest" as a subsystem. A spec's
// optional "plan" block (scenario.Plan) selects a seed strategy, an
// evaluation budget and a disagreement threshold; the planner evaluates
// the seed through the engine, trains the configuration-space
// regression (internal/model) per app x mode group, predicts the rest,
// and spends the remaining budget where the leave-one-out ensemble
// disagrees and on verifying the Pareto frontier with real evaluations.
// The full-cartesian preset resolves its frontier from <= 50% real
// evaluations (property-tested against the exhaustive control, golden-
// pinned end to end). internal/explore routes its Pareto search through
// the planner, internal/advisor evaluates through the engine, and the
// nvmserve daemon serves plans at POST /v1/plans with per-round
// progress and an NDJSON point stream (session.Manager.SubmitPlan).
//
// The serving path is exercised under load, not just per request:
// internal/traffic declares traffic as data — a strict-JSON spec (the
// presets are traffic/*.json, embedded like the scenario presets) of
// clients with SLO classes (critical/batch/background), deterministic
// seeded arrival processes (poisson, gamma, on/off bursty) shaped by
// ramp/steady/spike/drain phases, each submitting a preset or inline
// scenario as a sweep or a plan. A closed-loop driver (traffic.Replay)
// replays the spec against an in-process session.Manager or a remote
// nvmserve URL and reports per-class admission-to-first-point and
// admission-to-done latency percentiles, achieved vs offered rate, and
// cache hit rates; cmd/nvmload is the CLI. The daemon itself stays
// bounded under that load: session retention is capped (nvmserve
// -retain), evicting the oldest terminal sessions while their points
// persist in the store.
//
// The stack also scales past one machine: internal/fleet federates
// nvmserve daemons into a coordinator/worker cluster behind the same
// public API. The coordinator plugs into session.Manager as its batch
// executor, and workers (nvmserve -worker -join) pull chunks of sweep
// and plan batches over a strict-JSON HTTP protocol, each chunk carved
// when a worker asks for it, at most four in flight per worker; the
// fingerprint-keyed result store is the fleet-wide
// dedup tier, so only cold points travel and concurrent identical
// points coalesce. Streams, ordering, cancellation and error text are
// byte-identical to a local run; a worker killed mid-sweep has its
// in-flight chunks re-queued whole, a worker whose disk store degrades
// self-evicts, and a fleet of zero workers degenerates to the
// single-process path (see the README's Fleet section).
//
// The hot paths are performance-pinned as well: internal/benchkit
// declares a tracked benchmark set (streaming address simulation,
// packed-tag DRAM cache, trace reconstruction, engine cache hits, the
// full-cartesian sweep, the bursty traffic replay with its p99
// first-point latency extra), which this package's bench_test.go runs
// next to BenchmarkCalibrationSpin. One `go test -bench` run of them is
// gated against the committed BENCH_0.txt, itself saved go test output —
// any allocs/op regression or >10% calibration-normalized time/op
// regression fails (cmd/nvmbench -bench-gate; see the README's
// Performance section for budgets and workflow).
package repro

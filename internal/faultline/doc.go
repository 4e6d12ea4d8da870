// Package faultline is a deterministic, seeded fault-injection layer
// for the stack's I/O seams. It exposes the small filesystem surface
// the result store consumes (FS, File), a transparent passthrough to
// the real OS (OS), and an Injector that wraps any FS and perturbs it
// according to a declarative Plan: fail the Nth matching operation,
// fail operations probabilistically from a seed, cut writes short,
// tear renames, flip bits on reads, or add latency.
//
// Determinism is the design center: whether the Nth operation matching
// a rule is perturbed is a pure function of (plan seed, rule index, N)
// — a splitmix64 hash, no shared RNG stream — so the same plan and
// seed produce the identical fault sequence on every run and on every
// machine, regardless of how goroutines interleave the operations in
// between. Chaos tests pin recovery behaviour against that sequence
// instead of against luck.
//
// Plans are strict JSON, decoded by the codec scenario and traffic specs
// share (internal/jsonfile: unknown fields and trailing data rejected,
// errors at file:line:col), so a chaos harness can ship them as files
// next to those specs (the CI chaos drill's plan lives at
// faultplans/chaos-1pct.json):
//
//	{"seed": 7, "rules": [
//	  {"op": "write", "prob": 0.01, "kind": "short"},
//	  {"op": "read", "path": ".seg", "nth": 3, "kind": "flip"}
//	]}
//
// Every injected error wraps ErrInjected, so recovery code under test
// can tell injected faults from real ones.
package faultline

// Package fvcache is a reproduction of "Frequent Value Locality and
// Value-Centric Data Cache Design" (Zhang, Yang, Gupta — ASPLOS 2000).
//
// The implementation lives in internal packages:
//
//   - internal/trace: memory-access event model and binary trace codec
//   - internal/memsim: architectural memory + instrumented allocator
//   - internal/cache: conventional caches, victim cache, miss classifier
//   - internal/fvc: the frequent value cache (the paper's contribution)
//   - internal/core: the composed DMC+FVC/VC hierarchy simulator
//   - internal/freqval: Section 2 profilers (frequency, stability, ...)
//   - internal/cacti: CACTI-style access-time model (Figure 9)
//   - internal/workload: the 12 synthetic SPEC95-analogue workloads
//   - internal/sim: profile→measure pipeline and parallel sweeps
//   - internal/experiments: one reproduction per paper table/figure
//
// Binaries: cmd/fvcsim, cmd/experiments, cmd/tracegen.
// Runnable examples: examples/quickstart and friends.
//
// bench_test.go in this directory holds one testing.B benchmark per
// paper table and figure. See DESIGN.md and EXPERIMENTS.md.
package fvcache

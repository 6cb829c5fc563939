// Package repro is a from-scratch Go reproduction of "On The Power of
// Hardware Transactional Memory to Simplify Memory Management" (Dragojević,
// Herlihy, Lev, Moir — PODC 2011).
//
// The paper's HTM hardware (Sun's Rock prototype) no longer exists; this
// repository substitutes a software-simulated HTM with Rock's semantics
// (htm) and rebuilds every system the paper describes on top of it:
// the Dynamic Collect algorithms (internal/core), the motivating FIFO queues
// (queue), hazard-pointer reclamation (internal/hazard),
// epoch-based reclamation (internal/epoch), the adaptive telescoping
// mechanism (internal/adapt), and a benchmark harness that regenerates every
// table and figure (internal/harness, cmd/figures).
//
// See README.md for a guided tour and the figure → claim → command → test
// table, and DESIGN.md for the system inventory and substitution rationale.
// The root package contains only the ablation and extension benchmarks
// (bench_test.go) and the smoke test over every binary.
package repro

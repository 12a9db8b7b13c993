// Package softmem reproduces "Towards Increased Datacenter Efficiency
// with Soft Memory" (Frisella, Loayza Sanchez, Schwarzkopf — HotOS '23)
// as a Go library.
//
// Soft memory is an opt-in, software-level abstraction over primary
// storage that makes allocations revocable under memory pressure, so a
// machine can move memory between processes instead of killing
// low-priority jobs. The implementation lives under internal/:
//
//   - internal/core — the Soft Memory Allocator (SMA), the paper's
//     primary contribution
//   - internal/sds — Soft Data Structures (list, array, hash table,
//     queue)
//   - internal/smd — the machine-wide Soft Memory Daemon
//   - internal/ipc — the daemon's socket protocol
//   - internal/kvstore — the Redis-like integration from §5
//   - internal/mlcache — the §2 ML training cache
//   - internal/experiments — regenerates every table and figure (E1–E9),
//     the §2 cluster-scheduler simulation (E6) included
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate the evaluation:
//
//	go test -bench=. -benchmem
package softmem

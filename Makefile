.PHONY: all build test check bench bench-json bench-parallel bench-incremental bench-server bench-chaos bench-flatcore bench-all fuzz fmt clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: everything compiles and the full suite passes.
check:
	dune build && dune runtest

bench:
	dune exec bench/main.exe

# Machine-readable presolve on/off comparison with per-phase telemetry
# breakdowns, written to BENCH_presolve.json.
bench-json:
	dune exec bench/main.exe json

# Parallel branch-and-prune at --jobs 1/2/4 with per-case speedups and a
# portfolio run per case, written to BENCH_parallel.json.
bench-parallel:
	dune exec bench/main.exe parallel

# From-scratch vs warm-started LP sessions on multi-model paper cases:
# wall clock and exact pivot counts, written to BENCH_incremental.json.
bench-incremental:
	dune exec bench/main.exe incremental

# Mixed FISCHER/Sudoku/steering workload through the solve server at
# 1/4/16 concurrent clients: throughput and p50/p95/p99 latency, with
# verdict identity asserted across levels, written to BENCH_server.json.
bench-server:
	dune exec bench/main.exe server

# Seeded session workload over a real socket, fault-free vs under the
# network fault injector: byte-identical transcripts, latency
# percentiles, client retry counters and the half-open reclaim time,
# written to BENCH_chaos.json.  Exits non-zero on a transcript flip or
# a missed idle-timeout reclaim.
bench-chaos:
	dune exec bench/main.exe chaos

# Flat-core regression gate: wall time and allocated words per case
# (fischer sat/unsat model enumeration, one-shot solves, steering at
# jobs 1/4) against the embedded pre-refactor baseline, written to
# BENCH_flatcore.json.  Exits non-zero on a verdict mismatch or if the
# fischer family allocates more than half the pre-refactor words.
bench-flatcore:
	dune exec bench/main.exe flatcore

# Re-emit every machine-readable benchmark artefact (BENCH_*.json) in
# one go — the full measurement sweep behind the README numbers.
bench-all: bench-json bench-parallel bench-incremental bench-server bench-chaos bench-flatcore

# Resource-governor robustness: the seeded differential fuzzer (500
# random problems, engine and DPLL(T) baseline under tight budgets vs
# the unbudgeted reference) plus the deterministic fault-injection
# sweep over every pipeline boundary.
fuzz:
	dune exec test/main.exe -- test resource

# The reference container has no ocamlformat binary and .ocamlformat sets
# disable=true, so this is a guarded no-op there (see README).
fmt:
	@command -v ocamlformat >/dev/null 2>&1 && dune fmt || \
	  echo "ocamlformat not installed; skipping"

clean:
	dune clean

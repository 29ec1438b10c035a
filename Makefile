.PHONY: all build test check bench fuzz fmt clean

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

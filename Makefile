# Convenience wrapper; `make check` is what CI runs.

.PHONY: all build test check fmt clean profile-smoke fuzz bench

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt --auto-promote 2>/dev/null || true

# Everything CI enforces: a clean build, the full test suite, a
# profile run, and the fixed-seed fuzz smoke.
check: build test profile-smoke fuzz

# The profile document's shape is tested by test_experiments' profile
# test and test_obs' JSON round trip; here the command must only succeed.
profile-smoke:
	dune exec bin/hextile.exe -- profile --builtin jacobi2d -N 64 -T 16 -o _build/prof_smoke.json

# Fixed-seed differential-testing smoke: a clean campaign across all
# schemes, a longer one for Split (which applies only to 1-D programs),
# then a mutation self-test (inject an off-by-one into the
# hybrid executor's view of each program; the oracle must catch every
# observable mutant).
fuzz:
	dune exec bin/hextile.exe -- fuzz --seed 42 --count 25
	dune exec bin/hextile.exe -- fuzz --seed 42 --count 300 --schemes split
	dune exec bin/hextile.exe -- fuzz --seed 7 --count 12 --mutate hybrid --shrink

# The performance ledger: every gated perf mode of the bench, each into
# its BENCH_*.json, all at one revision and one JOBS (default 4), with
# meta.cores recorded. The pairs below are the whole mapping. Gates:
#   parcmp     jobs=1 vs jobs=N Table 1/2 suite: rows bit-identical and a
#              speedup at the core-aware floor (2x on >=4 cores, 1.2x on
#              2-3, 0.6x on one; HEXTILE_PARCMP_FLOOR overrides it)
#   parattr    jobs=N wall time attributed to {compute, encode, idle,
#              replay, absorb, other} within 5% (Perfetto trace in
#              parattr_trace.json)
#   simcmp     tape engine bit-identical to the closure reference, >=3x
#   analytic   scaled suite bit-identical to exact (DRAM within the
#              documented bound); full-size 3072^2x512 and 384^3x128
#              each within 120 s, scaling some blocks, and legal by the
#              exact legality check within 1 s
#   tilesearch staged search picks the exhaustive oracle's tile with
#              >=5x fewer exact evaluations
#   serve      responses bit-identical at jobs 1/2/4 and to the one-shot
#              pipeline; warm cache >=3x cold throughput
# A mode whose gate fails exits nonzero and leaves its file as it was;
# the other modes still run, and the target fails naming the failed ones.
# meta.timestamp is HEXTILE_BENCH_TIMESTAMP when set (CI sets it), else
# the time the target starts (UTC).
JOBS ?= 4
LEDGER = parcmp:BENCH_par.json parattr:BENCH_parattr.json simcmp:BENCH_sim.json \
	analytic:BENCH_analytic.json tilesearch:BENCH_tilesize.json serve:BENCH_serve.json

bench: build
	@export HEXTILE_BENCH_TIMESTAMP="$${HEXTILE_BENCH_TIMESTAMP:-$$(date -u +%Y-%m-%dT%H:%M:%SZ)}"; \
	failed=; for m in $(LEDGER); do \
	  dune exec bench/main.exe -- --only $${m%%:*} --jobs $(JOBS) --json $${m#*:} \
	    --trace-out parattr_trace.json || failed="$$failed $${m%%:*}"; \
	done; \
	if [ -n "$$failed" ]; then echo "bench: gates failed:$$failed" >&2; exit 1; fi

clean:
	dune clean

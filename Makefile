# Convenience wrapper; `make check` is what CI runs.

.PHONY: all build test check fmt clean profile-smoke fuzz bench bench-parattr bench-tilesize bench-sim bench-analytic bench-serve

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt --auto-promote 2>/dev/null || true

# Everything CI enforces: a clean build, the full test suite, a
# profile report that parses as JSON, and the fixed-seed fuzz smoke.
check: build test profile-smoke fuzz

profile-smoke:
	dune exec bin/hextile.exe -- profile --builtin jacobi2d -N 64 -T 16 -o _build/prof_smoke.json
	@python3 -c "import json; json.load(open('_build/prof_smoke.json'))" && echo "profile JSON ok"

# Fixed-seed differential-testing smoke: a clean campaign across all
# schemes, a longer one for Split (which applies only to 1-D programs),
# then a mutation self-test (inject an off-by-one into the
# hybrid executor's view of each program; the oracle must catch every
# observable mutant).
fuzz:
	dune exec bin/hextile.exe -- fuzz --seed 42 --count 25
	dune exec bin/hextile.exe -- fuzz --seed 42 --count 300 --schemes split
	dune exec bin/hextile.exe -- fuzz --seed 7 --count 12 --mutate hybrid --shrink

# Parallel-runtime benchmark: times the Table 12 suite at jobs=1 vs
# jobs=N (default 4) and records the comparison in BENCH_par.json.
# Fails if the parallel rows differ from the sequential ones (this
# doubles as a determinism check) or if the speedup is below the
# core-aware floor: 2x on >=4 cores, 1.2x on 2-3, 0.6x on one (where
# real speedup is physically impossible and the gate only catches the
# parallel path falling off a cliff). Override the computed floor with
# HEXTILE_PARCMP_FLOOR.
JOBS ?= 4
bench: bench-parattr
	dune exec bench/main.exe -- --only parcmp --jobs $(JOBS) --json BENCH_par.json
	@python3 -c "import json; d=json.load(open('BENCH_par.json'))['experiments']['parcmp']; print('parcmp: jobs=%d cores=%d speedup=%.2fx (floor %.2fx) identical=%s' % (d['jobs'], d['cores'], d['speedup'], d['floor'], d['identical']))"

# Parallel-time attribution: runs the Table 3 hybrid suite at jobs=N
# with the timeline recorder on and attributes the jobs x wall-time
# budget to {compute, idle, encode, replay, absorb} in
# BENCH_parattr.json, with the run's Perfetto trace in
# parattr_trace.json for timeline inspection. Fails if the per-phase
# attribution does not sum to the measured budget within 5%.
bench-parattr:
	dune exec bench/main.exe -- --only parattr --jobs $(JOBS) --json BENCH_parattr.json --trace-out parattr_trace.json
	@python3 -c "import json; d=json.load(open('BENCH_parattr.json'))['experiments']['parattr']; f=d['fractions']; print('parattr: jobs=%d wall=%.2fs compute=%.1f%% idle=%.1f%% coverage=%.1f%%' % (d['jobs'], d['wall_s'], 100*f['compute'], 100*f['idle'], 100*d['named_coverage']))"

# Tile-size search benchmark: runs the staged (analytic-prune + exact)
# search against the frozen exhaustive oracle over the Table 3 suite,
# both sequentially and at --jobs 2, and records totals in
# BENCH_tilesize.json. Fails if any selected tile diverges from the
# oracle or if the staged search does fewer than 5x fewer exact
# evaluations than there are candidates.
bench-tilesize:
	dune exec bench/main.exe -- --only tilesearch --jobs 2 --json BENCH_tilesize.json
	@python3 -c "import json; d=json.load(open('BENCH_tilesize.json'))['experiments']['tilesearch']; print('tilesearch: %d candidates, %d exact evals, exhaustive %.2fs, staged %.2fs' % (d['total_candidates'], d['total_exact_evals'], d['t_exhaustive_s'], d['t_staged_s']))"

# Execution-engine benchmark: times the hybrid scheme over the Table 3
# suite with the closure reference vs the warp-batched tape engine
# (tile-class stream memoization on), sequentially and at --jobs 2, and
# records the comparison in BENCH_sim.json. Fails if any counter or
# grid diverges between the engines or if the tape engine's total
# speedup drops below 3x.
bench-sim:
	dune exec bench/main.exe -- --only simcmp --jobs 2 --json BENCH_sim.json
	@python3 -c "import json; d=json.load(open('BENCH_sim.json'))['experiments']['simcmp']; print('simcmp: ref %.2fs tape %.2fs speedup=%.2fx' % (d['t_ref_s'], d['t_tape_s'], d['speedup']))"

# Analytic-mode benchmark: differential check of the hierarchical
# (class-scaled) simulation against the exact engine over the scaled
# Table 3 suite, then the paper's actual full-size instances
# (3072^2 x 512 and 384^3 x 128) under a per-instance wall-clock budget
# (default 120 s; override with HEXTILE_ANALYTIC_BUDGET_S). Fails on
# any counter/grid divergence, a DRAM error above the documented bound,
# or a budget overrun. The JSON lands in BENCH_analytic.json.
bench-analytic:
	dune exec bench/main.exe -- --only analytic --jobs 2 --json BENCH_analytic.json
	@python3 -c "import json; d=json.load(open('BENCH_analytic.json'))['experiments']['analytic']; f=d['full_size']; print('analytic: scaled speedup=%.2fx max dram err=%.4f; ' % (d['speedup'], d['max_dram_err']) + ', '.join('%s %.0fs (%d/%d blocks scaled)' % (k, v['wall_s'], v['blocks_analytic'], v['blocks']) for k, v in f.items()))"

# Serve-daemon benchmark: sustained request throughput through the
# hextile serve request path (Table 3 traffic plus seeded fuzz
# programs, with duplicate requests), cold cache vs warm, on one
# daemon-lifetime pool and cache. Fails unless every response stream is
# bit-identical at jobs 1/2/4 cold and warm, every run response matches
# the one-shot pipeline's grids hash and result record exactly, and the
# warm cache delivers at least 3x the cold throughput. The JSON lands
# in BENCH_serve.json.
bench-serve:
	dune exec bench/main.exe -- --only serve --jobs 2 --json BENCH_serve.json
	@python3 -c "import json; d=json.load(open('BENCH_serve.json'))['experiments']['serve']; c=d['cold']; w=d['warm']; h=d['hit_rates']; print('serve: %d reqs cold %.1f req/s warm %.1f req/s (%.1fx) hits entry=%.2f run=%.2f identical=%s' % (d['requests'], c['req_per_s'], w['req_per_s'], d['warm_speedup'], h['entry'], h['run'], d['identical']))"

clean:
	dune clean

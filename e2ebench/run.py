"""Build and run the hextile end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --compare A.jsonl B.jsonl
    python3 e2ebench/run.py --ab A_DIR B_DIR --workload <name>[,<name>...]
                            [--seeds 1-10] [--seconds <s>] [--trace <0|1>]

Builds e2ebench/e2e.exe with dune inside this checkout (shared dune cache
off, so nothing is written outside it), then runs it from the checkout
root with the same arguments and passes its exit code through. Build
output goes to stderr; stdout carries only the benchmark's own output.

--ab interleaves two checkouts, A (say the parent) and B (the change):
for each seed it runs the benchmark once in each, alternating which runs
first, appends the results to e2ebench/out/ab-A.jsonl and ab-B.jsonl in
this checkout, and then compares the two files run for run. Both
checkouts must hold the same benchmark code.
"""

import filecmp
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = ["BENCHMARK.json", "e2ebench/e2e.ml", "e2ebench/dune", "e2ebench/expect.json"]


def exe(root):
    return os.path.join(root, "_build", "default", "e2ebench", "e2e.exe")


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./e2ebench/e2e.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write(f"e2ebench: build failed in {root}\n")
    return build.returncode


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def ab(args):
    sides = [os.path.abspath(args[0]), os.path.abspath(args[1])]
    opts = dict(zip(args[2::2], args[3::2]))
    if len(args) % 2 or "--workload" not in opts or set(opts) - {
        "--workload", "--seeds", "--seconds", "--trace"
    }:
        sys.stderr.write(__doc__)
        return 2
    for f in BENCH_FILES:
        try:
            same = filecmp.cmp(os.path.join(sides[0], f), os.path.join(sides[1], f), shallow=False)
        except OSError:
            same = False
        if not same:
            sys.stderr.write(f"e2ebench: {f} differs between the two checkouts\n")
            return 2
    for root in sides + [ROOT]:
        if build(root) != 0:
            return 1
    out_dir = os.path.join(ROOT, "e2ebench", "out")
    os.makedirs(out_dir, exist_ok=True)
    outs = [os.path.join(out_dir, "ab-A.jsonl"), os.path.join(out_dir, "ab-B.jsonl")]
    for path in outs:
        open(path, "w").close()
    run_args = [x for k in ("--seconds", "--trace") if k in opts for x in (k, opts[k])]
    for workload in opts["--workload"].split(","):
        for i, seed in enumerate(seed_range(opts.get("--seeds", "1-10"))):
            for s in (0, 1) if i % 2 == 0 else (1, 0):
                cmd = [exe(sides[s]), "--workload", workload, "--seed", str(seed),
                       "--out", outs[s]] + run_args
                sys.stderr.write(f"e2ebench: {'AB'[s]} {workload} seed {seed}\n")
                if subprocess.run(cmd, cwd=sides[s], stdout=subprocess.DEVNULL).returncode != 0:
                    sys.stderr.write(f"e2ebench: run failed: {' '.join(cmd)}\n")
                    return 1
    return subprocess.run([exe(ROOT), "--compare"] + outs, cwd=ROOT).returncode


def main():
    if sys.argv[1:2] == ["--ab"] and len(sys.argv) >= 4:
        return ab(sys.argv[2:])
    if build(ROOT) != 0:
        return 1
    return subprocess.run([exe(ROOT)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

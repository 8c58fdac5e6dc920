#!/usr/bin/env python3
"""Benchmark command of the dpsan workspace.

Run from the repository root:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --steady 10 [--workload <name> ...] [--sets 2]

The first form builds the benchmark binary (``cargo build --release``,
into ``$CARGO_TARGET_DIR``, default ``.bench_build``), runs one workload
in a fresh process and prints its result object as the last stdout
line. The second form is the steadiness mode: it runs every workload N
times with N different seeds, alternating workloads, and prints each
end-to-end metric's median, quartiles and relative IQR next to its
bound from BENCHMARK.json; then it re-runs one seed untraced and twice
traced and requires the exact counts to repeat. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["sweep_small", "release_medium", "follow_zealous", "bb_tiny"]
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_work"
RUN_TIMEOUT_S = 175


def build():
    """Build the benchmark binary; exit non-zero if that fails."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: benchmark build failed ({done.returncode})")
    return os.path.join(target, "release", "dpsan-benchmark")


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload in a fresh process; return its stdout lines
    (the info line, then the result line) or None on failure."""
    work_dir = os.path.join(WORK, f"run-{os.getpid()}-{workload}-{seed}-{trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work_dir]
    if trace:
        cmd += ["--spans", os.path.join(WORK, "spans", f"{workload}-seed{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(f"run.py: {workload} seed {seed} failed ({done.returncode})", file=sys.stderr)
        return None
    return lines


def spread(values):
    """(median, q1, q3, relative IQR) as the acceptance check takes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steady(binary, args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    medians = []
    for s in range(args.sets):
        values = {w: {} for w in workloads}
        for i in range(args.steady):
            for w in workloads:  # alternate workloads so host drift hits all
                lines = run_one(binary, w, args.seed + i, seconds, 0)
                result = json.loads(lines[-1]) if lines else None
                if not result or not result["correct"] or result["failed"]:
                    print(f"{w} seed {args.seed + i}: FAILED {result}")
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
        set_medians = {}
        print(f"set {s + 1}: {args.steady} runs per workload, run_seconds {seconds}")
        print(f"{'workload':<16} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'rel_iqr':>8} {'bound':>6}  verdict")
        for w in workloads:
            for name, vals in values[w].items():
                if len(vals) < 2:
                    continue
                med, q1, q3, rel = spread(vals)
                bound = bounds[name]["bound"]
                set_medians[(w, name)] = med
                if name == "setup_s":
                    verdict = "exempt"
                elif rel < bound / 3:
                    verdict = "steady"
                elif rel <= bound:
                    verdict = "within bound"
                else:
                    verdict, ok = "TOO NOISY", False
                print(f"{w:<16} {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{rel:>8.4f} {bound:>6}  {verdict}")
        medians.append(set_medians)
    for later in medians[1:]:
        for (w, name), med in later.items():
            first = medians[0].get((w, name))
            if not first:
                continue
            m = bounds[name]
            worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
            if worse > m["bound"]:
                print(f"{w} {name}: median moved {worse:+.4f} between sets (bound {m['bound']})")
                ok = False

    # exact counts: one seed again untraced, and twice traced
    for w in workloads:
        first = run_one(binary, w, args.seed, seconds, 0)
        again = run_one(binary, w, args.seed, seconds, 0)
        traced = [run_one(binary, w, args.seed, seconds, 1) for _ in range(2)]
        runs = [first, again] + traced
        if not all(runs):
            ok = False
            continue
        infos = [json.loads(r[-2])["exact_counts"] for r in runs]
        results = [json.loads(r[-1]) for r in runs]
        same_untraced = infos[0] == infos[1]
        same_traced = infos[2] == infos[3]
        common = {k: v for k, v in infos[0].items() if k in infos[2]}
        agree = all(infos[2][k] == v for k, v in common.items())
        correct = all(r["correct"] and r["failed"] == 0 for r in results)
        verdict = "identical" if same_untraced and same_traced and agree and correct else "DRIFT"
        ok = ok and verdict == "identical"
        print(f"{w:<16} exact counts {verdict}: {json.dumps(infos[2], sort_keys=True)}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="steadiness mode: N seeds per workload")
    p.add_argument("--sets", type=int, default=1,
                   help="steadiness mode: repeat the N-seed set this many times")
    args = p.parse_args()
    binary = build()
    if args.steady:
        return steady(binary, args)
    if not args.workload or len(args.workload) != 1 or not args.seconds:
        p.error("give one --workload and --seconds (or --steady N)")
    lines = run_one(binary, args.workload[0], args.seed, args.seconds, args.trace)
    if not lines:
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

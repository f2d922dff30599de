#!/usr/bin/env python3
"""A/B comparison of the working tree against a parent checkout with benchmarks/run.py.

Check the parent out first, then point ``--parent-dir`` at it (from the
repository root):

    git worktree add --detach ../npiv-parent HEAD~1
    python3 tools/ab_bench.py --parent-dir ../npiv-parent --workload study-fs --pairs 10
    git worktree remove ../npiv-parent

Any checkout works as the parent, a ``git clone`` included.  Each pair runs
``benchmarks/run.py --trace 0`` once on each side with the same seed,
alternating which side goes first.  For every workload and end-to-end metric
in BENCHMARK.json the report gives each side's median and quartiles, how many
pairs the change won (ties count for neither side), whether the medians
differ by more than the parent's interquartile range, and whether the
change's median is worse than the parent's by more than the metric's bound.
A closing verdict line follows; the exit status is 1 when some metric is
worse than its bound or the change failed more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_benchmark(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; returns its result object."""
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Quartiles of both sides, the change's wins, the median-vs-IQR test and the bound check."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    delta = cq[1] - pq[1]
    rel = delta / pq[1] if pq[1] else float("nan")
    better = delta < 0 if lower else delta > 0
    return {
        "metric": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": pq,
        "change": cq,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "rel_delta": rel,
        "beyond_parent_iqr": better and abs(delta) > pq[2] - pq[0],
        "over_bound": (rel if lower else -rel) > metric["bound"],
    }


def compare(parent_dir: str, workloads: list[str], pairs: int, seed0: int, seconds: float, log) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    report = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            seed = seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_benchmark(parent_dir if side == "parent" else ROOT, workload, seed, seconds)
                runs[side].append(result)
                log(f"{workload} pair {i + 1}/{pairs} seed {seed} {side}: failed={result['failed']} "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        report[workload] = {
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "metrics": [
                summarise(
                    m,
                    [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                )
                for m in metrics
            ],
        }
    return report


def format_report(report: dict) -> str:
    header = (f"{'workload':<14} {'metric':<17} {'parent q1 / median / q3':>30} "
              f"{'change q1 / median / q3':>30} {'delta':>8} {'wins':>7}  beyond parent IQR  worse than bound")
    lines = [header, "-" * len(header)]
    for workload, entry in report.items():
        for s in entry["metrics"]:
            p, c = s["parent"], s["change"]
            lines.append(
                f"{workload:<14} {s['metric']:<17} {p[0]:>9.4g} / {p[1]:>9.4g} / {p[2]:>9.4g} "
                f"{c[0]:>9.4g} / {c[1]:>9.4g} / {c[2]:>9.4g} {s['rel_delta']:>+8.1%} "
                f"{s['wins']:>3}/{s['pairs']:<3}  {'yes' if s['beyond_parent_iqr'] else 'no':<17}  "
                f"{'YES' if s['over_bound'] else 'no'}"
            )
        lines.append(f"{workload:<14} failed operations: parent {entry['failed']['parent']}, "
                     f"change {entry['failed']['change']}")
    return "\n".join(lines)


def verdict(report: dict) -> tuple[bool, str]:
    """Whether the change passes, and one line that says why."""
    problems = [
        f"{workload} {s['metric']} is worse than its bound"
        for workload, entry in report.items()
        for s in entry["metrics"]
        if s["over_bound"]
    ]
    problems += [
        f"{workload} failed {entry['failed']['change']} operations (parent {entry['failed']['parent']})"
        for workload, entry in report.items()
        if entry["failed"]["change"] > entry["failed"]["parent"]
    ]
    if problems:
        return False, "verdict: FAIL: " + "; ".join(problems)
    return True, "verdict: PASS: no metric worse than its bound, no more failed operations than the parent"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-dir", required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", nargs="+", default=["study-fs"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0 or not args.seconds > 0:
        parser.error("--pairs must be >= 1, --seed >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(args.parent_dir, "benchmarks", "run.py")):
        parser.error(f"--parent-dir {args.parent_dir} has no benchmarks/run.py")

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    report = compare(os.path.abspath(args.parent_dir), args.workload, args.pairs, args.seed, args.seconds, log)
    ok, line = verdict(report)
    print(format_report(report))
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

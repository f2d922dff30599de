#!/usr/bin/env python3
"""A/B comparison of the working tree against a parent checkout with benchmarks/run.py.

Check the parent out first, then point ``--parent-dir`` at it (from the
repository root):

    git worktree add --detach ../npiv-parent HEAD~1
    python3 tools/ab_bench.py --parent-dir ../npiv-parent
    git worktree remove ../npiv-parent

Any checkout works as the parent, a ``git clone`` included.  Each of ``PAIRS``
pairs runs ``benchmarks/run.py --trace 0`` for BENCHMARK.json's ``run_seconds``
once on each side with the same seed, alternating which side goes first, for
every workload of BENCHMARK.json or those given to ``--workload``.  For each
workload and end-to-end metric the report gives each side's median and
quartiles, how many pairs the change won (ties count for neither side),
whether the medians differ by more than the parent's interquartile range, and
whether the change's median is worse than the parent's by more than the
metric's bound.
That last column reads ``unresolved`` instead of ``no`` when the parent's
interquartile range is wider than the bound relative to its median, unless
every change run beats every parent run.  A closing verdict line follows;
the exit status is 1 when some metric is worse than its bound or the change
failed more operations than the parent.

Each run starts in a session of its own, through ``run_in_session``, the
child runner of every tool here.  Interrupting the comparison (Ctrl-C or
SIGTERM) kills the running benchmark with all its processes; SIGTERM exits
143.

``--claim WORKLOAD:METRIC`` (repeatable) names a gain claimed before
measuring.  The verdict then also requires, for each claim, that the change
won at least 9 of every 10 pairs and that the medians differ, in the better
direction, by more than the parent's interquartile range:

    python3 tools/ab_bench.py --parent-dir ../npiv-parent --workload study-small-n \
        --claim study-small-n:latency_p50_ms
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the gain rule's floor: a claim must win 9 of every 10 pairs


@functools.cache
def benchmark() -> dict:
    """BENCHMARK.json of this tree, read on first use; every tool here shares the one copy."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def exit_on_sigterm() -> None:
    """Make SIGTERM unwind like Ctrl-C, exiting 128 + signum, so a running child is killed on the way out."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def run_in_session(cmd: list[str], cwd: str | None = None, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``cmd`` to its end in a session of its own; returns it with its output as text.

    On an interruption (Ctrl-C, SIGTERM raised as SystemExit by ``exit_on_sigterm``, or any
    exception) its whole process group, pool workers included, is killed and reaped before the
    interruption passes on.
    """
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_benchmark(checkout: str, workload: str, seed: int) -> dict:
    """The result object of one untraced benchmark run in ``checkout`` for ``run_seconds``."""
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(benchmark()["run_seconds"]), "--trace", "0"]
    proc = run_in_session(cmd, cwd=checkout)
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
    apart = max(change) < min(parent) if lower else min(change) > max(parent)
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
        # the parent's spread is wider than the bound, and the runs overlap
        "unresolved": pq[2] - pq[0] > metric["bound"] * abs(pq[1]) and not apart,
    }


def compare(parent_dir: str, workloads: list[str], seed0: int) -> dict:
    report = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_benchmark(parent_dir if side == "parent" else ROOT, workload, seed)
                runs[side].append(result)
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} {side}: failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        report[workload] = {
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "metrics": [summarise(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                       for side in ("parent", "change")))
                        for m in benchmark()["end_to_end"]],
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
                f"{'YES' if s['over_bound'] else 'unresolved' if s['unresolved'] else 'no'}"
            )
        lines.append(f"{workload:<14} failed operations: parent {entry['failed']['parent']}, "
                     f"change {entry['failed']['change']}")
    return "\n".join(lines)


def claim_problems(report: dict, claims: list[tuple[str, str]]) -> list[str]:
    """Why each claimed gain falls short of 9/10 pairs won and medians beyond the parent's IQR."""
    problems = []
    for workload, metric in claims:
        s = next(s for s in report[workload]["metrics"] if s["metric"] == metric)
        name = f"claim {workload}:{metric}"
        if 10 * s["wins"] < 9 * s["pairs"]:
            problems.append(f"{name} won {s['wins']}/{s['pairs']} pairs, fewer than 9/10")
        if not s["beyond_parent_iqr"]:
            problems.append(f"{name} medians do not differ in its favour by more than the parent's IQR")
    return problems


def verdict(report: dict, claims: list[tuple[str, str]] = ()) -> tuple[bool, str]:
    """Whether the change passes, and one line that says why."""
    problems = [f"{workload} {s['metric']} is worse than its bound"
                for workload, entry in report.items() for s in entry["metrics"] if s["over_bound"]]
    problems += [f"{workload} failed {entry['failed']['change']} operations (parent {entry['failed']['parent']})"
                 for workload, entry in report.items() if entry["failed"]["change"] > entry["failed"]["parent"]]
    problems += claim_problems(report, claims)
    if problems:
        return False, "verdict: FAIL: " + "; ".join(problems)
    held = "".join(f", claim {w}:{m} holds" for w, m in claims)
    return True, f"verdict: PASS: no metric worse than its bound, no more failed operations than the parent{held}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-dir", required=True, help="checkout of the parent commit")
    names = [w["name"] for w in benchmark()["workloads"]]
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a claimed gain the verdict also tests (9/10 pairs won, beyond the parent's IQR)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    claims = [tuple(c.partition(":")[::2]) for c in args.claim]
    for (workload, metric), text in zip(claims, args.claim):
        if workload not in args.workload or metric not in {m["name"] for m in benchmark()["end_to_end"]}:
            parser.error(f"--claim {text}: expected WORKLOAD:METRIC with a workload given to --workload "
                         f"and an end-to-end metric of BENCHMARK.json")
    if not os.path.isfile(os.path.join(args.parent_dir, "benchmarks", "run.py")):
        parser.error(f"--parent-dir {args.parent_dir} has no benchmarks/run.py")
    report = compare(os.path.abspath(args.parent_dir), args.workload, args.seed)
    ok, line = verdict(report, claims)
    print(format_report(report))
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main())

#!/usr/bin/env python3
"""Record where the working tree stands in one file, BENCH_<N>.json.

Run from the repository root:

    python3 tools/trajectory.py --pr N

The file holds:

- ``environment``: the environment record of ``benchmarks/run.py``;
- ``workloads``: for each workload in BENCHMARK.json, the result object of
  one untraced ``benchmarks/run.py`` run at seed ``SEED`` for BENCHMARK.json's
  ``run_seconds``, made by ``ab_bench.run_benchmark`` as an A/B pair's side
  is, each before this process imports numpy: a child's peak RSS counts the
  pages it was forked with, so only a small parent leaves the run's
  ``peak_rss_mb`` its own;
- ``headline``: the acceptance Monte Carlo.  Every study of ``STUDIES`` in
  ``tests/test_acceptance.py`` runs through that file's ``run_study``,
  ``PASSES`` times at min(4, CPUs) worker processes and as many at one.
  It gives each pass's wall, their median and each study's wall per pass;
- ``tier1``: the wall and exit status of one tier-1 ``pytest`` run;
- ``src_lines``: the lines of each module under ``src/npiv``.

The headline pins OpenBLAS to one thread per process, as the benchmark
does; the benchmark and tier-1 runs get the caller's environment and start
through ``ab_bench.run_in_session``, so Ctrl-C or SIGTERM kills the running
one with all its processes (SIGTERM exits 143).  The seed, run length and
passes are fixed, so that files of successive trees compare; the file
records them.  ``--grid``, ``--workloads`` with no names and ``--no-tier1``
shrink a run to a smoke test; the file records the grid it used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "tests")]

import ab_bench  # noqa: E402  tools/ab_bench.py, beside this file
import run  # noqa: E402  benchmarks/run.py, as its own tests import it

SEED = 0  # benchmark seed of every workload run
PASSES = 3  # headline passes at each jobs value


def headline(acc, grid: list[int]) -> dict:
    """Walls of ``PASSES`` passes over the studies of ``acc``, the acceptance suite, at min(4, CPUs)
    jobs and at one."""
    runs = []
    for jobs in sorted({min(4, os.cpu_count() or 1), 1}, reverse=True):
        pass_walls, study_walls = [], []
        for _ in range(PASSES):
            each, start = {}, time.perf_counter()
            for name in acc.STUDIES:
                t = time.perf_counter()
                acc.run_study(name, jobs, grid)
                each[name] = time.perf_counter() - t
            pass_walls.append(time.perf_counter() - start)
            study_walls.append(each)
        runs.append({"jobs": jobs, "pass_walls_s": pass_walls, "median_s": statistics.median(pass_walls),
                     "study_walls_s": study_walls})
    return {"studies": list(acc.STUDIES), "grid": grid, "passes": PASSES, "runs": runs}


def tier1(env: dict) -> dict:
    """Wall, exit status and closing line of one tier-1 run."""
    env = {**env, "PYTHONPATH": os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)}
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = ab_bench.run_in_session(cmd, cwd=ROOT, env=env)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit_status": proc.returncode,
            "summary": lines[-1] if lines else ""}


def src_lines() -> dict:
    """{module file name: its line count} for src/npiv."""
    package = os.path.join(SRC, "npiv")
    lines = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                lines[name] = sum(1 for _ in fh)
    return lines


def main(argv=None) -> int:
    names = [w["name"] for w in ab_bench.benchmark()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="N of BENCH_<N>.json")
    parser.add_argument("--out", help="output path (default: BENCH_<N>.json at the repository root)")
    parser.add_argument("--workloads", nargs="*", choices=names, default=names)
    parser.add_argument("--grid", help="comma-separated sample sizes of the headline (default: the acceptance grid)")
    parser.add_argument("--no-tier1", action="store_true", help="skip the tier-1 run")
    args = parser.parse_args(argv)
    caller_env = dict(os.environ)
    workloads = {name: {"seed": SEED, "seconds": ab_bench.benchmark()["run_seconds"],
                        "result": ab_bench.run_benchmark(ROOT, name, SEED)} for name in args.workloads}
    pinned = run.pin_blas_threads()
    run.load_npiv()
    import test_acceptance as acc  # after npiv, from src/, and after the pin, which precedes numpy

    grid = [int(v) for v in args.grid.split(",")] if args.grid else acc.GRID
    record = {
        "pr": args.pr,
        "environment": run.environment(SEED, pinned),
        "workloads": workloads,
        "headline": headline(acc, grid),
        "tier1": None if args.no_tier1 else tier1(caller_env),
        "src_lines": src_lines(),
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    ab_bench.exit_on_sigterm()
    sys.exit(main())

#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as a parent checkout.

Point ``--parent-dir`` at any checkout of the parent commit (a ``git clone``
or an unpacked ``git archive`` works; only its ``src/`` is used), then run
from the repository root:

    python3 tools/same_outputs.py --parent-dir ../npiv-parent

Each side runs in one fresh interpreter with that checkout's ``src/`` on
``PYTHONPATH`` and ``PYTHONWARNINGS=error::RuntimeWarning``.  Both take their
inputs from this tree's ``benchmarks/workloads.py`` and drive npiv the way
the benchmark does, through ``npiv.cli.main``:

- ``rate-study`` with the study-fs and study-small-n configs, at slots 0 and 5,
  each with ``--jobs 1`` and ``--jobs 2``;
- the 25 cli-pipeline requests (``simulate``, ``select`` and ``estimate``)
  at slots 0 and 3.

``--smoke`` runs the benchmark's reduced workloads instead.  Every output
file is compared byte for byte, together with each operation's outcome.  The
first differing file and line are printed; the exit status is 1 on any
difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmarks")
STUDY_SLOTS = (0, 5)
STUDY_JOBS = (1, 2)
PIPELINE_SLOTS = (0, 3)


def write_outputs(out: str, smoke: bool) -> None:
    """Run every operation with the npiv on ``sys.path`` and write its outputs under ``out``."""
    sys.path.insert(0, BENCH_DIR)
    import workloads as wl
    from npiv import cli

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if src != os.environ.get("PYTHONPATH"):
        raise ImportError(f"npiv was imported from {src}, not from PYTHONPATH")

    specs = wl.SMOKE if smoke else wl.WORKLOADS
    outcomes = {}
    for name in ("study-fs", "study-small-n"):
        study = specs[name]
        for slot in STUDY_SLOTS:
            here = os.path.join(out, name, f"slot{slot}")
            os.makedirs(here)
            config = wl.write_config(study, slot, here)
            for jobs in STUDY_JOBS:
                base = os.path.join(here, f"jobs{jobs}")
                outcomes[base] = wl.run_study(cli, study, config, base, jobs).error
    pipe = specs["cli-pipeline"]
    for slot in PIPELINE_SLOTS:
        here = os.path.join(out, "cli-pipeline", f"slot{slot}")
        os.makedirs(here)
        paths = wl.pipeline_files(pipe, slot, here)
        for i in range(pipe.distinct):
            _, n, seed = pipe.request(slot, i)
            request = os.path.join(here, f"request{i:02d}")
            os.makedirs(request)
            files = {**paths, **{key: os.path.join(request, os.path.basename(paths[key]))
                                 for key in ("csv", "select", "estimate")}}
            outcomes[request] = wl.run_request(cli, pipe, files, n, seed).error
    with open(os.path.join(out, "outcomes.json"), "w") as fh:
        json.dump({os.path.relpath(k, out): v for k, v in outcomes.items()}, fh, indent=1, sort_keys=True)


def run_side(checkout: str, out: str, smoke: bool) -> None:
    """Write ``checkout``'s outputs under ``out`` from a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src"),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    cmd = [sys.executable, os.path.abspath(__file__), "--write", out] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"outputs of {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")


def _files(top: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), top) for d, _, fs in os.walk(top) for f in fs)


def first_difference(parent: str, change: str) -> str | None:
    """Where the two output trees first differ, or None when every file is the same."""
    names, other = _files(parent), _files(change)
    if names != other:
        missing = sorted(set(names) ^ set(other))[0]
        return f"{missing}: written on one side only"
    for name in names:
        with open(os.path.join(parent, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(change, name), "rb") as fh:
            b = fh.read()
        if a != b:
            lines_a, lines_b = a.splitlines(), b.splitlines()
            line = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                        min(len(lines_a), len(lines_b)))
            show = [lines[line].decode(errors="replace") if line < len(lines) else "<end of file>"
                    for lines in (lines_a, lines_b)]
            return f"{name}, line {line + 1}:\n  parent: {show[0]}\n  change: {show[1]}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-dir", help="checkout of the parent commit")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's reduced workloads")
    parser.add_argument("--write", help=argparse.SUPPRESS)  # the per-checkout interpreter
    args = parser.parse_args(argv)
    if args.write:
        write_outputs(args.write, args.smoke)
        return 0
    if not args.parent_dir:
        parser.error("--parent-dir is required")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        sides = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        run_side(args.parent_dir, sides["parent"], args.smoke)
        run_side(ROOT, sides["change"], args.smoke)
        diff = first_difference(sides["parent"], sides["change"])
        count = len(_files(sides["change"]))
    if diff is not None:
        print(f"DIFFERENT: {diff}")
        return 1
    print(f"SAME: {count} files byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

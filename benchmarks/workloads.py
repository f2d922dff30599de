"""Workload inputs, the operations that drive npiv through its CLI entry point, and their output checks.

Each benchmark seed maps to one of ``SLOTS`` input sets; ``refs.json`` holds
the expected outputs of every slot, written by ``make_refs.py``.  Integers
must match exactly and floats within ``RTOL``, so a change that moves only
the last bits of the arithmetic passes while a different selection or risk
fails.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

SLOTS = 16
RTOL = 1e-6
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

_STRUCTURAL = {"smoothness": 2, "radius": 1, "truncation": 200}
_NOISE = {"snr": 2}


@dataclass(frozen=True)
class Study:
    """A rate study run through ``npiv rate-study``; one operation is one whole study."""

    name: str
    operator: dict
    derivative_order: int
    penalty_const: float
    n_grid: tuple[int, ...]
    replications: int

    @property
    def cells(self) -> int:
        return len(self.n_grid) * self.replications

    def config(self, slot: int) -> dict:
        return {
            "structural": dict(_STRUCTURAL),
            "operator": dict(self.operator),
            "noise": dict(_NOISE),
            "selection": {"derivative_order": self.derivative_order, "penalty_const": self.penalty_const},
            "study": {"n_grid": list(self.n_grid), "replications": self.replications, "seed": slot},
        }


@dataclass(frozen=True)
class Pipeline:
    """A closed loop of simulate -> select -> estimate requests on CSV files.

    Request i uses sample size ``n_cycle[i % len(n_cycle)]`` and one of
    ``distinct`` data seeds, so the expected outputs fit in the reference file.
    """

    name: str
    n_cycle: tuple[int, ...]
    distinct: int
    truncation: int = 30
    k: int = 12
    penalty_const: float = 0.75

    def config(self, slot: int) -> dict:
        return {
            "structural": {**_STRUCTURAL, "truncation": self.truncation},
            "operator": {"decay": "polynomial", "a": 1, "truncation": 5},
            "noise": dict(_NOISE),
        }

    def request(self, slot: int, i: int) -> tuple[int, int, int]:
        """(reference index, sample size, data seed) of request ``i``."""
        r = i % self.distinct
        return r, self.n_cycle[r % len(self.n_cycle)], 1000 * slot + r


WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP headline: heavy numeric kernels, 16000 x 200 response designs.
        Study("study-fs", {"decay": "polynomial", "a": 1, "truncation": 5}, 0, 0.75,
              (500, 1000, 2000, 4000, 8000, 16000), 10),
        # Small samples, many cells: per-cell fixed costs and task dispatch dominate.
        Study("study-small-n", {"decay": "exponential", "a": 0.5, "truncation": 8}, 1, 0.3,
              (100, 200, 400, 800), 200),
        # The only workload with CSV I/O, the Galerkin solve and argparse/JSON per call.
        # Five sizes and five data seeds per size: with odd counts the median
        # request falls inside one size class and one input, not in a gap.
        Pipeline("cli-pipeline", (250, 500, 1000, 2000, 4000), 25),
    )
}

# Reduced sizes for the benchmark's own tests; they have references of their own.
SMOKE = {
    "study-fs": Study("study-fs-smoke", WORKLOADS["study-fs"].operator, 0, 0.75, (500, 1000), 2),
    "study-small-n": Study("study-small-n-smoke", WORKLOADS["study-small-n"].operator, 1, 0.3, (100, 200), 4),
    "cli-pipeline": Pipeline("cli-pipeline-smoke", (250, 500, 1000), 3),
}


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- operations -----------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    error: str | None
    digest: dict | None = None


def _quiet_main(cli, argv: list[str]) -> int:
    """``npiv.cli.main`` with its stderr chatter (echoes, warnings) kept off the terminal."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def run_study(cli, study: Study, config_path: str, out_base: str, jobs: int) -> Outcome:
    argv = ["rate-study", config_path, "--jobs", str(jobs), "--out", out_base + ".json"]
    t0 = time.perf_counter()
    try:
        rc = _quiet_main(cli, argv)
    except Exception as exc:  # an operation that raises counts as failed
        return Outcome(time.perf_counter() - t0, f"rate-study raised {exc!r}")
    wall = time.perf_counter() - t0
    if rc != 0:
        return Outcome(wall, f"rate-study exited {rc}")
    return Outcome(wall, None, study_digest(out_base))


def run_request(cli, pipe: Pipeline, paths: dict, n: int, seed: int) -> Outcome:
    """One pipeline request; its wall time covers the three ``main`` calls."""
    steps = (
        ["simulate", paths["config"], "--out", paths["csv"], "--n", str(n), "--seed", str(seed)],
        ["select", paths["csv"], "--penalty-const", str(pipe.penalty_const), "--out", paths["select"]],
        ["estimate", paths["csv"], "--mode", "general", "--k", str(pipe.k),
         "--truth", paths["truth"], "--out", paths["estimate"]],
    )
    t0 = time.perf_counter()
    for argv in steps:
        try:
            rc = _quiet_main(cli, argv)
        except Exception as exc:
            return Outcome(time.perf_counter() - t0, f"{argv[0]} raised {exc!r}")
        if rc != 0:
            return Outcome(time.perf_counter() - t0, f"{argv[0]} exited {rc}")
    wall = time.perf_counter() - t0
    return Outcome(wall, None, request_digest(paths["select"], paths["estimate"]))


def write_config(spec, slot: int, tmp: str) -> str:
    """Write the workload's npiv config for ``slot`` into ``tmp``; returns its path."""
    path = os.path.join(tmp, f"{spec.name}.json")
    _write_json(path, spec.config(slot))
    return path


def pipeline_files(pipe: Pipeline, slot: int, tmp: str) -> dict:
    paths = {key: os.path.join(tmp, name) for key, name in (
        ("config", "pipeline.json"), ("truth", "truth.json"), ("csv", "sample.csv"),
        ("select", "select.json"), ("estimate", "estimate.json"))}
    cfg = pipe.config(slot)
    _write_json(paths["config"], cfg)
    _write_json(paths["truth"], {"structural": cfg["structural"]})
    return paths


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


# -- output digests and checks --------------------------------------------

_INT_COLUMNS = ("n", "replication", "seed", "k_selected", "cutoff", "thresholded", "oracle_k")


def study_digest(out_base: str) -> dict:
    """Exact integers and toleranced floats of a study's ``.json`` and ``.csv`` outputs."""
    with open(out_base + ".json") as fh:
        report = json.load(fh)
    with open(out_base + ".csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ints_text = "\n".join(",".join(row[c] for c in _INT_COLUMNS) for row in rows)
    per_n = report["per_n"]
    grid = report["n_grid"]

    def column_sum(name, n, cast):
        return sum(cast(row[name]) for row in rows if int(row["n"]) == n)

    ints = {
        "n_grid": grid,
        "replications": report["replications"],
        "seed": report["seed"],
        "rows": len(rows),
        "int_columns_sha256": hashlib.sha256(ints_text.encode()).hexdigest(),
        "k_selected_sum": [column_sum("k_selected", n, int) for n in grid],
        "cutoff_sum": [column_sum("cutoff", n, int) for n in grid],
        "thresholded_sum": [column_sum("thresholded", n, int) for n in grid],
    }
    for key in ("oracle_k", "cutoff_known", "cutoff_lower"):
        ints[key] = [row[key] for row in per_n]
    floats = {
        "fitted_slope": [report["fitted_slope"]],
        "theoretical_slope": [report["theoretical_slope"]],
        "risk_sum": [column_sum("risk", n, float) for n in grid],
        "oracle_risk_sum": [column_sum("oracle_risk", n, float) for n in grid],
    }
    for key in ("risk_median", "risk_mean", "risk_iqr", "k_median", "oracle_rate", "oracle_risk_median"):
        floats[key] = [row[key] for row in per_n]
    return {"ints": ints, "floats": floats}


def request_digest(select_path: str, estimate_path: str) -> dict:
    with open(select_path) as fh:
        sel = json.load(fh)
    with open(estimate_path) as fh:
        est = json.load(fh)
    ints = {
        "n": sel["n"],
        "cutoff": sel["cutoff"],
        "k_selected": sel["k_selected"],
        "select_thresholded": int(sel["thresholded"]),
        "estimate_k": est["k"],
        "estimate_thresholded": int(est["thresholded"]),
        "select_coeffs_len": len(sel["coeffs"]),
        "estimate_coeffs_len": len(est["coeffs"]),
    }
    floats = {
        "y_second_moment": [sel["y_second_moment"]],
        "criterion": sel["criterion"],
        "select_coeffs": sel["coeffs"],
        "estimate_coeffs": est["coeffs"],
        "risk": [est["risk"]],
    }
    return {"ints": ints, "floats": floats}


def compare(digest: dict, ref: dict | None) -> str | None:
    """None when ``digest`` matches ``ref``; otherwise what differs.

    Float lists are compared against the largest magnitude in the reference
    list, so an entry near zero is not held to a relative bound of its own.
    """
    if ref is None:
        return "no reference for these inputs"
    for key, want in ref["ints"].items():
        if digest["ints"].get(key) != want:
            return f"{key}: got {digest['ints'].get(key)!r}, want {want!r}"
    for key, want in ref["floats"].items():
        got = digest["floats"].get(key)
        if got is None or len(got) != len(want):
            return f"{key}: got {got!r}, want {want!r}"
        scale = max((abs(v) for v in want), default=0.0)
        for g, w in zip(got, want):
            if not abs(g - w) <= RTOL * scale:
                return f"{key}: got {g!r}, want {w!r} (rtol {RTOL})"
    return None

"""Command-line interface for simulation, estimation, selection and rate studies.

Subcommands:
  simulate    draw a synthetic sample to CSV
  estimate    fit the series estimator at a fixed dimension
  select      run the fully data-driven dimension selection
  oracle      tabulate best dimensions and rate values for known weights
  rate-study  Monte Carlo over a sample-size grid with slope fitting

Exit codes: 0 success, 2 usage or config errors, 3 I/O errors, 4 internal
invariant failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .basis import WeightSequence, parse_weights
from .estimator import (
    diagonal_estimate,
    diagonal_estimates,
    derivative_coeffs,
    empirical_operator_matrix,
    galerkin_estimate,
    load_csv,
    risk_weighted,
    risks_weighted,
    write_csv,
)
from .selection import (
    dimension_cutoffs,
    effective_dimension,
    oracle_dimension,
    penalized_select,
    select_block,
)
from .simulate import (
    OperatorSpec,
    StructuralSpec,
    generate_sample,
    generate_samples,
    make_operator,
    make_structural,
    noise_sigma_for_snr,
    proposal_batch,
    sampler_doubles,
    task_seed,
)

SCHEMA = 1


class UsageError(Exception):
    """Bad flags or config content; maps to exit code 2."""


class InternalError(Exception):
    """Violated runtime invariant; maps to exit code 4."""


# The largest array a command may ask for.  Sizes from flags and config are
# checked against it before anything that large is allocated, so a request
# beyond it exits 2 instead of failing inside numpy.
_MAX_BYTES = 1 << 30
# Bytes a rate study holds per (n, replication) cell: its task, result row and index entry.
_CELL_BYTES = 512
# Proposals one block of study replications (of one n) may draw together, each replication
# counted at ``proposal_batch(op, n)``; a block shares its sampler's and truth's calls.
_BLOCK_PROPOSALS = 1 << 16


def _check_size(what: str, count: int, each: int = 8) -> None:
    """Reject ``count`` items of ``each`` bytes (a double by default) beyond ``_MAX_BYTES``."""
    if count * each > _MAX_BYTES:
        raise UsageError(
            f"{what} is too large: it needs more than the {_MAX_BYTES >> 30} GiB "
            f"a command may allocate"
        )


def _size(v: int) -> str:
    """``v`` in digits, or as a power of ten when it is too long to read."""
    return str(v) if abs(v) < 10**15 else f"about 10^{len(str(abs(v))) - 1}"


def _check_sampler(op: OperatorSpec, n: int, name: str) -> None:
    """Bound the sample of size ``n`` and the peak of its rejection sampler."""
    _check_size(f"{name} {_size(n)}", n)
    doubles = sampler_doubles(op, n)
    _check_size(f"{name} {n}: its sampler's peak of {doubles} doubles", doubles)


# -- config handling ------------------------------------------------------

# Each key a config section accepts: its JSON type, its default (None: unset) and, where no
# library constructor checks it, its range for ``_in_range``.  A flag is held to its key's range.
_SECTION_KEYS = {
    "structural": {"profile": ("string", "power_law", None), "smoothness": ("number", 2.0, None),
                   "radius": ("number", 1.0, None), "truncation": ("integer", 200, None),
                   "coeffs": ("list of numbers", None, None)},
    "operator": {"decay": ("string", "polynomial", None), "a": ("number", 1.0, None),
                 "truncation": ("integer", 64, None)},
    "noise": {"sigma": ("number", None, ">= 0"), "snr": ("number", None, None)},
    "selection": {"derivative_order": ("integer", 0, ">= 0"), "penalty_const": ("number", 540.0, "> 0")},
    "study": {"n_grid": ("list", None, None), "replications": ("integer", 50, ">= 1"),
              "seed": ("integer", 0, ">= 0"), "k_max": ("integer", 200, ">= 1")},
}
_JSON_TYPES = {"string": str, "number": (int, float), "integer": (int, float), "list": list,
               "list of numbers": list}


def _in_range(name: str, value, least: str):
    """``value`` if it is ``>= 1``, ``>= 0`` or ``> 0`` and finite, as ``least`` says."""
    ok, wording = {
        ">= 1": (value >= 1, "must be >= 1"),
        ">= 0": (value >= 0, "must be nonnegative"),
        "> 0": (0 < value <= sys.float_info.max, "must be positive and finite"),
    }[least]
    if not ok:
        raise UsageError(f"{name} {wording}, got {value}")
    return value


def _check_n_grid(grid: list, name: str) -> list[int]:
    """Reject an empty, non-integer, nonpositive or unsorted sample-size grid."""
    if not grid:
        raise UsageError(f"{name} is empty")
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in grid):
        raise UsageError(f"{name} must list integers >= 1, got {json.dumps(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"{name} must be strictly increasing")
    return grid


def _checked(name: str, kind: str, value, least: str | None = None):
    """``value`` as a JSON ``kind`` within range ``least``: numbers are finite doubles, integral
    floats become ints, and a ``list`` is a sample-size grid."""
    ok = isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)
    if not ok or (kind == "integer" and value % 1 != 0):
        raise UsageError(f"{name} must be a JSON {kind}, got {json.dumps(value)}")
    if kind == "list":
        return _check_n_grid(value, name)
    if kind == "list of numbers":
        return [_checked(f"{name}[{i}]", "number", v) for i, v in enumerate(value)]
    if kind in ("number", "integer") and not abs(value) <= sys.float_info.max:
        raise UsageError(f"{name} must be a finite JSON number, got {json.dumps(value)}")
    value = int(value) if kind == "integer" else value
    return value if least is None else _in_range(name, value, least)


def _check_keys(section: str, obj: dict) -> None:
    """Reject unknown keys, mistyped values, non-finite numbers and values out of range."""
    if not isinstance(obj, dict):
        raise UsageError(f"config section {section!r} must be an object")
    unknown = obj.keys() - _SECTION_KEYS[section]
    if unknown:
        raise UsageError(
            f"config section {section!r} has unknown keys: {', '.join(sorted(unknown))}"
        )
    for key, value in obj.items():
        kind, _, least = _SECTION_KEYS[section][key]
        obj[key] = _checked(f"{section}.{key}", kind, value, least)


def _load_object(path, what: str) -> dict:
    """The JSON object in file ``path``; ``what`` names it when the file holds another value."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise UsageError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: {what} must be a JSON object")
    return obj


def load_config(path) -> dict:
    cfg = _load_object(path, "config")
    unknown = set(cfg) - set(_SECTION_KEYS)
    if unknown:
        raise UsageError(f"{path}: unknown config sections: {', '.join(sorted(unknown))}")
    for section, obj in cfg.items():
        _check_keys(section, obj)
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name in ("structural", "operator", "noise") and name not in cfg:
        raise UsageError(f"config needs {'an' if name == 'operator' else 'a'} {name!r} section")
    defaults = {key: default for key, (_, default, _) in _SECTION_KEYS[name].items()}
    return {**defaults, **cfg.get(name, {})}


def _build(name: str, make, cfg: dict):
    section = _section(cfg, name)
    _check_size(f"{name}.truncation {_size(section['truncation'])}", section["truncation"])
    try:
        return make(**section)
    except ValueError as exc:
        raise UsageError(f"bad {name} config: {exc}") from None


def structural_from_config(cfg: dict) -> StructuralSpec:
    return _build("structural", make_structural, cfg)


def operator_from_config(cfg: dict) -> OperatorSpec:
    return _build("operator", make_operator, cfg)


def sigma_from_config(cfg: dict, phi: StructuralSpec) -> float:
    sec = _section(cfg, "noise")
    sigma, snr = sec["sigma"], sec["snr"]
    if (sigma is None) == (snr is None):
        raise UsageError("noise config needs exactly one of 'sigma' or 'snr'")
    try:
        return float(sigma) if snr is None else noise_sigma_for_snr(phi, float(snr))
    except ValueError as exc:
        raise UsageError(f"bad noise config: {exc}") from None


# -- small helpers --------------------------------------------------------


def _floats(arr) -> list[float]:
    return [float(v) for v in np.asarray(arr).ravel()]


def _emit_json(obj: dict, out: str | None) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise UsageError(f"the {obj['command']} report holds a non-finite value") from None
    _write_text(text, out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_n_grid(text: str) -> list[int]:
    try:
        grid = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad sample-size grid {text!r}") from None
    return _check_n_grid(grid, "--n-grid")


def _operator_echo(op: OperatorSpec) -> dict:
    return {
        "decay": op.decay,
        "a": op.a,
        "truncation": int(op.truncation),
        "scale": float(op.scale),
        "diag": _floats(op.diag),
        "density_floor": float(op.density_floor),
        "link_constant": float(op.link_constant),
    }


def _structural_echo(phi: StructuralSpec) -> dict:
    return {
        "smoothness": float(phi.smoothness),
        "radius": float(phi.radius),
        "truncation": int(phi.truncation),
        "coeffs": _floats(phi.coeffs),
    }


# -- simulate -------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    phi = structural_from_config(cfg)
    op = operator_from_config(cfg)
    sigma = sigma_from_config(cfg, phi)
    _in_range("--n", args.n, ">= 1")
    _in_range("--seed", args.seed, ">= 0")
    _check_sampler(op, args.n, "--n")
    sample = generate_sample(phi, op, sigma, args.n, args.seed)
    write_csv(sample, args.out)
    echo = {
        "structural": _structural_echo(phi),
        "operator": _operator_echo(op),
        "sigma": float(sigma),
        "n": int(args.n),
        "seed": int(args.seed),
        "out": str(args.out),
    }
    print(json.dumps(echo), file=sys.stderr)
    return 0


# -- estimate -------------------------------------------------------------


def _truth_from_file(path) -> StructuralSpec:
    obj = _load_object(path, "truth spec")
    if "structural" not in obj:
        obj = {"structural": obj}
    _check_keys("structural", obj["structural"])
    return structural_from_config(obj)


def cmd_estimate(args) -> int:
    _in_range("--derivative-order", args.derivative_order, ">= 0")
    sample = load_csv(args.sample)
    _in_range("--k", args.k, ">= 1")
    # the general mode also solves a k x k system
    rows = sample.n if args.mode == "diagonal" else max(sample.n, args.k)
    _check_size(f"--k {_size(args.k)} with n={sample.n}", args.k * rows)
    weights = parse_weights(args.risk_weights)
    fit = diagonal_estimate(sample, args.k) if args.mode == "diagonal" else galerkin_estimate(sample, args.k)
    report = {
        "schema": SCHEMA,
        "command": "estimate",
        "n": int(sample.n),
        "k": int(fit.k),
        "mode": fit.mode,
        "thresholded": bool(fit.thresholded),
        "coeffs": _floats(fit.coeffs),
        "derivative_order": int(args.derivative_order),
    }
    if args.derivative_order >= 1:
        try:
            with np.errstate(over="raise"):
                report["derivative_coeffs"] = _floats(derivative_coeffs(fit, args.derivative_order))
        except (OverflowError, FloatingPointError):
            raise UsageError(
                f"--derivative-order {args.derivative_order} overflows the derivative coefficients"
            ) from None
    if args.truth is not None:
        report["risk"] = float(risk_weighted(fit, _truth_from_file(args.truth).coeffs, weights))
        report["risk_weights"] = args.risk_weights
    _emit_json(report, args.out)
    return 0


# -- select ---------------------------------------------------------------

# Scale on 1/sqrt(n) above which off-diagonal mass draws a warning; pure
# noise keeps the largest entry of a 10 x 10 block well below this.
_OFFDIAG_WARN = 6.0


def cmd_select(args) -> int:
    sample = load_csv(args.sample)
    weights = parse_weights(args.risk_weights)
    trace = penalized_select(sample, weights, _in_range("--penalty-const", args.penalty_const, "> 0"))
    probe = min(trace.cutoff, 10)
    if probe >= 2:
        mat = empirical_operator_matrix(sample, probe)
        off = mat - np.diag(np.diag(mat))
        worst = float(np.abs(off).max())
        if worst > _OFFDIAG_WARN / math.sqrt(sample.n):
            print(
                f"warning: empirical operator matrix is far from diagonal "
                f"(max off-diagonal entry {worst:.3g} at n={sample.n}); the "
                f"diagonal selection rule may be unreliable here",
                file=sys.stderr,
            )
    report = {
        "schema": SCHEMA,
        "command": "select",
        "n": int(trace.n),
        "cutoff": int(trace.cutoff),
        "penalty_const": float(trace.penalty_const),
        "y_second_moment": float(trace.y_second_moment),
        "contrast": _floats(trace.contrast),
        "penalty": _floats(trace.penalty),
        "effective_dim": _floats(trace.effective_dim),
        "criterion": _floats(trace.criterion),
        "k_selected": int(trace.k_selected),
        "thresholded": bool(trace.estimate.thresholded),
        "coeffs": _floats(trace.estimate.coeffs),
        "risk_weights": args.risk_weights,
    }
    _emit_json(report, args.out)
    return 0


# -- oracle ---------------------------------------------------------------


def cmd_oracle(args) -> int:
    risk_w = parse_weights(args.risk_weights)
    smooth_w = parse_weights(args.smoothness_weights)
    op_w = parse_weights(args.operator_weights)
    _in_range("--link-constant", args.link_constant, "> 0")
    _in_range("--k-max", args.k_max, ">= 1")
    grid = _parse_n_grid(args.n_grid)
    _check_size(f"--n-grid {_size(grid[-1])}", grid[-1])
    rows = []
    for n in grid:
        k_max = min(n, args.k_max)
        k_best, rate = oracle_dimension(risk_w, smooth_w, op_w, n, k_max)
        eff = effective_dimension(risk_w, op_w, k_best)[k_best - 1]
        cutoff, lower = dimension_cutoffs(risk_w, op_w, args.link_constant, n)
        rows.append(
            {
                "n": int(n),
                "k_best": int(k_best),
                "rate": float(rate),
                "cutoff": int(cutoff),
                "cutoff_lower": int(lower),
                "effective_dim_at_k": float(eff),
            }
        )
    if args.format == "json":
        _emit_json({"schema": SCHEMA, "command": "oracle", "rows": rows}, args.out)
    else:
        lines = [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


# -- rate study -----------------------------------------------------------


class StudyRow(NamedTuple):
    """One replication of a rate study: the columns of ``study.csv``, in order."""

    n: int
    replication: int
    seed: int
    k_selected: int
    cutoff: int
    thresholded: int
    risk: float
    oracle_k: int
    oracle_risk: float


def _study_worker(task: tuple, scores: tuple) -> StudyRow:
    """One replication's row from its block's scores; a selected fit is never the zero fallback."""
    phi, op, sigma, order, penalty_const, oracle_k, n, rep, seed = task
    k_selected, cutoff, risk, oracle_risk = scores
    return StudyRow(n, rep, seed, int(k_selected), int(cutoff), 0, float(risk), oracle_k, float(oracle_risk))


def _study_block(block: tuple) -> list[StudyRow]:
    """Rows of a block of replications of one n, drawn, selected and scored together."""
    phi, op, sigma, order, penalty_const, oracle_k, n, reps, master = block
    seeds = [task_seed(master, n, rep) for rep in reps]
    samples = generate_samples(phi, op, sigma, n, seeds)
    weights = WeightSequence.derivative(order)
    sel = select_block(samples, weights, penalty_const)
    risks = risks_weighted([c[:k] for c, k in zip(sel.coeffs, sel.k_selected)], phi.coeffs, weights)
    fixed = risks_weighted(diagonal_estimates(samples, oracle_k)[0], phi.coeffs, weights)
    return [
        _study_worker((phi, op, sigma, order, penalty_const, oracle_k, n, rep, seed), scores)
        for rep, seed, *scores in zip(reps, seeds, sel.k_selected, sel.cutoff, risks, fixed)
    ]


def _check_slope_axis(op: OperatorSpec, grid: list[int], name: str) -> None:
    if op.decay != "polynomial" and min(grid, default=2) < 2:
        raise ValueError(f"{name} must start at n >= 2 under exponential decay: "
                         f"the slope axis log log n is undefined at n = 1")


def run_rate_study(
    phi: StructuralSpec,
    op: OperatorSpec,
    sigma: float,
    order: int,
    penalty_const: float,
    grid: list[int],
    reps: int,
    master: int,
    k_max: int = 200,
    jobs: int = 1,
) -> tuple[dict, list[StudyRow]]:
    """Run the Monte Carlo study; returns (report dict, replication rows).

    Rows come in (n, replication) order with per-task seeds derived from the master
    seed, so the output is identical for any worker count and any block layout.
    """
    _check_slope_axis(op, grid, "grid")
    weights = WeightSequence.derivative(order)
    smooth_w = WeightSequence.sobolev(phi.smoothness)

    known, blocks = {}, []
    for n in grid:
        k_best, rate = oracle_dimension(weights, smooth_w, op.weights, n, min(n, k_max))
        known[n] = (k_best, rate, *dimension_cutoffs(weights, op.weights, op.link_constant, n))
        # the fewest near-equal blocks under the cap
        size = max(1, _BLOCK_PROPOSALS // proposal_batch(op, n))
        count = -(-reps // size)
        blocks += [
            (phi, op, sigma, order, penalty_const, k_best, n,
             range(reps * i // count, reps * (i + 1) // count), master)
            for i in range(count)
        ]
    # the pool starts all its workers at once: no more than there are blocks and CPUs
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers == 1:
        rows = [row for block in blocks for row in _study_block(block)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for cells in pool.map(_study_block, blocks) for row in cells]
    if [(r.n, r.replication) for r in rows] != [(n, rep) for n in grid for rep in range(reps)]:
        raise InternalError("study rows are not one per (n, replication) cell in grid order")

    regime = "fs" if op.decay == "polynomial" else "is"
    p, s, a = phi.smoothness, order, op.a
    if regime == "fs":
        theoretical = -2.0 * (p - s) / (2.0 * p + 2.0 * a + 1.0)
        slope_axis = "log_n"
    else:
        theoretical = -(p - s) / a
        slope_axis = "log_log_n"

    per_n = []
    for i, n in enumerate(grid):
        cells = rows[i * reps:(i + 1) * reps]
        risks = np.array([r.risk for r in cells])
        if not np.all(np.isfinite(risks)):
            raise UsageError(f"the risk at n={n} overflows; lower the noise or the derivative order")
        if risks.min() < 0:
            raise InternalError("negative risk in study results")
        fixed_risks = np.array([r.oracle_risk for r in cells])
        ks = np.array([r.k_selected for r in cells])
        k_best, rate, cutoff, lower = known[n]
        q25, q50, q75 = (float(np.quantile(risks, q)) for q in (0.25, 0.5, 0.75))
        per_n.append(
            {
                "n": int(n),
                "risk_median": q50,
                "risk_mean": float(risks.mean()),
                "risk_iqr": q75 - q25,
                "k_median": float(np.median(ks)),
                "oracle_k": int(k_best),
                "oracle_rate": float(rate),
                "oracle_risk_median": float(np.median(fixed_risks)),
                "cutoff_known": int(cutoff),
                "cutoff_lower": int(lower),
            }
        )
    xs = np.log(np.array(grid, dtype=float))
    if slope_axis == "log_log_n":
        xs = np.log(xs)
    ys = np.log([row["risk_median"] for row in per_n])
    fitted = float(np.polyfit(xs, ys, 1)[0]) if len(grid) >= 2 else None

    report = {
        "schema": SCHEMA,
        "command": "rate_study",
        "config": {
            "structural": _structural_echo(phi),
            "operator": _operator_echo(op),
            "sigma": float(sigma),
            "derivative_order": int(order),
            "penalty_const": float(penalty_const),
        },
        "n_grid": [int(n) for n in grid],
        "replications": int(reps),
        "seed": int(master),
        "regime": regime,
        "per_n": per_n,
        "fitted_slope": fitted,
        "theoretical_slope": float(theoretical),
        "slope_axis": slope_axis,
    }
    return report, rows


def cmd_rate_study(args) -> int:
    cfg = load_config(args.config)
    phi = structural_from_config(cfg)
    op = operator_from_config(cfg)
    sigma = sigma_from_config(cfg, phi)
    selection, study = _section(cfg, "selection"), _section(cfg, "study")

    grid_name = "--n-grid" if args.n_grid else "study.n_grid"
    grid = _parse_n_grid(args.n_grid) if args.n_grid else study["n_grid"]
    if grid is None:
        raise UsageError("no sample-size grid: set study.n_grid or pass --n-grid")
    _check_slope_axis(op, grid, grid_name)
    reps, reps_name = study["replications"], "study.replications"
    if args.replications is not None:
        reps, reps_name = _in_range("--replications", args.replications, ">= 1"), "--replications"
    _check_size(f"{reps_name} {_size(reps)} over {len(grid)} sample sizes", reps * len(grid), _CELL_BYTES)
    _check_sampler(op, grid[-1], grid_name)
    master = study["seed"] if args.seed is None else _in_range("--seed", args.seed, ">= 0")
    _in_range("--jobs", args.jobs, ">= 1")

    report, rows = run_rate_study(
        phi,
        op,
        sigma,
        selection["derivative_order"],
        float(selection["penalty_const"]),
        grid,
        reps,
        master,
        k_max=study["k_max"],
        jobs=args.jobs,
    )

    base = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    _emit_json(report, base + ".json")
    with open(base + ".csv", "w") as fh:
        fh.write(",".join(StudyRow._fields) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
    return 0


# -- entry points ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npiv",
        description="Series estimation for instrumental regression with data-driven dimension selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic sample to CSV")
    p.add_argument("config", help="JSON config with structural/operator/noise sections")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="fit the series estimator at a fixed dimension")
    p.add_argument("sample", help="sample CSV with header y,z,w")
    p.add_argument("--k", type=int, required=True, help="number of basis functions")
    p.add_argument("--mode", choices=("diagonal", "general"), default="general")
    p.add_argument("--derivative-order", type=int, default=0)
    p.add_argument("--risk-weights", default="const", help="weight spec, e.g. const or derivative:1")
    p.add_argument("--truth", help="JSON file with the structural truth for risk reporting")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select", help="data-driven dimension selection")
    p.add_argument("sample", help="sample CSV with header y,z,w")
    p.add_argument("--risk-weights", default="const")
    p.add_argument("--penalty-const", type=float, default=540.0)
    p.add_argument("--out", help="write the JSON trace here instead of stdout")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("oracle", help="best dimensions and rate values for known weights")
    p.add_argument("--risk-weights", default="const")
    p.add_argument("--smoothness-weights", required=True)
    p.add_argument("--operator-weights", required=True)
    p.add_argument("--link-constant", type=float, default=1.0)
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    p.add_argument("--k-max", type=int, default=200)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rate-study", help="Monte Carlo risk study over a sample-size grid")
    p.add_argument("config", help="JSON config; study section supplies defaults")
    p.add_argument("--n-grid", help="comma-separated sample sizes (overrides config)")
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", required=True, help="output path; .json and .csv are written")
    p.set_defaults(func=cmd_rate_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"npiv: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"npiv: i/o error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"npiv: internal error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface for simulation, estimation, selection and rate studies.

Subcommands:
  simulate    draw a synthetic sample to CSV
  estimate    fit the series estimator at a fixed dimension
  select      run the fully data-driven dimension selection
  oracle      tabulate best dimensions and rate values for known weights
  rate-study  Monte Carlo over a sample-size grid with slope fitting

Exit codes: 0 success, 2 usage or config errors, 3 I/O errors, 4 internal
invariant failures and any other failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import math
import os
import signal
import sys
import threading
from typing import NamedTuple

import numpy as np

from .basis import WeightSequence, parse_weights
from .estimator import (
    diagonal_estimate,
    diagonal_estimates,
    derivative_coeffs,
    empirical_moments,
    galerkin_estimate,
    load_csv,
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


# The largest array a command may ask for.  Sizes from flags and config are
# checked against it before anything that large is allocated, so a request
# beyond it exits 2 instead of failing inside numpy.
_MAX_BYTES = 1 << 30
# Bytes a rate study holds per (n, replication) cell at its peak: its StudyRow with the seed and
# risks it holds, its slot in the row list and its two (n, replication) pairs in the order check.
_CELL_BYTES = 512
# Bytes ``oracle_dimension`` holds per candidate k: six arrays of doubles at its peak.
_ORACLE_K_BYTES = 48
# Proposals one block of study replications (of one n) may draw together, each replication
# counted at ``proposal_batch(op, n)``; a block shares its sampler's and truth's calls.
_BLOCK_PROPOSALS = 1 << 16


def _check_size(what: str, count: int, each: int = 8) -> None:
    """Reject ``count`` items of ``each`` bytes (a double by default) beyond ``_MAX_BYTES``."""
    if count * each > _MAX_BYTES:
        raise ValueError(
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
    "structural": {"smoothness": ("number", 2.0, None), "radius": ("number", 1.0, None),
                   "truncation": ("integer", 200, None), "coeffs": ("list of numbers", None, None)},
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
        raise ValueError(f"{name} {wording}, got {value}")
    return value


def _check_n_grid(grid: list, name: str) -> list[int]:
    """Reject an empty, non-integer, nonpositive or unsorted sample-size grid."""
    if not grid:
        raise ValueError(f"{name} is empty")
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in grid):
        raise ValueError(f"{name} must list integers >= 1, got {json.dumps(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return grid


def _checked(name: str, kind: str, value, least: str | None = None):
    """``value`` as a JSON ``kind`` within range ``least``: numbers are finite doubles, integral
    floats become ints, and a ``list`` is a sample-size grid."""
    ok = isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)
    if not ok or (kind == "integer" and value % 1 != 0):
        raise ValueError(f"{name} must be a JSON {kind}, got {json.dumps(value)}")
    if kind == "list":
        return _check_n_grid(value, name)
    if kind == "list of numbers":
        return [_checked(f"{name}[{i}]", "number", v) for i, v in enumerate(value)]
    if kind in ("number", "integer") and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite JSON number, got {json.dumps(value)}")
    value = int(value) if kind == "integer" else value
    return value if least is None else _in_range(name, value, least)


def load_config(path) -> dict:
    """The JSON object in file ``path``, each section checked: unknown sections and keys,
    mistyped values, non-finite numbers and values out of range are rejected."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = cfg.keys() - _SECTION_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config sections: {', '.join(sorted(unknown))}")
    for section, obj in cfg.items():
        if not isinstance(obj, dict):
            raise ValueError(f"config section {section!r} must be an object")
        unknown = obj.keys() - _SECTION_KEYS[section]
        if unknown:
            raise ValueError(f"config section {section!r} has unknown keys: {', '.join(sorted(unknown))}")
        for key, value in obj.items():
            kind, _, least = _SECTION_KEYS[section][key]
            obj[key] = _checked(f"{section}.{key}", kind, value, least)
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name in ("structural", "operator", "noise") and name not in cfg:
        raise ValueError(f"config needs {'an' if name == 'operator' else 'a'} {name!r} section")
    defaults = {key: default for key, (_, default, _) in _SECTION_KEYS[name].items()}
    return {**defaults, **cfg.get(name, {})}


def _build(name: str, make, cfg: dict):
    section = _section(cfg, name)
    if section.get("coeffs") is None:  # a custom truth's length is that of its coeffs
        _check_size(f"{name}.truncation {_size(section['truncation'])}", section["truncation"])
    try:
        return make(**section)
    except ValueError as exc:
        raise ValueError(f"bad {name} config: {exc}") from None


def structural_from_config(cfg: dict) -> StructuralSpec:
    return _build("structural", make_structural, cfg)


def operator_from_config(cfg: dict) -> OperatorSpec:
    return _build("operator", make_operator, cfg)


def sigma_from_config(cfg: dict, phi: StructuralSpec) -> float:
    sec = _section(cfg, "noise")
    sigma, snr = sec["sigma"], sec["snr"]
    if (sigma is None) == (snr is None):
        raise ValueError("noise config needs exactly one of 'sigma' or 'snr'")
    try:
        return float(sigma) if snr is None else noise_sigma_for_snr(phi, float(snr))
    except ValueError as exc:
        raise ValueError(f"bad noise config: {exc}") from None


# -- small helpers --------------------------------------------------------


def _emit_json(obj: dict, out: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", out)


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
        raise ValueError(f"--n-grid must list integers >= 1, got {text!r}") from None
    return _check_n_grid(grid, "--n-grid")


def _operator_echo(op: OperatorSpec) -> dict:
    return {
        "decay": op.decay,
        "a": op.a,
        "truncation": int(op.truncation),
        "scale": float(op.scale),
        "diag": op.diag.tolist(),
        "density_floor": float(op.density_floor),
        "link_constant": float(op.link_constant),
    }


def _structural_echo(phi: StructuralSpec) -> dict:
    return {
        "smoothness": float(phi.smoothness),
        "radius": float(phi.radius),
        "truncation": int(phi.truncation),
        "coeffs": phi.coeffs.tolist(),
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
    try:
        sample = generate_sample(phi, op, sigma, args.n, args.seed)
    except OverflowError as exc:
        raise ValueError(f"bad noise config: {exc}") from None
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
        "mode": args.mode,
        "thresholded": bool(fit.thresholded),
        "coeffs": fit.coeffs.tolist(),
        "derivative_order": int(args.derivative_order),
    }
    if args.derivative_order >= 1:
        try:
            with np.errstate(over="raise"):
                report["derivative_coeffs"] = derivative_coeffs(fit.coeffs, args.derivative_order).tolist()
        except (OverflowError, FloatingPointError):
            raise ValueError(
                f"--derivative-order {args.derivative_order} overflows the derivative coefficients"
            ) from None
    if args.truth is not None:
        truth = structural_from_config(load_config(args.truth))
        length = max(fit.coeffs.size, truth.coeffs.size)
        if weights.kind == "custom" and len(weights.table) < length:
            raise ValueError(f"--risk-weights {args.risk_weights} holds {len(weights.table)} weights; "
                             f"the risk against --truth needs {length}")
        report["risk"] = float(risks_weighted([fit.coeffs], truth.coeffs, weights)[0])
        if not math.isfinite(report["risk"]):
            raise ValueError(f"--risk-weights {args.risk_weights} overflows the risk")
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
    unit = float(trace.y_second_moment) * float(trace.effective_dim.max())  # the penalty at constant n, no warning
    if not (math.isfinite(unit) and np.isfinite(trace.contrast).all()):  # y's bound: finite unless a w_j > n
        raise ValueError(f"--risk-weights {args.risk_weights} overflows the selection criterion")
    if not np.isfinite(trace.penalty).all():
        raise ValueError(f"--penalty-const {args.penalty_const} overflows the selection penalty")
    probe = min(trace.cutoff, 10)
    if probe >= 2:
        mat = empirical_moments(sample, probe)[0]
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
        "n": int(sample.n),
        "cutoff": int(trace.cutoff),
        "penalty_const": float(args.penalty_const),
        "y_second_moment": float(trace.y_second_moment),
        "contrast": trace.contrast.tolist(),
        "penalty": trace.penalty.tolist(),
        "effective_dim": trace.effective_dim.tolist(),
        "criterion": trace.criterion.tolist(),
        "k_selected": int(trace.k_selected),
        "thresholded": bool(trace.estimate.thresholded),
        "coeffs": trace.estimate.coeffs.tolist(),
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
    _check_size(f"--n-grid sizes summing to {_size(sum(grid))}", sum(grid))  # each size walks up to n weights
    _check_size(f"--k-max {_size(args.k_max)} at n={_size(grid[-1])}", min(grid[-1], args.k_max), _ORACLE_K_BYTES)
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
        for row in rows:
            for key, v in row.items():
                if not math.isfinite(v):
                    raise ValueError(f"oracle row n={row['n']}: {key} is {v!r}, which JSON cannot hold; "
                                     "--format csv writes it")
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


def _study_worker(block: tuple, rep: int, seed: int, k_selected, cutoff, risk, oracle_risk) -> StudyRow:
    """One replication's row of its block; a selected fit is never the zero fallback."""
    oracle_k, n = block[5:7]
    return StudyRow(n, rep, seed, int(k_selected), int(cutoff), 0, float(risk), oracle_k, float(oracle_risk))


def _study_block(block: tuple) -> list[StudyRow]:
    """Rows of a block of replications of one n, drawn, selected and scored together."""
    phi, op, sigma, weights, penalty_const, oracle_k, n, reps, master = block
    seeds = [task_seed(master, n, rep) for rep in reps]
    samples = generate_samples(phi, op, sigma, n, seeds)
    sel = select_block(samples, weights, penalty_const)
    risks = risks_weighted([c[:k] for c, k in zip(sel.coeffs, sel.k_selected)], phi.coeffs, weights)
    fixed = risks_weighted(diagonal_estimates(samples, oracle_k)[0], phi.coeffs, weights)
    scores = zip(reps, seeds, sel.k_selected, sel.cutoff, risks, fixed)
    return [_study_worker(block, *row) for row in scores]


def _pooled_rows(blocks: list[tuple], workers: int) -> list[StudyRow]:
    """The rows of ``blocks``, in block order, from a pool of ``workers`` processes.

    SIGTERM unwinds the pool and exits 128 + signum: the queued blocks are cancelled and the
    workers joined, where the default action would leave them blocked on the call queue.  The
    signal is held while the pool forks its workers, starts its threads and queues the blocks, so
    it never lands part-way through those and the pool's threads never take it; the workers unblock
    it again.  Only the main thread may set a handler, and a caller's own handler stays in place.
    """
    own = (threading.current_thread() is threading.main_thread() and hasattr(signal, "pthread_sigmask")
           and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)
    unblock = ({"initializer": signal.pthread_sigmask, "initargs": (signal.SIG_UNBLOCK, [signal.SIGTERM])}
               if own else {})
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers, **unblock)
    if own:
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGTERM])
    try:
        try:
            cells = pool.map(_study_block, blocks)
        finally:
            if own:  # a SIGTERM held till now raises here
                signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGTERM])
        return [row for cell in cells for row in cell]
    finally:
        pool.shutdown(cancel_futures=True)
        if own:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


def run_rate_study(
    phi: StructuralSpec,
    op: OperatorSpec,
    sigma: float,
    order: int,
    penalty_const: float,
    grid: list[int],
    reps: int,
    master: int,
    k_max: int,
    jobs: int,
) -> tuple[dict, list[StudyRow]]:
    """Run the Monte Carlo study; returns (report dict, replication rows).

    Rows come in (n, replication) order with per-task seeds derived from the master
    seed, so the output is identical for any worker count and any block layout.
    """
    if op.decay != "polynomial" and min(grid, default=2) < 2:
        raise ValueError("study.n_grid must start at n >= 2 under exponential decay: "
                         "the slope axis log log n is undefined at n = 1")
    weights = WeightSequence.derivative(order)
    smooth_w = WeightSequence.sobolev(phi.smoothness)

    known, blocks = [], []  # per n: the oracle k and rate, and the known-weights cutoffs
    for n in grid:
        k_best, rate = oracle_dimension(weights, smooth_w, op.weights, n, min(n, k_max))
        known.append((k_best, rate, *dimension_cutoffs(weights, op.weights, op.link_constant, n)))
        # the fewest near-equal blocks under the cap
        size = max(1, _BLOCK_PROPOSALS // proposal_batch(op, n))
        count = -(-reps // size)
        blocks += [
            (phi, op, sigma, weights, penalty_const, k_best, n,
             range(reps * i // count, reps * (i + 1) // count), master)
            for i in range(count)
        ]
    # the pool starts all its workers at once: no more than there are blocks and CPUs
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers == 1:
        rows = [row for block in blocks for row in _study_block(block)]
    else:
        rows = _pooled_rows(blocks, workers)
    if [(r.n, r.replication) for r in rows] != [(n, rep) for n in grid for rep in range(reps)]:
        raise RuntimeError("study rows are not one per (n, replication) cell in grid order")

    regime = "fs" if op.decay == "polynomial" else "is"
    p, s, a = phi.smoothness, order, op.a
    if regime == "fs":
        theoretical = -2.0 * (p - s) / (2.0 * p + 2.0 * a + 1.0)
        slope_axis = "log_n"
    else:
        theoretical = -(p - s) / a
        slope_axis = "log_log_n"

    # the study as (n, replication) tables, each statistic taken along a row
    risk, fixed, ks = (np.reshape(col, (len(grid), reps))
                       for col in zip(*((r.risk, r.oracle_risk, r.k_selected) for r in rows)))
    with np.errstate(over="ignore"):  # finite risks may still sum past the doubles
        means = risk.mean(axis=1)
    if not np.isfinite(means).all():  # an inf or nan risk makes its mean so too
        n = grid[np.argmin(np.isfinite(means))]
        raise ValueError(f"the risk at n={n} overflows; lower the noise or selection.derivative_order")
    if risk.min() < 0:
        raise RuntimeError("negative risk in study results")
    q25, q50, q75 = np.quantile(risk, (0.25, 0.5, 0.75), axis=1).tolist()
    stats = zip(grid, known, means.tolist(), q25, q50, q75, np.median(ks, axis=1).tolist(),
                np.median(fixed, axis=1).tolist())
    per_n = [
        {"n": int(n), "risk_median": med, "risk_mean": mean, "risk_iqr": hi - lo, "k_median": k_med,
         "oracle_k": int(k_best), "oracle_rate": float(rate), "oracle_risk_median": fixed_med,
         "cutoff_known": int(cutoff), "cutoff_lower": int(lower)}
        for n, (k_best, rate, cutoff, lower), mean, lo, med, hi, k_med, fixed_med in stats
    ]
    xs = np.log(np.array(grid, dtype=float))
    if slope_axis == "log_log_n":
        xs = np.log(xs)
    medians = [row["risk_median"] for row in per_n]  # 0 where the estimate is exact: no log-log slope
    fitted = float(np.polyfit(xs, np.log(medians), 1)[0]) if len(grid) >= 2 and min(medians) > 0 else None

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
    grid, reps, master = study["n_grid"], study["replications"], study["seed"]
    if grid is None:
        raise ValueError("no sample-size grid: set study.n_grid")
    _check_size(f"study.replications {_size(reps)} over {len(grid)} sample sizes", reps * len(grid), _CELL_BYTES)
    _check_sampler(op, grid[-1], "study.n_grid")
    _in_range("--jobs", args.jobs, ">= 1")

    try:
        report, rows = run_rate_study(phi, op, sigma, selection["derivative_order"],
                                      float(selection["penalty_const"]), grid, reps, master, study["k_max"], args.jobs)
    except OverflowError as exc:
        raise ValueError(f"bad noise config: {exc}") from None

    base = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    _emit_json(report, base + ".json")
    with open(base + ".csv", "w") as fh:
        fh.write(",".join(StudyRow._fields) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
    return 0


# -- entry points ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``main`` reuses it, and each parse gets a new namespace."""
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

    p = sub.add_parser("estimate", help="fit the series estimator at a fixed dimension")
    p.add_argument("sample", help="sample CSV with header y,z,w")
    p.add_argument("--k", type=int, required=True, help="number of basis functions")
    p.add_argument("--mode", choices=("diagonal", "general"), default="general")
    p.add_argument("--derivative-order", type=int, default=0)
    p.add_argument("--risk-weights", default="const", help="weight spec, e.g. const or derivative:1")
    p.add_argument("--truth", help="JSON file with the structural truth for risk reporting")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("select", help="data-driven dimension selection")
    p.add_argument("sample", help="sample CSV with header y,z,w")
    p.add_argument("--risk-weights", default="const")
    p.add_argument("--penalty-const", type=float, default=_SECTION_KEYS["selection"]["penalty_const"][1])
    p.add_argument("--out", help="write the JSON trace here instead of stdout")

    p = sub.add_parser("oracle", help="best dimensions and rate values for known weights")
    p.add_argument("--risk-weights", default="const")
    p.add_argument("--smoothness-weights", required=True)
    p.add_argument("--operator-weights", required=True)
    p.add_argument("--link-constant", type=float, default=1.0)
    p.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    p.add_argument("--k-max", type=int, default=_SECTION_KEYS["study"]["k_max"][1])
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")

    p = sub.add_parser("rate-study", help="Monte Carlo risk study over a sample-size grid")
    p.add_argument("config", help="JSON config; its study section sets the grid, replications and seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", required=True, help="output path; .json and .csv are written")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # looked up when it runs, so a command replaced on the module is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but no input of ours names it
        print(f"npiv: internal error: LinAlgError: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"npiv: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"npiv: i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else still ends in one line, not a traceback
        print(f"npiv: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

"""Acceptance suite: convergence rates, exactness oracles and determinism.

Each criterion is one test that prints a single PASS/FAIL line straight to
the terminal (bypassing capture) with the measured quantity.  The three Monte
Carlo studies are set once, in ``STUDIES``; ``run_study`` runs one, and ``study`` runs
each once a session.
"""

import functools
import json
import math
import os
import sys

import numpy as np
import pytest
import scipy.stats as st

from npiv.basis import WeightSequence, trig_design
from npiv.cli import main, run_rate_study
from npiv.estimator import Sample, diagonal_estimate, empirical_moments, risks_weighted
from npiv.selection import penalized_select
from npiv.simulate import (
    joint_density,
    make_operator,
    make_structural,
    noise_sigma_for_snr,
    sample_joint,
)

import _reference as ref

GRID = [500, 1000, 2000, 4000, 8000, 16000]
MASTER_SEED = 1
_JOBS = min(4, os.cpu_count() or 1)


@pytest.fixture
def check(capfd):
    """Report one pass/fail line per criterion on the real terminal."""

    def report(num, label, ok, detail):
        line = f"acceptance criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return report


# Every setting in which the three studies differ, each stated once, as name: (operator
# decay, a, operator truncation, derivative order, penalty constant, replications).  All
# three share the truth (smoothness 2, radius 1, truncation 200), signal-to-noise 2, GRID,
# MASTER_SEED and k_max 200.  The small operator truncations keep the design close to the
# diagonal model the selection rule assumes; the penalty constants are practical rather than
# the conservative default; is has more replications because log-rate risks have heavier
# relative spread.
STUDIES = {
    "fs": ("polynomial", 1.0, 5, 0, 0.75, 50),
    "derivative": ("polynomial", 1.0, 5, 1, 0.75, 50),
    "is": ("exponential", 0.5, 8, 0, 0.3, 150),
}


def run_study(name: str, jobs: int, grid=GRID) -> dict:
    """The report of study ``name`` over ``grid``, at ``jobs`` worker processes."""
    decay, a, truncation, order, penalty_const, reps = STUDIES[name]
    phi = make_structural(2.0, 1.0, truncation=200)
    op = make_operator(decay, a, truncation=truncation)
    report, _ = run_rate_study(phi, op, noise_sigma_for_snr(phi, 2.0), order, penalty_const, grid, reps,
                               MASTER_SEED, 200, jobs)
    return report


@functools.cache
def study(name: str) -> dict:
    """The report of study ``name``, run once per session."""
    return run_study(name, _JOBS)


def test_criterion_1_polynomial_rate(check):
    slope = study("fs")["fitted_slope"]
    target = -4.0 / 7.0
    check(
        1,
        "fs rate",
        abs(slope - target) <= 0.15,
        f"slope {slope:.4f} vs {target:.4f} +- 0.15",
    )


def test_criterion_2_exponential_rate(check):
    meds = [row["risk_median"] for row in study("is")["per_n"]]
    monotone = all(b < a for a, b in zip(meds, meds[1:]))
    # risk should track (log n)**(-p/a) = (log n)**(-4); the compensated
    # sequence must stay within a factor of 5 across the grid
    comp = [m * math.log(n) ** 4 for m, n in zip(meds, GRID)]
    window = max(comp) / min(comp)
    check(
        2,
        "is rate",
        monotone and window <= 5.0,
        f"monotone={monotone}, window {window:.3f} <= 5",
    )


def test_criterion_3_derivative_rate(check):
    slope = study("derivative")["fitted_slope"]
    target = -2.0 / 7.0
    check(
        3,
        "derivative rate",
        abs(slope - target) <= 0.2,
        f"slope {slope:.4f} vs {target:.4f} +- 0.2",
    )


def test_criterion_4_adaptive_vs_oracle(check):
    ratios = [row["risk_median"] / row["oracle_risk_median"] for row in study("fs")["per_n"]]
    worst = max(ratios)
    check(4, "adaptive vs oracle", worst <= 3.0, f"max ratio {worst:.3f} <= 3")


def test_criterion_5_sequence_exactness(check):
    rng = np.random.default_rng(123)
    bad = []
    for _ in range(120):
        bad.extend(ref.check_instance(rng))
    check(
        5,
        "sequence oracles",
        bad == [],
        f"120 randomized instances, {len(bad)} mismatches",
    )


def test_criterion_6_simulator_fidelity(check):
    op = make_operator("polynomial", 1.0, truncation=10)

    n = 100000
    z, w = sample_joint(op, n, 0)
    pvals = []
    for x in (z, w):
        counts, _ = np.histogram(x, bins=20, range=(0.0, 1.0))
        stat = float(((counts - n / 20.0) ** 2 / (n / 20.0)).sum())
        pvals.append(st.chi2.sf(stat, 19))
    marginals_ok = min(pvals) > 0.001

    hits = 0
    for seed in range(20):
        zz, ww = sample_joint(op, n, 100 + seed)
        s = Sample(np.zeros(n), zz, ww)
        mat = empirical_moments(s, 10)[0]
        target = np.diag(op.diag[:10])
        if np.abs(mat - target).max() <= 4.0 / math.sqrt(n):
            hits += 1
    matrix_ok = hits >= 19

    m = 512
    gridpts = (np.arange(m) + 0.5) / m
    zz, ww = np.meshgrid(gridpts, gridpts, indexing="ij")
    integral = float(joint_density(op, zz.ravel(), ww.ravel()).mean())
    integral_ok = abs(integral - 1.0) <= 1e-6

    check(
        6,
        "simulator fidelity",
        marginals_ok and matrix_ok and integral_ok,
        f"min marginal p {min(pvals):.3g}, matrix seeds {hits}/20, "
        f"integral dev {abs(integral - 1.0):.2g}",
    )


def test_criterion_7_invariant_suite(check):
    rng = np.random.default_rng(7)
    ok = True
    notes = []

    # diagonal nesting: smaller fits are exact prefixes of larger ones
    u = rng.uniform(0.0, 1.0, 300)
    s = Sample(rng.normal(0.5, 1.0, 300), u, u)
    big = diagonal_estimate(s, 9)
    nesting = all(
        np.array_equal(diagonal_estimate(s, k).coeffs, big.coeffs[:k]) for k in (1, 3, 6)
    )
    ok &= nesting
    notes.append(f"nesting={nesting}")

    # selected dimension is invariant under response rescaling
    base = penalized_select(s, WeightSequence.constant(), 2.0)
    scale_inv = all(
        penalized_select(Sample(c * s.y, u, u), WeightSequence.constant(), 2.0).k_selected
        == base.k_selected
        for c in (4.0, -2.0, 0.125, 3.7)
    )
    ok &= scale_inv
    notes.append(f"scale_invariance={scale_inv}")

    # the reported dimension minimises the traced criterion
    minimum = (
        base.criterion[base.k_selected - 1] == base.criterion.min()
        and np.all(base.criterion[: base.k_selected - 1] > base.criterion.min())
    )
    ok &= bool(minimum)
    notes.append(f"trace_minimum={bool(minimum)}")

    # Parseval: weighted risk with constant weights equals the quadrature
    # L2 distance to 1e-6 relative
    truth = rng.normal(0.0, 0.3, 12)
    fit = diagonal_estimate(s, 6)
    risk = risks_weighted([fit.coeffs], truth, WeightSequence.constant())[0]
    m = 8192
    gridpts = (np.arange(m) + 0.5) / m
    padded = np.concatenate([fit.coeffs, np.zeros(6)])
    diff = trig_design(gridpts, 12) @ (padded - truth)
    quad = float((diff * diff).mean())
    parseval = abs(quad - risk) <= 1e-6 * risk
    ok &= parseval
    notes.append(f"parseval={parseval}")

    m = 16384
    gridpts = (np.arange(m) + 0.5) / m
    design = trig_design(gridpts, 20)
    gram = design.T @ design / m
    ortho = float(np.abs(gram - np.eye(20)).max()) <= 1e-8
    ok &= ortho
    notes.append(f"orthonormality={ortho}")

    check(7, "invariants", ok, ", ".join(notes))


def test_criterion_8_study_determinism(tmp_path, check):
    cfg = {
        "structural": {"smoothness": 2.0, "radius": 1.0, "truncation": 30},
        "operator": {"decay": "polynomial", "a": 1.0, "truncation": 4},
        "noise": {"snr": 2.0},
        "selection": {"penalty_const": 0.75},
        "study": {"n_grid": [400, 800], "replications": 8, "seed": 3},
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "one.json", tmp_path / "eight.json"
    rc1 = main(["rate-study", str(cfg_path), "--out", str(a), "--jobs", "1"])
    rc8 = main(["rate-study", str(cfg_path), "--out", str(b), "--jobs", "8"])
    same_json = a.read_bytes() == b.read_bytes()
    same_csv = (tmp_path / "one.csv").read_bytes() == (tmp_path / "eight.csv").read_bytes()
    check(
        8,
        "determinism",
        rc1 == 0 and rc8 == 0 and same_json and same_csv,
        f"json identical={same_json}, csv identical={same_csv}",
    )

"""Straight-line reference implementations for exact cross-checks.

Everything here recomputes selection-support quantities with plain Python
loops in index order.  Only the weight tables and the elementwise log are
shared with the library: numpy's log and libm's disagree by one ulp on
some inputs, which would turn an exactness check into a tolerance check.
The logic under test -- running maxima, cumulative sums, stability
indicators, block scans, argmin tie breaking -- is all re-derived here.
The simulator's joint density and regression coefficients are restated
in their defining form, as a design product and as padded coefficient
vectors.
"""

from __future__ import annotations

import math

import numpy as np

from npiv.basis import WeightSequence, weighted_norm_sq
from npiv.estimator import diagonal_estimate, empirical_diagonal
from npiv.selection import (
    dimension_cap,
    dimension_cutoff,
    dimension_cutoff_from_diagonal,
    dimension_cutoff_lower,
    empirical_dimension_cutoff,
    oracle_dimension,
    penalty_sequences,
    penalty_sequences_from_diagonal,
)

SQRT2 = math.sqrt(2.0)


def psi(j: int, s: float) -> float:
    """Scalar basis evaluation with libm trig, for approximate cross-checks."""
    if j == 1:
        return 1.0
    ang = 2.0 * math.pi * (j // 2) * s
    return SQRT2 * (math.cos(ang) if j % 2 == 0 else math.sin(ang))


# trig_columns reaches frequency f by f - 1 rotations, so its distance to
# trig_columns_loop grows like f * eps.  The largest measured
# |difference| / ((f + 1) * eps) was 10.9, over 96,000 points in [0, 1]
# (0, 1/4, 1/2, 3/4 and 1 included) and indices up to 600; C = 24 leaves a
# margin of 2.2.
TRIG_ERROR_C = 24.0


def trig_error_bound(indices) -> np.ndarray:
    """Per-column bound C * (f + 1) * eps on |trig_columns - trig_columns_loop|."""
    f = np.asarray(indices, dtype=int) // 2
    return TRIG_ERROR_C * (f + 1) * np.finfo(float).eps


def trig_columns_loop(points, indices) -> np.ndarray:
    """Column-at-a-time basis design, with the library's validation messages.

    Each entry is sqrt(2) times one numpy cos or sin of (2*pi*f) * point,
    the direct definition.  The library kernel reaches frequency f by a
    rotation recurrence instead, so it matches this reference within
    ``trig_error_bound``, and bit for bit only at the constant and f = 1.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("points must be one-dimensional")
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    idx = np.asarray(indices, dtype=int)
    out = np.empty((pts.size, idx.size))
    for pos, j in enumerate(idx):
        if j < 1:
            raise ValueError(f"basis index must be >= 1, got {j}")
        if j == 1:
            out[:, pos] = 1.0
        else:
            ang = (2.0 * math.pi * (j // 2)) * pts
            out[:, pos] = SQRT2 * (np.cos(ang) if j % 2 == 0 else np.sin(ang))
    return out


def joint_density_design(op, z, w):
    """The joint density 1 + sum_{j>=2} t_j psi_j(z) psi_j(w) as a design product."""
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    ww = np.atleast_1d(np.asarray(w, dtype=float))
    idx = np.arange(1, op.truncation + 1)
    pz = trig_columns_loop(zz, idx)
    pw = trig_columns_loop(ww, idx)
    return 1.0 + (pz[:, 1:] * pw[:, 1:]) @ op.diag[1:]


def regression_coeffs(phi, op) -> np.ndarray:
    """Basis coefficients t_j b_j of the regression of y on the instrument.

    Both vectors are zero-padded to the longer truncation.
    """
    j_max = max(phi.truncation, op.truncation)
    t = np.zeros(j_max)
    b = np.zeros(j_max)
    t[: op.truncation] = op.diag
    b[: phi.truncation] = phi.coeffs
    return t * b


def _log(x: float) -> float:
    # numpy's elementwise log applied to a scalar is bitwise-identical to
    # the array version, which is what the exactness checks need.
    return float(np.log(x))


def _div(num: float, den: float) -> float:
    # numpy turns x/0 into inf under errstate; mirror that.
    return num / den if den != 0.0 else math.inf


def bf_penalty_sequences(risk_weights, operator_weights, k_max):
    """Amplification, floored amplification and effective dimension lists."""
    w = [float(v) for v in risk_weights.values(k_max)]
    lam = [float(v) for v in operator_weights.values(k_max)]
    ampl, floored, eff = [], [], []
    run_a = -math.inf
    run_f = -math.inf
    for k in range(1, k_max + 1):
        run_a = max(run_a, _div(w[k - 1], lam[k - 1]))
        run_f = max(run_f, _div(max(w[k - 1], 1.0), lam[k - 1]))
        ampl.append(run_a)
        floored.append(run_f)
        eff.append(k * run_a * _log(max(run_f, k + 2.0)) / _log(k + 2.0))
    return ampl, floored, eff


def bf_penalty_from_diagonal(tdiag, n, risk_weights):
    """Empirical flavour: per-k stability indicator zeroes all three."""
    t = [float(v) for v in tdiag]
    k_max = len(t)
    w = [float(v) for v in risk_weights.values(k_max)]
    ampl, floored, eff = [], [], []
    run_a = -math.inf
    run_f = -math.inf
    min_tsq = math.inf
    for k in range(1, k_max + 1):
        tsq = t[k - 1] * t[k - 1]
        min_tsq = min(min_tsq, tsq)
        run_a = max(run_a, _div(w[k - 1], tsq))
        run_f = max(run_f, _div(max(w[k - 1], 1.0), tsq))
        if min_tsq >= 1.0 / n:
            ampl.append(run_a)
            floored.append(run_f)
            eff.append(k * run_a * _log(max(run_f, k + 2.0)) / _log(k + 2.0))
        else:
            ampl.append(0.0)
            floored.append(0.0)
            eff.append(0.0)
    return ampl, floored, eff


def bf_dimension_cutoff(risk_weights, operator_weights, link_constant, n):
    lam = [float(v) for v in operator_weights.values(n)]
    _, _, eff = bf_penalty_sequences(risk_weights, operator_weights, n)
    rhs = 7.0 * math.log(2016.0 * link_constant / lam[0])
    best = 0
    for j in range(1, n + 1):
        lhs = 7.0 * math.log(n) - n * lam[j - 1] / (288.0 * link_constant)
        if lhs <= rhs and eff[j - 1] / n <= 1.0:
            best = j
    return best if best else 1


def bf_dimension_cap(risk_weights, n):
    w = [float(v) for v in risk_weights.values(n)]
    run = -math.inf
    best = 0
    for j in range(1, n + 1):
        run = max(run, w[j - 1])
        if run <= n:
            best = j
    return best if best else 1


def bf_cutoff_from_diagonal(tdiag, n, risk_weights):
    t = [float(v) for v in tdiag]
    cap = min(bf_dimension_cap(risk_weights, n), len(t))
    w = [float(v) for v in risk_weights.values(cap)]
    thr = math.log(n) / n
    for j in range(1, cap + 1):
        if t[j - 1] * t[j - 1] / (j * max(w[j - 1], 1.0)) < thr:
            return max(1, j - 1)
    return cap


def bf_oracle_dimension(risk_weights, smoothness_weights, operator_weights, n, k_max):
    w = [float(v) for v in risk_weights.values(k_max)]
    g = [float(v) for v in smoothness_weights.values(k_max)]
    lam = [float(v) for v in operator_weights.values(k_max)]
    best_k, best_val = 1, math.inf
    running = 0.0
    for k in range(1, k_max + 1):
        running += _div(w[k - 1], lam[k - 1])
        obj = max(w[k - 1] / g[k - 1], running / n)
        if obj < best_val:
            best_k, best_val = k, obj
    return best_k, best_val


def bf_cutoff_lower(risk_weights, operator_weights, link_constant, n):
    cap = bf_dimension_cutoff(risk_weights, operator_weights, link_constant, n)
    w = [float(v) for v in risk_weights.values(cap)]
    lam = [float(v) for v in operator_weights.values(cap)]
    thr = 4.0 * link_constant * math.log(n) / n
    best = 0
    for j in range(1, cap + 1):
        if lam[j - 1] / (j * max(w[j - 1], 1.0)) >= thr:
            best = j
    return best if best else 1


def rebuild_trace(sample, weights, penalty_const):
    """Reassemble a selection run from public pieces, argmin done by hand.

    Returns (cutoff, contrast, penalty, criterion, k_selected) with the
    list entries bitwise-comparable to the library trace.
    """
    cutoff = empirical_dimension_cutoff(sample, weights)
    tdiag, _ = empirical_diagonal(sample, cutoff)
    eff = penalty_sequences_from_diagonal(tdiag, sample.n, weights).effective_dim
    y2 = float(np.mean(sample.y * sample.y))
    contrast, penalty, criterion = [], [], []
    for k in range(1, cutoff + 1):
        est = diagonal_estimate(sample, k)
        c = 0.0 if est.thresholded else -weighted_norm_sq(est.coeffs, weights)
        p = penalty_const * y2 * float(eff[k - 1]) / sample.n
        contrast.append(c)
        penalty.append(p)
        criterion.append(c + p)
    best, k_sel = criterion[0], 1
    for k in range(2, cutoff + 1):
        if criterion[k - 1] < best:
            best, k_sel = criterion[k - 1], k
    return cutoff, contrast, penalty, criterion, k_sel


# -- randomized exact-equality harness ------------------------------------


def random_weights(rng, table_len):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return WeightSequence.constant()
    if kind == 1:
        return WeightSequence.sobolev(float(rng.uniform(0.5, 3.0)))
    if kind == 2:
        return WeightSequence.derivative(int(rng.integers(0, 4)))
    if kind == 3:
        return WeightSequence.polynomial_decay(float(rng.uniform(0.3, 2.5)))
    if kind == 4:
        return WeightSequence.exponential_decay(float(rng.uniform(0.3, 1.5)))
    return WeightSequence.custom(np.exp(rng.uniform(-2.0, 4.0, size=table_len)))


def _diff(pairs):
    return [
        (i, lib, ref)
        for i, (lib, ref) in enumerate(pairs)
        if not (lib == ref or (math.isnan(lib) and math.isnan(ref)))
    ]


def check_instance(rng):
    """One randomized instance; returns a list of (name, detail) mismatches.

    Custom weight tables only cover their own length, so n and k_max are
    clamped to the table when one is drawn.
    """
    table_len = 60
    rw = random_weights(rng, table_len)
    sw = random_weights(rng, table_len)
    ow = random_weights(rng, table_len)
    any_custom = "custom" in (rw.kind, sw.kind, ow.kind)
    hi = 55 if any_custom else 2000
    n = int(np.exp(rng.uniform(0.0, np.log(hi))))
    k_max = int(rng.integers(1, min(hi, 40) + 1))
    link = float(np.exp(rng.uniform(np.log(0.25), np.log(8.0))))

    tdiag = rng.uniform(-1.2, 1.2, size=k_max)
    tdiag[rng.uniform(size=k_max) < 0.10] = 0.0
    tdiag[0] = 1.0

    bad = []

    seqs = penalty_sequences(rw, ow, k_max)
    ra, rf, re = bf_penalty_sequences(rw, ow, k_max)
    for name, lib, ref in (
        ("amplification", seqs.amplification, ra),
        ("amplification_floored", seqs.amplification_floored, rf),
        ("effective_dim", seqs.effective_dim, re),
    ):
        d = _diff(list(zip(map(float, lib), ref)))
        if d:
            bad.append((name, d[:3]))

    eseqs = penalty_sequences_from_diagonal(tdiag, n, rw)
    ea, ef, ee = bf_penalty_from_diagonal(tdiag, n, rw)
    for name, lib, ref in (
        ("emp_amplification", eseqs.amplification, ea),
        ("emp_floored", eseqs.amplification_floored, ef),
        ("emp_effective_dim", eseqs.effective_dim, ee),
    ):
        d = _diff(list(zip(map(float, lib), ref)))
        if d:
            bad.append((name, d[:3]))

    pairs = [
        ("dimension_cutoff", dimension_cutoff(rw, ow, link, n), bf_dimension_cutoff(rw, ow, link, n)),
        ("dimension_cap", dimension_cap(rw, n), bf_dimension_cap(rw, n)),
        (
            "cutoff_from_diagonal",
            dimension_cutoff_from_diagonal(tdiag, n, rw),
            bf_cutoff_from_diagonal(tdiag, n, rw),
        ),
        ("cutoff_lower", dimension_cutoff_lower(rw, ow, link, n), bf_cutoff_lower(rw, ow, link, n)),
    ]
    k_lib, v_lib = oracle_dimension(rw, sw, ow, n, k_max)
    k_ref, v_ref = bf_oracle_dimension(rw, sw, ow, n, k_max)
    pairs.append(("oracle_k", k_lib, k_ref))
    pairs.append(("oracle_value", v_lib, v_ref))
    for name, lib, ref in pairs:
        if lib != ref:
            bad.append((name, (lib, ref)))
    return bad

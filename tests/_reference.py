"""Straight-line reference implementations for exact cross-checks.

Everything here recomputes selection-support quantities with plain Python
loops in index order.  Only the weight tables and the elementwise log are
shared with the library: numpy's log and libm's disagree by one ulp on
some inputs, which would turn an exactness check into a tolerance check.
The logic under test -- running maxima, cumulative sums, block scans,
argmin tie breaking -- is all re-derived here.
``scan_cutoffs`` keeps the vectorised scan over every N up to n that the
library's cutoff walk replaced; it checks the walk at sizes the loops
cannot reach.
The simulator's joint density and regression coefficients are restated
in their defining form, as a design product and as padded coefficient
vectors, and its rejection sampler as a loop that judges whole batches.
``custom_operator`` builds an operator from an explicit diagonal for
degenerate fixtures; no command builds one.
``read_sample_csv`` reads a sample CSV one row at a time through
``csv.reader`` and ``float()``, the spelling rules the vectorised reader
must keep.  ``derivative_coeffs_loop`` differentiates a series one
frequency at a time, choosing the quarter turn for each.
``study_stats_loop`` takes a rate study's per-n statistics one sample size
at a time, from a slice of the rows, as 1-D numpy calls.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from npiv import simulate
from npiv.basis import WeightSequence, weighted_norm_sq
from npiv.estimator import diagonal_estimate, empirical_diagonal
from npiv.selection import (
    _estimable,
    _prefix_end,
    dimension_cap,
    dimension_cutoffs,
    effective_dimension,
    empirical_dimension_cutoff,
    oracle_dimension,
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
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
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


def derivative_coeffs_loop(coeffs, s: int) -> np.ndarray:
    """Coefficients of the s-th derivative, each frequency pair turned and scaled on its own."""
    c = np.asarray(coeffs, dtype=float)
    k = c.size
    k_out = k if k % 2 == 1 else k + 1
    out = np.zeros(k_out)
    for f in range(1, k_out // 2 + 1):
        a = c[2 * f - 1] if 2 * f <= k else 0.0  # cos coefficient, index 2f
        b = c[2 * f] if 2 * f + 1 <= k else 0.0  # sin coefficient, index 2f + 1
        r = s % 4
        if r == 1:
            a, b = b, -a
        elif r == 2:
            a, b = -a, -b
        elif r == 3:
            a, b = -b, a
        scale = (2.0 * math.pi * f) ** s
        out[2 * f - 1] = scale * a
        out[2 * f] = scale * b
    return out


def read_sample_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (y, z, w) columns of a sample CSV, or the ValueError ``load_csv`` raises."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected header y,z,w")
            if [h.strip() for h in header] != ["y", "z", "w"]:
                raise ValueError(f"{path}: expected header y,z,w, got {','.join(header)!r}")
            cols = []
            for row_no, row in enumerate(rows, start=1):
                where = f"{path}, row {row_no}"
                if len(row) != 3:
                    raise ValueError(f"{where}: expected 3 fields, got {len(row)}")
                try:
                    y, z, w = map(float, row)
                except ValueError:
                    raise ValueError(f"{where}: non-numeric field") from None
                if not math.isfinite(y):
                    raise ValueError(f"{where}: y={y!r} is not finite")
                if abs(y) > 2.0 ** 400:
                    raise ValueError(f"{where}: y={y!r} outside [-2**400, 2**400]")
                for name, v in (("z", z), ("w", w)):
                    if not 0.0 <= v <= 1.0:
                        raise ValueError(f"{where}: {name}={v!r} outside [0, 1]")
                cols.append((y, z, w))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not cols:
        raise ValueError(f"{path}: no data rows")
    return tuple(np.array(c) for c in zip(*cols))


def custom_operator(diag) -> simulate.OperatorSpec:
    """Wrap an explicit diagonal t_1..t_T (t_1 must be 1) for degenerate fixtures.

    Its weights are the constant ones, polynomial decay of order 0, against which
    the link constant is measured.  The density floor certificate is negative for
    vectors too large to be a valid density, and sampling then refuses to run.
    """
    t = np.asarray(diag, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("diag must be a nonempty vector")
    return simulate.OperatorSpec(
        decay="custom",
        a=0.0,
        scale=1.0,
        diag=t,
        density_floor=1.0 - 2.0 * float(np.sum(np.abs(t[1:]))),
        link_constant=simulate._link_constant(t[1:] ** 2),
        weights=WeightSequence.constant(),
    )


def joint_density_design(op, z, w):
    """The joint density 1 + sum_{j>=2} t_j psi_j(z) psi_j(w) as a design product."""
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    ww = np.atleast_1d(np.asarray(w, dtype=float))
    idx = np.arange(1, op.truncation + 1)
    pz = trig_columns_loop(zz, idx)
    pw = trig_columns_loop(ww, idx)
    return 1.0 + (pz[:, 1:] * pw[:, 1:]) @ op.diag[1:]


# joint_density sums each cosine series of F = T // 2 frequencies by Clenshaw's
# recurrence, whose rounding error grows like (F + 1)**2 * eps where cos 2*pi*x
# is near +-1 (z = w, z + w = 1).  The largest measured
# |joint_density - joint_density_design| / ((F + 1)**2 * eps) was 0.167 at T = 10
# (6 eps; the design form itself is within about 2 eps of a long-double sum) and
# at most 0.044 at T = 64, 256 and 1000, over 6 draws of the points and operators
# of test_joint_density_error_bound_near_endpoints; C = 0.4 leaves a margin of 2.4.
CLENSHAW_ERROR_C = 0.4


def clenshaw_error_bound(truncation: int) -> float:
    """Bound C * (F + 1)**2 * eps on |joint_density - joint_density_design|."""
    return CLENSHAW_ERROR_C * (truncation // 2 + 1) ** 2 * np.finfo(float).eps


def sample_joint_full_batch(op, n, seed):
    """Rejection sampling that judges every proposal of each batch by the design form.

    Batches of ``simulate.proposal_batch`` proposals are drawn from the same
    stream as ``simulate.sample_joint``; every proposal of a batch is judged,
    and the first n acceptances are kept.
    """
    rng = simulate.stream_rng(seed, simulate.STREAM_JOINT)
    envelope = 1.0 + 2.0 * float(np.sum(np.abs(op.diag[1:])))
    zs, ws = [], []
    have = 0
    while have < n:
        m = simulate.proposal_batch(op, n - have)
        z = rng.random(m)
        w = rng.random(m)
        u = rng.random(m)
        keep = u * envelope <= joint_density_design(op, z, w)
        zs.append(z[keep])
        ws.append(w[keep])
        have += int(keep.sum())
    return np.concatenate(zs)[:n], np.concatenate(ws)[:n]


def study_stats_loop(rows, grid, reps) -> list[dict]:
    """The statistics of each n of a rate study from its slice of ``rows``, one n at a time."""
    stats = []
    for i in range(len(grid)):
        cells = rows[i * reps:(i + 1) * reps]
        risks = np.array([r.risk for r in cells])
        q25, q50, q75 = (float(np.quantile(risks, q)) for q in (0.25, 0.5, 0.75))
        stats.append({
            "risk_median": q50,
            "risk_mean": float(risks.mean()),
            "risk_iqr": q75 - q25,
            "k_median": float(np.median(np.array([r.k_selected for r in cells]))),
            "oracle_risk_median": float(np.median(np.array([r.oracle_risk for r in cells]))),
        })
    return stats


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
    """Largest N <= n, and within a custom table, whose running maximum of weights is <= n."""
    m = n if risk_weights.table is None else min(n, len(risk_weights.table))
    w = [float(v) for v in risk_weights.values(m)]
    run = -math.inf
    best = 0
    for j in range(1, m + 1):
        run = max(run, w[j - 1])
        if run <= n:
            best = j
    return best if best else 1


def full_read_dimension_cap(risk_weights, n):
    """``dimension_cap`` as it was before its walk: the last of all n weights (within a custom
    table) whose running maximum is <= n, found from one read of them all."""
    m = n if risk_weights.table is None else min(n, len(risk_weights.table))
    hits = np.flatnonzero(np.maximum.accumulate(risk_weights.values(m)) <= n)
    return int(hits[-1]) + 1 if hits.size else 1


def bf_cutoff_from_diagonal(tdiag, n, risk_weights):
    t = [float(v) for v in tdiag]
    cap = min(bf_dimension_cap(risk_weights, n), len(t))
    w = [float(v) for v in risk_weights.values(cap)]
    thr = math.log(n) / n
    for j in range(1, cap + 1):
        if t[j - 1] * t[j - 1] / (j * max(w[j - 1], 1.0)) < thr:
            return max(1, j - 1)
    return cap


def walk_cutoff_from_diagonal(tdiag, n, risk_weights):
    """The library's cutoff walk over an explicit diagonal, capped at its length."""
    t = np.asarray(tdiag, dtype=float)
    cap = min(dimension_cap(risk_weights, n), t.size)
    return _prefix_end(lambda lo, hi: _estimable(t[lo - 1:hi] * t[lo - 1:hi], n, risk_weights, 1.0, lo), cap)


def scan_cutoffs(risk_weights, operator_weights, link_constant, n):
    """``dimension_cutoffs`` by one scan over every N up to the limit."""
    m = min([n] + [len(w.table) for w in (risk_weights, operator_weights) if w.table is not None])
    w = risk_weights.values(m)
    lam = operator_weights.values(m)
    eff = effective_dimension(risk_weights, operator_weights, m)
    lhs = 7.0 * math.log(n) - n * lam / (288.0 * link_constant)
    rhs = 7.0 * math.log(2016.0 * link_constant / lam[0])
    hits = np.nonzero((lhs <= rhs) & (eff / n <= 1.0))[0]
    cap = int(hits[-1]) + 1 if hits.size else 1
    j = np.arange(1, cap + 1, dtype=float)
    ok = lam[:cap] / (j * np.maximum(w[:cap], 1.0)) >= 4.0 * link_constant * math.log(n) / n
    hits = np.nonzero(ok)[0]
    return cap, int(hits[-1]) + 1 if hits.size else 1


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
    cutoff = empirical_dimension_cutoff(sample, weights, dimension_cap(weights, sample.n))
    tdiag, _ = empirical_diagonal(sample, cutoff)
    eff = effective_dimension(weights, WeightSequence.custom(tdiag * tdiag), cutoff)
    y2 = float(np.mean(sample.y * sample.y))
    contrast, penalty, criterion = [], [], []
    for k in range(1, cutoff + 1):
        est = diagonal_estimate(sample, k)
        c = 0.0 if est.thresholded else -weighted_norm_sq(est.coeffs, weights.values(k))
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

    d = _diff(list(zip(map(float, effective_dimension(rw, ow, k_max)),
                       bf_penalty_sequences(rw, ow, k_max)[2])))
    if d:
        bad.append(("effective_dim", d[:3]))

    cutoff, lower = dimension_cutoffs(rw, ow, link, n)
    pairs = [
        ("dimension_cutoff", cutoff, bf_dimension_cutoff(rw, ow, link, n)),
        ("dimension_cap", dimension_cap(rw, n), bf_dimension_cap(rw, n)),
        (
            "cutoff_from_diagonal",
            walk_cutoff_from_diagonal(tdiag, n, rw),
            bf_cutoff_from_diagonal(tdiag, n, rw),
        ),
        ("cutoff_lower", lower, bf_cutoff_lower(rw, ow, link, n)),
    ]
    k_lib, v_lib = oracle_dimension(rw, sw, ow, n, k_max)
    k_ref, v_ref = bf_oracle_dimension(rw, sw, ow, n, k_max)
    pairs.append(("oracle_k", k_lib, k_ref))
    pairs.append(("oracle_value", v_lib, v_ref))
    for name, lib, ref in pairs:
        if lib != ref:
            bad.append((name, (lib, ref)))
    return bad

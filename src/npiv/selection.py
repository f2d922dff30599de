"""Effective dimensions, dimension cutoffs and fully data-driven model selection.

The selection rule minimises a penalised contrast over candidate dimensions:
the negative weighted norm of the diagonal coefficient estimate plus a
penalty proportional to the effective dimension of the sample's squared
diagonal.  The effective dimension has one definition, which the
known-weights cutoff also applies to the operator's weight sequence; the
search range is that cutoff when the weights are known, and one read from
the sample alone otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .basis import WeightSequence, weighted_norm_sq
from .estimator import GalerkinEstimate, Sample, empirical_diagonal, empirical_diagonals

_SCAN_START = 8
_BLOCK = 1 << 14  # past it, a walk block is _BLOCK indices long, so a walk holds a few such arrays at a time


def _effective_dim(w: np.ndarray, lam: np.ndarray, lo: int = 1, maxima=(-np.inf, -np.inf)):
    """delta_k = k * D_k * log(max(F_k, k + 2)) / log(k + 2) for k = lo, lo + 1, ..., with D_k
    and F_k the running maxima of w_j / l_j and max(w_j, 1) / l_j along the last axis of
    ``lam``, started from ``maxima``, those of j < lo; and the maxima (D, F) at the last k."""
    k = np.arange(lo, lo + w.size, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # inf / inf is nan
        ampl = np.maximum(np.maximum.accumulate(w / lam, axis=-1), maxima[0])
        floored = np.maximum(np.maximum.accumulate(np.maximum(w, 1.0) / lam, axis=-1), maxima[1])
        return k * ampl * np.log(np.maximum(floored, k + 2)) / np.log(k + 2), (ampl[..., -1], floored[..., -1])


def effective_dimension(
    risk_weights: WeightSequence, operator_weights: WeightSequence, k_max: int
) -> np.ndarray:
    """Effective dimensions delta_1..delta_k_max for a known operator weight sequence."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return _effective_dim(risk_weights.values(k_max), operator_weights.values(k_max))[0]


# -- dimension cutoffs ----------------------------------------------------


def _limit(n: int, *weights: WeightSequence) -> int:
    """n, or the length of the shortest custom table among ``weights`` if smaller."""
    return min([n] + [len(w.table) for w in weights if w.table is not None])


def _blocks(limit: int):
    """Index blocks (lo, hi) covering 1..limit in order, hi = 8, 16, 32, ..., _BLOCK, then every _BLOCK."""
    lo, hi = 1, min(_SCAN_START, limit)
    while lo <= limit:
        yield lo, hi
        lo, hi = hi + 1, min(hi + min(hi, _BLOCK), limit)


def _prefix_end(ok, limit: int) -> int:
    """Length of the prefix of indices on which ``ok`` holds, in 1..limit.

    ``ok(lo, hi)`` gives the predicate at indices lo..hi.  It is read on the
    ``_blocks`` in order until a block holds a failing index, so the walk reads
    at most min(max(8, 2 * (end + 1)), end + _BLOCK) entries, whatever ``limit`` is.
    """
    for lo, hi in _blocks(limit):
        bad = np.flatnonzero(~ok(lo, hi))
        if bad.size:
            return max(1, lo - 1 + int(bad[0]))
    return limit


def _last_hit(ok, limit: int) -> int:
    """The last index in 1..limit at which ``ok(lo, hi)``, read on the ``_blocks``, holds, else 1."""
    last = 1
    for lo, hi in _blocks(limit):
        hits = np.flatnonzero(ok(lo, hi))
        last = lo + int(hits[-1]) if hits.size else last
    return last


def dimension_cutoffs(
    risk_weights: WeightSequence,
    operator_weights: WeightSequence,
    link_constant: float,
    n: int,
) -> tuple[int, int]:
    """Largest admissible dimension for known operator weights, and its lower diagnostic.

    The cutoff is the largest N <= n, and within any custom table, whose
    effective dimension stays below n and whose operator weight is not yet
    exponentially small relative to n (checked in log domain); 1 when no N
    qualifies.  The effective dimension is nondecreasing, so the first
    condition holds on a prefix, found by a walk whose cost follows its end.
    Each walk reads the weights a block at a time, in bounded memory.
    The lower cutoff, a diagnostic for how far the data-driven cutoff can
    reach, is the largest j up to it (at least 1) with
    l_j / (j * max(w_j, 1)) >= 4 * link_constant * log(n) / n.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not link_constant > 0:
        raise ValueError(f"link constant must be positive, got {link_constant}")
    maxima = (-np.inf, -np.inf)

    def small(lo: int, hi: int) -> np.ndarray:  # read on the blocks in order, each from the last one's maxima
        nonlocal maxima
        delta, maxima = _effective_dim(risk_weights.values(hi, lo), operator_weights.values(hi, lo), lo, maxima)
        return delta / n <= 1.0

    end = _prefix_end(small, _limit(n, risk_weights, operator_weights))
    lam_1, seven_log_n, scale = operator_weights.values(1)[0], 7.0 * math.log(n), 288.0 * link_constant
    # a Python float, 0 or inf past the doubles without a warning; 0 is taken in logs instead
    ratio = 2016.0 * link_constant / float(lam_1)
    rhs = 7.0 * (math.log(ratio) if ratio > 0 else math.log(2016.0 * link_constant) - math.log(lam_1))
    # an n * l_j / link past the doubles admits j, as -inf lhs, and inf / inf (nan) admits none; no j
    # whose j * w_j passes the doubles is estimable
    with np.errstate(over="ignore", invalid="ignore"):
        cutoff = _last_hit(lambda lo, hi: seven_log_n - n * operator_weights.values(hi, lo) / scale <= rhs, end)
        return cutoff, _last_hit(
            lambda lo, hi: _estimable(operator_weights.values(hi, lo), n, risk_weights, 4.0 * link_constant, lo),
            cutoff)


def dimension_cap(risk_weights: WeightSequence, n: int) -> int:
    """Largest N <= n, and within a custom table, whose risk weights stay below n (at least 1);
    the walk reads at most min(max(8, 2 * (N + 1)), N + _BLOCK) weights."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if risk_weights.kind == "exponential" or (risk_weights.kind == "power" and risk_weights.param <= 0):
        return n  # every weight is at most w_1 = 1 <= n
    return _prefix_end(lambda lo, hi: risk_weights.values(hi, lo) <= n, _limit(n, risk_weights))


def _estimable(lam: np.ndarray, n: int, risk_weights: WeightSequence, c: float, lo: int) -> np.ndarray:
    """Whether l_j / (j * max(w_j, 1)) >= c * log(n) / n, for j = lo, lo + 1, ... along ``lam``."""
    j = np.arange(lo, lo + lam.size, dtype=float)
    return lam / (j * np.maximum(risk_weights.values(lo + lam.size - 1, lo), 1.0)) >= c * math.log(n) / n


def empirical_dimension_cutoff(sample: Sample, risk_weights: WeightSequence, cap: int) -> int:
    """Data-driven dimension cutoff from the sample's diagonal t_1, t_2, ...

    One short of the first index j whose squared entry, relative to j and
    max(w_j, 1), falls below log(n)/n (at least 1), or ``cap``, the sample's
    ``dimension_cap``, when no index up to it misbehaves.  The walk reads the
    sample's shared diagonal prefix, so later fits of the same sample reuse
    what it read.
    """
    return _prefix_end(lambda lo, hi: _estimable(np.square(empirical_diagonal(sample, hi)[0][lo - 1:]), sample.n,
                                                 risk_weights, 1.0, lo), cap)


# -- selection ------------------------------------------------------------


class BlockSelection(NamedTuple):
    """Selections of equal-size samples, a row each: the first three fields per row, the rest
    (rows, K) arrays for the largest cutoff K, where a row past its own cutoff is padding."""

    cutoff: np.ndarray
    k_selected: np.ndarray
    y_second_moment: np.ndarray
    coeffs: np.ndarray
    contrast: np.ndarray
    penalty: np.ndarray
    effective_dim: np.ndarray
    criterion: np.ndarray


class SelectionTrace(BlockSelection):
    """One penalised selection, the row of its sample in ``select_block``: arrays run over
    k = 1..cutoff, ``criterion`` is ``contrast + penalty`` and ``k_selected`` its first minimiser."""

    __slots__ = ()

    @property
    def estimate(self) -> GalerkinEstimate:
        return GalerkinEstimate(self.coeffs[: self.k_selected], thresholded=False)


def select_block(samples, risk_weights: WeightSequence, penalty_const: float) -> BlockSelection:
    """Choose the estimation dimension of each of equal-size samples, row by row.

    For each k up to a sample's data-driven cutoff, the contrast is the negative weighted
    norm of the diagonal estimate at k and the penalty is ``penalty_const`` times the
    plug-in second moment of y times the empirical effective dimension over n; ties go
    to the smallest k.  The CLI's default, 540, is the conservative theoretical constant;
    far smaller values are reasonable in practice and the rate-study harness uses one.  No
    fit here is the zero fallback: t_1 = 1, and the cutoff admits j >= 2 only when
    t_j**2 >= 2 log(n) / n, so every k passes t_j**2 >= 1/n.  Rows equal lone selections.
    """
    if not penalty_const > 0:
        raise ValueError(f"penalty constant must be positive, got {penalty_const}")
    cap = dimension_cap(risk_weights, samples[0].n)  # the samples share n
    cutoff = np.array([empirical_dimension_cutoff(s, risk_weights, cap) for s in samples])
    tdiag, ghat = empirical_diagonals(samples, int(cutoff.max()))
    w = risk_weights.values(tdiag.shape[1])
    y2 = np.mean(np.square(np.stack([s.y for s in samples])), axis=1)
    eff = _effective_dim(w, tdiag * tdiag)[0]
    # only padding, or a risk weight past n, makes inf or nan; an infinite penalty's k is never chosen
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coeffs = ghat / tdiag
        penalty = penalty_const * y2[:, None] * eff / samples[0].n
        contrast = np.zeros_like(tdiag)
        for r, cut in enumerate(cutoff):
            contrast[r, :cut] = [-weighted_norm_sq(coeffs[r, :k], w) for k in range(1, cut + 1)]
        criterion = np.where(np.arange(w.size) < cutoff[:, None], contrast + penalty, np.inf)
    return BlockSelection(cutoff, np.argmin(criterion, axis=1) + 1, y2, coeffs, contrast, penalty, eff,
                          criterion)


def penalized_select(sample: Sample, risk_weights: WeightSequence, penalty_const: float) -> SelectionTrace:
    """``select_block`` of one sample, as a trace."""
    return SelectionTrace(*(rows[0] for rows in select_block([sample], risk_weights, penalty_const)))


# -- oracle ---------------------------------------------------------------


def oracle_dimension(
    risk_weights: WeightSequence,
    smoothness_weights: WeightSequence,
    operator_weights: WeightSequence,
    n: int,
    k_max: int,
) -> tuple[int, float]:
    """Best dimension and value of the bias/variance balance for known weights.

    The objective at k is max(w_k / g_k, sum_{j<=k} w_j / (n l_j)) with w
    the risk weights, g the smoothness weights and l the operator weights;
    the search is exhaustive over 1..k_max, and within any custom table,
    with ties to the smallest k.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k_max = _limit(k_max, risk_weights, smoothness_weights, operator_weights)
    w = risk_weights.values(k_max)
    g = smoothness_weights.values(k_max)
    lam = operator_weights.values(k_max)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bias = w / g
        variance = np.cumsum(w / lam) / n
    objective = np.maximum(bias, variance, out=bias)
    objective[np.isnan(objective)] = np.inf  # an inf / inf ratio never chooses k
    k_best = int(np.argmin(objective)) + 1
    return k_best, float(objective[k_best - 1])

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import WeightSequence, weighted_norm_sq
from .estimator import GalerkinEstimate, Sample, empirical_diagonal, empirical_diagonals

_SCAN_START = 8


def _effective_dim(w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """delta_k = k * D_k * log(max(F_k, k + 2)) / log(k + 2), with D_k and F_k the
    running maxima of w_j / l_j and max(w_j, 1) / l_j, along the last axis of ``lam``."""
    k = np.arange(1, w.size + 1, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ampl = np.maximum.accumulate(w / lam, axis=-1)
        floored = np.maximum.accumulate(np.maximum(w, 1.0) / lam, axis=-1)
        return k * ampl * np.log(np.maximum(floored, k + 2)) / np.log(k + 2)


def effective_dimension(
    risk_weights: WeightSequence, operator_weights: WeightSequence, k_max: int
) -> np.ndarray:
    """Effective dimensions delta_1..delta_k_max for a known operator weight sequence."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return _effective_dim(risk_weights.values(k_max), operator_weights.values(k_max))


# -- dimension cutoffs ----------------------------------------------------


def _limit(n: int, *weights: WeightSequence) -> int:
    """n, or the length of the shortest custom table among ``weights`` if smaller."""
    return min([n] + [len(w.table) for w in weights if w.table is not None])


def _prefix_end(ok, limit: int) -> int:
    """Length of the prefix of indices on which ``ok`` holds, in 1..limit.

    ``ok(k)`` gives the predicate at indices 1..k and agrees with itself on
    shared prefixes.  It is read at k = 8, 16, 32, ... (capped at ``limit``)
    until a read holds a failing index, so the walk reads at most
    max(8, 2 * (end + 1)) entries, whatever ``limit`` is.
    """
    k = min(_SCAN_START, limit)
    while True:
        bad = np.flatnonzero(~ok(k))
        if bad.size:
            return max(1, int(bad[0]))
        if k == limit:
            return k
        k = min(2 * k, limit)


def _last_hit(ok: np.ndarray) -> int:
    """1-based index of the last entry of ``ok`` that holds, else 1."""
    hits = np.flatnonzero(ok)
    return int(hits[-1]) + 1 if hits.size else 1


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
    The lower cutoff, a diagnostic for how far the data-driven cutoff can
    reach, is the largest j up to it (at least 1) with
    l_j / (j * max(w_j, 1)) >= 4 * link_constant * log(n) / n.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not link_constant > 0:
        raise ValueError(f"link constant must be positive, got {link_constant}")
    end = _prefix_end(
        lambda k: effective_dimension(risk_weights, operator_weights, k) / n <= 1.0,
        _limit(n, risk_weights, operator_weights),
    )
    lam = operator_weights.values(end)
    lhs = 7.0 * math.log(n) - n * lam / (288.0 * link_constant)
    rhs = 7.0 * math.log(2016.0 * link_constant / lam[0])
    cutoff = _last_hit(lhs <= rhs)
    return cutoff, _last_hit(_estimable(lam[:cutoff], n, risk_weights, 4.0 * link_constant))


def dimension_cap(risk_weights: WeightSequence, n: int) -> int:
    """Largest N <= n, and within a custom table, whose risk weights stay below n (at least 1)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if risk_weights.kind == "exponential" or (risk_weights.kind == "power" and risk_weights.param <= 0):
        return n  # every weight is at most w_1 = 1 <= n
    return _last_hit(np.maximum.accumulate(risk_weights.values(_limit(n, risk_weights))) <= n)


def _estimable(lam: np.ndarray, n: int, risk_weights: WeightSequence, c: float) -> np.ndarray:
    """Whether l_j / (j * max(w_j, 1)) >= c * log(n) / n, for each entry of ``lam``."""
    j = np.arange(1, lam.size + 1, dtype=float)
    return lam / (j * np.maximum(risk_weights.values(lam.size), 1.0)) >= c * math.log(n) / n


def empirical_dimension_cutoff(sample: Sample, risk_weights: WeightSequence) -> int:
    """Data-driven dimension cutoff from the sample's diagonal t_1, t_2, ...

    One short of the first index j whose squared entry, relative to j and
    max(w_j, 1), falls below log(n)/n (at least 1), or ``dimension_cap``
    when no index up to it misbehaves.  The walk reads the sample's shared
    diagonal prefix, so later fits of the same sample reuse what it read.
    """
    n = sample.n
    return _prefix_end(
        lambda k: _estimable(np.square(empirical_diagonal(sample, k)[0]), n, risk_weights, 1.0),
        dimension_cap(risk_weights, n),
    )


# -- selection ------------------------------------------------------------


@dataclass(frozen=True)
class SelectionTrace:
    """Full record of one penalised selection run.

    Arrays are indexed by candidate dimension k = 1..cutoff; ``criterion``
    is ``contrast + penalty`` and ``k_selected`` its first minimiser.
    """

    n: int
    cutoff: int
    penalty_const: float
    y_second_moment: float
    contrast: np.ndarray
    penalty: np.ndarray
    effective_dim: np.ndarray
    criterion: np.ndarray
    k_selected: int
    estimate: GalerkinEstimate

    def __post_init__(self) -> None:
        for name in ("contrast", "penalty", "effective_dim", "criterion"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.size != self.cutoff:
                raise ValueError(f"{name} must have length cutoff")
        if not 1 <= self.k_selected <= self.cutoff:
            raise ValueError("k_selected out of range")


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


def select_block(samples, risk_weights: WeightSequence, penalty_const: float = 540.0) -> BlockSelection:
    """Choose the estimation dimension of each of equal-size samples, row by row.

    For each k up to a sample's data-driven cutoff, the contrast is the negative weighted
    norm of the diagonal estimate at k and the penalty is ``penalty_const`` times the
    plug-in second moment of y times the empirical effective dimension over n; ties go
    to the smallest k.  The default constant is the conservative theoretical one; far
    smaller values are reasonable in practice and the rate-study harness uses one.  No
    fit here is the zero fallback: t_1 = 1, and the cutoff admits j >= 2 only when
    t_j**2 >= 2 log(n) / n, so every k passes t_j**2 >= 1/n.  Rows equal lone selections.
    """
    if not penalty_const > 0:
        raise ValueError(f"penalty constant must be positive, got {penalty_const}")
    cutoff = np.array([empirical_dimension_cutoff(s, risk_weights) for s in samples])
    tdiag, ghat = empirical_diagonals(samples, int(cutoff.max()))
    w = risk_weights.values(tdiag.shape[1])
    y2 = np.mean(np.square(np.stack([s.y for s in samples])), axis=1)
    eff = _effective_dim(w, tdiag * tdiag)
    with np.errstate(divide="ignore", invalid="ignore"):  # only padding can be inf or nan
        coeffs = ghat / tdiag
        penalty = penalty_const * y2[:, None] * eff / samples[0].n
    contrast = np.zeros_like(tdiag)
    for r, cut in enumerate(cutoff):
        contrast[r, :cut] = [-weighted_norm_sq(coeffs[r, :k], w) for k in range(1, cut + 1)]
    criterion = np.where(np.arange(w.size) < cutoff[:, None], contrast + penalty, np.inf)
    return BlockSelection(cutoff, np.argmin(criterion, axis=1) + 1, y2, coeffs, contrast, penalty, eff,
                          criterion)


def penalized_select(sample: Sample, risk_weights: WeightSequence,
                     penalty_const: float = 540.0) -> SelectionTrace:
    """``select_block`` of one sample, as a trace."""
    sel = select_block([sample], risk_weights, penalty_const)
    cut, k, y2, coeffs = (row[0] for row in sel[:4])
    return SelectionTrace(sample.n, int(cut), float(penalty_const), float(y2), *(a[0] for a in sel[4:]),
                          int(k), GalerkinEstimate(coeffs[:k], int(k), thresholded=False, mode="diagonal"))


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
    with np.errstate(divide="ignore", over="ignore"):
        bias = w / g
        variance = np.cumsum(w / lam) / n
    objective = np.maximum(bias, variance)
    k_best = int(np.argmin(objective)) + 1
    return k_best, float(objective[k_best - 1])

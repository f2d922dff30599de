"""Penalty sequences, dimension cutoffs and fully data-driven model selection.

The selection rule minimises a penalised contrast over candidate dimensions:
the negative weighted norm of the diagonal coefficient estimate plus a
penalty proportional to an effective-dimension sequence.  Both the penalty
and the search range come in two flavours, one computed from the operator's
known weight sequence and one from the sample alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import WeightSequence, weighted_norm_sq
from .estimator import (
    GalerkinEstimate,
    Sample,
    _diagonal_fit,
    _stable_prefix,
    empirical_diagonal,
)

_SCAN_START = 8


@dataclass(frozen=True)
class PenaltySequences:
    """Per-dimension penalty ingredients for k = 1..k_max.

    ``amplification`` is the running maximum of weight over (squared
    empirical) operator coefficient, ``amplification_floored`` the same with
    the numerator floored at 1, and ``effective_dim`` the dimension factor
    that enters the selection penalty.
    """

    k_max: int
    amplification: np.ndarray
    amplification_floored: np.ndarray
    effective_dim: np.ndarray

    def __post_init__(self) -> None:
        for name in ("amplification", "amplification_floored", "effective_dim"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.size != self.k_max:
                raise ValueError(f"{name} must have length k_max")


def _sequences(w: np.ndarray, lam, stable) -> PenaltySequences:
    """Penalty sequences from running maxima of w_j / l_j, zero wherever ``stable`` is False."""
    k = np.arange(1, w.size + 1, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ampl = np.where(stable, np.maximum.accumulate(w / lam), 0.0)
        floored = np.where(stable, np.maximum.accumulate(np.maximum(w, 1.0) / lam), 0.0)
        eff = k * ampl * np.log(np.maximum(floored, k + 2)) / np.log(k + 2)
    return PenaltySequences(w.size, ampl, floored, eff)


def penalty_sequences(
    risk_weights: WeightSequence, operator_weights: WeightSequence, k_max: int
) -> PenaltySequences:
    """Penalty sequences computed from a known operator weight sequence."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return _sequences(risk_weights.values(k_max), operator_weights.values(k_max), True)


def penalty_sequences_from_diagonal(
    tdiag: np.ndarray, n: int, risk_weights: WeightSequence
) -> PenaltySequences:
    """Empirical penalty sequences from diagonal operator entries.

    Each dimension k carries its own stability indicator: whenever some
    squared entry among the first k falls below 1/n, all three sequences
    are zero at that k.
    """
    t = np.asarray(tdiag, dtype=float)
    if t.size < 1:
        raise ValueError("need at least one diagonal entry")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return _sequences(risk_weights.values(t.size), t * t, _stable_prefix(t, n))


# -- dimension cutoffs ----------------------------------------------------


def dimension_cutoff(
    risk_weights: WeightSequence,
    operator_weights: WeightSequence,
    link_constant: float,
    n: int,
) -> int:
    """Largest admissible dimension for a known operator weight sequence.

    Scans N = 1..n for the largest N whose operator weight is not yet
    exponentially small relative to n (checked in log domain) and whose
    effective dimension stays below n; falls back to 1 when no N qualifies.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not link_constant > 0:
        raise ValueError(f"link constant must be positive, got {link_constant}")
    lam = operator_weights.values(n)
    eff = penalty_sequences(risk_weights, operator_weights, n).effective_dim
    lhs = 7.0 * math.log(n) - n * lam / (288.0 * link_constant)
    rhs = 7.0 * math.log(2016.0 * link_constant / lam[0])
    ok = (lhs <= rhs) & (eff / n <= 1.0)
    hits = np.nonzero(ok)[0]
    return int(hits[-1]) + 1 if hits.size else 1


def dimension_cap(risk_weights: WeightSequence, n: int) -> int:
    """Largest N <= n, and within a custom table, whose risk weights stay below n (at least 1)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    table = risk_weights.table
    w = risk_weights.values(n if table is None else min(n, len(table)))
    ok = np.maximum.accumulate(w) <= n
    hits = np.nonzero(ok)[0]
    return int(hits[-1]) + 1 if hits.size else 1


def dimension_cutoff_from_diagonal(
    tdiag: np.ndarray, n: int, risk_weights: WeightSequence
) -> int:
    """Data-driven dimension cutoff from diagonal operator entries t_1, t_2, ...

    Scans for the first index j whose squared entry, relative to j and
    max(w_j, 1), falls below log(n)/n; the cutoff is one short of it (at
    least 1).  When no index misbehaves the cap from ``dimension_cap``
    applies; shorter input caps the search at its own length.
    """
    t = np.asarray(tdiag, dtype=float)
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    cap = min(dimension_cap(risk_weights, n), t.size)
    if cap < 1:
        raise ValueError("need at least one diagonal entry")
    j = np.arange(1, cap + 1, dtype=float)
    w_floored = np.maximum(risk_weights.values(cap), 1.0)
    bad = np.nonzero(t[:cap] * t[:cap] / (j * w_floored) < math.log(n) / n)[0]
    return max(1, int(bad[0])) if bad.size else cap


def empirical_dimension_cutoff(sample: Sample, risk_weights: WeightSequence) -> int:
    """``dimension_cutoff_from_diagonal`` on the sample's own diagonal.

    Reads the sample's shared diagonal prefix at lengths 8, 16, 32, ...
    (capped at ``dimension_cap``) and stops once the cutoff falls short of
    the length read, so it evaluates at most max(8, 2 * (cutoff + 1))
    entries and later fits of the same sample reuse them.
    """
    cap = dimension_cap(risk_weights, sample.n)
    k = min(_SCAN_START, cap)
    while True:
        tdiag, _ = empirical_diagonal(sample, k)
        cutoff = dimension_cutoff_from_diagonal(tdiag, sample.n, risk_weights)
        if cutoff < k or k == cap:
            return cutoff
        k = min(2 * k, cap)


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


def penalized_select(
    sample: Sample, risk_weights: WeightSequence, penalty_const: float = 540.0
) -> SelectionTrace:
    """Choose the estimation dimension by penalised contrast minimisation.

    For each k up to the data-driven cutoff, the contrast is the negative
    weighted norm of the diagonal estimate at k and the penalty is
    ``penalty_const`` times the plug-in second moment of y times the
    empirical effective dimension over n.  Ties resolve to the smallest k.
    The default constant is the conservative theoretical one; far smaller
    values are reasonable in practice and the rate-study harness uses one.
    No fit here is the zero fallback: t_1 = 1, and the cutoff admits j >= 2
    only when t_j**2 >= 2 log(n) / n, so every k passes t_j**2 >= 1/n.
    """
    if not penalty_const > 0:
        raise ValueError(f"penalty constant must be positive, got {penalty_const}")
    n = sample.n
    cutoff = empirical_dimension_cutoff(sample, risk_weights)
    tdiag, ghat = empirical_diagonal(sample, cutoff)
    seqs = penalty_sequences_from_diagonal(tdiag, n, risk_weights)
    coeffs = _diagonal_fit(tdiag, ghat, n).coeffs
    contrast = np.array([-weighted_norm_sq(coeffs[:k], risk_weights)
                         for k in range(1, cutoff + 1)])
    y2 = float(np.mean(sample.y * sample.y))
    penalty = penalty_const * y2 * seqs.effective_dim / n
    criterion = contrast + penalty
    k_sel = int(np.argmin(criterion)) + 1
    return SelectionTrace(
        n=n,
        cutoff=cutoff,
        penalty_const=float(penalty_const),
        y_second_moment=y2,
        contrast=contrast,
        penalty=penalty,
        effective_dim=seqs.effective_dim,
        criterion=criterion,
        k_selected=k_sel,
        estimate=_diagonal_fit(tdiag[:k_sel], ghat[:k_sel], n),
    )


# -- oracle and diagnostics -----------------------------------------------


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
    the search is exhaustive over 1..k_max with ties to the smallest k.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    w = risk_weights.values(k_max)
    g = smoothness_weights.values(k_max)
    lam = operator_weights.values(k_max)
    with np.errstate(divide="ignore", over="ignore"):
        bias = w / g
        variance = np.cumsum(w / lam) / n
    objective = np.maximum(bias, variance)
    k_best = int(np.argmin(objective)) + 1
    return k_best, float(objective[k_best - 1])


def dimension_cutoff_lower(
    risk_weights: WeightSequence,
    operator_weights: WeightSequence,
    link_constant: float,
    n: int,
) -> int:
    """Largest dimension whose operator weight is safely estimable.

    Searches j = 1..dimension_cutoff(...) for the largest j with
    l_j / (j * max(w_j, 1)) >= 4 * link_constant * log(n) / n, returning 1
    when no index qualifies.  Useful as a diagnostic for how far the
    data-driven cutoff can reach.
    """
    cap = dimension_cutoff(risk_weights, operator_weights, link_constant, n)
    w = risk_weights.values(cap)
    lam = operator_weights.values(cap)
    j = np.arange(1, cap + 1, dtype=float)
    thr = 4.0 * link_constant * math.log(n) / n
    ok = lam / (j * np.maximum(w, 1.0)) >= thr
    hits = np.nonzero(ok)[0]
    return int(hits[-1]) + 1 if hits.size else 1

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
    diagonal_block,
    empirical_diagonal,
)

_SCAN_START = 8


@dataclass(frozen=True)
class PenaltySequences:
    """Per-dimension penalty ingredients for k = 1..k_max.

    ``amplification`` is the running maximum of weight over (squared
    empirical) operator coefficient, ``amplification_floored`` the same with
    the numerator floored at 1, and ``effective_dim`` the dimension factor
    that enters the selection penalty.  ``empirical`` records which flavour
    produced the sequences.
    """

    k_max: int
    amplification: np.ndarray
    amplification_floored: np.ndarray
    effective_dim: np.ndarray
    empirical: bool

    def __post_init__(self) -> None:
        for name in ("amplification", "amplification_floored", "effective_dim"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.size != self.k_max:
                raise ValueError(f"{name} must have length k_max")


def _effective_dim(k: np.ndarray, ampl: np.ndarray, floored: np.ndarray) -> np.ndarray:
    return k * ampl * np.log(np.maximum(floored, k + 2)) / np.log(k + 2)


def penalty_sequences(
    risk_weights: WeightSequence, operator_weights: WeightSequence, k_max: int
) -> PenaltySequences:
    """Penalty sequences computed from a known operator weight sequence."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    w = risk_weights.values(k_max)
    lam = operator_weights.values(k_max)
    k = np.arange(1, k_max + 1, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ampl = np.maximum.accumulate(w / lam)
        floored = np.maximum.accumulate(np.maximum(w, 1.0) / lam)
        eff = _effective_dim(k, ampl, floored)
    return PenaltySequences(k_max, ampl, floored, eff, empirical=False)


def penalty_sequences_from_diagonal(
    tdiag: np.ndarray, n: int, risk_weights: WeightSequence
) -> PenaltySequences:
    """Empirical penalty sequences from diagonal operator entries.

    Each dimension k carries its own stability indicator: whenever some
    squared entry among the first k falls below 1/n, all three sequences
    are zero at that k.
    """
    t = np.asarray(tdiag, dtype=float)
    k_max = t.size
    if k_max < 1:
        raise ValueError("need at least one diagonal entry")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    w = risk_weights.values(k_max)
    tsq = t * t
    stable = np.minimum.accumulate(tsq) >= 1.0 / n
    k = np.arange(1, k_max + 1, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ampl = np.where(stable, np.maximum.accumulate(w / tsq), 0.0)
        floored = np.where(stable, np.maximum.accumulate(np.maximum(w, 1.0) / tsq), 0.0)
        eff = _effective_dim(k, ampl, floored)
    return PenaltySequences(k_max, ampl, floored, eff, empirical=True)


def empirical_penalty_sequences(
    sample: Sample, risk_weights: WeightSequence, k_max: int
) -> PenaltySequences:
    """Empirical penalty sequences computed from the sample."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    tdiag, _ = empirical_diagonal(sample, k_max)
    return penalty_sequences_from_diagonal(tdiag, sample.n, risk_weights)


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
    """Largest N <= n whose risk weights stay below n (at least 1)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    w = risk_weights.values(n)
    ok = np.maximum.accumulate(w) <= n
    hits = np.nonzero(ok)[0]
    return int(hits[-1]) + 1 if hits.size else 1


def _first_unstable(tsq: np.ndarray, j_lo: int, w_floored: np.ndarray, thr: float) -> int | None:
    """First index j >= j_lo whose ratio tsq_j / (j * max(w_j, 1)) drops below thr."""
    j = np.arange(j_lo, j_lo + tsq.size, dtype=float)
    bad = tsq / (j * w_floored) < thr
    hits = np.nonzero(bad)[0]
    return j_lo + int(hits[0]) if hits.size else None


def empirical_dimension_cutoff(sample: Sample, risk_weights: WeightSequence) -> int:
    """Data-driven dimension cutoff.

    Walks the diagonal of the empirical operator matrix until the squared
    entries, relative to index and risk weight, fall below log(n)/n; the
    cutoff is one short of the first such index (at least 1).  When no
    index misbehaves the cap from ``dimension_cap`` applies.  The walk reads
    the sample's shared diagonal prefix in steps of 8, 16, 32, ... entries
    (capped), so it evaluates at most max(8, 2 * (cutoff + 1)) entries and
    later fits of the same sample reuse them.
    """
    n = sample.n
    cap = dimension_cap(risk_weights, n)
    w_floored = np.maximum(risk_weights.values(cap), 1.0)
    thr = math.log(n) / n
    j_lo = 1
    while j_lo <= cap:
        j_hi = min(max(_SCAN_START, 2 * (j_lo - 1)), cap)
        tdiag = diagonal_block(sample, j_lo, j_hi)
        first = _first_unstable(tdiag * tdiag, j_lo, w_floored[j_lo - 1 : j_hi], thr)
        if first is not None:
            return max(1, first - 1)
        j_lo = j_hi + 1
    return cap


def dimension_cutoff_from_diagonal(
    tdiag: np.ndarray, n: int, risk_weights: WeightSequence
) -> int:
    """As ``empirical_dimension_cutoff`` but from precomputed diagonal entries.

    ``tdiag`` must cover indices 1..cap for the implied cap; shorter input
    caps the search at its own length.
    """
    t = np.asarray(tdiag, dtype=float)
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    cap = min(dimension_cap(risk_weights, n), t.size)
    if cap < 1:
        raise ValueError("need at least one diagonal entry")
    w_floored = np.maximum(risk_weights.values(cap), 1.0)
    first = _first_unstable(t[:cap] * t[:cap], 1, w_floored, math.log(n) / n)
    if first is not None:
        return max(1, first - 1)
    return cap


# -- selection ------------------------------------------------------------


def mean_squared_response(sample: Sample) -> float:
    """Plug-in second moment of the response, mean of y_i**2."""
    return float(np.mean(sample.y * sample.y))


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
    """
    if not penalty_const > 0:
        raise ValueError(f"penalty constant must be positive, got {penalty_const}")
    n = sample.n
    cutoff = empirical_dimension_cutoff(sample, risk_weights)
    tdiag, ghat = empirical_diagonal(sample, cutoff)
    seqs = penalty_sequences_from_diagonal(tdiag, n, risk_weights)
    stable = np.minimum.accumulate(tdiag * tdiag) >= 1.0 / n
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = np.where(tdiag != 0.0, ghat / tdiag, 0.0)
    contrast = np.zeros(cutoff)
    for k in range(1, cutoff + 1):
        if stable[k - 1]:
            contrast[k - 1] = -weighted_norm_sq(coeffs[:k], risk_weights)
    y2 = mean_squared_response(sample)
    penalty = penalty_const * y2 * seqs.effective_dim / n
    criterion = contrast + penalty
    k_sel = int(np.argmin(criterion)) + 1
    if stable[k_sel - 1]:
        est = GalerkinEstimate(coeffs[:k_sel], k_sel, thresholded=False, mode="diagonal")
    else:
        est = GalerkinEstimate(np.zeros(k_sel), k_sel, thresholded=True, mode="diagonal")
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
        estimate=est,
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

"""Tests for penalty sequences, dimension cutoffs and penalised selection."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from npiv import estimator
from npiv.basis import WeightSequence
from npiv.estimator import Sample, diagonal_estimate, empirical_diagonal
from npiv.selection import (
    dimension_cap,
    dimension_cutoff,
    dimension_cutoff_from_diagonal,
    dimension_cutoff_lower,
    empirical_dimension_cutoff,
    mean_squared_response,
    oracle_dimension,
    penalized_select,
    penalty_sequences,
    penalty_sequences_from_diagonal,
)
from npiv.simulate import custom_operator, generate_sample, make_operator, make_structural, sample_joint

import _reference as ref

CONST = WeightSequence.constant()
POLY1 = WeightSequence.polynomial_decay(1.0)


# -- penalty sequences ----------------------------------------------------


def test_penalty_hand_values():
    seqs = penalty_sequences(CONST, POLY1, 3)
    assert_array_equal(seqs.amplification, [1.0, 4.0, 9.0])
    assert_array_equal(seqs.amplification_floored, [1.0, 4.0, 9.0])
    assert seqs.effective_dim[0] == 1.0
    assert seqs.effective_dim[1] == 8.0  # 2 * 4 * ln(4)/ln(4)
    # 3 * 9 * ln(9)/ln(5)
    assert seqs.effective_dim[2] == 36.86073450224321
    assert seqs.effective_dim[2] == pytest.approx(27.0 * math.log(9.0) / math.log(5.0), rel=1e-14)
    assert not seqs.empirical


def test_penalty_floor_differs_for_small_weights():
    # risk weights below 1 are floored inside the log but not outside
    seqs = penalty_sequences(POLY1, CONST, 2)
    assert_array_equal(seqs.amplification, [1.0, 1.0])
    assert_array_equal(seqs.amplification_floored, [1.0, 1.0])
    assert_array_equal(seqs.effective_dim, [1.0, 2.0])


def test_penalty_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rw = ref.random_weights(rng, 40)
        ow = ref.random_weights(rng, 40)
        seqs = penalty_sequences(rw, ow, 30)
        ampl = seqs.amplification
        assert np.all(np.diff(ampl[np.isfinite(ampl)]) >= 0.0)
        finite = np.isfinite(seqs.effective_dim)
        k = np.arange(1, 31)[finite]
        # the log factor is at least 1, so delta_k >= k * Delta_k
        assert np.all(seqs.effective_dim[finite] >= k * ampl[finite] * (1.0 - 1e-12))


def test_penalty_validation():
    with pytest.raises(ValueError, match="k_max"):
        penalty_sequences(CONST, POLY1, 0)
    with pytest.raises(ValueError, match="diagonal entry"):
        penalty_sequences_from_diagonal(np.zeros(0), 5, CONST)
    with pytest.raises(ValueError, match="sample size"):
        penalty_sequences_from_diagonal(np.ones(3), 0, CONST)


def test_empirical_penalty_stability_indicator():
    # a zero diagonal entry zeroes that dimension and every larger one
    seqs = penalty_sequences_from_diagonal(np.array([1.0, 0.0, 1.0]), 100, CONST)
    assert seqs.amplification[0] == 1.0
    assert_array_equal(seqs.amplification[1:], [0.0, 0.0])
    assert_array_equal(seqs.effective_dim[1:], [0.0, 0.0])
    assert seqs.empirical


def test_empirical_matches_known_for_exact_entries():
    # with t_j = sqrt(l_j) exactly representable (powers of two), the
    # empirical sequences agree with the known-weight ones bit for bit
    lam = WeightSequence.custom([4.0 ** -j for j in range(6)])
    tdiag = np.array([2.0 ** -j for j in range(6)])
    known = penalty_sequences(CONST, lam, 6)
    emp = penalty_sequences_from_diagonal(tdiag, 10**9, CONST)
    assert_array_equal(known.amplification, emp.amplification)
    assert_array_equal(known.amplification_floored, emp.amplification_floored)
    assert_array_equal(known.effective_dim, emp.effective_dim)


def test_empirical_amplification_consistency_monte_carlo():
    op = custom_operator((1.0, 0.4))
    z, w = sample_joint(op, 100000, 11)
    s = Sample(np.ones(z.size), z, w)
    tdiag, _ = empirical_diagonal(s, 2)
    # sd of psi_2(W) psi_2(Z) is sqrt(1 - t_2^2); three standard errors
    assert abs(tdiag[1] - 0.4) < 3.0 * math.sqrt(1.0 - 0.16) / math.sqrt(z.size)
    seqs = penalty_sequences_from_diagonal(tdiag, s.n, CONST)
    assert seqs.amplification[1] == max(1.0, 1.0 / (tdiag[1] * tdiag[1]))


# -- dimension cutoffs ----------------------------------------------------


def test_dimension_cutoff_examples():
    assert dimension_cutoff(CONST, CONST, 1.0, 100) == 100
    assert dimension_cutoff(CONST, CONST, 1.0, 1) == 1
    with pytest.raises(ValueError, match="sample size"):
        dimension_cutoff(CONST, CONST, 1.0, 0)
    with pytest.raises(ValueError, match="link constant"):
        dimension_cutoff(CONST, CONST, 0.0, 10)


def test_dimension_cutoff_polynomial_values():
    # the exponential smallness condition is vacuous until n is past the
    # (2016 d)**7 crossover, so the cutoff dips before growing like n**(1/3)
    got = {n: dimension_cutoff(CONST, POLY1, 1.0, n) for n in (10**3, 10**4, 10**5, 10**6)}
    assert got == {10**3: 8, 10**4: 1, 10**5: 3, 10**6: 8}


def test_dimension_cutoff_monotone_past_crossover():
    grid = (20000, 50000, 100000, 1000000)
    vals = [dimension_cutoff(CONST, POLY1, 1.0, n) for n in grid]
    assert vals == sorted(vals)


def test_dimension_cutoff_exponential_values():
    expw = WeightSequence.exponential_decay(1.0)
    got = [dimension_cutoff(CONST, expw, 1.0, n) for n in (10**5, 3 * 10**5, 10**6, 2 * 10**6)]
    assert got == [1, 1, 2, 2]  # log-like growth under exponential decay


def test_dimension_cap():
    assert dimension_cap(WeightSequence.sobolev(1.0), 100) == 10  # j**2 <= 100
    assert dimension_cap(CONST, 5) == 5
    assert dimension_cap(WeightSequence.sobolev(1.0), 1) == 1


def test_cutoff_from_diagonal_examples():
    assert dimension_cutoff_from_diagonal(np.ones(5), 2, CONST) == 2
    assert dimension_cutoff_from_diagonal(np.ones(5), 1, CONST) == 1
    # a dead second entry stops the scan at 1
    assert dimension_cutoff_from_diagonal(np.array([1.0, 0.0, 1.0]), 100, CONST) == 1
    with pytest.raises(ValueError, match="sample size"):
        dimension_cutoff_from_diagonal(np.ones(3), 0, CONST)


def test_empirical_cutoff_zero_entry_sample():
    s = Sample(np.array([1.0, 1.0]), np.array([0.0, 0.5]), np.array([0.0, 0.0]))
    assert empirical_dimension_cutoff(s, CONST) == 1


def test_empirical_cutoff_block_scan_matches_reference():
    # the lazy block walk must agree with a full-vector scan
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(20, 500))
        u = rng.uniform(0.0, 1.0, n)
        w_pts = u if rng.uniform() < 0.5 else rng.uniform(0.0, 1.0, n)
        s = Sample(rng.normal(0.0, 1.0, n), u, w_pts)
        weights = ref.random_weights(rng, 600)
        if weights.kind == "custom":
            weights = CONST
        cap = dimension_cap(weights, n)
        tdiag, _ = empirical_diagonal(Sample(s.y, s.z, s.w), cap)
        assert empirical_dimension_cutoff(s, weights) == ref.bf_cutoff_from_diagonal(
            tdiag, n, weights
        )


@pytest.fixture
def evaluated(monkeypatch):
    """Diagonal entries evaluated by the moment code: two basis columns (w, z) each."""
    columns = []
    real = estimator.trig_columns

    def counting(points, indices):
        columns.append(len(indices))
        return real(points, indices)

    monkeypatch.setattr(estimator, "trig_columns", counting)
    return lambda: sum(columns) // 2


def _study_like_sample(n, seed):
    phi = make_structural(2.0, 1.0, truncation=30)
    return generate_sample(phi, make_operator("polynomial", 1.0, truncation=5), 0.3, n, seed)


def test_fixed_fit_after_selection_reuses_prefix(evaluated):
    s = _study_like_sample(2000, 3)
    penalized_select(s, CONST, 0.75)
    cached = evaluated()
    assert cached >= 8
    for k in range(1, cached + 1):
        before = evaluated()
        fit = diagonal_estimate(s, k)
        assert evaluated() == before
        assert_array_equal(fit.coeffs, diagonal_estimate(Sample(s.y, s.z, s.w), k).coeffs)
    before = evaluated()
    diagonal_estimate(s, cached + 3)
    assert evaluated() == before + 3


def test_cutoff_scan_evaluates_at_most_twice_what_it_needs(evaluated):
    # z close to w keeps many diagonal entries large, so the cutoffs range
    # from 1 to past several growth steps; derivative weights cap below 8
    rng = np.random.default_rng(8)
    for trial in range(16):
        n = int(rng.integers(20, 3000))
        u = rng.uniform(0.0, 1.0, n)
        noise = rng.uniform(0.0, 0.03) if trial // 4 % 2 else 1.0
        z = np.clip(u + rng.normal(0.0, noise, n), 0.0, 1.0)
        s = Sample(rng.normal(0.0, 1.0, n), z, u)
        weights = (
            CONST, WeightSequence.sobolev(0.5), WeightSequence.derivative(1), WeightSequence.derivative(2)
        )[trial % 4]
        before = evaluated()
        cutoff = empirical_dimension_cutoff(s, weights)
        scanned = evaluated() - before
        cap = dimension_cap(weights, n)
        assert min(cutoff + 1, cap) <= scanned <= min(max(8, 2 * (cutoff + 1)), cap)
        # exactly the first growth step that reaches index cutoff + 1
        step = 8
        while step < cutoff + 1:
            step *= 2
        assert scanned == min(step, cap)


def test_cutoff_scan_stops_at_the_step_holding_the_first_unstable_index(evaluated):
    # w = z keeps every t_j near 1; a risk weight of n from j = 8 on makes
    # index 8, the last entry of the first growth step, the first unstable one
    n = 300
    u = np.random.default_rng(4).uniform(0.0, 1.0, n)
    weights = WeightSequence.custom([1.0] * 7 + [float(n)] * (n - 7))
    assert empirical_dimension_cutoff(Sample(np.zeros(n), u, u), weights) == 7
    assert evaluated() == 8


def test_cutoff_walk_spanning_several_steps_matches_full_diagonal(evaluated):
    # w = z keeps the diagonal near 1 far past the first growth steps
    n = 300
    u = np.random.default_rng(2).uniform(0.0, 1.0, n)
    s = Sample(np.zeros(n), u, u)
    cutoff = empirical_dimension_cutoff(s, CONST)
    assert cutoff > 32
    assert evaluated() == 64
    full, _ = empirical_diagonal(Sample(s.y, s.z, s.w), dimension_cap(CONST, n))
    assert cutoff == dimension_cutoff_from_diagonal(full, n, CONST)


def test_cutoff_lower_examples():
    assert dimension_cutoff_lower(CONST, CONST, 1.0, 2) == 1
    # at n = 1e6 the stability inequality alone reaches j = 26, but the
    # admissible range caps the diagnostic at its own limit
    n = 10**6
    cap = dimension_cutoff(CONST, POLY1, 1.0, n)
    assert cap == 8
    assert dimension_cutoff_lower(CONST, POLY1, 1.0, n) == 8
    thr = 4.0 * math.log(n) / n
    lam = POLY1.values(100)
    uncapped = max(j for j in range(1, 101) if lam[j - 1] / j >= thr)
    assert uncapped == 26


# -- penalised selection --------------------------------------------------


def test_select_singleton():
    s = Sample(np.array([3.0]), np.array([0.4]), np.array([0.7]))
    trace = penalized_select(s, CONST)
    assert trace.cutoff == 1
    assert trace.k_selected == 1
    assert_array_equal(trace.estimate.coeffs, [3.0])
    assert not trace.estimate.thresholded


def test_select_zero_response():
    u = np.linspace(0.0, 1.0, 50)
    s = Sample(np.zeros(50), u, u)
    trace = penalized_select(s, CONST)
    assert trace.k_selected == 1
    assert trace.y_second_moment == 0.0
    assert_array_equal(trace.criterion, np.zeros(trace.cutoff))
    assert_array_equal(trace.estimate.coeffs, np.zeros(1))


def test_select_rejects_bad_constant():
    s = Sample(np.array([1.0]), np.array([0.4]), np.array([0.7]))
    with pytest.raises(ValueError, match="penalty constant"):
        penalized_select(s, CONST, 0.0)


def test_select_trace_rebuilds_bitwise():
    rng = np.random.default_rng(2)
    weights = [CONST, WeightSequence.derivative(1.0), WeightSequence.sobolev(0.8)]
    consts = [540.0, 0.75, 3.0]
    for i in range(9):
        n = int(rng.integers(40, 300))
        u = rng.uniform(0.0, 1.0, n)
        w_pts = u if i % 2 else rng.uniform(0.0, 1.0, n)
        s = Sample(rng.normal(0.5, 1.0, n), u, w_pts)
        w, c = weights[i % 3], consts[i % 3]
        trace = penalized_select(s, w, c)
        cutoff, contrast, penalty, criterion, k_sel = ref.rebuild_trace(s, w, c)
        assert trace.cutoff == cutoff
        assert trace.k_selected == k_sel
        assert [float(v) for v in trace.contrast] == contrast
        assert [float(v) for v in trace.penalty] == penalty
        assert [float(v) for v in trace.criterion] == criterion


def test_select_minimum_invariants():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(60, 400))
        u = rng.uniform(0.0, 1.0, n)
        s = Sample(rng.normal(0.5, 1.0, n), u, u)
        trace = penalized_select(s, CONST, 1.5)
        k = trace.k_selected
        assert 1 <= k <= trace.cutoff
        assert trace.criterion[k - 1] == trace.criterion.min()
        # ties resolve to the smallest dimension
        assert np.all(trace.criterion[: k - 1] > trace.criterion[k - 1])
        assert trace.estimate.k == k


def test_select_scale_invariance():
    rng = np.random.default_rng(4)
    n = 150
    u = rng.uniform(0.0, 1.0, n)
    y = rng.normal(0.5, 1.0, n)
    s = Sample(y, u, u)
    base = penalized_select(s, CONST, 2.0)
    for c, exact_factor in ((4.0, 16.0), (-2.0, 4.0), (0.125, 0.015625), (3.7, None)):
        scaled = penalized_select(Sample(c * y, u, u), CONST, 2.0)
        assert scaled.k_selected == base.k_selected
        assert scaled.cutoff == base.cutoff
        if exact_factor is not None:
            # powers of two rescale the whole criterion exactly
            assert_array_equal(scaled.criterion, exact_factor * base.criterion)


# -- oracle and diagnostics -----------------------------------------------


def test_oracle_examples():
    sob2 = WeightSequence.sobolev(2.0)
    assert oracle_dimension(CONST, sob2, POLY1, 1000, 200) == (3, 0.014)
    assert oracle_dimension(CONST, CONST, CONST, 1, 5) == (1, 1.0)
    # k = 1 and k = 2 tie at objective 1 for n = 2; smallest wins
    assert oracle_dimension(CONST, CONST, CONST, 2, 5) == (1, 1.0)
    with pytest.raises(ValueError, match="sample size"):
        oracle_dimension(CONST, CONST, CONST, 0, 5)
    with pytest.raises(ValueError, match="k_max"):
        oracle_dimension(CONST, CONST, CONST, 5, 0)


def test_oracle_growth_with_sample_size():
    sob2 = WeightSequence.sobolev(2.0)
    got = [oracle_dimension(CONST, sob2, POLY1, n, 200) for n in (10**3, 10**4, 10**5, 10**6)]
    ks = [k for k, _ in got]
    rates = [r for _, r in got]
    assert ks == [3, 4, 6, 8]  # close to n**(1/7): 2.7, 3.7, 5.2, 7.2
    assert rates == [0.014, 0.00390625, 0.00091, 0.000244140625]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_randomized_exact_equality():
    # every selection-support quantity against the straight-line references
    rng = np.random.default_rng(5)
    bad = []
    for _ in range(60):
        bad.extend(ref.check_instance(rng))
    assert bad == []


def test_mean_squared_response():
    pts = np.array([0.5, 0.5])
    assert mean_squared_response(Sample(np.array([1.0, -1.0]), pts, pts)) == 1.0
    assert mean_squared_response(Sample(np.zeros(2), pts, pts)) == 0.0
    pts3 = np.array([0.1, 0.2, 0.3])
    assert mean_squared_response(Sample(np.array([1.0, 2.0, 3.0]), pts3, pts3)) == 14.0 / 3.0

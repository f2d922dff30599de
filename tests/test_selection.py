"""Tests for effective dimensions, dimension cutoffs and penalised selection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from npiv import estimator, selection
from npiv.basis import WeightSequence
from npiv.estimator import Sample, diagonal_estimate, empirical_diagonal
from npiv.selection import (
    BlockSelection,
    SelectionTrace,
    dimension_cap,
    dimension_cutoffs,
    effective_dimension,
    empirical_dimension_cutoff,
    oracle_dimension,
    penalized_select,
    select_block,
)
from npiv.simulate import generate_sample, generate_samples, make_operator, make_structural, sample_joint

import _reference as ref

CONST = WeightSequence.constant()
POLY1 = WeightSequence.polynomial_decay(1.0)


# -- penalty sequences ----------------------------------------------------


def test_penalty_hand_values():
    eff = effective_dimension(CONST, POLY1, 3)
    assert eff[0] == 1.0
    assert eff[1] == 8.0  # 2 * 4 * ln(4)/ln(4)
    # 3 * 9 * ln(9)/ln(5)
    assert eff[2] == 36.86073450224321
    assert eff[2] == pytest.approx(27.0 * math.log(9.0) / math.log(5.0), rel=1e-14)
    # the amplifications behind them, and the same delta from the reference loop
    assert ref.bf_penalty_sequences(CONST, POLY1, 3) == ([1.0, 4.0, 9.0], [1.0, 4.0, 9.0], list(eff))


def test_penalty_floor_differs_for_small_weights():
    # risk weights below 1 are floored inside the log but not outside
    assert_array_equal(effective_dimension(POLY1, CONST, 2), [1.0, 2.0])
    assert ref.bf_penalty_sequences(POLY1, CONST, 2) == ([1.0, 1.0], [1.0, 1.0], [1.0, 2.0])


def test_penalty_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rw = ref.random_weights(rng, 40)
        ow = ref.random_weights(rng, 40)
        eff = effective_dimension(rw, ow, 30)
        ampl = np.array(ref.bf_penalty_sequences(rw, ow, 30)[0])
        # nondecreasing, so the cutoff walk may stop at the first delta_k > n
        assert np.all(eff[1:] >= eff[:-1])
        finite = np.isfinite(eff)
        k = np.arange(1, 31)[finite]
        # the log factor is at least 1, so delta_k >= k * Delta_k
        assert np.all(eff[finite] >= k * ampl[finite] * (1.0 - 1e-12))


def test_penalty_validation():
    with pytest.raises(ValueError, match="k_max"):
        effective_dimension(CONST, POLY1, 0)


def test_empirical_amplification_consistency_monte_carlo():
    op = ref.custom_operator((1.0, 0.4))
    z, w = sample_joint(op, 100000, 11)
    s = Sample(np.ones(z.size), z, w)
    tdiag, _ = empirical_diagonal(s, 2)
    # sd of psi_2(W) psi_2(Z) is sqrt(1 - t_2^2); three standard errors
    assert abs(tdiag[1] - 0.4) < 3.0 * math.sqrt(1.0 - 0.16) / math.sqrt(z.size)
    # delta_2 = 2 * Delta_2 * log(max(Delta_2, 4)) / log(4), Delta_2 = max(1, 1 / t_2**2)
    ampl = max(1.0, 1.0 / (tdiag[1] * tdiag[1]))
    eff = effective_dimension(CONST, WeightSequence.custom(tdiag * tdiag), 2)
    assert eff[1] == 2.0 * ampl * np.log(max(ampl, 4.0)) / np.log(4.0)


# -- dimension cutoffs ----------------------------------------------------


def test_dimension_cutoff_examples():
    assert dimension_cutoffs(CONST, CONST, 1.0, 100)[0] == 100
    assert dimension_cutoffs(CONST, CONST, 1.0, 1)[0] == 1
    with pytest.raises(ValueError, match="sample size"):
        dimension_cutoffs(CONST, CONST, 1.0, 0)
    with pytest.raises(ValueError, match="link constant"):
        dimension_cutoffs(CONST, CONST, 0.0, 10)
    # a custom table bounds the search
    assert dimension_cutoffs(CONST, WeightSequence.custom([1.0, 0.5, 0.3]), 1.0, 100)[0] == 3
    assert dimension_cutoffs(WeightSequence.custom([1.0] * 5), CONST, 1.0, 100)[0] == 5


def test_dimension_cutoff_polynomial_values():
    # the exponential smallness condition is vacuous until n is past the
    # (2016 d)**7 crossover, so the cutoff dips before growing like n**(1/3)
    got = {n: dimension_cutoffs(CONST, POLY1, 1.0, n)[0] for n in (10**3, 10**4, 10**5, 10**6)}
    assert got == {10**3: 8, 10**4: 1, 10**5: 3, 10**6: 8}


def test_dimension_cutoff_monotone_past_crossover():
    grid = (20000, 50000, 100000, 1000000)
    vals = [dimension_cutoffs(CONST, POLY1, 1.0, n)[0] for n in grid]
    assert vals == sorted(vals)


def test_dimension_cutoff_exponential_values():
    expw = WeightSequence.exponential_decay(1.0)
    got = [dimension_cutoffs(CONST, expw, 1.0, n)[0] for n in (10**5, 3 * 10**5, 10**6, 2 * 10**6)]
    assert got == [1, 1, 2, 2]  # log-like growth under exponential decay


def test_dimension_cap():
    assert dimension_cap(WeightSequence.sobolev(1.0), 100) == 10  # j**2 <= 100
    assert dimension_cap(CONST, 5) == 5
    assert dimension_cap(WeightSequence.sobolev(1.0), 1) == 1
    # a custom table covers only its own length
    assert dimension_cap(WeightSequence.custom([1.0, 2.0, 3.0]), 200) == 3
    assert dimension_cap(WeightSequence.custom([1.0, 2.0, 3.0]), 2) == 2
    assert dimension_cap(WeightSequence.custom([1.0, 500.0, 1.0]), 200) == 1


_CAP_WEIGHTS = [
    CONST,
    WeightSequence.sobolev(0.0),
    WeightSequence.polynomial_decay(0.5),
    WeightSequence.polynomial_decay(3.0),
    WeightSequence.exponential_decay(0.5),
    WeightSequence.exponential_decay(2.0),
    WeightSequence.derivative(1),
    WeightSequence.sobolev(0.3),
    WeightSequence.sobolev(2.5),
    # custom tables shorter and longer than most n below, one of them decaying
    WeightSequence.custom([1.0, 2.0, 3.0]),
    WeightSequence.custom([0.5, 0.25, 0.125, 0.0625]),
    WeightSequence.custom(np.linspace(1.0, 4e6, 20000)),
    WeightSequence.custom(np.full(20000, 0.5)),
]


@pytest.mark.parametrize("n", [1, 2, 100, 16000])
@pytest.mark.parametrize("weights", _CAP_WEIGHTS)
def test_dimension_cap_matches_reference(weights, n):
    assert dimension_cap(weights, n) == ref.bf_dimension_cap(weights, n)


_GROWING = [WeightSequence.sobolev(p) for p in (0.25, 0.5, 1.0, 2.0, 5.0, 200.0)] + [
    WeightSequence.custom([1.0, 2.0, 3.0]),
    WeightSequence.custom([1.0, 500.0, 1.0]),
    WeightSequence.custom(np.linspace(1.0, 4e6, 20000)),
    WeightSequence.custom([2.0, 0.5] * 40),
]


@pytest.mark.parametrize("weights", _GROWING)
def test_dimension_cap_walk_equals_the_full_read(weights, monkeypatch):
    # the walk reads weights at k = 8, 16, 32, ... until one exceeds n, so it reads at
    # most max(8, 2 * (cap + 1)) of them, and finds the cap of reading all n
    reads = []
    real_values = WeightSequence.values
    monkeypatch.setattr(WeightSequence, "values", lambda self, k: reads.append(k) or real_values(self, k))
    for n in [*range(1, 70), 100, 1000, 12345, 10**6]:
        reads.clear()
        cap = dimension_cap(weights, n)
        assert max(reads) <= max(8, 2 * (cap + 1))
        assert cap == ref.full_read_dimension_cap(weights, n)


def test_dimension_cap_of_derivative_weights_reads_past_its_cap_only_to_the_next_power_of_two(monkeypatch):
    # j**2 <= 10**7 up to j = 3162, found by reading 4,096 weights instead of 10**7
    reads = []
    real_values = WeightSequence.values
    monkeypatch.setattr(WeightSequence, "values", lambda self, k: reads.append(k) or real_values(self, k))
    assert dimension_cap(WeightSequence.derivative(1), 10**7) == 3162
    assert max(reads) == 4096


@pytest.mark.parametrize("weights", _CAP_WEIGHTS[:6])
def test_dimension_cap_reads_no_weights_when_none_exceeds_one(weights, monkeypatch):
    # power weights with p <= 0 and exponential weights never exceed w_1 = 1 <= n
    def no_reads(self, k):
        raise AssertionError(f"read {k} weights")

    monkeypatch.setattr(WeightSequence, "values", no_reads)
    assert dimension_cap(weights, 10**7) == 10**7
    with pytest.raises(ValueError, match="sample size"):
        dimension_cap(weights, 0)


def test_cutoff_from_diagonal_examples():
    for cutoff in (ref.walk_cutoff_from_diagonal, ref.bf_cutoff_from_diagonal):
        assert cutoff(np.ones(5), 2, CONST) == 2
        assert cutoff(np.ones(5), 1, CONST) == 1
        # a dead second entry stops the scan at 1
        assert cutoff(np.array([1.0, 0.0, 1.0]), 100, CONST) == 1
        # an entry exactly on the threshold t_j**2 / j = log(n) / n passes
        on = 0.8023560088723958
        assert on * on / 2.0 == math.log(5) / 5
        assert cutoff(np.array([1.0, on, 0.0]), 5, CONST) == 2
    # the walk's limit, dimension_cap, validates the sample size
    with pytest.raises(ValueError, match="sample size"):
        dimension_cap(CONST, 0)


def test_empirical_cutoff_zero_entry_sample():
    s = Sample(np.array([1.0, 1.0]), np.array([0.0, 0.5]), np.array([0.0, 0.0]))
    assert empirical_dimension_cutoff(s, CONST, dimension_cap(CONST, s.n)) == 1


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
        assert empirical_dimension_cutoff(s, weights, cap) == ref.bf_cutoff_from_diagonal(
            tdiag, n, weights
        )


@pytest.fixture
def evaluated(monkeypatch):
    """Diagonal entries evaluated by the moment code: two basis columns (w, z) each."""
    columns = []
    real = estimator.trig_columns

    def counting(points, lo, hi):
        columns.append(hi - lo + 1)
        return real(points, lo, hi)

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
        cap = dimension_cap(weights, n)
        before = evaluated()
        cutoff = empirical_dimension_cutoff(s, weights, cap)
        scanned = evaluated() - before
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
    assert empirical_dimension_cutoff(Sample(np.zeros(n), u, u), weights, dimension_cap(weights, n)) == 7
    assert evaluated() == 8


def test_cutoff_walk_spanning_several_steps_matches_full_diagonal(evaluated):
    # w = z keeps the diagonal near 1 far past the first growth steps
    n = 300
    u = np.random.default_rng(2).uniform(0.0, 1.0, n)
    s = Sample(np.zeros(n), u, u)
    cutoff = empirical_dimension_cutoff(s, CONST, dimension_cap(CONST, n))
    assert cutoff > 32
    assert evaluated() == 64
    full, _ = empirical_diagonal(Sample(s.y, s.z, s.w), dimension_cap(CONST, n))
    assert cutoff == ref.bf_cutoff_from_diagonal(full, n, CONST)


_RISK = (
    CONST,
    WeightSequence.sobolev(0.5),
    WeightSequence.derivative(1),
    WeightSequence.derivative(2),
    WeightSequence.custom(np.linspace(1.0, 40.0, 40)),
)
_OPERATOR = (
    POLY1,
    WeightSequence.polynomial_decay(0.3),
    WeightSequence.exponential_decay(0.5),
    WeightSequence.exponential_decay(1.0),
    CONST,
    WeightSequence.sobolev(1.0),
    WeightSequence.custom([1.0, 0.5, 0.3]),
)


def test_known_cutoff_walk_matches_full_scans():
    # constant and growing operator weights walk to n itself, decaying ones stop early
    grid = (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 1000, 5000, 10**5)
    for rw in _RISK:
        for ow in _OPERATOR:
            for i, n in enumerate(grid):
                link = (0.5, 1.0, 4.0)[i % 3]
                got = dimension_cutoffs(rw, ow, link, n)
                assert got == ref.scan_cutoffs(rw, ow, link, n), (rw, ow, n)
    for rw, ow in zip(_RISK[:4] * 2, _OPERATOR[:6] + _OPERATOR[:2]):
        n = 2 * 10**6
        got = dimension_cutoffs(rw, ow, 1.0, n)
        assert got == ref.scan_cutoffs(rw, ow, 1.0, n), (rw, ow)


def test_known_cutoff_walk_with_the_effective_dimension_bound_on_a_walk_step():
    # n is picked so that delta_N <= n holds exactly up to an N just before, on or
    # just past the walk's reads at k = 8, 16 and 32
    checked = 0
    for rw in _RISK[:4]:
        for ow in _OPERATOR[:6]:
            eff = effective_dimension(rw, ow, 34)
            for end in (7, 8, 9, 15, 16, 17, 31, 32, 33):
                if not np.isfinite(eff[end]):
                    continue
                for n in {math.ceil(eff[end - 1]), math.ceil(eff[end]) - 1}:
                    if not (eff[end - 1] / n <= 1.0 < eff[end] / n and n <= 10**6):
                        continue
                    got = dimension_cutoffs(rw, ow, 1.0, n)
                    assert got == ref.scan_cutoffs(rw, ow, 1.0, n), (rw, ow, n)
                    checked += 1
    assert checked >= 50


def test_known_cutoffs_cost_follows_the_answer():
    # an n-long scan at n = 2e7 holds several 160 MB arrays; the walk reads a few dozen entries
    for ow in (POLY1, WeightSequence.exponential_decay(1.0)):
        tracemalloc.start()
        try:
            dimension_cutoffs(CONST, ow, 1.0, 2 * 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_cutoff_lower_examples():
    assert dimension_cutoffs(CONST, CONST, 1.0, 2)[1] == 1
    # at n = 1e6 the stability inequality alone reaches j = 26, but the
    # admissible range caps the diagnostic at its own limit
    n = 10**6
    assert dimension_cutoffs(CONST, POLY1, 1.0, n) == (8, 8)
    thr = 4.0 * math.log(n) / n
    lam = POLY1.values(100)
    uncapped = max(j for j in range(1, 101) if lam[j - 1] / j >= thr)
    assert uncapped == 26


# -- penalised selection --------------------------------------------------


def test_select_singleton():
    s = Sample(np.array([3.0]), np.array([0.4]), np.array([0.7]))
    trace = penalized_select(s, CONST, 540.0)
    assert trace.cutoff == 1
    assert trace.k_selected == 1
    assert_array_equal(trace.estimate.coeffs, [3.0])
    assert not trace.estimate.thresholded


def test_select_zero_response():
    u = np.linspace(0.0, 1.0, 50)
    s = Sample(np.zeros(50), u, u)
    trace = penalized_select(s, CONST, 540.0)
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


_BLOCK_OPERATORS = [("polynomial", 1.0, 5), ("polynomial", 2.0, 64), ("exponential", 0.5, 8),
                    ("exponential", 1.0, 64)]
_BLOCK_WEIGHTS = [CONST, WeightSequence.derivative(1), WeightSequence.sobolev(2.0),
                  WeightSequence.custom([1.0, 3.0, 2.0, 9.0])]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(2, 400),
    st.integers(0, 2**32 - 7),
    st.sampled_from(_BLOCK_OPERATORS),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from(_BLOCK_WEIGHTS),
    st.sampled_from([0.3, 0.75, 540.0]),
    st.booleans(),
)
# row 0's cutoff is dimension_cap(CONST, 2) = 2 and the others stop at 1
@example(4, 2, 0, ("polynomial", 1.0, 5), 0.3, CONST, 0.75, True)
# cutoffs 2, 1, 1, 2, 1 and 3 in one block, from its shared store or from six of their own
@example(6, 400, 2, ("polynomial", 1.0, 5), 0.3, CONST, 0.75, True)
@example(6, 400, 2, ("polynomial", 1.0, 5), 0.3, CONST, 0.75, False)
def test_select_block_rows_equal_lone_selections(rows, n, seed, operator, sigma, weights, const, shared):
    drawn = generate_samples(_PHI, make_operator(*operator), sigma, n, range(seed, seed + rows))
    samples = drawn if shared else [Sample(s.y, s.z, s.w) for s in drawn]
    sel = select_block(samples, weights, const)
    assert sel.cutoff.shape == sel.k_selected.shape == (rows,)
    for r, s in enumerate(drawn):
        alone = Sample(s.y, s.z, s.w)
        lone = penalized_select(alone, weights, const)
        cut, k = int(sel.cutoff[r]), int(sel.k_selected[r])
        assert (cut, k) == (lone.cutoff, lone.k_selected)
        assert sel.y_second_moment[r] == lone.y_second_moment
        for name in ("contrast", "penalty", "effective_dim", "criterion"):
            assert_array_equal(getattr(sel, name)[r, :cut], getattr(lone, name), err_msg=name)
        assert_array_equal(sel.coeffs[r, :k], lone.estimate.coeffs)
        # and against the selection rebuilt from public pieces, argmin by hand
        cutoff, contrast, penalty, criterion, k_sel = ref.rebuild_trace(alone, weights, const)
        assert (cut, k) == (cutoff, k_sel)
        assert [float(v) for v in sel.contrast[r, :cut]] == contrast
        assert [float(v) for v in sel.penalty[r, :cut]] == penalty
        assert [float(v) for v in sel.criterion[r, :cut]] == criterion


def test_a_selection_trace_is_row_0_of_its_block():
    # the trace declares no field of its own, and each equals the block's row 0 bit for bit
    assert SelectionTrace._fields == BlockSelection._fields
    op = make_operator("polynomial", 1.0, 5)
    for n, weights, const in ((2, CONST, 0.75), (400, WeightSequence.derivative(1), 0.75), (400, CONST, 540.0)):
        s = generate_sample(_PHI, op, 0.3, n, 2)
        trace = penalized_select(s, weights, const)
        block = select_block([Sample(s.y, s.z, s.w)], weights, const)
        for name, mine, rows in zip(SelectionTrace._fields, trace, block):
            assert (mine.dtype, mine.shape, mine.tobytes()) == (rows.dtype, rows[0].shape, rows[0].tobytes()), name
        assert trace.estimate.coeffs.tobytes() == trace.coeffs[: trace.k_selected].tobytes()
        assert not trace.estimate.thresholded


def test_select_block_examples_reach_the_cap_and_mix_cutoffs():
    op = make_operator("polynomial", 1.0, 5)
    at_cap = select_block(generate_samples(_PHI, op, 0.3, 2, range(4)), CONST, 0.75)
    assert at_cap.cutoff.tolist() == [2, 1, 1, 1] and dimension_cap(CONST, 2) == 2
    mixed = select_block(generate_samples(_PHI, op, 0.3, 400, range(2, 8)), CONST, 0.75)
    assert mixed.cutoff.tolist() == [2, 1, 1, 2, 1, 3]
    # a row past its own cutoff is padding that no minimum can land on
    assert np.isinf(mixed.criterion[1, 1:]).all()


def test_select_block_pads_rows_whose_diagonal_vanishes():
    # at w = z = 0 every sine entry is exactly 0 and y = 0, so the first row's padding
    # past its cutoff of 2 holds 0 / 0 and 0 * inf; none of it may warn or reach a row
    n = 40
    u = np.linspace(0.0, 1.0, n)
    flat = Sample(np.zeros(n), np.zeros(n), np.zeros(n))
    samples = [flat, Sample(np.cos(3.0 * u), u, u)]
    sel = select_block(samples, CONST, 0.75)
    assert sel.cutoff[0] == 2 < sel.cutoff[1]
    assert empirical_diagonal(flat, 3)[0][2] == 0.0
    for r, s in enumerate(samples):
        lone = penalized_select(Sample(s.y, s.z, s.w), CONST, 0.75)
        assert (sel.cutoff[r], sel.k_selected[r]) == (lone.cutoff, lone.k_selected)
        assert_array_equal(sel.criterion[r, : lone.cutoff], lone.criterion)


def test_select_block_rejects_mixed_sizes():
    op = make_operator("polynomial", 1.0, 5)
    samples = [generate_sample(_PHI, op, 0.3, n, 0) for n in (50, 60)]
    with pytest.raises(ValueError, match="one size"):
        select_block(samples, CONST, 0.75)


def test_select_block_reads_the_cap_once(monkeypatch):
    # the samples share n, so one dimension_cap limits every row's cutoff walk
    calls = []
    monkeypatch.setattr(selection, "dimension_cap", lambda w, n: calls.append(n) or dimension_cap(w, n))
    samples = generate_samples(_PHI, make_operator("polynomial", 1.0, 5), 0.3, 200, range(6))
    sel = select_block(samples, WeightSequence.derivative(1), 0.75)
    assert calls == [200]
    assert sel.cutoff.size == 6


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


_WEIGHTS = st.sampled_from([CONST, WeightSequence.derivative(1), WeightSequence.sobolev(0.8)])


def _drawn_sample(n, seed, strength, scale=1.0):
    """y = scale * N(0.5, 1); w equals z on a share ``strength`` of the rows."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    w = np.where(rng.uniform(0.0, 1.0, n) < strength, u, rng.uniform(0.0, 1.0, n))
    return Sample(scale * rng.normal(0.5, 1.0, n), u, w)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 1.0),
    st.integers(-30, 30),
    _WEIGHTS,
    st.sampled_from([0.3, 2.0, 540.0]),
)
def test_k_selected_invariant_under_power_of_two_scaling(n, seed, strength, exponent, weights, const):
    # y -> c*y with c a power of two scales the criterion by c**2 exactly, so no tie can move
    s = _drawn_sample(n, seed, strength)
    base = penalized_select(s, weights, const)
    c = 2.0**exponent
    scaled = penalized_select(Sample(c * s.y, s.z, s.w), weights, const)
    assert scaled.k_selected == base.k_selected
    assert_array_equal(scaled.criterion, c * c * base.criterion)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.integers(100, 600),
    st.integers(0, 2**32 - 1),
    st.floats(0.8, 1.0),
    st.sampled_from([0.0, 1e-170, -(2.0**-600)]),
    st.sampled_from([CONST, WeightSequence.sobolev(0.8)]),
    st.sampled_from([0.3, 2.0, 540.0]),
)
def test_exact_tie_resolves_to_smallest_k(n, seed, strength, scale, weights, const):
    # Within the cutoff every k passes the threshold and the penalty rises with k
    # unless y**2 vanishes, so a zero or underflowing response is the tie every
    # sample admits: the whole criterion is 0 and the first dimension wins.
    s = _drawn_sample(n, seed, strength, scale)
    trace = penalized_select(s, weights, const)
    assert trace.cutoff >= 2
    assert_array_equal(trace.criterion, np.zeros(trace.cutoff))
    assert trace.k_selected == 1
    assert trace.estimate.k == 1
    assert_array_equal(trace.estimate.coeffs, s.y.mean())


_PHI = make_structural(2.0, 1.0, truncation=30)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 4000),
    st.integers(0, 2**32 - 1),
    st.sampled_from([("polynomial", 0.5), ("polynomial", 2.0), ("exponential", 0.5), ("exponential", 1.0)]),
    st.sampled_from([CONST, WeightSequence.derivative(1), WeightSequence.sobolev(2.0)]),
)
@example(1, 0, ("polynomial", 1.0), CONST)
@example(2, 1, ("exponential", 1.0), WeightSequence.derivative(1))
@example(3, 2, ("polynomial", 2.0), WeightSequence.sobolev(2.0))
# w_1 = 5 > 1: index 1 fails the cutoff's test at n = 10 (1/5 < log(10)/10) and the
# cutoff is 1 anyway; each custom table here is also shorter than n
@example(10, 3, ("polynomial", 1.0), WeightSequence.custom([5.0, 1.0, 1000.0]))
@example(2000, 4, ("exponential", 0.5), WeightSequence.custom([5.0, 1.0, 1000.0]))
@example(4000, 5, ("polynomial", 0.5), WeightSequence.custom([1.0, 1.0, 1.0]))
def test_every_dimension_within_the_cutoff_passes_the_threshold(n, seed, operator, weights):
    # t_1 = 1, and the cutoff admits j >= 2 only when t_j**2 >= 2 log(n) / n > 1/n,
    # which is why penalized_select fits the whole cutoff without a zero fallback
    s = generate_sample(_PHI, make_operator(*operator, truncation=64), 0.3, n, seed)
    cutoff = empirical_dimension_cutoff(s, weights, dimension_cap(weights, n))
    t = empirical_diagonal(s, cutoff)[0]
    assert np.min(t * t) >= 1.0 / n
    assert not penalized_select(s, weights, 0.75).estimate.thresholded


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


def test_oracle_searches_within_custom_tables():
    sob2 = WeightSequence.sobolev(2.0)
    short = WeightSequence.custom([1.0, 0.5, 0.3])
    assert oracle_dimension(CONST, sob2, short, 100, 200) == oracle_dimension(CONST, sob2, short, 100, 3)
    ones = WeightSequence.custom([1.0] * 20)
    assert oracle_dimension(ones, sob2, POLY1, 1000, 200) == oracle_dimension(CONST, sob2, POLY1, 1000, 200)
    assert oracle_dimension(CONST, ones, CONST, 1000, 200) == oracle_dimension(CONST, CONST, CONST, 1000, 20)


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
    # the penalty's plug-in second moment of y is the mean of y_i**2
    def y2(sample):
        return penalized_select(sample, CONST, 540.0).y_second_moment

    pts = np.array([0.5, 0.5])
    assert y2(Sample(np.array([1.0, -1.0]), pts, pts)) == 1.0
    assert y2(Sample(np.zeros(2), pts, pts)) == 0.0
    pts3 = np.array([0.1, 0.2, 0.3])
    assert y2(Sample(np.array([1.0, 2.0, 3.0]), pts3, pts3)) == 14.0 / 3.0

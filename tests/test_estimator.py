"""Tests for empirical moments, the thresholded solvers and derived risks."""

import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from npiv import estimator
from npiv.basis import SQRT2, WeightSequence, trig_design, weighted_norm_sq
from npiv.estimator import (
    GalerkinEstimate,
    Sample,
    derivative_coeffs,
    diagonal_estimate,
    diagonal_estimates,
    empirical_diagonal,
    empirical_moments,
    galerkin_estimate,
    load_csv,
    risks_weighted,
    write_csv,
)
from npiv.simulate import StructuralSpec, make_structural

from _reference import derivative_coeffs_loop, psi, read_sample_csv


def _random_sample(rng, n):
    return Sample(rng.normal(0.5, 1.0, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n))


# -- sample container -----------------------------------------------------


def test_sample_validation():
    with pytest.raises(ValueError, match="equal length"):
        Sample(np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="at least one row"):
        Sample(np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="non-finite"):
        Sample(np.array([1.0, math.inf]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match=r"z values must lie in \[0, 1\]"):
        Sample(np.zeros(2), np.array([0.5, 1.2]), np.zeros(2))
    with pytest.raises(ValueError, match=r"w values must lie in \[0, 1\]"):
        Sample(np.zeros(2), np.zeros(2), np.array([-0.01, 0.5]))
    for bad in ("z", "w"):  # NaN fails the check too
        cols = {"y": np.zeros(2), "z": np.zeros(2), "w": np.zeros(2), bad: np.array([0.5, math.nan])}
        with pytest.raises(ValueError, match=rf"^{bad} values must lie in \[0, 1\]$"):
            Sample(**cols)
    with pytest.raises(ValueError, match="one-dimensional"):
        Sample(np.zeros((2, 1)), np.zeros(2), np.zeros(2))
    s = Sample(np.array([1.0, 2.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert s.n == 2
    with pytest.raises(ValueError, match="read-only"):
        s.y[0] = 0.0


# -- empirical moments ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 500])
@pytest.mark.parametrize("k", [1, 2, 10])
def test_empirical_moments_are_the_design_products_bitwise(n, k):
    s = _random_sample(np.random.default_rng(n * k), n)
    pw, pz = trig_design(s.w, k), trig_design(s.z, k)
    for got, want in zip(empirical_moments(s, k), (pw.T @ pz / n, pw.T @ s.y / n)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_operator_matrix_constant_entry():
    rng = np.random.default_rng(0)
    s = _random_sample(rng, 37)
    assert_array_equal(empirical_moments(s, 1)[0], [[1.0]])


def test_operator_matrix_hand_values():
    # z = w = (0, 1/2): psi_2 takes values (sqrt2, -sqrt2), so the cross
    # terms cancel exactly and the (2, 2) entry averages two squares.
    pts = np.array([0.0, 0.5])
    s = Sample(np.array([1.0, 3.0]), pts, pts)
    mat = empirical_moments(s, 2)[0]
    assert mat[0, 0] == 1.0
    assert mat[0, 1] == 0.0
    assert mat[1, 0] == 0.0
    assert mat[1, 1] == pytest.approx(2.0, abs=1e-12)


def test_rhs_values():
    pts = np.array([0.0, 0.5])
    s = Sample(np.array([1.0, 3.0]), pts, pts)
    assert empirical_diagonal(s, 1)[1][0] == 2.0
    s2 = Sample(np.array([1.0, 2.0]), pts, pts)
    # (1*sqrt2 + 2*(-sqrt2)) / 2 is exact in floating point
    assert empirical_diagonal(s2, 2)[1][1] == -math.sqrt(2.0) / 2.0
    zero = Sample(np.zeros(2), pts, pts)
    assert_array_equal(empirical_diagonal(zero, 2)[1], np.zeros(2))


def test_empirical_diagonal_matches_matrix_and_rhs():
    rng = np.random.default_rng(1)
    s = _random_sample(rng, 50)
    tdiag, ghat = empirical_diagonal(s, 6)
    assert_allclose(tdiag, np.diag(empirical_moments(s, 6)[0]), rtol=1e-12, atol=1e-15)
    assert_allclose(ghat, trig_design(s.w, 6).T @ s.y / s.n, rtol=1e-12, atol=1e-15)


def test_empirical_diagonal_prefix_bitwise():
    # entry j must not depend on how many columns were requested; the
    # selection trace and nesting guarantees build on this.
    rng = np.random.default_rng(2)
    s = _random_sample(rng, 83)
    t8, g8 = empirical_diagonal(s, 8)
    for k in (1, 2, 5):
        tk, gk = empirical_diagonal(s, k)
        assert_array_equal(tk, t8[:k])
        assert_array_equal(gk, g8[:k])
    assert_array_equal(empirical_diagonal(s, 8)[0], t8)


def _block(samples):
    """Fresh copies of ``samples`` sharing one diagonal store, as generate_samples gives them."""
    block = [Sample(s.y, s.z, s.w) for s in samples]
    estimator._share_diagonal(block)
    return block


def test_diagonal_prefix_independent_of_growth_order():
    # every sample keeps one growing prefix; entries must not depend on the
    # steps it grew in, so fresh copies grown differently agree bit for bit
    rng = np.random.default_rng(3)
    s = _random_sample(rng, 1500)
    whole = empirical_diagonal(Sample(s.y, s.z, s.w), 40)
    for steps in ([40], [1, 2, 5, 40], [8, 16, 32, 40], [39, 40], [24, 40]):
        fresh = Sample(s.y, s.z, s.w)
        for k in steps:
            tk, gk = empirical_diagonal(fresh, k)
            assert_array_equal(tk, whole[0][:k])
            assert_array_equal(gk, whole[1][:k])
    # a block grows all its members when any one asks; whichever asks first,
    # and in whatever order the others follow, each equals its sample alone
    for n in (1, 3, 1500):
        alone = [_random_sample(rng, n) for _ in range(5)]
        wholes = [empirical_diagonal(Sample(a.y, a.z, a.w), 37) for a in alone]
        for first in range(len(alone)):
            block = _block(alone)
            for k in (1, 8, 16, 37):
                for r in [first] + [r for r in rng.permutation(len(block)) if r != first]:
                    tk, gk = empirical_diagonal(block[r], k)
                    assert_array_equal(tk, wholes[r][0][:k])
                    assert_array_equal(gk, wholes[r][1][:k])


def test_empirical_diagonal_returns_copies():
    s = _random_sample(np.random.default_rng(6), 30)
    t, g = empirical_diagonal(s, 4)
    t[:] = 0.0
    g[:] = 0.0
    fresh = empirical_diagonal(Sample(s.y, s.z, s.w), 4)
    assert_array_equal(empirical_diagonal(s, 4)[0], fresh[0])
    assert_array_equal(empirical_diagonal(s, 4)[1], fresh[1])
    # the same holds for a member of a block, for itself and its neighbours
    rng = np.random.default_rng(7)
    alone = [_random_sample(rng, 30) for _ in range(3)]
    block = _block(alone)
    for r in range(3):
        t, g = empirical_diagonal(block[r], 4)
        t[:] = 0.0
        g[:] = 0.0
    for b, a in zip(block, alone):
        assert_array_equal(empirical_diagonal(b, 4)[0], empirical_diagonal(a, 4)[0])
        assert_array_equal(empirical_diagonal(b, 4)[1], empirical_diagonal(a, 4)[1])


# n around the pairwise-summation blocks (128 values) and the fill groups (2**13 points)
_BLOCK_NS = (1, 2, 3, 5, 100, 127, 128, 129, 1023, 1024, 1025, 2000, 4000, 8191, 8192, 8193, 16000)


@pytest.mark.parametrize(
    "n, fill_points", [(n, None) for n in _BLOCK_NS] + [(n, 7) for n in _BLOCK_NS if n <= 1025]
)
def test_block_diagonal_matches_each_row_alone(n, fill_points, monkeypatch):
    # each row of a block store, grown over the ranges 1-3, 1-8, 9-16 and 17-32,
    # equals bit for bit its sample's one-row store and the plain column means;
    # stores with R * n > _FILL_POINTS split over several fill groups (at the
    # default from n = 2000 on; a limit of 7 points splits the small n too)
    if fill_points is not None:
        monkeypatch.setattr(estimator, "_FILL_POINTS", fill_points)
    rng = np.random.default_rng(n)
    for rows in (1, 2, 3, 7):
        alone = [_random_sample(rng, n) for _ in range(rows)]
        for steps in ([3], [8], [8, 16], [16, 32]):
            block = _block(alone)
            for k in steps:
                empirical_diagonal(block[-1], k)
            k = steps[-1]
            for b, a in zip(block, alone):
                pw, pz = trig_design(a.w, k), trig_design(a.z, k)
                for mine, own, plain in zip(
                    empirical_diagonal(b, k),
                    empirical_diagonal(Sample(a.y, a.z, a.w), k),
                    ((pw * pz).mean(axis=0), (pw * a.y[:, None]).mean(axis=0)),
                ):
                    assert_array_equal(mine, own)
                    assert_array_equal(mine, plain)


def test_block_fills_in_bounded_groups(monkeypatch):
    # one trig_columns call per variable and group of at most _FILL_POINTS points
    # (or one row), and only the missing columns; later members reuse the fill
    calls = []
    real = estimator.trig_columns

    def counting(points, lo, hi):
        calls.append((points.size, lo, hi))
        return real(points, lo, hi)

    monkeypatch.setattr(estimator, "trig_columns", counting)
    rng = np.random.default_rng(9)
    for n, rows, sizes in ((400, 40, [8000, 8000]), (3000, 5, [6000, 6000, 3000]), (9000, 2, [9000, 9000])):
        block = _block([_random_sample(rng, n) for _ in range(rows)])
        calls.clear()
        for b in block:
            empirical_diagonal(b, 8)
        assert calls == [(size, 1, 8) for size in sizes for _ in "wz"]
        calls.clear()
        empirical_diagonal(block[0], 5)
        empirical_diagonal(block[1], 11)
        assert calls == [(size, 9, 11) for size in sizes for _ in "wz"]


def test_diagonal_range_validation():
    s = _random_sample(np.random.default_rng(7), 30)
    with pytest.raises(ValueError, match="width must be >= 1"):
        empirical_diagonal(s, 0)


# -- solvers --------------------------------------------------------------


def test_galerkin_matches_closed_form_2x2():
    pts = np.array([0.0, 0.25, 0.5, 0.75])
    y = trig_design(pts, 2)[:, 1]  # exact second basis function as response
    s = Sample(y, pts, pts)
    fit = galerkin_estimate(s, 2)
    assert not fit.thresholded
    mat = empirical_moments(s, 2)[0]
    g = empirical_diagonal(s, 2)[1]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    ref = [
        (g[0] * mat[1, 1] - mat[0, 1] * g[1]) / det,
        (mat[0, 0] * g[1] - mat[1, 0] * g[0]) / det,
    ]
    assert_allclose(fit.coeffs, ref, rtol=1e-12, atol=1e-14)
    assert_allclose(fit.coeffs, [0.0, 1.0], atol=1e-12)


def test_galerkin_builds_one_instrument_design(monkeypatch):
    # the operator matrix and the moment vector share one n x k instrument design
    rng = np.random.default_rng(8)
    u = rng.uniform(0.0, 1.0, 64)
    s = Sample(rng.normal(0.5, 1.0, 64), u, u)
    shapes = []

    def counted(points, k):
        design = trig_design(points, k)
        shapes.append(design.shape)
        return design

    monkeypatch.setattr(estimator, "trig_design", counted)
    fit = galerkin_estimate(s, 5)
    assert shapes == [(64, 5), (64, 5)]
    assert not fit.thresholded
    pw, pz = trig_design(s.w, 5), trig_design(s.z, 5)
    assert_array_equal(fit.coeffs, np.linalg.solve(pw.T @ pz / s.n, pw.T @ s.y / s.n))


def test_every_constructor_gives_k_as_the_coefficient_count():
    from npiv.selection import penalized_select

    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 1.0, 200)
    s = Sample(rng.normal(0.5, 1.0, 200), u, u)
    trace = penalized_select(s, WeightSequence.constant(), 0.75)
    lone = Sample(np.array([2.0]), np.array([0.3]), np.array([0.6]))
    fits = [galerkin_estimate(s, 5), galerkin_estimate(lone, 3), diagonal_estimate(s, 4), trace.estimate]
    assert [fit.thresholded for fit in fits] == [False, True, False, False]
    assert [fit.k for fit in fits] == [fit.coeffs.size for fit in fits] == [5, 3, 4, trace.k_selected]


def test_galerkin_singular_falls_back_to_zero():
    s = Sample(np.array([2.0]), np.array([0.3]), np.array([0.6]))
    fit = galerkin_estimate(s, 3)
    assert fit.thresholded
    assert_array_equal(fit.coeffs, np.zeros(3))


def test_galerkin_norm_threshold_branch():
    # two support points with psi_2 = +-0.1 give the nonsingular matrix
    # diag(1, 0.01); its inverse norm 100 exceeds sqrt(n) for small n, so
    # the fit is zeroed even though the solve itself would go through.
    x1 = math.acos(0.1 / SQRT2) / (2.0 * math.pi)
    x2 = math.acos(-0.1 / SQRT2) / (2.0 * math.pi)
    for reps, expect_threshold in ((2, True), (20000, False)):
        pts = np.array([x1, x2] * reps)
        s = Sample(np.ones(2 * reps), pts, pts)
        sv = np.linalg.svd(empirical_moments(s, 2)[0], compute_uv=False)
        assert sv[-1] > np.finfo(float).eps * 2 * sv[0]  # not numerically singular
        assert galerkin_estimate(s, 2).thresholded == expect_threshold


def test_threshold_guards_differ_between_modes():
    # all mass on one point makes the matrix rank one (general mode zeroes
    # out) while the diagonal entries alone still look healthy.
    x = math.acos(math.sqrt(0.15)) / (2.0 * math.pi)
    pts = np.full(16, x)
    s = Sample(np.ones(16), pts, pts)
    assert galerkin_estimate(s, 2).thresholded
    assert not diagonal_estimate(s, 2).thresholded


def test_diagonal_hand_division():
    pts = np.array([0.0, 0.25, 0.5, 0.75])
    y = trig_design(pts, 2)[:, 1]
    s = Sample(y, pts, pts)
    fit = diagonal_estimate(s, 2)
    t2 = np.mean([psi(2, p) * psi(2, p) for p in pts])
    g2 = np.mean([yy * psi(2, p) for yy, p in zip(y, pts)])
    assert fit.coeffs[1] == pytest.approx(g2 / t2, rel=1e-12)
    assert fit.coeffs[1] == pytest.approx(1.0, abs=1e-12)


def test_diagonal_zero_entry_thresholds():
    # rows (z, w) = (0, 0) and (1/2, 0): the diagonal path sums
    # sqrt2 * (sqrt2, -sqrt2) to exactly zero, tripping the guard.
    s = Sample(np.array([1.0, 1.0]), np.array([0.0, 0.5]), np.array([0.0, 0.0]))
    tdiag, _ = empirical_diagonal(s, 2)
    assert tdiag[1] == 0.0
    fit = diagonal_estimate(s, 2)
    assert fit.thresholded
    assert_array_equal(fit.coeffs, np.zeros(2))


def test_diagonal_threshold_is_one_over_n():
    # w = z with one point at 0 (psi_2**2 = 2), one at 1/8 (1) or none, the rest at 1/4
    # (about 0): t_2 = 1/3 sits between 1/(2n) and 1/n at n = 6, t_2 = 1/2 between
    # 1/n and 2/n, so the guard min_j t_j**2 < 1/n is pinned from both sides
    below = np.array([0.0] + [0.25] * 5)
    above = np.array([0.0, 0.125] + [0.25] * 4)
    y = np.linspace(-1.0, 2.0, 6)
    samples = [Sample(y, pts, pts) for pts in (below, above)]
    t2 = [float(empirical_diagonal(s, 2)[0][1] ** 2) for s in samples]
    assert 0.5 / 6 < t2[0] < 1.0 / 6 < t2[1] < 2.0 / 6
    assert [diagonal_estimate(s, 2).thresholded for s in samples] == [True, False]
    coeffs, zero = diagonal_estimates(samples, 2)
    assert zero.tolist() == [True, False]
    assert_array_equal(coeffs[0], np.zeros(2))
    assert_array_equal(coeffs[1], diagonal_estimate(samples[1], 2).coeffs)


def test_risks_weighted_rows_equal_lone_risks():
    truth = np.array([1.0, -0.5, 0.25, 0.125])
    weights = WeightSequence.derivative(1)
    fits = [np.array([0.5]), np.array([1.0, -0.5, 0.25, 0.125, 3.0, -1.0]), np.array([2.0, 0.0, 1.0])]
    lone = [risks_weighted([c], truth, weights)[0] for c in fits]
    assert risks_weighted(fits, truth, weights).tolist() == lone
    assert lone[1] == weighted_norm_sq(np.array([0.0, 0.0, 0.0, 0.0, 3.0, -1.0]), weights.values(6)) == 261.0
    with pytest.raises(ValueError, match="one-dimensional"):
        risks_weighted(fits, truth[None, :], weights)


def test_modes_agree_on_exactly_diagonal_sample():
    pts = np.array([0.0, 0.5])
    s = Sample(np.array([1.0, 3.0]), pts, pts)
    gen = galerkin_estimate(s, 2)
    diag = diagonal_estimate(s, 2)
    assert not gen.thresholded and not diag.thresholded
    # the two modes sum the moments along different paths; agreement is to
    # rounding, not bitwise
    assert_allclose(gen.coeffs, diag.coeffs, rtol=1e-14, atol=1e-15)


def test_dimension_one_recovers_mean():
    rng = np.random.default_rng(3)
    s = _random_sample(rng, 61)
    diag = diagonal_estimate(s, 1)
    assert diag.coeffs[0] == np.mean(s.y)
    gen = galerkin_estimate(s, 1)
    assert gen.coeffs[0] == pytest.approx(np.mean(s.y), rel=1e-14)
    pts = np.array([0.0, 0.5])
    s2 = Sample(np.array([1.0, 3.0]), pts, pts)
    assert diagonal_estimate(s2, 1).coeffs[0] == 2.0
    assert galerkin_estimate(s2, 1).coeffs[0] == 2.0


def test_diagonal_nesting_exact():
    # w = z keeps every diagonal entry near 1, so no dimension thresholds
    # and the nesting property is observable
    rng = np.random.default_rng(4)
    for _ in range(6):
        u = rng.uniform(0.0, 1.0, 120)
        s = Sample(rng.normal(0.5, 1.0, 120), u, u)
        small = diagonal_estimate(s, 3)
        big = diagonal_estimate(s, 8)
        assert not small.thresholded and not big.thresholded
        assert_array_equal(small.coeffs, big.coeffs[:3])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.integers(1, 30),
    st.integers(1, 30),
)
def test_diagonal_estimate_nests(n, seed, strength, k1, gap):
    # a larger dimension only adds threshold conditions and never moves the
    # first k1 coefficients; w equals z on a share ``strength`` of the rows
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    w = np.where(rng.uniform(0.0, 1.0, n) < strength, u, rng.uniform(0.0, 1.0, n))
    s = Sample(rng.normal(0.5, 1.0, n), u, w)
    small = diagonal_estimate(s, k1)
    big = diagonal_estimate(Sample(s.y, s.z, s.w), k1 + gap)
    assert big.thresholded or not small.thresholded
    if not big.thresholded:
        assert_array_equal(big.coeffs[:k1], small.coeffs)


def test_linearity_in_response():
    rng = np.random.default_rng(5)
    s = _random_sample(rng, 70)
    s4 = Sample(4.0 * s.y, s.z, s.w)
    s3 = Sample(3.0 * s.y, s.z, s.w)
    assert_array_equal(empirical_diagonal(s4, 5)[1], 4.0 * empirical_diagonal(s, 5)[1])
    g, g4 = galerkin_estimate(s, 5), galerkin_estimate(s4, 5)
    d, d4 = diagonal_estimate(s, 5), diagonal_estimate(s4, 5)
    assert g4.thresholded == g.thresholded and d4.thresholded == d.thresholded
    # powers of two pass through every solver step exactly
    assert_array_equal(g4.coeffs, 4.0 * g.coeffs)
    assert_array_equal(d4.coeffs, 4.0 * d.coeffs)
    assert_allclose(galerkin_estimate(s3, 5).coeffs, 3.0 * g.coeffs, rtol=1e-12)


def test_dimension_validation():
    s = Sample(np.array([1.0]), np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError, match=">= 1"):
        galerkin_estimate(s, 0)
    with pytest.raises(ValueError, match=">= 1"):
        diagonal_estimate(s, 0)


# -- derivatives ----------------------------------------------------------


def test_derivative_kills_constant():
    assert_array_equal(derivative_coeffs(np.array([5.0]), 1), [0.0])
    assert_array_equal(derivative_coeffs(np.array([5.0]), 3), [0.0])


def test_derivative_cosine_example():
    # d/ds sqrt2 cos(2 pi s) = -2 pi sqrt2 sin(2 pi s): index 2 maps to
    # index 3 with factor -2 pi, exactly.
    out = derivative_coeffs(np.array([0.0, 0.37]), 1)
    assert_array_equal(out, [0.0, 0.0, -2.0 * math.pi * 0.37])
    assert out.size == 3  # padded to the full frequency pair


def test_derivative_against_phase_shift():
    # differentiating advances each frequency pair by a quarter period and
    # scales by (2 pi f)**s; compare function values against that form.
    from npiv.basis import evaluate_coeffs

    rng = np.random.default_rng(6)
    coeffs = rng.normal(0.0, 0.5, 7)
    pts = np.linspace(0.0, 1.0, 41)
    for s_ord in (1, 2, 3, 4, 5):
        got = evaluate_coeffs(derivative_coeffs(coeffs, s_ord), pts)
        ref = np.zeros_like(pts)
        shift = s_ord * math.pi / 2.0
        for f in (1, 2, 3):
            a, b = coeffs[2 * f - 1], coeffs[2 * f]
            scale = (2.0 * math.pi * f) ** s_ord
            ang = 2.0 * math.pi * f * pts
            ref += scale * SQRT2 * (a * np.cos(ang + shift) + b * np.sin(ang + shift))
        assert_allclose(got, ref, rtol=1e-10, atol=1e-8)


def test_derivative_against_finite_differences():
    from npiv.basis import evaluate_coeffs

    rng = np.random.default_rng(7)
    coeffs = rng.normal(0.0, 0.5, 7)
    pts = np.linspace(0.05, 0.95, 19)

    h = 1e-5
    d1 = evaluate_coeffs(derivative_coeffs(coeffs, 1), pts)
    fd1 = (evaluate_coeffs(coeffs, pts + h) - evaluate_coeffs(coeffs, pts - h)) / (2.0 * h)
    assert_allclose(d1, fd1, atol=5e-6)

    h = 1e-4
    d2 = evaluate_coeffs(derivative_coeffs(coeffs, 2), pts)
    fd2 = (
        evaluate_coeffs(coeffs, pts + h)
        - 2.0 * evaluate_coeffs(coeffs, pts)
        + evaluate_coeffs(coeffs, pts - h)
    ) / h**2
    assert_allclose(d2, fd2, atol=5e-4)


def test_derivative_matches_the_per_frequency_loop_bit_for_bit():
    # one quarter turn for all frequencies gives the bits of one turn per frequency,
    # signed zeros included: zero and negative-zero entries, and the zero padding
    rng = np.random.default_rng(9)
    for k in range(41):
        coeffs = rng.normal(0.0, 2.0, k)
        coeffs[rng.uniform(size=k) < 0.2] = 0.0
        coeffs[rng.uniform(size=k) < 0.2] = -0.0
        for s_ord in range(1, 12):
            got, want = derivative_coeffs(coeffs, s_ord), derivative_coeffs_loop(coeffs, s_ord)
            assert got.tobytes() == want.tobytes(), (k, s_ord)


def test_derivative_output_lengths():
    for k, k_out in ((1, 1), (2, 3), (5, 5), (6, 7)):
        assert derivative_coeffs(np.ones(k), 1).size == k_out
    for s_ord in (-1, 0, 1.5):
        with pytest.raises(ValueError, match="positive integer"):
            derivative_coeffs(np.ones(3), s_ord)


# -- risk -----------------------------------------------------------------


def _risk(fit, truth, weights):
    """The risk of one estimate: its one-row ``risks_weighted``."""
    return risks_weighted([fit.coeffs], truth, weights)[0]


def test_risk_weighted_examples():
    from npiv.estimator import GalerkinEstimate

    const = WeightSequence.constant()
    truth = np.array([1.0, 0.5, 0.25])
    fit = GalerkinEstimate(np.array([1.0, 0.0]), thresholded=False)
    # (1-1)^2 + (0-1/2)^2 + (1/4)^2 = 0.3125 exactly
    assert _risk(fit, truth, const) == 0.3125
    # the same sum when the estimate is the longer vector
    long_fit = GalerkinEstimate(np.array([1.0, 0.0, 0.25]), thresholded=False)
    assert _risk(long_fit, truth[:2], const) == 0.3125
    spec = StructuralSpec(coeffs=truth, smoothness=1.0, radius=3.0)
    assert _risk(fit, spec.coeffs, const) == 0.3125

    perfect = GalerkinEstimate(truth, thresholded=False)
    assert _risk(perfect, truth, const) == 0.0

    zero = GalerkinEstimate(np.zeros(3), thresholded=True)
    assert _risk(zero, truth, const) == weighted_norm_sq(truth, const.values(3))


def test_risk_weighted_sums_only_the_coefficients_it_has():
    # Zero padding past both vectors would add 0 * inf = NaN where the weights
    # overflow: the derivative:200 weight j**400 is inf from j = 6 on.
    from npiv.estimator import GalerkinEstimate

    weights = WeightSequence.derivative(200)
    with np.errstate(over="ignore"):
        assert np.isinf(weights.values(6)[-1])
    truth = np.array([1.0, 0.5, 0.25])
    fit = GalerkinEstimate(np.array([0.5, 0.0, 1.0]), thresholded=False)
    risk = _risk(fit, truth, weights)
    assert math.isfinite(risk)
    assert risk == float(np.dot(weights.values(3), (fit.coeffs - truth) ** 2))


def test_a_zero_difference_adds_nothing_whatever_its_weight():
    # derivative:150 weights j**300 are inf from j = 11 on, where fit and truth are both 0
    weights = WeightSequence.derivative(150)
    truth = np.zeros(12)
    truth[:3] = [1.0, 0.5, 0.25]
    fit = np.array([0.5, 0.5, 0.75])
    expected = float(np.dot(weights.values(3), [0.25, 0.0, 0.25]))
    assert risks_weighted([fit, np.append(fit, np.zeros(17))], truth, weights).tolist() == [expected] * 2
    assert risks_weighted([np.zeros(1)], np.ones(12), weights)[0] == math.inf  # nonzero meets inf
    # a finite risk keeps its bits: the masked terms were w_j * 0 = 0 in the same places
    rng = np.random.default_rng(4)
    for _ in range(50):
        truth, fit = rng.normal(size=9), rng.normal(size=int(rng.integers(1, 15)))
        fit[rng.random(fit.size) < 0.3] = 0.0
        w = WeightSequence.derivative(float(rng.uniform(0.0, 3.0)))
        diff = np.zeros(max(fit.size, truth.size))
        diff[: truth.size] = truth
        diff[: fit.size] = fit - diff[: fit.size]
        assert risks_weighted([fit], truth, w)[0] == weighted_norm_sq(diff, w.values(diff.size))


def test_risk_weighted_matches_quadrature():
    # for constant weights the weighted risk is the squared L2 distance,
    # by orthonormality; check against a midpoint rule.
    from npiv.basis import evaluate_coeffs
    from npiv.estimator import GalerkinEstimate

    rng = np.random.default_rng(8)
    truth = rng.normal(0.0, 0.3, 10)
    fit = GalerkinEstimate(rng.normal(0.0, 0.5, 6), thresholded=False)
    risk = _risk(fit, truth, WeightSequence.constant())
    m = 8192
    grid = (np.arange(m) + 0.5) / m
    padded = np.concatenate([fit.coeffs, np.zeros(4)])
    diff = evaluate_coeffs(padded - truth, grid)
    assert float((diff * diff).mean()) == pytest.approx(risk, rel=1e-6)


def test_evaluate_estimate():
    from npiv.basis import evaluate_coeffs
    from npiv.estimator import GalerkinEstimate

    fit = GalerkinEstimate(np.array([2.5]), thresholded=False)
    assert evaluate_coeffs(fit.coeffs, np.array([0.3])).tolist() == [2.5]
    fit2 = GalerkinEstimate(np.array([0.0, 1.0]), thresholded=False)
    assert evaluate_coeffs(fit2.coeffs, np.array([0.0])).tolist() == [SQRT2]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        evaluate_coeffs(fit2.coeffs, np.array([1.5]))


# -- CSV ------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    s = _random_sample(rng, 25)
    path = tmp_path / "sample.csv"
    write_csv(s, path)
    back = load_csv(path)
    assert_array_equal(back.y, s.y)
    assert_array_equal(back.z, s.z)
    assert_array_equal(back.w, s.w)
    assert path.read_text().splitlines()[0] == "y,z,w"


def test_write_csv_writes_the_bytes_of_a_float_per_value_loop(tmp_path):
    y = np.array([-0.0, 5e-324, 1e-300, 0.1, 2.0 ** 400, -(2.0 ** 400)])
    z = np.array([-0.0, 5e-324, 1e-300, 0.1, 1.0, 0.0])
    s = Sample(y, z, z[::-1])
    write_csv(s, tmp_path / "s.csv")
    loop = "".join(f"{float(a)!r},{float(b)!r},{float(c)!r}\n" for a, b, c in zip(s.y, s.z, s.w))
    assert (tmp_path / "s.csv").read_bytes() == ("y,z,w\n" + loop).encode()


_UNIT = st.floats(0.0, 1.0)


def test_sample_holds_y_within_2_to_the_400(tmp_path):
    # y**2 and n * y**2 then stay finite for every n an array may have
    edge, past = 2.0 ** 400, math.nextafter(2.0 ** 400, math.inf)
    assert Sample(np.array([edge, -edge]), np.zeros(2), np.ones(2)).n == 2
    for y in (past, -past, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^y contains non-finite values or values outside \[-2\*\*400, 2\*\*400\]$"):
            Sample(np.array([0.0, y]), np.zeros(2), np.zeros(2))
    path = tmp_path / "s.csv"
    path.write_text(f"y,z,w\n{edge!r},0.5,0.5\n{-past!r},0.5,0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"row 2: y={-past!r} outside [-2**400, 2**400]")):
        load_csv(path)
    assert _outcome(_columns, path) == _outcome(read_sample_csv, path)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.0 ** 400, 2.0 ** 400), _UNIT, _UNIT), min_size=1, max_size=40))
def test_csv_round_trip_is_bitwise(rows):
    s = Sample(*(np.array(col) for col in zip(*rows)))
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(s, f"{tmp}/s.csv")
        back = load_csv(f"{tmp}/s.csv")
    for a, b in ((back.y, s.y), (back.z, s.z), (back.w, s.w)):
        assert a.tobytes() == b.tobytes()


def _columns(path):
    s = load_csv(path)
    return s.y, s.z, s.w


def _outcome(read, path):
    """The columns' bytes, or the text of the ValueError ``read`` raised."""
    try:
        return [np.asarray(col).tobytes() for col in read(path)]
    except ValueError as exc:
        return str(exc)


# bodies where numpy's parser and float() might part, each column in turn
_SPELLINGS = ["nan", "NaN", "-nan", "inf", "-INF", "Infinity", "-iNfInItY", "1e400", "-1e400", "2.6e120", "5e-324",
              "2.2250738585072e-309", "0." + "1" * 60, "1_0", "0_5", "١", "٠.٥", "１", '"0.5"', "", " 0.5 ",
              "\t0.5\t", "\u00a00.5", "-0", "0x1p-1", ".5", "1.", "+.5e0"]
_BODIES = {f"{s!r} in {c}": ",".join(s if i == c else "0.5" for i, c in enumerate("yzw")) + "\n" for s in _SPELLINGS
           for c in "yzw"}
_BODIES.update({
    "quoted": '"0.5",0.5,0.5\n',
    "quoted comma": '"0,5",0.5,0.5\n',
    "quoted newline": '"0.5\n",0.5,0.5\n',
    "blank line in the middle": "0.5,0.5,0.5\n\n0.5,0.5,0.5\n",
    "trailing blank line": "0.5,0.5,0.5\n\n",
    "blank lines only": "\n\n",
    "whitespace-only line": "0.5,0.5,0.5\n \t \n0.5,0.5,0.5\n",
    "CRLF": "0.5,0.5,0.5\r\n0.25,0.5,0.75\r\n",
    "lone CR": "0.5,0.5,0.5\r0.25,0.5,0.75\r",
    "lone CR beside a blank CRLF line": "0.5,0.5,0.5\r0.25,0.5,0.75\n\r\n",
    "no final newline": "0.5,0.5,0.5\n0.25,0.5,0.75",
    "blank line and no final newline": "0.5,0.5,0.5\n\n0.25,0.5,0.75",
    "4 fields": "0.5,0.5,0.5,0.5\n",
    "2 fields in every row": "0.5,0.5\n0.5,0.5\n",
    "empty field": "0.5,,0.5\n",
    "trailing comma": "0.5,0.5,\n",
    "comment sign": "0.5,0.5,0.5 # note\n",
})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", _BODIES.values(), ids=_BODIES.keys())
def test_csv_reads_as_the_row_loop(tmp_path, body):
    # the same bits, or the same error, as csv.reader and float() row by row
    path = tmp_path / "s.csv"
    for head in ("y,z,w\n", "y,z,w\r\n", " y , z ,w\n"):
        path.write_bytes((head + body).encode())
        assert _outcome(_columns, path) == _outcome(read_sample_csv, path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data", [
    b"", b"y,z,w", b"y,z,w\n", b"y,z,w\r\n", b"\xef\xbb\xbfy,z,w\n0.5,0.5,0.5\n", b'"y\n",z,w\n0.5,0.5,0.5\n',
    b"y,z,w\n0.5,0.5,0.5\n\xff\xfe,0.5,0.5\n", b"y,z,w\n0.5,0.5,\xe9\n",
], ids=["empty", "header only", "header line only", "CRLF header only", "BOM", "header over two lines",
        "not UTF-8", "latin-1 letter"])
def test_csv_headers_and_bytes_read_as_the_row_loop(tmp_path, data):
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    assert _outcome(_columns, path) == _outcome(read_sample_csv, path)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "lone CR"])
def test_csv_vectorised_parse_reads_every_line_end(tmp_path, monkeypatch, end):
    # over 1 MiB, so the line count reads more than one chunk
    rows = end.join([b"y,z,w"] + [b"0.5,0.25,0.75", b"-1.5,1,0"] * 50_000)
    path = tmp_path / "s.csv"
    for data in (rows + end, rows):
        path.write_bytes(data)
        expected = _outcome(read_sample_csv, path)
        with monkeypatch.context() as m:
            m.setattr(estimator, "float", None, raising=False)  # the row loop would call float()
            assert _outcome(_columns, path) == expected
    path.write_bytes(rows + end + end)  # a last, blank, line, which the row loop rejects
    message = _outcome(read_sample_csv, path)
    assert message.endswith("row 100001: expected 3 fields, got 0") and _outcome(_columns, path) == message


def test_csv_from_a_pipe():
    # as from the shell's <(...): a pipe cannot be read twice, so it goes to the row loop
    r, w = os.pipe()
    try:
        os.write(w, b"y,z,w\n0.5,0.25,0.75\n")
        os.close(w)
        s = load_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert (s.y.tolist(), s.z.tolist(), s.w.tolist()) == ([0.5], [0.25], [0.75])


@pytest.mark.filterwarnings("error")
def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(path)

    path.write_text("a,b,c\n1,0.5,0.5\n")
    with pytest.raises(ValueError, match="expected header y,z,w"):
        load_csv(path)

    path.write_text("y,z,w\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)

    path.write_text("y,z,w\n1,0.5,0.5\n2,0.5\n")
    with pytest.raises(ValueError, match="row 2: expected 3 fields"):
        load_csv(path)

    path.write_text("y,z,w\n1,0.5,0.5\n1,x,0.5\n")
    with pytest.raises(ValueError, match="row 2: non-numeric"):
        load_csv(path)

    path.write_text("y,z,w\n1,1.5,0.5\n")
    with pytest.raises(ValueError, match=r"row 1: z=1.5 outside \[0, 1\]"):
        load_csv(path)

    path.write_text("y,z,w\n1,0.5,-0.2\n")
    with pytest.raises(ValueError, match="row 1: w=-0.2 outside"):
        load_csv(path)

    for value in ("nan", "inf", "-inf"):
        path.write_text(f"y,z,w\n0.1,0.2,0.3\n{value},0.5,0.5\n")
        with pytest.raises(ValueError, match=f"row 2: y={value} is not finite"):
            load_csv(path)

    rows = ["0.5,0.25,0.75"] * 4000
    rows[3000] = "0.5,x,0.75"
    path.write_text("y,z,w\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="row 3001: non-numeric field"):
        load_csv(path)


def test_csv_is_utf8_after_an_optional_byte_order_mark(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes("\ufeffy,z,w\n\u0661,0.25,0.75\n".encode())  # the Arabic-Indic digit one
    s = load_csv(path)
    assert (s.y.tolist(), s.z.tolist(), s.w.tolist()) == ([1.0], [0.25], [0.75])

    path.write_bytes(b"y,z,w\n0.5,0.5,0.5\n\xff,0.5,0.5\n")
    with pytest.raises(ValueError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


def test_structural_truth_padding():
    # risk against a make_structural truth pads the shorter side with zeros
    from npiv.estimator import GalerkinEstimate

    phi = make_structural(2.0, 1.0, truncation=12)
    fit = GalerkinEstimate(phi.coeffs[:5].copy(), thresholded=False)
    tail = phi.coeffs[5:]
    expected = float(np.dot(tail, tail))
    assert _risk(fit, phi.coeffs, WeightSequence.constant()) == pytest.approx(
        expected, rel=1e-12
    )

"""Tests for the trigonometric basis and weight sequences."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from npiv.basis import (
    SQRT2,
    WeightSequence,
    evaluate_coeffs,
    frequency,
    parse_weights,
    trig_columns,
    trig_design,
    weighted_norm_sq,
)

from _reference import psi, trig_columns_loop, trig_error_bound


# -- basis functions ------------------------------------------------------


def _at(j, s):
    """Basis function j at the single point s."""
    return trig_columns(np.array([s]), j, j)[0, 0]


def test_basis_function_examples():
    assert _at(1, 0.37) == 1.0
    assert _at(2, 0.0) == SQRT2
    # sin(pi/2) is exactly 1.0 in double precision
    assert _at(3, 0.25) == SQRT2
    assert _at(4, 0.5) == pytest.approx(SQRT2, rel=1e-15)


def test_trig_eval_domain():
    # The domain of a single basis function psi_j(s): j >= 1, s in [0, 1].
    with pytest.raises(ValueError, match="1 <= lo <= hi, got lo=0"):
        _at(0, 0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _at(2, -0.1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _at(2, 1.1)
    # endpoints included
    assert _at(2, 1.0) == pytest.approx(SQRT2, rel=1e-15)


def test_frequency_pairing():
    assert [frequency(j) for j in range(1, 8)] == [0, 1, 1, 2, 2, 3, 3]
    # index 4 is the frequency-2 cosine
    assert _at(4, 0.25) == pytest.approx(-SQRT2, rel=1e-15)


def test_trig_columns_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, 40)
    idx = np.arange(1, 12)
    cols = trig_columns(pts, 1, 11)
    ref = np.array([[psi(j, s) for j in idx] for s in pts])
    assert np.all(np.abs(cols - ref) <= trig_error_bound(idx))


@pytest.mark.parametrize("bad", [math.nan, -0.01, 1.01])
def test_a_point_outside_the_unit_interval_or_nan_is_rejected(bad):
    pts = np.array([0.5, bad])
    for call in (lambda: trig_design(pts, 3), lambda: trig_columns(pts, 2, 4),
                 lambda: evaluate_coeffs(np.ones(3), pts), lambda: trig_columns_loop(pts, [1, 2])):
        with pytest.raises(ValueError, match=r"^evaluation points must lie in \[0, 1\]$"):
            call()


def test_trig_columns_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        trig_columns(np.zeros((2, 2)), 1, 1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        trig_columns(np.array([0.5, 1.5]), 1, 1)
    with pytest.raises(ValueError, match="1 <= lo <= hi, got lo=0, hi=3$"):
        trig_columns(np.array([0.5]), 0, 3)
    with pytest.raises(ValueError, match="1 <= lo <= hi, got lo=3, hi=2$"):
        trig_columns(np.array([0.5]), 3, 2)
    with pytest.raises(ValueError, match="width must be >= 1"):
        trig_design(np.array([0.5]), 0)


def test_design_prefixes_bitwise():
    # Each entry depends only on its point and index, so smaller designs are
    # exact prefixes of larger ones, which downstream nesting relies on.
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 1.0, 64)
    big = trig_design(pts, 9)
    assert_array_equal(trig_design(pts, 3), big[:, :3])
    assert_array_equal(trig_columns(pts, 2, 9), big[:, 1:])


def _bits(a):
    return (a.shape, a.tobytes())


@pytest.mark.parametrize(
    "n, lo, hi",
    [
        pytest.param(100, 1, 40, id="100-idx0"),  # range starting at the constant
        pytest.param(100, 2, 30, id="100-idx1"),  # range starting at an even (cosine) index
        pytest.param(100, 3, 29, id="100-idx2"),  # range starting at an odd (sine) index
        pytest.param(1, 1, 11, id="1-idx4"),
        pytest.param(1, 7, 7, id="1-idx5"),
        pytest.param(0, 1, 5, id="0-idx7"),
        pytest.param(1500, 1, 200, id="1500-idx8"),
        pytest.param(16000, 1, 64, id="16000-idx9"),
    ],
)
def test_trig_columns_matches_column_loop_bitwise(n, lo, hi):
    # within the recurrence's error bound of the column loop, and bit for
    # bit the full design's columns
    pts = np.random.default_rng(n).uniform(0.0, 1.0, n)
    if n >= 2:
        pts[:2] = (0.0, 1.0)
    idx = np.arange(lo, hi + 1)
    cols = trig_columns(pts, lo, hi)
    ref = trig_columns_loop(pts, idx)
    assert cols.shape == ref.shape
    assert np.all(np.abs(cols - ref) <= trig_error_bound(idx))
    assert _bits(cols) == _bits(trig_design(pts, hi)[:, lo - 1:])


def test_trig_columns_every_range_is_a_design_slice():
    # every range 1 <= lo <= hi <= 64 is the full design's columns bit for
    # bit, at the quarter points, random points and no points at all
    pts = np.concatenate([[0.0, 0.25, 0.5, 1.0], np.random.default_rng(65).uniform(0.0, 1.0, 12)])
    for x in (pts, pts[:0]):
        for hi in range(1, 65):
            design = trig_design(x, hi)
            for lo in range(1, hi + 1):
                assert _bits(trig_columns(x, lo, hi)) == _bits(design[:, lo - 1:])


def test_trig_columns_design_wider_than_one_block():
    # 2**15 + 3 columns at four points: the recurrence runs to f = 16385
    k = (1 << 15) + 3
    pts = np.array([0.0, 0.3, 0.71, 1.0])
    idx = np.arange(1, k + 1)
    full = trig_columns(pts, 1, k)
    assert np.all(np.abs(full - trig_columns_loop(pts, idx)) <= trig_error_bound(idx))
    assert _bits(trig_columns(pts, k - 4, k)) == _bits(full[:, -5:])


def test_trig_columns_error_bound_past_largest_cutoff():
    # the rotation's error grows like f * eps; j = 600 is past the largest
    # cutoff the suite reaches (574).  The constant and f = 1 are numpy's
    # own cos and sin, so they match the loop exactly.
    pts = np.concatenate([[0.0, 1.0], np.random.default_rng(600).uniform(0.0, 1.0, 15998)])
    for lo in range(1, 601, 100):
        idx = np.arange(lo, lo + 100)
        err = np.abs(trig_columns(pts, lo, lo + 99) - trig_columns_loop(pts, idx)).max(axis=0)
        assert np.all(err <= trig_error_bound(idx))
        if lo == 1:
            assert_array_equal(err[:3], 0.0)


def test_trig_columns_position_independent():
    # The same points at offsets 0-16 inside longer arrays, passed as views
    # of lengths 1 to 32, give the columns of one call over all points bit
    # for bit: no alignment, SIMD lane or short-array path may move an entry.
    rng = np.random.default_rng(64)
    pts = np.concatenate([rng.uniform(0.0, 1.0, 45), [0.0, 1.0, 0.5, 0.25]])
    ref = trig_columns(pts, 1, 64)
    for off in range(17):
        for length in (1, 2, 3, 8, 17, 32):
            seg = slice(off, off + length)
            host = rng.uniform(0.0, 1.0, off + length + 7)
            host[seg] = pts[seg]
            assert _bits(trig_columns(host[seg], 1, 64)) == _bits(ref[seg])


def test_evaluate_coeffs_position_independent():
    # The same points passed as views of lengths 1 to 32 at offsets 0-16 inside
    # longer arrays, or one by one as one-element arrays, give the values of one call
    # over all points bit for bit: a lone point rounds as it does inside an array.
    rng = np.random.default_rng(41)
    coeffs = rng.standard_normal(41)
    pts = np.concatenate([rng.uniform(0.0, 1.0, 2000), [0.0, 1.0, 0.5, 0.25]])
    ref = evaluate_coeffs(coeffs, pts)
    for off in range(17):
        for length in (1, 2, 3, 8, 17, 32):
            seg = slice(off, off + length)
            host = rng.uniform(0.0, 1.0, off + length + 7)
            host[seg] = pts[seg]
            assert _bits(evaluate_coeffs(coeffs, host[seg])) == _bits(ref[seg])
    lone = np.concatenate([evaluate_coeffs(coeffs, np.array([x])) for x in pts])
    assert _bits(lone) == _bits(ref)


def test_orthonormality_midpoint_quadrature():
    m = 16384
    grid = (np.arange(m) + 0.5) / m
    design = trig_design(grid, 20)
    gram = design.T @ design / m
    assert_allclose(gram, np.eye(20), atol=1e-8)


def test_uniform_bound():
    grid = np.linspace(0.0, 1.0, 2001)
    assert np.abs(trig_design(grid, 25)).max() <= SQRT2


def test_evaluate_coeffs():
    assert_array_equal(evaluate_coeffs(np.array([0.0, 1.0]), np.array([0.0])), [SQRT2])
    with pytest.raises(ValueError, match="one-dimensional"):  # points come as an array only
        evaluate_coeffs(np.array([2.5]), 0.3)
    vals = evaluate_coeffs(np.zeros(0), np.array([0.1, 0.9]))
    assert_array_equal(vals, [0.0, 0.0])
    pts = np.array([0.0, 0.25, 0.75])
    coeffs = np.array([1.0, -0.5, 0.25])
    ref = [sum(c * psi(j + 1, s) for j, c in enumerate(coeffs)) for s in pts]
    assert_allclose(evaluate_coeffs(coeffs, pts), ref, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 30, 200, 201, 1000])
def test_evaluate_coeffs_matches_design(k):
    # the Horner recurrence against the design it replaces, on the whole
    # interval; its error bound is O(F * eps * sum |c|)
    rng = np.random.default_rng(k)
    pts = np.concatenate([[0.0, 0.5, 1.0], rng.random(500)])
    c = rng.normal(size=k)
    ref = trig_columns_loop(pts, np.arange(1, k + 1)) @ c
    assert np.abs(evaluate_coeffs(c, pts) - ref).max() <= 1e-13 * np.abs(c).sum()


# -- weight sequences -----------------------------------------------------


def test_weight_kinds_first_values():
    assert_array_equal(WeightSequence.constant().values(4), np.ones(4))
    assert_array_equal(WeightSequence.sobolev(1.0).values(3), [1.0, 4.0, 9.0])
    assert_array_equal(WeightSequence.sobolev(2.0).values(2), [1.0, 16.0])
    assert_array_equal(WeightSequence.derivative(1.0).values(3), [1.0, 4.0, 9.0])
    assert_allclose(
        WeightSequence.polynomial_decay(1.0).values(3), [1.0, 0.25, 1.0 / 9.0], rtol=1e-15
    )
    w = WeightSequence.exponential_decay(1.0)
    assert w.values(1)[-1] == 1.0
    assert w.values(2)[-1] == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_weight_first_entry_normalised():
    # every built-in kind starts at 1, whatever the raw formula gives
    for w in (
        WeightSequence.sobolev(2.0),
        WeightSequence.polynomial_decay(0.7),
        WeightSequence.exponential_decay(1.0),
    ):
        assert w.values(1)[-1] == 1.0
        assert w.values(5)[0] == 1.0


def test_weight_monotonicity_and_positivity():
    ks = 40
    for w in (WeightSequence.sobolev(1.5), WeightSequence.derivative(2.0)):
        v = w.values(ks)
        assert np.all(np.diff(v) >= 0.0)
        assert np.all(v > 0.0)
    for w in (WeightSequence.polynomial_decay(0.8), WeightSequence.exponential_decay(1.0)):
        v = w.values(ks)
        assert np.all(np.diff(v) <= 0.0)
        assert np.all(v > 0.0)


def test_exponential_weights_underflow_saturates():
    # exp(-j**2) underflows past j = 27 at a = 1; the sequence saturates at
    # the smallest positive double instead of hitting zero.
    v = WeightSequence.exponential_decay(1.0).values(35)
    assert v[27] == np.nextafter(0.0, 1.0)
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) <= 0.0)


def test_polynomial_weights_underflow_saturates():
    # j**-800 underflows from j = 3 at a = 400, and 2**-1076 at a = 538; the
    # sequence saturates at the smallest positive double instead of zero.
    tiny = np.nextafter(0.0, 1.0)
    v = WeightSequence.polynomial_decay(400.0).values(10)
    assert v[1] == 2.0 ** -800
    assert np.all(v[2:] == tiny)
    assert np.all(np.diff(v) <= 0.0)
    assert_array_equal(WeightSequence.polynomial_decay(538.0).values(4), [1.0, tiny, tiny, tiny])


@pytest.mark.parametrize("weights", [
    *(WeightSequence("power", param=p) for p in (-538.0, -1.0, 0.0, 1e-9, 2.0, 400.0)),
    WeightSequence.exponential_decay(0.5),
    WeightSequence.custom(np.linspace(0.5, 7.0, 40000)),
])
def test_a_weight_block_has_the_bits_of_the_prefix_it_slices(weights):
    # the cutoff walks read w_lo..w_hi a block at a time and must see the prefix's bits
    hi = 40000
    full = weights.values(hi)
    for lo in (1, 2, 8, 9, 16384, 16385, 32769, hi, hi + 1):
        assert weights.values(hi, lo).tobytes() == full[lo - 1:].tobytes(), lo


def test_power_weights_pinned():
    # constant, Sobolev, derivative and polynomial decay weights are one
    # power law j**(2p), floored at the smallest positive double, w_1 = 1
    assert WeightSequence.sobolev(1.5) == WeightSequence.derivative(1.5)
    assert WeightSequence.constant() == WeightSequence.sobolev(0)
    tiny = np.nextafter(0.0, 1.0)
    j = np.arange(1, 5001, dtype=float)
    for a in (0.26, 1, 2.5, 400, 538):
        expected = np.maximum(j ** (-2.0 * a), tiny)
        expected[0] = 1.0
        for k in (1, 2, 3, 64, 5000):
            assert _bits(WeightSequence.polynomial_decay(a).values(k)) == _bits(expected[:k])


def test_custom_weights():
    w = WeightSequence.custom([1.0, 0.5, 0.25])
    assert_array_equal(w.values(3), [1.0, 0.5, 0.25])
    assert w.values(2)[-1] == 0.5
    with pytest.raises(ValueError, match="3 entries, index 4"):
        w.values(4)
    with pytest.raises(ValueError, match="3 entries"):
        w.values(7)


def test_weight_validation():
    with pytest.raises(ValueError, match="decay exponent"):
        WeightSequence.polynomial_decay(0.0)
    with pytest.raises(ValueError, match="decay exponent"):
        WeightSequence.exponential_decay(-1.0)
    with pytest.raises(ValueError, match="growth exponent"):
        WeightSequence.sobolev(-0.5)
    with pytest.raises(ValueError, match="nonempty table"):
        WeightSequence.custom([])
    with pytest.raises(ValueError, match="strictly positive"):
        WeightSequence.custom([1.0, -2.0])
    with pytest.raises(ValueError, match="strictly positive"):
        WeightSequence.custom([1.0, math.nan])
    with pytest.raises(ValueError, match="unknown weight kind"):
        WeightSequence("triangular")
    with pytest.raises(ValueError, match="needs a parameter"):
        WeightSequence("power")
    with pytest.raises(ValueError, match="must be finite"):
        WeightSequence("power", math.inf)
    w = WeightSequence.constant()
    assert w.values(0).size == 0
    with pytest.raises(ValueError, match=">= 0"):
        w.values(-1)


def test_parse_weights():
    assert parse_weights("const") == WeightSequence.constant()
    assert parse_weights("constant") == WeightSequence.constant()
    assert_array_equal(parse_weights("sobolev:2").values(2), [1.0, 16.0])
    assert parse_weights("deriv:1") == WeightSequence.derivative(1.0)
    assert parse_weights("derivative:1") == WeightSequence.derivative(1.0)
    assert parse_weights("poly:0.5") == WeightSequence.polynomial_decay(0.5)
    assert parse_weights("polynomial:0.5") == WeightSequence.polynomial_decay(0.5)
    assert parse_weights("exp:1") == WeightSequence.exponential_decay(1.0)
    assert parse_weights(" custom:1,0.5,0.25 ").table == (1.0, 0.5, 0.25)


def test_parse_weights_errors():
    for spec in ("sobolev", "const:3", "bogus:1", "custom:", "poly:x", "poly:-1"):
        with pytest.raises(ValueError, match="bad weight spec|unknown kind"):
            parse_weights(spec)
    # a misspelled name is unknown, not a known kind missing its parameter
    for spec in ("sobolov", "constnat", "sobolov:1", "foo"):
        with pytest.raises(ValueError, match=f"^bad weight spec '{spec}': unknown kind '{spec.partition(':')[0]}'$"):
            parse_weights(spec)


# -- weighted norms -------------------------------------------------------


def test_weighted_norm_examples():
    assert weighted_norm_sq(np.array([1.0, 0.5]), np.array([1.0, 4.0])) == 2.0
    assert weighted_norm_sq(np.zeros(3), WeightSequence.sobolev(2.0).values(3)) == 0.0
    assert weighted_norm_sq(np.ones(3), WeightSequence.sobolev(1.0).values(3)) == 14.0
    assert weighted_norm_sq(np.zeros(0), np.ones(0)) == 0.0
    # a longer weight array contributes its leading entries only
    assert weighted_norm_sq(np.ones(2), np.array([1.0, 2.0, 100.0])) == 3.0


def test_weighted_norm_homogeneity():
    rng = np.random.default_rng(2)
    c = rng.normal(0.0, 1.0, 12)
    w = WeightSequence.sobolev(1.5).values(c.size)
    base = weighted_norm_sq(c, w)
    # powers of two scale exactly
    assert weighted_norm_sq(4.0 * c, w) == 16.0 * base
    assert weighted_norm_sq(0.5 * c, w) == 0.25 * base
    assert weighted_norm_sq(3.0 * c, w) == pytest.approx(9.0 * base, rel=1e-12)


def test_weighted_norm_shape():
    with pytest.raises(ValueError, match="one-dimensional"):
        weighted_norm_sq(np.zeros((2, 2)), np.ones(4))


def test_in_ellipsoid():
    # membership of the ellipsoid of radius r is weighted_norm_sq(c, w) <= r
    const = WeightSequence.constant().values(1)
    assert weighted_norm_sq(np.array([1.0]), const) <= 1.0  # boundary included
    assert not weighted_norm_sq(np.array([2.0]), const) <= 1.0
    w = WeightSequence.sobolev(2.0).values(2)
    c = np.array([0.5, 0.25])
    assert weighted_norm_sq(c, w) == 1.25
    assert weighted_norm_sq(c, w) <= 1.5
    assert not weighted_norm_sq(c, w) <= 1.2

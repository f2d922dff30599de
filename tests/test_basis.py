"""Tests for the trigonometric basis and weight sequences."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from npiv import basis
from npiv.basis import (
    SQRT2,
    WeightSequence,
    evaluate_coeffs,
    frequency,
    in_ellipsoid,
    parse_weights,
    trig_columns,
    trig_design,
    trig_eval,
    weighted_norm_sq,
)

from _reference import psi, trig_columns_loop


# -- basis functions ------------------------------------------------------


def test_trig_eval_examples():
    assert trig_eval(1, 0.37) == 1.0
    assert trig_eval(2, 0.0) == SQRT2
    # sin(pi/2) is exactly 1.0 in double precision
    assert trig_eval(3, 0.25) == SQRT2
    assert trig_eval(4, 0.5) == pytest.approx(SQRT2, rel=1e-15)


def test_trig_eval_domain():
    with pytest.raises(ValueError, match="index must be >= 1"):
        trig_eval(0, 0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        trig_eval(2, -0.1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        trig_eval(2, 1.1)
    # endpoints included
    assert trig_eval(2, 1.0) == pytest.approx(SQRT2, rel=1e-15)


def test_frequency_pairing():
    assert [frequency(j) for j in range(1, 8)] == [0, 1, 1, 2, 2, 3, 3]
    # index 4 is the frequency-2 cosine
    assert trig_eval(4, 0.25) == pytest.approx(-SQRT2, rel=1e-15)


def test_trig_columns_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, 40)
    idx = np.array([1, 2, 3, 6, 11])
    cols = trig_columns(pts, idx)
    ref = np.array([[psi(j, s) for j in idx] for s in pts])
    assert_allclose(cols, ref, rtol=5e-16, atol=1e-15)


def test_trig_columns_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        trig_columns(np.zeros((2, 2)), np.array([1]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        trig_columns(np.array([0.5, 1.5]), np.array([1]))
    with pytest.raises(ValueError, match="index must be >= 1"):
        trig_columns(np.array([0.5]), np.array([0]))
    with pytest.raises(ValueError, match="index must be >= 1, got -4$"):
        trig_columns(np.array([0.5]), np.array([3, 2, -4, 0]))
    with pytest.raises(ValueError, match="width must be >= 1"):
        trig_design(np.array([0.5]), 0)


def test_design_prefixes_bitwise():
    # Each entry depends only on its point and index, so smaller designs are
    # exact prefixes of larger ones, which downstream nesting relies on.
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 1.0, 64)
    big = trig_design(pts, 9)
    assert_array_equal(trig_design(pts, 3), big[:, :3])
    assert_array_equal(trig_columns(pts, np.array([2, 5, 9])), big[:, [1, 4, 8]])


def _bits(a):
    return (a.shape, a.tobytes())


@pytest.mark.parametrize(
    "n, idx",
    [
        (100, np.arange(1, 41)),  # range starting at the constant
        (100, np.arange(2, 31)),  # range starting at an even (cosine) index
        (100, np.arange(3, 30)),  # range starting at an odd (sine) index
        (57, np.array([9, 2, 1, 14, 2, 9, 1, 3])),  # unordered, repeated
        (1, np.arange(1, 12)),
        (1, np.array([7])),
        (40, np.array([], dtype=int)),
        (0, np.arange(1, 6)),
        # several row blocks of 32768 // 200 = 163 rows, the last one partial
        (1500, np.arange(1, 201)),
        (16000, np.arange(1, 65)),
    ],
)
def test_trig_columns_matches_column_loop_bitwise(n, idx):
    pts = np.random.default_rng(n).uniform(0.0, 1.0, n)
    if n >= 2:
        pts[:2] = (0.0, 1.0)
    assert _bits(trig_columns(pts, idx)) == _bits(trig_columns_loop(pts, idx))


def test_trig_columns_design_wider_than_one_block():
    # more columns than values per block: every row is its own block
    k = basis._BLOCK_VALUES + 3
    pts = np.array([0.0, 0.3, 0.71, 1.0])
    idx = np.arange(1, k + 1)
    assert _bits(trig_columns(pts, idx)) == _bits(trig_columns_loop(pts, idx))
    assert _bits(trig_columns(pts, idx[-5:])) == _bits(trig_columns_loop(pts, idx[-5:]))


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
    assert evaluate_coeffs(np.array([0.0, 1.0]), 0.0) == SQRT2
    assert isinstance(evaluate_coeffs(np.array([2.5]), 0.3), float)
    vals = evaluate_coeffs(np.zeros(0), np.array([0.1, 0.9]))
    assert_array_equal(vals, [0.0, 0.0])
    pts = np.array([0.0, 0.25, 0.75])
    coeffs = np.array([1.0, -0.5, 0.25])
    ref = [sum(c * psi(j + 1, s) for j, c in enumerate(coeffs)) for s in pts]
    assert_allclose(evaluate_coeffs(coeffs, pts), ref, rtol=1e-14, atol=1e-15)


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
    assert w.value(1) == 1.0
    assert w.value(2) == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_weight_first_entry_normalised():
    # every built-in kind starts at 1, whatever the raw formula gives
    for w in (
        WeightSequence.sobolev(2.0),
        WeightSequence.polynomial_decay(0.7),
        WeightSequence.exponential_decay(1.0),
    ):
        assert w.value(1) == 1.0
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


def test_custom_weights():
    w = WeightSequence.custom([1.0, 0.5, 0.25])
    assert_array_equal(w.values(3), [1.0, 0.5, 0.25])
    assert w.value(2) == 0.5
    assert w(3) == 0.25
    with pytest.raises(ValueError, match="3 entries, index 4"):
        w.value(4)
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
        WeightSequence("sobolev")
    w = WeightSequence.constant()
    assert w.values(0).size == 0
    with pytest.raises(ValueError, match=">= 0"):
        w.values(-1)
    with pytest.raises(ValueError, match=">= 1"):
        w.value(0)


def test_parse_weights():
    assert parse_weights("const").kind == "constant"
    assert parse_weights("constant").kind == "constant"
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


# -- weighted norms -------------------------------------------------------


def test_weighted_norm_examples():
    assert weighted_norm_sq(np.array([1.0, 0.5]), WeightSequence.custom([1.0, 4.0])) == 2.0
    assert weighted_norm_sq(np.zeros(3), WeightSequence.sobolev(2.0)) == 0.0
    assert weighted_norm_sq(np.ones(3), WeightSequence.sobolev(1.0)) == 14.0
    assert weighted_norm_sq(np.zeros(0), WeightSequence.constant()) == 0.0


def test_weighted_norm_homogeneity():
    rng = np.random.default_rng(2)
    c = rng.normal(0.0, 1.0, 12)
    w = WeightSequence.sobolev(1.5)
    base = weighted_norm_sq(c, w)
    # powers of two scale exactly
    assert weighted_norm_sq(4.0 * c, w) == 16.0 * base
    assert weighted_norm_sq(0.5 * c, w) == 0.25 * base
    assert weighted_norm_sq(3.0 * c, w) == pytest.approx(9.0 * base, rel=1e-12)


def test_weighted_norm_shape():
    with pytest.raises(ValueError, match="one-dimensional"):
        weighted_norm_sq(np.zeros((2, 2)), WeightSequence.constant())


def test_in_ellipsoid():
    const = WeightSequence.constant()
    assert in_ellipsoid(np.array([1.0]), const, 1.0)  # boundary included
    assert not in_ellipsoid(np.array([2.0]), const, 1.0)
    w = WeightSequence.sobolev(2.0)
    c = np.array([0.5, 0.25])
    assert weighted_norm_sq(c, w) == 1.25
    assert in_ellipsoid(c, w, 1.5)
    assert not in_ellipsoid(c, w, 1.2)
    with pytest.raises(ValueError, match="radius must be positive"):
        in_ellipsoid(c, w, 0.0)

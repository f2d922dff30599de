"""Tests for the joint-density simulator and structural truth construction."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats as st
from numpy.testing import assert_allclose, assert_array_equal

from npiv import basis, estimator
from npiv.basis import WeightSequence, trig_design, weighted_norm_sq
from npiv.estimator import empirical_rhs
from npiv.simulate import (
    STREAM_JOINT,
    STREAM_NOISE,
    OperatorSpec,
    StructuralSpec,
    custom_operator,
    generate_sample,
    joint_density,
    make_operator,
    make_structural,
    noise_sigma_for_snr,
    regression_coeffs,
    sample_joint,
    stream_rng,
    task_seed,
)

from _reference import psi


# -- operator construction ------------------------------------------------


def test_make_operator_polynomial_hand_values():
    # truncation 2 at a = 1: tail = 1/2, so the scale caps at exactly 1
    op = make_operator("polynomial", 1.0, truncation=2)
    assert op.scale == 1.0
    assert_array_equal(op.diag, [1.0, 0.5])
    assert op.density_floor == 0.0
    assert op.link_constant == 1.0
    assert op.decay == "polynomial"
    assert op.weights == WeightSequence.polynomial_decay(1.0)


def test_make_operator_exponential_hand_values():
    op = make_operator("exponential", 1.0, truncation=2)
    assert op.scale == 1.0
    assert op.diag[1] == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert op.density_floor == pytest.approx(1.0 - 2.0 * math.exp(-2.0), rel=1e-12)
    assert 1.0 <= op.link_constant <= 1.0 + 1e-12


def test_make_operator_validation():
    with pytest.raises(ValueError, match="truncation must be >= 2"):
        make_operator("polynomial", 1.0, truncation=1)
    with pytest.raises(ValueError, match="unknown operator decay"):
        make_operator("cubic", 1.0)
    with pytest.raises(ValueError, match="decay exponent"):
        make_operator("polynomial", 0.0)


def test_operator_scale_and_link_certificates():
    # across families: t_1 = 1, the density floor certificate is
    # nonnegative, and t_j**2 / l_j stays inside [1/d, d] entrywise; at
    # a = 400 and 538 the polynomial weights underflow, and no division
    # may warn or fail
    cases = [
        ("polynomial", 0.26, 64),
        ("polynomial", 1.0, 16),
        ("polynomial", 400.0, 64),
        ("polynomial", 538.0, 64),
        ("exponential", 0.5, 8),
        ("exponential", 1.0, 6),
    ]
    for decay, a, trunc in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = make_operator(decay, a, truncation=trunc)
        assert op.diag[0] == 1.0
        assert np.all(op.diag > 0.0)
        assert 0.0 < op.scale <= 1.0
        assert op.density_floor >= 0.0
        lam = op.weights.values(trunc)
        ratios = op.diag[1:] ** 2 / lam[1:]
        assert np.all(ratios <= op.link_constant)
        assert np.all(1.0 / ratios <= op.link_constant)


def test_custom_operator():
    op = custom_operator((1.0, 0.0))
    assert op.density_floor == 1.0
    assert op.link_constant == math.inf
    assert op.weights is None
    assert custom_operator((1.0, 0.5)).link_constant == 4.0
    assert custom_operator((1.0, 0.7)).density_floor < 0.0
    with pytest.raises(ValueError, match="t_1 = 1"):
        custom_operator((0.5, 0.2))
    with pytest.raises(ValueError, match="nonempty"):
        custom_operator(())


# -- joint density and sampling -------------------------------------------


def test_joint_density_scalar_value():
    op = make_operator("polynomial", 1.0, truncation=8)
    val = joint_density(op, 0.3, 0.7)
    ref = 1.0 + sum(op.diag[j - 1] * psi(j, 0.3) * psi(j, 0.7) for j in range(2, 9))
    assert val == pytest.approx(ref, rel=1e-12)
    assert isinstance(val, float)
    with pytest.raises(ValueError, match="matching shapes"):
        joint_density(op, np.zeros(2), np.zeros(3))


def test_joint_density_is_a_density():
    m = 512
    grid = (np.arange(m) + 0.5) / m
    zz, ww = np.meshgrid(grid, grid, indexing="ij")
    for op in (
        make_operator("polynomial", 1.0, truncation=8),
        make_operator("exponential", 0.5, truncation=8),
    ):
        vals = joint_density(op, zz.ravel(), ww.ravel()).reshape(m, m)
        assert vals.mean() == pytest.approx(1.0, abs=1e-9)
        assert vals.min() >= op.density_floor - 1e-9
        # both marginals are uniform: the non-constant terms integrate out
        assert np.abs(vals.mean(axis=1) - 1.0).max() < 1e-12
        assert np.abs(vals.mean(axis=0) - 1.0).max() < 1e-12


def test_sample_joint_marginals_chi_square():
    op = make_operator("polynomial", 1.0, truncation=10)
    z, w = sample_joint(op, 100000, 0)
    assert z.size == w.size == 100000
    assert z.min() >= 0.0 and z.max() <= 1.0
    for x in (z, w):
        counts, _ = np.histogram(x, bins=20, range=(0.0, 1.0))
        stat = float(((counts - 5000.0) ** 2 / 5000.0).sum())
        assert st.chi2.sf(stat, 19) > 0.001


def test_sample_joint_dependence_moment():
    # E[psi_2(Z) psi_2(W)] equals the operator coefficient t_2
    op = make_operator("polynomial", 1.0, truncation=2)
    z, w = sample_joint(op, 100000, 7)
    m = float((trig_design(z, 2)[:, 1] * trig_design(w, 2)[:, 1]).mean())
    assert abs(m - 0.5) < 3.0 * math.sqrt(0.75) / math.sqrt(z.size)


def test_sample_joint_degenerate_is_independent_uniform():
    op = custom_operator((1.0, 0.0))
    z, w = sample_joint(op, 20000, 3)
    assert st.kstest(z, "uniform").pvalue > 0.001
    assert st.kstest(w, "uniform").pvalue > 0.001
    cz = np.minimum((z * 10).astype(int), 9)
    cw = np.minimum((w * 10).astype(int), 9)
    table = np.zeros((10, 10))
    np.add.at(table, (cz, cw), 1.0)
    stat = float(((table - 200.0) ** 2 / 200.0).sum())
    assert st.chi2.sf(stat, 99) > 0.001


def test_sample_joint_reproducible():
    op = make_operator("polynomial", 1.0, truncation=4)
    z1, w1 = sample_joint(op, 500, 42)
    z2, w2 = sample_joint(op, 500, 42)
    assert_array_equal(z1, z2)
    assert_array_equal(w1, w2)
    z3, _ = sample_joint(op, 500, 43)
    assert not np.array_equal(z1, z3)


def test_sample_joint_validation():
    op = make_operator("polynomial", 1.0, truncation=4)
    with pytest.raises(ValueError, match="sample size"):
        sample_joint(op, 0, 1)
    with pytest.raises(ValueError, match="not a valid density"):
        sample_joint(custom_operator((1.0, 0.7)), 10, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_joint(op, 10, -1)


# -- structural truths ----------------------------------------------------


def test_structural_spec_basics():
    phi = StructuralSpec(coeffs=np.array([1.0, -0.5]), smoothness=1.0, radius=2.0)
    assert phi.truncation == 2
    assert phi(0.25) == pytest.approx(1.0 - 0.5 * psi(2, 0.25), rel=1e-12)
    with pytest.raises(ValueError, match="read-only"):
        phi.coeffs[0] = 0.0
    with pytest.raises(ValueError, match="nonempty"):
        StructuralSpec(coeffs=np.zeros(0), smoothness=1.0, radius=1.0)


def test_make_structural_power_law_fills_ellipsoid():
    for p, rho, trunc in ((2.0, 1.0, 200), (1.0, 2.5, 50)):
        phi = make_structural(p, rho, truncation=trunc)
        norm = weighted_norm_sq(phi.coeffs, WeightSequence.sobolev(p))
        assert norm == pytest.approx(0.99 * rho, rel=1e-12)
        assert phi.truncation == trunc
        assert np.all(np.diff(np.abs(phi.coeffs)) <= 0.0)  # decaying profile
        assert phi.coeffs[0] > 0.0


def test_make_structural_custom():
    # boundary case is accepted
    phi = make_structural(1.0, 1.0, profile="custom", coeffs=[1.0, 0.0])
    assert_array_equal(phi.coeffs, [1.0, 0.0])
    with pytest.raises(ValueError, match="weighted norm 4.0 > radius 1"):
        make_structural(1.0, 1.0, profile="custom", coeffs=[2.0])
    with pytest.raises(ValueError, match="needs explicit coefficients"):
        make_structural(1.0, 1.0, profile="custom")
    with pytest.raises(ValueError, match="does not take explicit"):
        make_structural(1.0, 1.0, coeffs=[1.0])
    with pytest.raises(ValueError, match="unknown structural profile"):
        make_structural(1.0, 1.0, profile="spline")


@pytest.mark.filterwarnings("error")
def test_make_structural_rejects_norm_beyond_doubles():
    # at smoothness 538 the Sobolev weights overflow to inf while the squared
    # coefficients underflow to 0, so the weighted norm would be NaN
    with pytest.raises(ValueError, match="smoothness 538.0 is too large for doubles"):
        make_structural(538.0, 1.0, truncation=30)
    with pytest.raises(ValueError, match="smoothness 538.0 is too large for doubles"):
        make_structural(538.0, 1.0, profile="custom", coeffs=[1.0, 0.0, 0.0])
    assert make_structural(538.0, 1.0, profile="custom", coeffs=[0.5]).truncation == 1


def test_make_structural_validation():
    with pytest.raises(ValueError, match="smoothness must exceed 1/2"):
        make_structural(0.5, 1.0)
    with pytest.raises(ValueError, match="radius must be positive"):
        make_structural(2.0, 0.0)
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        make_structural(2.0, 1.0, truncation=0)


def test_noise_sigma_for_snr():
    phi = make_structural(2.0, 1.0, truncation=50)
    sigma = noise_sigma_for_snr(phi, 2.0)
    assert sigma == 0.059855191158443774
    signal_var = float(np.sum(phi.coeffs[1:] ** 2))
    assert sigma == 3.0**0.25 * math.sqrt(signal_var) / 2.0
    flat = StructuralSpec(coeffs=np.array([2.0]), smoothness=1.0, radius=5.0)
    with pytest.raises(ValueError, match="no variance"):
        noise_sigma_for_snr(flat, 2.0)
    with pytest.raises(ValueError, match="must be positive"):
        noise_sigma_for_snr(phi, 0.0)


# -- sample generation ----------------------------------------------------

_FLAT = StructuralSpec(coeffs=np.array([1.5]), smoothness=1.0, radius=3.0)
_OP2 = make_operator("polynomial", 1.0, truncation=2)


def test_generate_sample_noiseless():
    phi = make_structural(2.0, 1.0, truncation=20)
    s = generate_sample(phi, _OP2, 0.0, 200, 1)
    assert_array_equal(s.y, phi(s.z))


def test_generate_sample_tiny_noise():
    s = generate_sample(_FLAT, _OP2, 1e-8, 500, 2)
    assert np.abs(s.y - 1.5).max() < 1e-6


def test_generate_sample_mean():
    s = generate_sample(_FLAT, _OP2, 0.3, 50000, 4)
    assert abs(float(s.y.mean()) - 1.5) < 3.0 * (0.3 / 3.0**0.25) / math.sqrt(50000)


def test_generate_sample_regression_moments():
    # E[Y psi_j(W)] is the regression coefficient t_j b_j
    phi = make_structural(1.0, 2.0, profile="custom", coeffs=[1.0, 0.5])
    sigma = noise_sigma_for_snr(phi, 2.0)
    s = generate_sample(phi, _OP2, sigma, 100000, 5)
    target = regression_coeffs(phi, _OP2)
    assert_array_equal(target, [1.0, 0.25])
    assert np.abs(empirical_rhs(s, 2) - target).max() < 0.02


def test_generate_sample_noise_moments():
    # noise sd is sigma / 3**(1/4), which pins the fourth moment at sigma**4
    s = generate_sample(_FLAT, _OP2, 1.0, 20000, 9)
    u = s.y - 1.5
    assert abs(float(u.std()) - 3.0**-0.25) < 0.012
    assert abs(float((u**4).mean()) - 1.0) < 0.07


def test_generate_sample_stream_separation():
    # the joint draw must not move when only the noise level changes
    a = generate_sample(_FLAT, _OP2, 0.5, 300, 12)
    b = generate_sample(_FLAT, _OP2, 2.0, 300, 12)
    assert_array_equal(a.z, b.z)
    assert_array_equal(a.w, b.w)
    assert not np.array_equal(a.y, b.y)


def test_generate_sample_reproducible():
    a = generate_sample(_FLAT, _OP2, 0.5, 200, 3)
    b = generate_sample(_FLAT, _OP2, 0.5, 200, 3)
    assert_array_equal(a.y, b.y)
    assert_array_equal(a.z, b.z)
    c = generate_sample(_FLAT, _OP2, 0.5, 200, 4)
    assert not np.array_equal(a.y, c.y)


def test_generate_sample_builds_no_response_design(monkeypatch):
    # only the sampler's density designs, op.truncation wide, may be built:
    # the truth is evaluated without an n x phi.truncation design
    widths = []
    real = basis.trig_columns

    def counting(points, indices):
        widths.append(len(indices))
        return real(points, indices)

    for mod in (basis, estimator):
        monkeypatch.setattr(mod, "trig_columns", counting)
    phi = make_structural(2.0, 1.0, truncation=200)
    op = make_operator("polynomial", 1.0, truncation=5)
    generate_sample(phi, op, 0.1, 2000, 6)
    assert widths and max(widths) <= op.truncation


def test_generate_sample_validation():
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        generate_sample(_FLAT, _OP2, -0.1, 10, 0)


def test_regression_coeffs_padding():
    phi = make_structural(1.0, 2.0, profile="custom", coeffs=[1.0, 0.0])
    op4 = make_operator("polynomial", 1.0, truncation=4)
    r = regression_coeffs(phi, op4)
    assert r.size == 4
    assert r[0] == 1.0
    assert_array_equal(r[1:], np.zeros(3))
    zero = make_structural(1.0, 2.0, profile="custom", coeffs=[0.0, 0.0])
    assert_array_equal(regression_coeffs(zero, op4), np.zeros(4))


# -- seeding --------------------------------------------------------------


def test_stream_rng_deterministic_and_separated():
    a = stream_rng(5, STREAM_JOINT).random(4)
    b = stream_rng(5, STREAM_JOINT).random(4)
    c = stream_rng(5, STREAM_NOISE).random(4)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError, match="nonnegative"):
        stream_rng(-1, STREAM_JOINT)


def test_task_seed_distinct_cells():
    seeds = {task_seed(1, n, r) for n in (500, 1000, 2000, 4000, 8000) for r in range(20)}
    assert len(seeds) == 100
    assert task_seed(1, 500, 0) == task_seed(1, 500, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        task_seed(-1, 500, 0)

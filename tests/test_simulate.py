"""Tests for the joint-density simulator and structural truth construction."""

import gc
import math
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.stats as st
from numpy.testing import assert_allclose, assert_array_equal

from npiv import basis, estimator, simulate
from npiv.basis import WeightSequence, evaluate_coeffs, trig_design, weighted_norm_sq
from npiv.estimator import empirical_diagonal
from npiv.simulate import (
    STREAM_JOINT,
    STREAM_NOISE,
    OperatorSpec,
    StructuralSpec,
    generate_sample,
    generate_samples,
    joint_density,
    make_operator,
    make_structural,
    noise_sigma_for_snr,
    sample_joint,
    sampler_doubles,
    stream_rng,
    task_seed,
)

from _reference import (
    clenshaw_error_bound,
    custom_operator,
    joint_density_design,
    psi,
    regression_coeffs,
    sample_joint_full_batch,
)


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


def test_operator_truncation_is_the_diagonal_length():
    for decay, a, trunc in (("polynomial", 1.0, 2), ("polynomial", 0.26, 64), ("exponential", 0.5, 8)):
        op = make_operator(decay, a, trunc)
        assert op.truncation == op.diag.size == trunc
    assert custom_operator((1.0, 0.5, 0.25)).truncation == 3


def test_make_operator_validation():
    with pytest.raises(ValueError, match="truncation must be >= 2"):
        make_operator("polynomial", 1.0, truncation=1)
    with pytest.raises(ValueError, match="unknown operator decay"):
        make_operator("cubic", 1.0, truncation=64)
    with pytest.raises(ValueError, match="decay exponent"):
        make_operator("polynomial", 0.0, truncation=64)


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


def test_the_operator_scale_needs_no_step_down():
    # c = fl(0.5 / tail) = (0.5 / tail)(1 + d), |d| <= 2**-53, and 2c is exact, so 2c * tail
    # rounds 1 + d to at most 1 (or c = 1 and tail <= 0.5): the density floor is never negative
    for decay in ("polynomial", "exponential"):
        for a in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
            for trunc in range(2, 301):
                op = make_operator(decay, a, truncation=trunc)
                tail = float(np.sum(np.sqrt(op.weights.values(trunc))[1:]))
                assert 2.0 * op.scale * tail <= 1.0, (decay, a, trunc)
                assert op.density_floor >= 0.0, (decay, a, trunc)


def test_custom_operator():
    op = custom_operator((1.0, 0.0))
    assert op.density_floor == 1.0
    assert op.link_constant == math.inf
    assert op.weights == WeightSequence.constant()
    assert custom_operator((1.0, 0.5)).link_constant == 4.0
    assert custom_operator((1.0, 0.7)).density_floor < 0.0
    with pytest.raises(ValueError, match="t_1 = 1"):
        custom_operator((0.5, 0.2))
    with pytest.raises(ValueError, match="nonempty"):
        custom_operator(())


def _summed_envelope(op):
    return 1.0 + 2.0 * float(np.sum(np.abs(op.diag[1:])))


@pytest.mark.parametrize("op", [
    make_operator("polynomial", 1.0, 2), make_operator("polynomial", 0.26, 64), make_operator("exponential", 0.5, 8),
    custom_operator((1.0,)), custom_operator((1.0, -0.3, 0.1)), custom_operator((1.0, 0.7)),
])
def test_operator_envelope_is_derived_once_from_the_diagonal(op):
    assert op.envelope == _summed_envelope(op)
    # proposal_batch reads it: the batch sizes of the sum taken again on every call
    for n in (1, 7, 100, 853, 1000, 10**4, 123_457, 10**6, 2**27):
        assert simulate.proposal_batch(op, n) == max(1024, int(math.ceil(n * _summed_envelope(op) * 1.2)))


def test_custom_operator_of_truncation_one():
    # T = 1 has no ratio to bound: link 1, density 1, and every proposal is kept
    op = custom_operator((1.0,))
    assert op.truncation == 1
    assert op.link_constant == 1.0
    assert op.density_floor == 1.0
    z, w = sample_joint(op, 500, 4)
    assert_array_equal(joint_density(op, z, w), np.ones(500))
    rng = stream_rng(4, STREAM_JOINT)
    batch_z, batch_w = rng.random(1024), rng.random(1024)
    assert_array_equal(z, batch_z[:500])
    assert_array_equal(w, batch_w[:500])


# -- joint density and sampling -------------------------------------------


def test_joint_density_scalar_value():
    # one point comes as one-element arrays; scalars are not points
    op = make_operator("polynomial", 1.0, truncation=8)
    val = joint_density(op, np.array([0.3]), np.array([0.7]))
    ref = 1.0 + sum(op.diag[j - 1] * psi(j, 0.3) * psi(j, 0.7) for j in range(2, 9))
    assert val.shape == (1,) and val[0] == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError, match="one-dimensional"):
        joint_density(op, 0.3, 0.7)
    with pytest.raises(ValueError, match="matching shapes"):
        joint_density(op, np.zeros(2), np.zeros(3))
    for z, w in (([0.5, math.nan], [0.5, 0.5]), ([0.5, 0.5], [math.nan, 0.5])):
        with pytest.raises(ValueError, match=r"^evaluation points must lie in \[0, 1\]$"):
            joint_density(op, np.array(z), np.array(w))


@pytest.mark.parametrize("trunc", [2, 3, 5, 8, 10, 64])
def test_joint_density_matches_design_form(trunc):
    # the product-to-sum Clenshaw sums against 1 + sum_j t_j psi_j(z) psi_j(w)
    # built from designs, for odd and even truncations, at the ends and the
    # middle of the interval as well as at random points
    rng = np.random.default_rng(trunc)
    edges = np.array([0.0, 0.5, 1.0])
    zz, ww = np.meshgrid(edges, edges, indexing="ij")
    z = np.concatenate([zz.ravel(), rng.random(5000)])
    w = np.concatenate([ww.ravel(), rng.random(5000)])
    ops = [
        make_operator("polynomial", 1.0, truncation=trunc),
        make_operator("exponential", 0.5, truncation=trunc),
        custom_operator(np.concatenate([[1.0], rng.uniform(-0.4, 0.4, trunc - 1) / trunc])),
    ]
    for op in ops:
        assert np.abs(joint_density(op, z, w) - joint_density_design(op, z, w)).max() <= 1e-14


@pytest.mark.parametrize("trunc", [10, 64, 256, 1000])
def test_joint_density_error_bound_near_endpoints(trunc):
    # Clenshaw's recurrence is least accurate where cos 2 pi (z -+ w) is near +-1:
    # points with z close to w and z + w close to 1, and the corners 0, 1/2 and 1
    rng = np.random.default_rng(trunc)
    base = rng.random(150)
    offsets = np.array([0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4])
    z = np.repeat(base, offsets.size)
    near = np.clip((base[:, None] + offsets).ravel(), 0.0, 1.0)
    mirror = np.clip((1.0 - base[:, None] + offsets).ravel(), 0.0, 1.0)
    corners = np.array([0.0, 0.5, 1.0])
    cz, cw = np.meshgrid(corners, corners, indexing="ij")
    z = np.concatenate([z, z, cz.ravel()])
    w = np.concatenate([near, mirror, cw.ravel()])
    ops = [
        make_operator("polynomial", 0.26, truncation=trunc),
        make_operator("polynomial", 1.0, truncation=trunc),
        make_operator("exponential", 0.5, truncation=trunc),
        custom_operator(np.concatenate([[1.0], rng.uniform(-0.4, 0.4, trunc - 1) / trunc])),
    ]
    for op in ops:
        err = np.abs(joint_density(op, z, w) - joint_density_design(op, z, w)).max()
        assert err <= clenshaw_error_bound(trunc)


@pytest.mark.parametrize("trunc", [2, 3, 5, 8, 10, 64])
def test_joint_density_position_independent(trunc):
    # each value is a pure function of its point: the points one at a time as
    # one-element arrays, and as views of several lengths at offsets 0-16, give the
    # bits of one call over all of them
    op = make_operator("polynomial", 1.0, truncation=trunc)
    rng = np.random.default_rng(trunc)
    z = np.concatenate([[0.0, 0.5, 1.0], rng.random(197)])
    w = np.concatenate([[1.0, 0.5, 1.0], rng.random(197)])
    full = joint_density(op, z, w)
    alone = np.concatenate([joint_density(op, np.array([a]), np.array([b])) for a, b in zip(z, w)])
    assert_array_equal(alone, full)
    for length in (1, 2, 3, 8, 17, 32):
        for offset in range(17):
            view = slice(offset, offset + length)
            assert_array_equal(joint_density(op, z[view], w[view]), full[view])


def test_joint_density_point_checks():
    op = make_operator("polynomial", 1.0, truncation=5)
    for z, w in (([-0.1], [0.5]), ([0.5], [1.5]), (np.array([0.2, 1.0 + 1e-12]), np.array([0.2, 0.3]))):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            joint_density(op, z, w)


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


@pytest.mark.parametrize("trunc", [2, 5, 8, 10])
def test_sample_joint_keeps_design_form_decisions(monkeypatch, trunc):
    # the Clenshaw density differs from the design form by rounding only; no
    # accept decision may flip, so the draws are the design form's bit for bit
    op = make_operator("polynomial", 1.0, truncation=trunc)
    seeds = (0, 1, 2)
    draws = [sample_joint(op, 20000, seed) for seed in seeds]
    monkeypatch.setattr(simulate, "joint_density", joint_density_design)
    for seed, (z, w) in zip(seeds, draws):
        z_ref, w_ref = sample_joint(op, 20000, seed)
        assert_array_equal(z, z_ref)
        assert_array_equal(w, w_ref)


@pytest.mark.parametrize("trunc", [1, 2, 5, 8, 64])
def test_sample_joint_matches_full_batches(trunc):
    # the density is evaluated only up to the n-th acceptance, and the design-form
    # reference judges every proposal of each batch: the draws agree bit for bit
    if trunc == 1:
        op = custom_operator((1.0,))
    else:
        op = make_operator("polynomial", 1.0, truncation=trunc)
    for n in (1, 2, 7, 100, 1000, 20000):
        for seed in (0, 1, 2):
            z, w = sample_joint(op, n, seed)
            z_ref, w_ref = sample_joint_full_batch(op, n, seed)
            assert_array_equal(z, z_ref)
            assert_array_equal(w, w_ref)


def test_sample_joint_matches_full_batches_across_small_batches(monkeypatch):
    # batches of 512 proposals split a sample of 1000 into four or more; a last
    # batch whose first slice falls short of the missing pairs is judged in several
    # slices, which happens for a few of the seeds
    op = make_operator("polynomial", 1.0, truncation=5)
    batches, slices, split = [], [], 0
    real_density = simulate.joint_density

    def small_batch(op, n):
        batches.append(n)
        return 512

    def counting_density(op, z, w):
        slices.append(len(z))
        return real_density(op, z, w)

    monkeypatch.setattr(simulate, "proposal_batch", small_batch)
    monkeypatch.setattr(simulate, "joint_density", counting_density)
    for seed in range(20):
        batches.clear()
        slices.clear()
        z, w = sample_joint(op, 1000, seed)
        assert len(batches) >= 4
        split += len(slices) > len(batches)
        z_ref, w_ref = sample_joint_full_batch(op, 1000, seed)
        assert_array_equal(z, z_ref)
        assert_array_equal(w, w_ref)
    assert split > 0


# Study seeds of one (master, n), some below 2**63 and some past it: as a numpy
# array the list would be float64, not the seeds.
_MIXED_SEEDS = [task_seed(3, 100, r) for r in range(8)]


@pytest.mark.parametrize("trunc", [2, 5, 8, 64])
def test_sample_joint_rows_match_single_seeds(trunc):
    # each row keeps its own stream, batches and slices while the rows share
    # the density calls, so row r is the draw for seeds[r] alone
    op = make_operator("polynomial", 1.0, truncation=trunc)
    seeds = _MIXED_SEEDS + list(range(5))
    assert {s >= 2**63 for s in seeds} == {True, False}
    for n in (1, 2, 7, 100, 1000):
        z, w = sample_joint(op, n, seeds)
        assert z.shape == w.shape == (len(seeds), n)
        for r, seed in enumerate(seeds):
            z_r, w_r = sample_joint(op, n, seed)
            assert z_r.shape == w_r.shape == (n,)
            assert_array_equal(z[r], z_r)
            assert_array_equal(w[r], w_r)


def test_sample_joint_rows_match_single_seeds_across_small_batches(monkeypatch):
    # with batches of 512 the slices of a row straddle several batches, and rows
    # need different numbers of rounds; the block makes one density call a round
    op = make_operator("polynomial", 1.0, truncation=5)
    monkeypatch.setattr(simulate, "proposal_batch", lambda op, n: 512)
    calls = []
    real_density = simulate.joint_density

    def counting_density(op, z, w):
        calls.append(len(z))
        return real_density(op, z, w)

    monkeypatch.setattr(simulate, "joint_density", counting_density)
    for n in (1, 7, 1000):
        calls.clear()
        z, w = sample_joint(op, n, _MIXED_SEEDS)
        block_calls, rounds = len(calls), []
        for r, seed in enumerate(_MIXED_SEEDS):
            calls.clear()
            sample_joint(op, n, seed)
            rounds.append(len(calls))
            z_ref, w_ref = sample_joint_full_batch(op, n, seed)
            assert_array_equal(z[r], z_ref)
            assert_array_equal(w[r], w_ref)
        assert block_calls == max(rounds)
        if n == 1000:
            assert min(rounds) >= 4 and len(set(rounds)) > 1


@pytest.mark.parametrize("trunc", [2, 5, 8, 64])
def test_sample_joint_peak_memory(trunc):
    # the CLI bounds the sampler by sampler_doubles, so that must cover
    # everything sample_joint holds at once, and R seeds at most R times that
    op = make_operator("polynomial", 1.0, truncation=trunc)
    for n, seeds in ((16000, 1), (200000, 1), (100, range(1, 65)), (16000, [1, 2, 3]),
                     (200000, [1, 2, 3])):
        rows = 1 if seeds == 1 else len(seeds)
        sample_joint(op, n, 0 if seeds == 1 else [0] * rows)  # first-call allocations
        tracemalloc.start()
        try:
            sample_joint(op, n, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rows * sampler_doubles(op, n)


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
    assert evaluate_coeffs(phi.coeffs, np.array([0.25]))[0] == pytest.approx(1.0 - 0.5 * psi(2, 0.25), rel=1e-12)
    with pytest.raises(ValueError, match="read-only"):
        phi.coeffs[0] = 0.0
    with pytest.raises(ValueError, match="nonempty"):
        StructuralSpec(coeffs=np.zeros(0), smoothness=1.0, radius=1.0)


def test_make_structural_power_law_fills_ellipsoid():
    for p, rho, trunc in ((2.0, 1.0, 200), (1.0, 2.5, 50)):
        phi = make_structural(p, rho, truncation=trunc)
        norm = weighted_norm_sq(phi.coeffs, WeightSequence.sobolev(p).values(trunc))
        assert norm == pytest.approx(0.99 * rho, rel=1e-12)
        assert phi.truncation == trunc
        assert np.all(np.diff(np.abs(phi.coeffs)) <= 0.0)  # decaying profile
        assert phi.coeffs[0] > 0.0


def test_make_structural_custom():
    # a truth is custom exactly when it has coeffs, whose length it takes whatever the
    # truncation; the boundary of the ellipsoid is inside
    phi = make_structural(1.0, 1.0, 200, coeffs=[1.0, 0.0])
    assert_array_equal(phi.coeffs, [1.0, 0.0])
    assert phi.truncation == 2
    with pytest.raises(ValueError, match="weighted norm 4.0 > radius 1"):
        make_structural(1.0, 1.0, 1, coeffs=[2.0])
    assert make_structural(1.0, 1.0, 0, coeffs=[1.0]).truncation == 1
    with pytest.raises(ValueError, match="truncation must be >= 1"):  # read without coeffs only
        make_structural(1.0, 1.0, 0)


@pytest.mark.filterwarnings("error")
def test_make_structural_rejects_norm_beyond_doubles():
    # at smoothness 538 the Sobolev weights overflow to inf while the squared
    # coefficients underflow to 0, so the weighted norm would be NaN
    with pytest.raises(ValueError, match="smoothness 538.0 is too large for doubles"):
        make_structural(538.0, 1.0, truncation=30)
    with pytest.raises(ValueError, match="smoothness 538.0 is too large for doubles"):
        make_structural(538.0, 1.0, 3, coeffs=[1.0, 0.0, 0.0])
    assert make_structural(538.0, 1.0, 200, coeffs=[0.5]).truncation == 1


def test_a_truth_that_can_pass_the_response_bound_is_rejected():
    # sqrt(2) * sum |b_j| bounds the truth's values, which a sample's y may not pass
    with pytest.raises(ValueError, match=r"^coefficients too large for the response bound 2\*\*400: "):
        make_structural(2.0, 1e300, truncation=30)
    with pytest.raises(ValueError, match="response bound"):
        make_structural(1.0, 1e300, 1, coeffs=[2.0 ** 400])
    assert make_structural(2.0, 1e200, truncation=30).truncation == 30
    # a noise level whose draws pass the bound, though finite, overflows the response
    phi, op = make_structural(2.0, 1.0, truncation=30), make_operator("polynomial", 1.0, truncation=5)
    with pytest.raises(OverflowError, match=r"sigma=1e\+150 overflows the response y"):
        generate_samples(phi, op, 1e150, 20, [0])


def test_make_structural_validation():
    with pytest.raises(ValueError, match="smoothness must exceed 1/2"):
        make_structural(0.5, 1.0, 200)
    with pytest.raises(ValueError, match="radius must be positive"):
        make_structural(2.0, 0.0, 200)
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
    assert_array_equal(s.y, evaluate_coeffs(phi.coeffs, s.z))


def test_generate_sample_tiny_noise():
    s = generate_sample(_FLAT, _OP2, 1e-8, 500, 2)
    assert np.abs(s.y - 1.5).max() < 1e-6


def test_generate_sample_mean():
    s = generate_sample(_FLAT, _OP2, 0.3, 50000, 4)
    assert abs(float(s.y.mean()) - 1.5) < 3.0 * (0.3 / 3.0**0.25) / math.sqrt(50000)


def test_generate_sample_regression_moments():
    # E[Y psi_j(W)] is the regression coefficient t_j b_j
    phi = make_structural(1.0, 2.0, 2, coeffs=[1.0, 0.5])
    sigma = noise_sigma_for_snr(phi, 2.0)
    s = generate_sample(phi, _OP2, sigma, 100000, 5)
    target = regression_coeffs(phi, _OP2)
    assert_array_equal(target, [1.0, 0.25])
    assert np.abs(empirical_diagonal(s, 2)[1] - target).max() < 0.02


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
    # neither the truth nor the sampler's density builds a design: they are
    # Horner and Clenshaw sums, so no basis column is evaluated while drawing a sample
    widths = []
    real = basis.trig_columns

    def counting(points, lo, hi):
        widths.append(hi - lo + 1)
        return real(points, lo, hi)

    for name, mod in list(sys.modules.items()):
        if name.startswith("npiv") and hasattr(mod, "trig_columns"):
            monkeypatch.setattr(mod, "trig_columns", counting)
    phi = make_structural(2.0, 1.0, truncation=200)
    op = make_operator("polynomial", 1.0, truncation=5)
    s = generate_sample(phi, op, 0.1, 2000, 6)
    assert widths == []
    basis.trig_design(s.z, op.truncation)  # the counter is live
    assert widths == [op.truncation]


@pytest.mark.parametrize("n", [1, 2, 3, 100, 8000])
def test_generate_samples_match_single_seeds(n):
    # one sampler call and one truth evaluation per block, and the same bits as
    # drawing each seed alone; a one-point block evaluates its truth row by row
    phi = make_structural(2.0, 1.0, truncation=200)
    op = make_operator("polynomial", 1.0, truncation=5)
    sigma = noise_sigma_for_snr(phi, 2.0)
    seeds = _MIXED_SEEDS + [task_seed(1, n, r) for r in range(56)]
    single = {seed: generate_sample(phi, op, sigma, n, seed) for seed in seeds}
    for size in (1, 2, 7, 64):
        block = generate_samples(phi, op, sigma, n, seeds[:size])
        assert len(block) == size
        for seed, s in zip(seeds, block):
            assert_array_equal(s.y, single[seed].y)
            assert_array_equal(s.z, single[seed].z)
            assert_array_equal(s.w, single[seed].w)


def test_generate_samples_frees_a_block_without_the_cyclic_collector(monkeypatch):
    # the samples share one diagonal store, filled in one basis call per
    # variable; it keeps the members' arrays, not the samples, so deleting
    # the list frees every sample by reference counting
    sizes = []
    real = estimator.trig_columns
    monkeypatch.setattr(estimator, "trig_columns", lambda x, lo, hi: sizes.append(x.size) or real(x, lo, hi))
    phi = make_structural(2.0, 1.0, truncation=200)
    op = make_operator("polynomial", 1.0, truncation=5)
    gc.collect()
    gc.disable()
    try:
        block = generate_samples(phi, op, 0.5, 50, range(4))
        for s in block:
            empirical_diagonal(s, 8)
        assert sizes == [200, 200]
        refs = [weakref.ref(s) for s in block]
        del block, s
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100])
def test_evaluate_coeffs_of_a_block_matches_its_rows(n):
    # generate_samples relies on this at every n
    rng = np.random.default_rng(n)
    for coeffs in (rng.standard_normal(41), make_structural(2.0, 1.0, truncation=200).coeffs):
        rows = rng.random((9, n))
        rows[0, 0], rows[-1, -1] = 0.0, 1.0
        assert_array_equal(
            evaluate_coeffs(coeffs, rows.ravel()), np.concatenate([evaluate_coeffs(coeffs, r) for r in rows])
        )


def test_generate_sample_validation():
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        generate_sample(_FLAT, _OP2, -0.1, 10, 0)


def test_regression_coeffs_padding():
    phi = make_structural(1.0, 2.0, 2, coeffs=[1.0, 0.0])
    op4 = make_operator("polynomial", 1.0, truncation=4)
    r = regression_coeffs(phi, op4)
    assert r.size == 4
    assert r[0] == 1.0
    assert_array_equal(r[1:], np.zeros(3))
    zero = make_structural(1.0, 2.0, 2, coeffs=[0.0, 0.0])
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

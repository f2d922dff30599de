"""Synthetic data generator with a known diagonal instrument operator.

The joint density of (regressor, instrument) is a finite basis expansion
1 + sum_{j>=2} t_j psi_j(z) psi_j(w), which has uniform marginals and makes
the conditional expectation operator exactly diagonal with coefficients
t_j.  Structural truths are coefficient vectors inside a smoothness
ellipsoid, and responses add centred noise with a pinned fourth moment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import SQRT2, WeightSequence, _checked_points, evaluate_coeffs, weighted_norm_sq
from .estimator import _Y_MAX, Sample, _share_diagonal

# Independent random streams per seed.
STREAM_JOINT = 0
STREAM_NOISE = 1


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def task_seed(master_seed: int, n: int, replication: int) -> int:
    """Derived seed for one (sample size, replication) cell of a study.

    Stable under any execution order, so parallel runs reproduce serial
    ones exactly.
    """
    if master_seed < 0:
        raise ValueError(f"seed must be nonnegative, got {master_seed}")
    ss = np.random.SeedSequence([master_seed, n, replication])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class OperatorSpec:
    """Diagonal conditional-expectation operator for the simulator.

    ``diag`` holds t_1..t_J with t_1 = 1, J the ``truncation``; ``scale`` is
    the common factor applied to the square roots of the operator weights;
    ``density_floor`` is a certified lower bound for the joint density and
    ``link_constant`` the largest ratio between squared diagonal coefficients
    and operator weights in either direction.  ``envelope``, derived once from
    ``diag``, is the rejection sampler's bound 1 + 2 * sum_{j>=2} |t_j| on the density.
    """

    decay: str
    a: float
    scale: float
    diag: np.ndarray
    density_floor: float
    link_constant: float
    weights: WeightSequence

    def __post_init__(self) -> None:
        t = np.asarray(self.diag, dtype=float).copy()
        t.setflags(write=False)
        object.__setattr__(self, "diag", t)
        if t.ndim != 1 or t.size < 1 or t[0] != 1.0:
            raise ValueError("diag must be a vector starting with t_1 = 1")
        object.__setattr__(self, "envelope", 1.0 + 2.0 * float(np.sum(np.abs(t[1:]))))

    @property
    def truncation(self) -> int:
        return self.diag.size


def _link_constant(ratios: np.ndarray) -> float:
    """max(1, r_j, 1 / r_j) over the ratios of squared coefficients to operator weights."""
    with np.errstate(divide="ignore"):
        return max(float(np.max(ratios, initial=1.0)), float(np.max(1.0 / ratios, initial=1.0)))


def make_operator(decay: str, a: float, truncation: int) -> OperatorSpec:
    """Build the diagonal operator t_j = c * sqrt(l_j) for a decay family.

    ``decay`` is "polynomial" or "exponential" with exponent ``a``.  The
    scale c is the largest value at most 1 keeping the joint density
    nonnegative, c = min(1, 1 / (2 * sum_{j>=2} sqrt(l_j))).  Changing c
    moves only the link constant, never the decay rate.
    """
    if truncation < 2:
        raise ValueError(f"operator truncation must be >= 2, got {truncation}")
    if decay == "polynomial":
        weights = WeightSequence.polynomial_decay(a)
    elif decay == "exponential":
        weights = WeightSequence.exponential_decay(a)
    else:
        raise ValueError(f"unknown operator decay {decay!r}")
    lam = weights.values(truncation)
    roots = np.sqrt(lam)
    tail = float(np.sum(roots[1:]))
    c = min(1.0, 0.5 / tail)  # (0.5 / tail)(1 + d), |d| <= 2**-53, and 2c is exact: 2c * tail <= 1
    diag = c * roots
    diag[0] = 1.0
    floor = 1.0 - 2.0 * c * tail
    return OperatorSpec(
        decay=decay,
        a=float(a),
        scale=c,
        diag=diag,
        density_floor=floor,
        link_constant=_link_constant(diag[1:] ** 2 / lam[1:]),
        weights=weights,
    )


def joint_density(op: OperatorSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate the joint density 1 + sum_{j>=2} t_j psi_j(z) psi_j(w) at 1-D point arrays.

    By product to sum, frequency f adds p_f cos(2 pi f (z - w)) + q_f cos(2 pi f (z + w))
    with p_f = t_{2f} + t_{2f+1} and q_f = t_{2f} - t_{2f+1}.  With c = cos 2 pi (z -+ w),
    Clenshaw's recurrence b_f = p_f + 2c b_{f+1} - b_{f+2} (f = F..1) sums each as c b_1 - b_2
    in separately rounded float64 ufuncs: two real cosines per point, no design, and each
    value a bitwise pure function of its point.  Its error grows like F**2 * eps near
    z = w and z + w = 1, against F * eps for Horner's rule in complex exponentials.
    """
    zz, ww = _checked_points(z), _checked_points(w)
    if zz.shape != ww.shape:
        raise ValueError("z and w must have matching shapes")
    even = op.diag[1::2]
    odd = np.append(op.diag[2::2], 0.0)[: even.size]  # t_{T+1} = 0 for an even T
    vals = np.ones(zz.size)
    two_c, b1, b2, tmp = np.empty((4, zz.size))
    for p, combine in ((even + odd, np.subtract), (even - odd, np.add)):
        combine(zz, ww, out=two_c)
        np.multiply(two_c, 2.0 * math.pi, out=two_c)
        np.cos(two_c, out=two_c)
        np.add(two_c, two_c, out=two_c)
        b1[:] = b2[:] = 0.0
        for p_f in p[::-1]:
            np.multiply(two_c, b1, out=tmp)
            np.subtract(tmp, b2, out=b2)
            np.add(b2, p_f, out=b2)
            b1, b2 = b2, b1
        np.multiply(two_c, b1, out=b1)
        np.multiply(b1, 0.5, out=b1)  # c b_1, exactly
        np.subtract(b1, b2, out=b1)
        vals += b1
    return vals


def proposal_batch(op: OperatorSpec, n: int) -> int:
    """Proposals ``sample_joint`` draws in one batch while n pairs are missing."""
    return max(1024, int(math.ceil(n * op.envelope * 1.2)))


def sampler_doubles(op: OperatorSpec, n: int) -> int:
    """Doubles ``sample_joint`` holds at its peak while drawing n pairs for one seed.

    Its first batch of m = ``proposal_batch(op, n)`` proposals is the largest.  Counted
    per proposal: z, w and u (3), and in ``joint_density`` on a first slice of at most
    m / 1.2 + 17 the sum so far, 2c, b_1, b_2 and scratch (5).  tracemalloc measured at
    most 7.4 a proposal.  A sequence of seeds holds the sum over its seeds.
    """
    return 8 * proposal_batch(op, n)


def sample_joint(op: OperatorSpec, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs (z, w) from the joint density by rejection sampling.

    Proposals are uniform on the unit square with the constant envelope
    1 + 2 * sum_{j>=2} |t_j|, drawn in whole batches but judged in slices sized
    to the missing pairs, up to the n-th acceptance.  Deterministic for a given seed.
    For a sequence of seeds, z and w are (len(seeds), n) arrays whose row r is, bit for
    bit, the draw for ``seeds[r]`` alone: each round judges the slices of all unfinished
    rows in one ``joint_density`` call, whose input a new batch's first slice is drawn into.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if op.density_floor < 0.0:
        raise ValueError("operator density floor is negative, not a valid density")
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)  # not an array: one past 2**63 makes it float64
    rngs = [stream_rng(s, STREAM_JOINT) for s in seeds]
    rest = [np.empty((3, 0))] * len(seeds)  # each row's unjudged z, w and u
    have = [0] * len(seeds)
    out = None
    while rows := [r for r, h in enumerate(have) if h < n]:
        batch = [proposal_batch(op, n - have[r]) if rest[r].size == 0 else 0 for r in rows]
        ends = list(itertools.accumulate(
            min(m or rest[r].shape[1], math.ceil((n - have[r]) * op.envelope) + 16)
            for r, m in zip(rows, batch)
        ))
        part = np.empty((3, ends[-1]))
        for r, m, a, b in zip(rows, batch, [0] + ends, ends):
            if m:  # a new batch: each of its z, w and u is drawn as slice then remainder
                rest[r] = np.empty((3, m - (b - a)))
                for i in range(3):
                    rngs[r].random(out=part[i, a:b])
                    rngs[r].random(out=rest[r][i])
            else:
                part[:, a:b] = rest[r][:, : b - a]
                rest[r] = rest[r][:, b - a :]
        density = joint_density(op, part[0], part[1])
        if out is None:  # only now, with the density's scratch rows freed
            out = np.empty((2, len(seeds), n))
        for r, a, b in zip(rows, [0] + ends, ends):
            keep = density[a:b] >= part[2, a:b] * op.envelope
            got = part[:2, a:b][:, keep][:, : n - have[r]]
            out[:, r, have[r] : have[r] + got.shape[1]] = got
            have[r] += got.shape[1]
    z, w = out if out is not None else np.empty((2, 0, n))
    return (z[0], w[0]) if single else (z, w)


@dataclass(frozen=True)
class StructuralSpec:
    """Structural truth as a finite coefficient vector in a smoothness ellipsoid.

    ``smoothness`` and ``radius`` describe the ellipsoid the coefficients
    were checked against; ``truncation`` is the vector length.
    """

    coeffs: np.ndarray
    smoothness: float
    radius: float

    def __post_init__(self) -> None:
        b = np.asarray(self.coeffs, dtype=float).copy()
        b.setflags(write=False)
        object.__setattr__(self, "coeffs", b)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("coefficient vector must be a nonempty vector")

    @property
    def truncation(self) -> int:
        return self.coeffs.size


# Custom truths may sit exactly on the ellipsoid boundary; allow for the
# rounding of the norm computation itself.
_ELLIPSOID_RTOL = 1e-9


def _ellipsoid_norm(b: np.ndarray, smoothness: float) -> float:
    """Sobolev-weighted squared norm of ``b``; rejects one that is not a finite double.

    At a large smoothness the weights overflow to inf while the squared
    coefficients underflow to 0, and inf * 0 makes the norm NaN.
    """
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        norm = weighted_norm_sq(b, WeightSequence.sobolev(smoothness).values(b.size))
    if not math.isfinite(norm):
        raise ValueError(
            f"smoothness {smoothness} is too large for doubles: the ellipsoid norm "
            f"of the coefficients is {norm}"
        )
    return norm


def make_structural(smoothness: float, radius: float, truncation: int, coeffs=None) -> StructuralSpec:
    """Construct a structural truth inside the smoothness ellipsoid.

    Without ``coeffs``, b_1..b_truncation are proportional to j**-(smoothness + 0.51),
    scaled so the weighted norm fills 99% of the radius.  A custom truth gives its
    ``coeffs``, which are validated against the ellipsoid instead, whatever ``truncation``.
    """
    if not smoothness > 0.5:
        raise ValueError(f"smoothness must exceed 1/2, got {smoothness}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if coeffs is None:
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        j = np.arange(1, truncation + 1, dtype=float)
        shape = j ** -(smoothness + 0.51)
        norm = _ellipsoid_norm(shape, smoothness)
        b = shape * math.sqrt(0.99 * radius / norm)
    else:
        b = np.asarray(coeffs, dtype=float)
        norm = _ellipsoid_norm(b, smoothness)
        if norm > radius * (1.0 + _ELLIPSOID_RTOL):
            raise ValueError(
                f"coefficients lie outside the ellipsoid: weighted norm {norm} > radius {radius}"
            )
    if (bound := SQRT2 * float(np.abs(b).sum())) > _Y_MAX:  # bounds |phi|; finite, as the norm is
        raise ValueError(f"coefficients too large for the response bound 2**400: sqrt(2) * sum |b_j| = {bound:.3g}")
    return StructuralSpec(coeffs=b, smoothness=float(smoothness), radius=float(radius))


def noise_sigma_for_snr(phi: StructuralSpec, snr: float) -> float:
    """Noise level giving a target signal-to-noise ratio.

    The ratio is sd of the structural signal over sd of the noise; the
    constant coefficient carries no variance.  Returned is the fourth-moment
    parameter sigma, with actual noise sd sigma / 3**(1/4).
    """
    if not snr > 0:
        raise ValueError(f"signal-to-noise ratio must be positive, got {snr}")
    signal_var = float(np.sum(phi.coeffs[1:] ** 2))
    if signal_var == 0.0:
        raise ValueError("structural signal has no variance, snr undefined")
    sigma = 3.0 ** 0.25 * math.sqrt(signal_var) / snr
    if not math.isfinite(sigma):
        raise ValueError(f"signal-to-noise ratio {snr} is too small: the noise level overflows")
    return sigma


def generate_samples(
    phi: StructuralSpec, op: OperatorSpec, sigma: float, n: int, seeds
) -> list[Sample]:
    """Draw a sample y = phi(z) + u with (z, w) from the joint density for each seed.

    The noise is Gaussian with standard deviation sigma / 3**(1/4), which
    pins its fourth moment to exactly sigma**4; a response it takes past
    2**400 raises OverflowError.  The joint draw and the noise use separate
    streams of the same seed.  One ``sample_joint`` call draws every (z, w)
    and the truth is evaluated once on their concatenated z, so sample r
    equals, bit for bit, the one drawn for ``seeds[r]`` alone.  The samples
    share one diagonal-moment store (see ``empirical_diagonal``).
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    seeds = list(seeds)
    z, w = sample_joint(op, n, seeds)
    signal = evaluate_coeffs(phi.coeffs, z.ravel()).reshape(z.shape)
    samples = []
    for seed, y, z_r, w_r in zip(seeds, signal, z, w):
        if sigma > 0:
            y = y + stream_rng(seed, STREAM_NOISE).normal(0.0, sigma / 3.0 ** 0.25, n)
            if np.abs(y).max() > _Y_MAX:  # inf included
                raise OverflowError(f"noise level sigma={sigma!r} overflows the response y")
        samples.append(Sample(y=y, z=z_r, w=w_r))
    _share_diagonal(samples)
    return samples


def generate_sample(
    phi: StructuralSpec, op: OperatorSpec, sigma: float, n: int, seed: int
) -> Sample:
    """``generate_samples`` for the one seed ``seed``."""
    return generate_samples(phi, op, sigma, n, [seed])[0]

"""Synthetic data generator with a known diagonal instrument operator.

The joint density of (regressor, instrument) is a finite basis expansion
1 + sum_{j>=2} t_j psi_j(z) psi_j(w), which has uniform marginals and makes
the conditional expectation operator exactly diagonal with coefficients
t_j.  Structural truths are coefficient vectors inside a smoothness
ellipsoid, and responses add centred noise with a pinned fourth moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import WeightSequence, evaluate_coeffs, trig_design, weighted_norm_sq
from .estimator import Sample

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

    ``diag`` holds t_1..t_J with t_1 = 1; ``scale`` is the common factor
    applied to the square roots of the operator weights; ``density_floor``
    is a certified lower bound for the joint density and ``link_constant``
    the largest ratio between squared diagonal coefficients and operator
    weights in either direction (inf for degenerate custom operators).
    """

    decay: str
    a: float | None
    truncation: int
    scale: float
    diag: np.ndarray
    density_floor: float
    link_constant: float
    weights: WeightSequence | None

    def __post_init__(self) -> None:
        t = np.asarray(self.diag, dtype=float).copy()
        t.setflags(write=False)
        object.__setattr__(self, "diag", t)
        if t.ndim != 1 or t.size != self.truncation:
            raise ValueError("diag must have length equal to the truncation")
        if t.size < 1 or t[0] != 1.0:
            raise ValueError("diag must start with t_1 = 1")


def make_operator(decay: str, a: float, truncation: int = 64) -> OperatorSpec:
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
    c = min(1.0, 0.5 / tail)
    # Guard the nonnegativity certificate against rounding in 2*c*tail.
    while 2.0 * c * tail > 1.0:
        c = float(np.nextafter(c, 0.0))
    diag = c * roots
    diag[0] = 1.0
    floor = 1.0 - 2.0 * c * tail
    with np.errstate(divide="ignore"):
        ratios = diag[1:] ** 2 / lam[1:]
        link = max(1.0, float(np.max(ratios)), float(np.max(1.0 / ratios)))
    return OperatorSpec(
        decay=decay,
        a=float(a),
        truncation=int(truncation),
        scale=c,
        diag=diag,
        density_floor=floor,
        link_constant=link,
        weights=weights,
    )


def custom_operator(diag) -> OperatorSpec:
    """Wrap an explicit diagonal coefficient vector (t_1 must be 1).

    Mainly for degenerate fixtures; the density floor certificate may be
    negative for vectors too large to be a valid density, in which case
    sampling refuses to run.
    """
    t = np.asarray(diag, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("diag must be a nonempty vector")
    tail = float(np.sum(np.abs(t[1:])))
    with np.errstate(divide="ignore"):
        nz = t[1:] != 0.0
        link = math.inf if not np.all(nz) else max(1.0, float(np.max(t[1:] ** 2)), float(np.max(1.0 / t[1:] ** 2)))
    return OperatorSpec(
        decay="custom",
        a=None,
        truncation=t.size,
        scale=1.0,
        diag=t,
        density_floor=1.0 - 2.0 * tail,
        link_constant=link,
        weights=None,
    )


def joint_density(op: OperatorSpec, z, w) -> np.ndarray | float:
    """Evaluate the joint density 1 + sum_{j>=2} t_j psi_j(z) psi_j(w)."""
    scalar = np.ndim(z) == 0 and np.ndim(w) == 0
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    ww = np.atleast_1d(np.asarray(w, dtype=float))
    if zz.shape != ww.shape:
        raise ValueError("z and w must have matching shapes")
    pz = trig_design(zz, op.truncation)
    pw = trig_design(ww, op.truncation)
    vals = 1.0 + (pz[:, 1:] * pw[:, 1:]) @ op.diag[1:]
    return float(vals[0]) if scalar else vals


def _envelope(op: OperatorSpec) -> float:
    return 1.0 + 2.0 * float(np.sum(np.abs(op.diag[1:])))


def proposal_batch(op: OperatorSpec, n: int) -> int:
    """Proposals ``sample_joint`` draws in one batch while n pairs are missing.

    The batch's density evaluation builds two designs of this many rows and
    ``op.truncation`` columns.
    """
    return max(1024, int(math.ceil(n * _envelope(op) * 1.2)))


def sample_joint(op: OperatorSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs (z, w) from the joint density by rejection sampling.

    Proposals are uniform on the unit square with the constant envelope
    1 + 2 * sum_{j>=2} |t_j|.  Deterministic for a given seed.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if op.density_floor < 0.0:
        raise ValueError("operator density floor is negative, not a valid density")
    rng = stream_rng(seed, STREAM_JOINT)
    envelope = _envelope(op)
    zs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    have = 0
    while have < n:
        m = proposal_batch(op, n - have)
        z = rng.random(m)
        w = rng.random(m)
        u = rng.random(m)
        keep = u * envelope <= joint_density(op, z, w)
        zs.append(z[keep])
        ws.append(w[keep])
        have += int(keep.sum())
    z = np.concatenate(zs)[:n]
    w = np.concatenate(ws)[:n]
    return z, w


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

    def __call__(self, points):
        return evaluate_coeffs(self.coeffs, points)


# Custom truths may sit exactly on the ellipsoid boundary; allow for the
# rounding of the norm computation itself.
_ELLIPSOID_RTOL = 1e-9


def _ellipsoid_norm(b: np.ndarray, smoothness: float) -> float:
    """Sobolev-weighted squared norm of ``b``; rejects one that is not a finite double.

    At a large smoothness the weights overflow to inf while the squared
    coefficients underflow to 0, and inf * 0 makes the norm NaN.
    """
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        norm = weighted_norm_sq(b, WeightSequence.sobolev(smoothness))
    if not math.isfinite(norm):
        raise ValueError(
            f"smoothness {smoothness} is too large for doubles: the ellipsoid norm "
            f"of the coefficients is {norm}"
        )
    return norm


def make_structural(
    smoothness: float,
    radius: float,
    truncation: int = 200,
    profile: str = "power_law",
    coeffs=None,
) -> StructuralSpec:
    """Construct a structural truth inside the smoothness ellipsoid.

    ``power_law`` sets b_j proportional to j**-(smoothness + 0.51), scaled
    so the weighted norm fills 99% of the radius; ``custom`` validates the
    supplied coefficients against the ellipsoid instead.
    """
    if not smoothness > 0.5:
        raise ValueError(f"smoothness must exceed 1/2, got {smoothness}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if profile == "power_law":
        if coeffs is not None:
            raise ValueError("power_law profile does not take explicit coefficients")
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        j = np.arange(1, truncation + 1, dtype=float)
        shape = j ** -(smoothness + 0.51)
        norm = _ellipsoid_norm(shape, smoothness)
        b = shape * math.sqrt(0.99 * radius / norm)
        return StructuralSpec(coeffs=b, smoothness=float(smoothness), radius=float(radius))
    if profile == "custom":
        if coeffs is None:
            raise ValueError("custom profile needs explicit coefficients")
        b = np.asarray(coeffs, dtype=float)
        norm = _ellipsoid_norm(b, smoothness)
        if norm > radius * (1.0 + _ELLIPSOID_RTOL):
            raise ValueError(
                f"coefficients lie outside the ellipsoid: weighted norm {norm} > radius {radius}"
            )
        return StructuralSpec(coeffs=b, smoothness=float(smoothness), radius=float(radius))
    raise ValueError(f"unknown structural profile {profile!r}")


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
    return 3.0 ** 0.25 * math.sqrt(signal_var) / snr


def generate_sample(
    phi: StructuralSpec, op: OperatorSpec, sigma: float, n: int, seed: int
) -> Sample:
    """Draw a sample y = phi(z) + u with (z, w) from the joint density.

    The noise is Gaussian with standard deviation sigma / 3**(1/4), which
    pins its fourth moment to exactly sigma**4.  The joint draw and the
    noise use separate streams of the same seed.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    z, w = sample_joint(op, n, seed)
    signal = phi(z)
    if sigma > 0:
        u = stream_rng(seed, STREAM_NOISE).normal(0.0, sigma / 3.0 ** 0.25, n)
        y = signal + u
    else:
        y = signal
    return Sample(y=y, z=z, w=w)


def regression_coeffs(phi: StructuralSpec, op: OperatorSpec) -> np.ndarray:
    """Basis coefficients of the regression of y on the instrument.

    Entrywise product of the operator diagonal and the structural
    coefficients, zero-padded to the longer truncation.
    """
    j_max = max(phi.truncation, op.truncation)
    t = np.zeros(j_max)
    b = np.zeros(j_max)
    t[: op.truncation] = op.diag
    b[: phi.truncation] = phi.coeffs
    return t * b

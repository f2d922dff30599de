"""Trigonometric basis on [0, 1] and weighted coefficient arithmetic.

The basis is the usual real Fourier system indexed from 1: the constant
function first, then cosine/sine pairs of increasing frequency.  Weight
sequences attach a positive weight to each basis index and are the common
currency for smoothness classes, operator decay and risk norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# Smallest positive double.  Decay weights underflow (exponential past index
# ~27 at a = 1, polynomial at a = 538); saturating there keeps every weight
# strictly positive while downstream ratios harmlessly overflow to inf.
_TINY = np.nextafter(0.0, 1.0)


def frequency(j: int) -> int:
    """Frequency of basis index ``j`` (0 for the constant)."""
    return j // 2


def _checked_points(points, name: str = "evaluation points") -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("points must be one-dimensional")
    if not np.all((pts >= 0.0) & (pts <= 1.0)):  # NaN fails both
        raise ValueError(f"{name} must lie in [0, 1]")
    return pts


def trig_columns(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Evaluate basis functions lo..hi (1-based, inclusive) at ``points``; shape (n, hi - lo + 1).

    cos and sin of 2*pi*x are taken once per point; frequency f + 1 follows
    from f by the rotation (c, s) <- (c*c1 - s*s1, s*c1 + c*s1) in separately
    rounded real operations (numpy's complex multiply rounds one element
    differently from several).  Each entry is thus within O(f * eps) of
    sqrt(2) * cos or sin of 2*pi*f*x, at most sqrt(2) in size, and a bitwise
    pure function of (point, index), so a range or row slice matches the full
    design bit for bit.  The result is column-major: each column is one
    contiguous row of a buffer.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"basis indices must satisfy 1 <= lo <= hi, got lo={lo}, hi={hi}")
    pts = _checked_points(points)
    out = np.empty((hi - lo + 1, pts.size))
    if lo == 1:
        out[0] = 1.0
    if hi > 1:
        tmp = (2.0 * math.pi) * pts
        c1, s1 = np.cos(tmp), np.sin(tmp)
        c, s, cs1 = c1.copy(), s1.copy(), np.empty_like(tmp)
        for f in range(1, frequency(hi) + 1):
            if f > 1:
                np.multiply(c, s1, out=cs1)
                np.multiply(c, c1, out=c)
                np.multiply(s, s1, out=tmp)
                np.subtract(c, tmp, out=c)
                np.multiply(s, c1, out=s)
                np.add(s, cs1, out=s)
            for j in range(max(lo, 2 * f), min(hi, 2 * f + 1) + 1):
                np.multiply(s if j % 2 else c, SQRT2, out=out[j - lo])
        np.clip(out, -SQRT2, SQRT2, out=out)
    return out.T


def trig_design(points: np.ndarray, k: int) -> np.ndarray:
    """Design matrix of the first ``k`` basis functions at ``points``."""
    if k < 1:
        raise ValueError(f"design width must be >= 1, got {k}")
    return trig_columns(points, 1, k)


def evaluate_coeffs(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the series with coefficient vector ``coeffs`` at the 1-D array ``points``.

    With omega = exp(2*pi*i*z) and d_f = c_{2f} - i*c_{2f+1}, the series is
    c_1 + sqrt(2) * Re(sum_{f=1}^{F} d_f * omega**f).  Horner's rule sums it
    from f = F down to 1, acc = acc * omega + d_f, so each point costs one
    complex exponential and the memory is O(n), with no n x k design.  As
    |omega| = 1 the rounding error is O(F * eps * sum_j |c_j|) at every point,
    z = 0 and 1 included.  Real Clenshaw, as in ``simulate.joint_density``, would
    need a second recurrence for the sine terms, and its F**2 * eps error near
    z = 0 and 1 matters for truths of F = 100 frequencies.  numpy's complex
    multiply rounds a one-element array otherwise than a longer one, so a lone
    point is summed as two copies of itself: each value is a bitwise pure
    function of its point, alone or inside any array.
    """
    c = np.asarray(coeffs, dtype=float)
    pts = _checked_points(points)
    d = c[1::2].astype(complex)
    sin = c[2::2]
    d.imag[: sin.size] = -sin
    omega = (2j * math.pi) * (np.repeat(pts, 2) if pts.size == 1 else pts)
    np.exp(omega, out=omega)
    acc = np.zeros(omega.size, dtype=complex)
    for d_f in d[::-1]:
        acc *= omega
        acc += d_f
    acc *= omega
    return (c[0] if c.size else 0.0) + SQRT2 * acc.real[: pts.size]


@dataclass(frozen=True)
class WeightSequence:
    """Strictly positive weights w_1, w_2, ... evaluated lazily by index.

    Three kinds: ``power`` weights j**(2p) for a finite p of either sign and
    ``exponential`` weights exp(-j**(2a)) for a > 0, both with w_1 = 1, and
    ``custom``, an explicit table taken as given that covers only its length.
    ``constant()``, ``sobolev(r)``, ``derivative(s)`` and
    ``polynomial_decay(a)`` are power weights with p = 0, r, s and -a.
    """

    kind: str
    param: float | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "custom":
            if not self.table:
                raise ValueError("custom weights need a nonempty table")
            if any(not math.isfinite(v) or v <= 0 for v in self.table):
                raise ValueError("custom weights must be finite and strictly positive")
        elif self.kind not in ("power", "exponential"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        elif self.param is None:
            raise ValueError(f"weight kind {self.kind!r} needs a parameter")
        elif not math.isfinite(self.param):
            raise ValueError("weight exponent must be finite")
        elif self.kind == "exponential" and self.param <= 0:
            raise ValueError("decay exponent must be positive")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls) -> "WeightSequence":
        return cls("power", param=0.0)

    @classmethod
    def sobolev(cls, r: float) -> "WeightSequence":
        if r < 0:
            raise ValueError("growth exponent must be nonnegative")
        return cls("power", param=float(r))

    derivative = sobolev

    @classmethod
    def polynomial_decay(cls, a: float) -> "WeightSequence":
        if a <= 0:
            raise ValueError("decay exponent must be positive")
        return cls("power", param=-float(a))

    @classmethod
    def exponential_decay(cls, a: float) -> "WeightSequence":
        return cls("exponential", param=float(a))

    @classmethod
    def custom(cls, values) -> "WeightSequence":
        return cls("custom", table=tuple(float(v) for v in values))

    # -- evaluation -------------------------------------------------------

    def values(self, k: int, lo: int = 1) -> np.ndarray:
        """The weights w_lo..w_k as an array, each with the bits of its entry in ``values(k)``."""
        if k < 0:
            raise ValueError(f"requested length must be >= 0, got {k}")
        if self.kind == "custom":
            if k > len(self.table):
                raise ValueError(
                    f"custom weight table has {len(self.table)} entries, index {k} requested"
                )
            return np.array(self.table[lo - 1:k], dtype=float)
        # Growth weights past the double range become inf, a handled case.
        with np.errstate(over="ignore"):
            powers = np.arange(lo, k + 1, dtype=float) ** (2.0 * self.param)
            w = np.maximum(powers if self.kind == "power" else np.exp(-powers), _TINY)
        if lo == 1:
            w[:1] = 1.0
        return w


# Each name a weight spec may start with, and the constructor it calls.
_SPEC_NAMES = {
    "const": WeightSequence.constant, "constant": WeightSequence.constant, "custom": WeightSequence.custom,
    "sobolev": WeightSequence.sobolev, "derivative": WeightSequence.derivative, "deriv": WeightSequence.derivative,
    "poly": WeightSequence.polynomial_decay, "polynomial": WeightSequence.polynomial_decay,
    "exp": WeightSequence.exponential_decay, "exponential": WeightSequence.exponential_decay,
}


def parse_weights(spec: str) -> WeightSequence:
    """Parse a command-line weight description.

    Accepted forms: ``const``, ``sobolev:R``, ``derivative:S``, ``poly:A``,
    ``exp:A`` and ``custom:V1,V2,...``.
    """
    name, _, arg = spec.strip().partition(":")
    name = name.lower()
    if name not in _SPEC_NAMES:
        raise ValueError(f"bad weight spec {spec!r}: unknown kind {name!r}")
    make = _SPEC_NAMES[name]
    try:
        if make == WeightSequence.constant:  # bound methods are equal, not identical
            if arg:
                raise ValueError("constant weights take no parameter")
            return make()
        if make == WeightSequence.custom:
            return make(float(v) for v in arg.split(","))
        if not arg:
            raise ValueError(f"weight kind {name!r} needs a parameter, e.g. {name}:1")
        return make(float(arg))
    except ValueError as exc:
        raise ValueError(f"bad weight spec {spec!r}: {exc}") from None


def weighted_norm_sq(coeffs: np.ndarray, weights: np.ndarray) -> float:
    """Weighted squared norm sum_j w_j c_j**2, with w_j the leading entries of the array ``weights``."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise ValueError("coefficient vector must be one-dimensional")
    return float(np.dot(weights[: c.size], c * c))

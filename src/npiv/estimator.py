"""Empirical moment matrices and the thresholded series estimator.

Given observations (y_i, z_i, w_i) the structural function is estimated by
solving the empirical analogue of the conditional moment equation on the
span of the first k basis functions: either with the full k x k empirical
operator matrix (``galerkin_estimate``) or with its diagonal only
(``diagonal_estimate``), each guarded by a stability threshold that returns
the zero estimate when the inversion is too ill-conditioned to trust.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import (
    WeightSequence,
    _checked_points,
    frequency,
    trig_columns,
    trig_design,
    weighted_norm_sq,
)

# The largest |y| a sample may hold.  With n <= 2**27 rows (1 GiB of doubles), n * y**2 stays below
# 2**827 and each g_j below 2**401; fits inside a cutoff (t_j**2 >= 1/n) stay below 2**415, so with
# w_j <= n for j >= 2 select's contrast and y2 * delta_k (delta_k < 2**87) stay below 2**890.
_Y_MAX = 2.0 ** 400


@dataclass(frozen=True)
class Sample:
    """Immutable container for observations of (response, regressor, instrument).

    ``y`` must lie in [-2**400, 2**400], ``z`` and ``w`` in [0, 1]; all three share one length.
    """

    y: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y", "z", "w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.y.size == self.z.size == self.w.size):
            raise ValueError("y, z, w must have equal length")
        if self.y.size == 0:
            raise ValueError("sample must contain at least one row")
        if not np.all(np.abs(self.y) <= _Y_MAX):  # NaN fails too
            raise ValueError("y contains non-finite values or values outside [-2**400, 2**400]")
        for name in "zw":
            _checked_points(getattr(self, name), f"{name} values")

    @property
    def n(self) -> int:
        return self.y.size

    @cached_property
    def _diagonal(self) -> tuple[_DiagonalStore, int]:
        """The store holding this sample's diagonal prefix, and its row there."""
        return _DiagonalStore([self]), 0


CSV_HEADER = ("y", "z", "w")


def load_csv(path) -> Sample:
    """Read a sample from UTF-8 CSV with header ``y,z,w``, after a byte-order mark if any.

    One ``np.loadtxt`` call parses the data rows, kept when it gives one row per
    line left (it skips blank ones) that ``Sample`` accepts.  Else, or for a pipe,
    the row loop reads the rows and names the first bad one by its 1-based number.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file, expected header y,z,w") from None
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise ValueError(f"{path}: expected header y,z,w, got {','.join(header)!r}")
            if fh.seekable():
                with (warnings.catch_warnings(), contextlib.suppress(ValueError),
                      open(path, encoding="utf-8-sig") as text):
                    warnings.simplefilter("ignore", UserWarning)  # a body of blank lines holds "no data"
                    lines, last = 0, "\n"  # universal newlines end every line of ``text`` with "\n"
                    while chunk := text.read(1 << 20):
                        lines, last = lines + chunk.count("\n"), chunk[-1]
                    data = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2)
                    if data.shape == (lines + (last != "\n") - reader.line_num, 3):
                        return Sample(*data.T)
                fh.seek(0)
                next(reader)
            ys, zs, ws = [], [], []
            for row_no, row in enumerate(reader, start=1):
                if len(row) != 3:
                    raise ValueError(f"{path}, row {row_no}: expected 3 fields, got {len(row)}")
                try:
                    y, z, w = (float(v) for v in row)
                except ValueError:
                    raise ValueError(f"{path}, row {row_no}: non-numeric field") from None
                if not math.isfinite(y):
                    raise ValueError(f"{path}, row {row_no}: y={y!r} is not finite")
                if abs(y) > _Y_MAX:
                    raise ValueError(f"{path}, row {row_no}: y={y!r} outside [-2**400, 2**400]")
                for name, v in (("z", z), ("w", w)):
                    if not 0.0 <= v <= 1.0:
                        raise ValueError(f"{path}, row {row_no}: {name}={v!r} outside [0, 1]")
                ys.append(y)
                zs.append(z)
                ws.append(w)
        if not ys:
            raise ValueError(f"{path}: no data rows")
        return Sample(np.array(ys), np.array(zs), np.array(ws))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_csv(sample: Sample, path) -> None:
    """Write a sample as CSV with shortest-roundtrip float formatting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for y, z, w in zip(sample.y.tolist(), sample.z.tolist(), sample.w.tolist()):
            fh.write(f"{y!r},{z!r},{w!r}\n")


@dataclass(frozen=True)
class GalerkinEstimate:
    """Coefficient estimate on the first ``k`` basis functions, k the length of ``coeffs``.

    ``thresholded`` marks the zero fallback returned when the stability
    check failed.
    """

    coeffs: np.ndarray
    thresholded: bool

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def k(self) -> int:
        return self.coeffs.size


# -- empirical moments ----------------------------------------------------


def empirical_moments(sample: Sample, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k x k operator matrix, entry (l, j) the mean of psi_l(w_i) psi_j(z_i), and the
    k-vector of means of y_i psi_l(w_i), both from one instrument design."""
    pw = trig_design(sample.w, k)
    return pw.T @ trig_design(sample.z, k) / sample.n, pw.T @ sample.y / sample.n


# Most points one fill call hands to ``trig_columns`` (a row of more goes alone).
_FILL_POINTS = 2 ** 13


class _DiagonalStore:
    """One (t, g) diagonal prefix per row for equal-size samples drawn together.

    It keeps the members' arrays, not the samples: a sample and its store
    form no reference cycle, so a block is freed as soon as its samples are.
    """

    def __init__(self, samples) -> None:
        self.y, self.z, self.w = ([getattr(s, v) for s in samples] for v in "yzw")
        self.t = self.g = np.empty((len(samples), 0))

    def grow(self, k: int) -> None:
        """Extend every row's prefix to k, in one basis call per variable and row group."""
        (m, lo), n = self.t.shape, self.y[0].size
        t, g = np.empty((m, k)), np.empty((m, k))
        t[:, :lo], g[:, :lo] = self.t, self.g
        step = max(1, _FILL_POINTS // n)
        for r in range(0, m, step):
            rows = slice(r, r + step)
            pw = trig_columns(np.concatenate(self.w[rows]), lo + 1, k).T.reshape(k - lo, -1, n)
            pz = trig_columns(np.concatenate(self.z[rows]), lo + 1, k).T.reshape(k - lo, -1, n)
            t[rows, lo:] = (pw * pz).mean(axis=-1).T
            g[rows, lo:] = (pw * np.stack(self.y[rows])).mean(axis=-1).T
        self.t, self.g = t, g


def _share_diagonal(samples: list[Sample]) -> None:
    """Give equal-size samples drawn together one diagonal store."""
    store = _DiagonalStore(samples)
    for row, sample in enumerate(samples):
        object.__setattr__(sample, "_diagonal", (store, row))


def empirical_diagonals(samples, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh (len(samples), k) arrays (t, g) of equal-size samples, one row each, with
    t_j = mean psi_j(w_i) psi_j(z_i) and g_j = mean y_i psi_j(w_i) for j = 1..k.

    Samples drawn together by ``generate_samples`` share one store of these prefixes (any
    other sample has its own).  A k beyond a store's prefix grows every member to k,
    evaluating only the missing columns on the members' concatenated points, at most
    ``_FILL_POINTS`` (or one row) per ``trig_columns`` call.  Each basis entry is a bitwise
    pure function of its point and index, and each mean is reduced along one member's
    contiguous stretch of a column of the column-major design (C-order columns would sum
    in another order), so prefixes are bitwise identical however, and beside whichever
    members, they grew, as nesting and selection traces require.
    """
    if k < 1:
        raise ValueError(f"design width must be >= 1, got {k}")
    if len({s.n for s in samples}) != 1:
        raise ValueError("samples must be nonempty and share one size")
    places = [s._diagonal for s in samples]
    for store, _ in places:
        if k > store.t.shape[1]:
            store.grow(k)
    return tuple(np.array([getattr(s, v)[r, :k] for s, r in places]) for v in "tg")


def empirical_diagonal(sample: Sample, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``empirical_diagonals`` of one sample: fresh arrays (t, g) of length k."""
    tdiag, ghat = empirical_diagonals([sample], k)
    return tdiag[0], ghat[0]


# -- estimators -----------------------------------------------------------


def galerkin_estimate(sample: Sample, k: int) -> GalerkinEstimate:
    """Solve the k x k empirical moment system, or fall back to zero.

    The solve is only trusted when the smallest singular value is at least
    1/sqrt(n), i.e. the inverse has spectral norm at most sqrt(n); otherwise
    the zero estimate is returned with ``thresholded`` set.  As entries are
    at most 2, this test also rejects every numerically singular matrix
    (smin <= eps * k * smax) unless k**2 * sqrt(n) > 2.25e15.
    """
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    that, ghat = empirical_moments(sample, k)
    smin = np.linalg.svd(that, compute_uv=False)[-1]
    if smin < 1.0 / math.sqrt(sample.n):
        return GalerkinEstimate(np.zeros(k), thresholded=True)
    return GalerkinEstimate(np.linalg.solve(that, ghat), thresholded=False)


def diagonal_estimates(samples, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows g_j / t_j of equal-size samples, and which are the zero fallback: min_j t_j**2 < 1/n."""
    tdiag, ghat = empirical_diagonals(samples, k)
    zero = np.min(tdiag * tdiag, axis=1) < 1.0 / samples[0].n
    return np.divide(ghat, tdiag, out=np.zeros_like(ghat), where=~zero[:, None]), zero


def diagonal_estimate(sample: Sample, k: int) -> GalerkinEstimate:
    """``diagonal_estimates`` of one sample."""
    coeffs, zero = diagonal_estimates([sample], k)
    return GalerkinEstimate(coeffs[0], thresholded=bool(zero[0]))


# -- derived quantities ---------------------------------------------------


def derivative_coeffs(coeffs: np.ndarray, s: int) -> np.ndarray:
    """Coefficients of the s-th derivative of the series with coefficients ``coeffs``.

    Differentiating rotates each frequency pair (cos, sin) a quarter turn
    and scales it by 2*pi*f per order; the constant term drops out.  The
    result covers whole frequency pairs, so its length is ``coeffs.size``
    rounded up to the next odd number.
    """
    if s < 1 or int(s) != s:
        raise ValueError(f"derivative order must be a positive integer, got {s}")
    c = np.asarray(coeffs, dtype=float)
    cos_sin = np.zeros(2 * frequency(c.size | 1))  # (cos, sin) of frequencies 1..F, zero-padded
    cos_sin[: c.size - 1] = c[1:]
    a, b = cos_sin[0::2], cos_sin[1::2]
    a, b = ((a, b), (b, -a), (-a, -b), (-b, a))[int(s) % 4]
    scale = np.array([(2.0 * math.pi * f) ** s for f in range(1, a.size + 1)])  # Python pow: same bits
    out = np.zeros(2 * a.size + 1)
    out[1::2], out[2::2] = scale * a, scale * b
    return out


def risks_weighted(estimates, truth: np.ndarray, weights: WeightSequence) -> np.ndarray:
    """Exact weighted squared distance of each coefficient vector to the truth, the shorter
    of the two zero-padded to the longer; the weights are read once for all of them.  A zero
    difference adds nothing, whatever its weight, and a risk past the doubles is inf."""
    b = np.asarray(truth, dtype=float)
    if b.ndim != 1:
        raise ValueError("truth coefficients must be one-dimensional")
    w = weights.values(max(max(c.size for c in estimates), b.size))
    out = np.empty(len(estimates))
    with np.errstate(over="ignore"):
        for r, c in enumerate(estimates):
            diff = np.zeros(max(c.size, b.size))
            diff[: b.size] = b
            diff[: c.size] = c - diff[: c.size]
            out[r] = weighted_norm_sq(diff, np.where(diff == 0.0, 0.0, w[: diff.size]))
    return out

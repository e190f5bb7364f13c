"""Background and observation error covariances and the factor of B.

The background covariance B is carried together with a lower-triangular
factor V satisfying B = V V^T, which preconditions the minimization (the
control variable is w with increment V w).  The observation covariance R
is restricted to a diagonal, so its inverse is an elementwise division.

On strictly increasing coordinates the Gaussian B is banded to working
precision: every entry further from the diagonal than about 8.6 length
scales is below the unit roundoff 2^-53 times the diagonal.  V is
therefore the banded Cholesky factor of B, computed in band storage in
O(n bw^2) for bw sub-diagonals and stored dense; B itself is stored
dense and unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationFailure, InvalidArgument
from .geometry import Decomposition, Grid1D


@dataclass(frozen=True)
class CovarianceModel:
    """Background covariance B with factor V, B = V V^T.

    kind is "identity" or "gaussian"; length_scale and sigma_b are only
    set for the gaussian kind.  Construction checks shapes, finite entries
    in both arrays and exact symmetry of b, then stores b and v_factor as
    read-only views, so every consumer may rely on them without checking
    again.  The factor residual is the job of factor_check, so a
    deliberately corrupted (but finite) v_factor can still be constructed
    in tests.
    """

    b: np.ndarray
    v_factor: np.ndarray
    kind: str
    length_scale: float | None = None
    sigma_b: float | None = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        v = np.asarray(self.v_factor, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DimensionMismatch(f"b must be square, got shape {b.shape}")
        if v.shape != b.shape:
            raise DimensionMismatch(
                f"v_factor shape {v.shape} does not match b shape {b.shape}"
            )
        for name, a in (("b", b), ("v_factor", v)):
            if not np.isfinite(a).all():
                raise InvalidArgument(f"{name} has non-finite entries")
            view = a.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if not _is_symmetric(b):
            raise InvalidArgument("b must be exactly symmetric")

    @property
    def n_points(self) -> int:
        return self.b.shape[0]


def _is_symmetric(b: np.ndarray) -> bool:
    # Exact b == b^T, compared tile against transposed tile over the lower
    # triangle: each transposed read then stays in cache, where the whole
    # strided b.T would not.
    n, tile = b.shape[0], 256
    for i in range(0, n, tile):
        for j in range(0, i + 1, tile):
            if not np.array_equal(b[i:i + tile, j:j + tile],
                                  b[j:j + tile, i:i + tile].T):
                return False
    return True


@dataclass(frozen=True)
class ObsCovariance:
    """Diagonal observation error covariance, stored as its diagonal."""

    r_diag: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_diag, dtype=float).reshape(-1)
        if r.size and not np.all(r > 0.0):
            raise InvalidArgument("observation variances must be positive")
        object.__setattr__(self, "r_diag", r)

    @property
    def nobs(self) -> int:
        return int(self.r_diag.size)


def _band_cholesky(b: np.ndarray, what: str) -> np.ndarray:
    # Lower Cholesky factor of the symmetric b from its band, returned
    # dense.  The band holds sub-diagonals 1..bw, where diagonal bw + 1 is
    # the first with no entry above 2^-53 * max diag(b) in magnitude; a
    # kernel that decays away from the diagonal has no larger entry beyond
    # it.  The dropped entries are at most the unit roundoff 2^-53 times
    # the largest diagonal entry, under the rounding of a dense factor.  The band is copied
    # from b bit for bit, and its factor is scattered into a zero matrix
    # through the strided flat view, one diagonal at a time.
    n = b.shape[0]
    threshold = math.ldexp(float(np.max(np.diagonal(b))), -53)
    bw = 0
    while (bw + 1 < n
           and np.max(np.abs(np.diagonal(b, -bw - 1))) > threshold):
        bw += 1
    band = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        band[k, :n - k] = np.diagonal(b, -k)
    try:
        band = scipy.linalg.cholesky_banded(band, lower=True,
                                            check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"{what} is not numerically SPD") from exc
    v = np.zeros((n, n))
    flat = v.reshape(-1)
    for k in range(bw + 1):
        flat[k * n::n + 1] = band[k, :n - k]
    return v


def build_gaussian_covariance(grid: Grid1D, length_scale: float,
                              sigma_b: float) -> CovarianceModel:
    """Squared-exponential covariance on the grid coordinates.

    b[p, q] = sigma_b^2 * exp(-(x_p - x_q)^2 / (2 * length_scale^2)) with a
    diagonal jitter of 1e-10 * sigma_b^2; the kernel alone is numerically
    rank-deficient once length_scale spans several grid spacings.
    Both parameters enter squared, so each must be positive with a square
    that neither overflows nor underflows.

    V is the Cholesky factor of the band of b: the bw sub-diagonals that
    hold an entry above 2^-53 * max diag(b), the points within about 8.6
    length scales (bw = 4 / 17 / 68 at length_scale 0.5 / 2 / 8 on a unit
    grid).  No dropped entry exceeds the unit roundoff 2^-53 times the
    diagonal, so B - V V^T stays at rounding level.  The factor costs
    O(n bw^2) instead of the O(n^3) of a dense Cholesky; when the length
    scale spans the grid the band is full (bw = n - 1), and the cost is
    that of the dense factor again.
    """
    for name, value in (("length_scale", length_scale), ("sigma_b", sigma_b)):
        if not (value > 0.0 and 0.0 < value * value < math.inf):
            raise InvalidArgument(
                f"{name} must be positive with a finite, nonzero square, "
                f"got {value}"
            )
    # no named n x n difference array: it would stay live through the
    # Cholesky and raise the peak memory of the build by a third
    x = grid.coords
    b = sigma_b**2 * np.exp(-((x[:, None] - x[None, :])**2)
                            / (2.0 * length_scale**2))
    b[np.diag_indices_from(b)] += 1e-10 * sigma_b**2
    v = _band_cholesky(b, "gaussian background covariance")
    return CovarianceModel(
        b=b,
        v_factor=v,
        kind="gaussian",
        length_scale=float(length_scale),
        sigma_b=float(sigma_b),
    )


def identity_covariance(grid: Grid1D) -> CovarianceModel:
    """B = I with factor V = I."""
    return CovarianceModel(
        b=np.eye(grid.n_points),
        v_factor=np.eye(grid.n_points),
        kind="identity",
    )


def factor_check(model: CovarianceModel) -> float:
    """Max-abs residual of the factorization, max |B - V V^T|."""
    return float(np.max(np.abs(model.b - model.v_factor @ model.v_factor.T)))


def interface_coupling(model: CovarianceModel, dec: Decomposition,
                       i: int, j: int):
    """Interface rows of V against the two neighboring column ranges.

    Returns (p_i, p_j) where p_i holds the entries of V at the interface
    rows dec.interface(i, j) and the columns dec.span(i), and p_j the same
    rows against the columns dec.span(j); both are fresh arrays.  This is
    the one place the interface factors are taken from V.  The pair
    defines the interface penalty 0.5 * ||p_i w_i - p_j w_j||^2, so the
    stiffness contribution on subdomain i is p_i^T p_i and the coupling
    toward j is p_i^T (p_j w_j).
    """
    if model.n_points != dec.grid.n_points:
        raise DimensionMismatch(
            f"covariance is {model.n_points} points, grid is "
            f"{dec.grid.n_points}"
        )
    gamma = dec.interface(i, j)
    v = model.v_factor
    return v[gamma, dec.span(i)], v[gamma, dec.span(j)]

"""Background and observation error covariances and the factor of B.

The background covariance B is carried together with a lower-triangular
factor V satisfying B = V V^T, which preconditions the minimization (the
control variable is w with increment V w).  The observation covariance R
is restricted to a diagonal, so its inverse is an elementwise division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if not np.array_equal(b, b.T):
            raise InvalidArgument("b must be exactly symmetric")

    @property
    def n_points(self) -> int:
        return self.b.shape[0]


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


def _cholesky_lower(b: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"{what} is not numerically SPD") from exc


def build_gaussian_covariance(grid: Grid1D, length_scale: float,
                              sigma_b: float) -> CovarianceModel:
    """Squared-exponential covariance on the grid coordinates.

    b[p, q] = sigma_b^2 * exp(-(x_p - x_q)^2 / (2 * length_scale^2)) with a
    diagonal jitter of 1e-10 * sigma_b^2; the kernel alone is numerically
    rank-deficient once length_scale spans several grid spacings.
    Both parameters enter squared, so each must be positive with a square
    that neither overflows nor underflows.
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
    v = _cholesky_lower(b, "gaussian background covariance")
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

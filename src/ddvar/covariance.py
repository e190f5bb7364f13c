"""Background and observation error covariances and the factor of B.

The background covariance B is carried together with a lower-triangular
factor V satisfying B = V V^T, which preconditions the minimization (the
control variable is w with increment V w).  The observation covariance R
is restricted to a diagonal, so its inverse is an elementwise division.

On strictly increasing coordinates the Gaussian B is banded to working
precision: every entry further from the diagonal than about 8.6 length
scales is below the unit roundoff 2^-53 times the diagonal.  B and V are
therefore stored as their lower bands, band[k, j] = A[j + k, j] (LAPACK
band storage); V is the banded Cholesky factor, O(n bw^2) for bw
sub-diagonals.  The run reads V through the band: v_block (a dense
diagonal block), v_times (its product with a vector, BLAS dtbmv) and
interface_coupling (rows of two blocks).  The dense b and v_factor are
derived on first use, as the oracle of factor_check and of the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationFailure, InvalidArgument
from .geometry import Decomposition, Grid1D


def _dense(band: np.ndarray, symmetric: bool) -> np.ndarray:
    # Scatter a lower band into a read-only n x n array through strided
    # flat slices; symmetric also fills the super-diagonals.
    n = band.shape[1]
    a = np.zeros((n, n))
    for k, diagonal in enumerate(band):
        a.flat[k * n::n + 1] = diagonal[:n - k]
        if symmetric:
            a.flat[k:(n - k) * n:n + 1] = diagonal[:n - k]
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CovarianceModel:
    """Background covariance B with factor V, B = V V^T, held as bands.

    b_band and v_band are the lower bands of B and V, each of shape
    (k + 1, n) with 1 <= k + 1 <= n.  kind is "identity" or "gaussian";
    length_scale and sigma_b are only set for the gaussian kind.
    Construction checks the shapes and finite entries of both bands and
    stores them as read-only views; the dense b and v_factor, read only by
    factor_check and the tests, are scattered from them once, on first
    access, read-only too.  factor_check measures
    the residual, so a corrupted (but finite) v_band can be constructed.
    """

    b_band: np.ndarray
    v_band: np.ndarray
    kind: str
    length_scale: float | None = None
    sigma_b: float | None = None

    def __post_init__(self):
        n = np.shape(self.b_band)[-1:]
        for field, name in (("b_band", "b"), ("v_band", "v_factor")):
            a = np.asarray(getattr(self, field), dtype=float)
            if a.ndim != 2 or a.shape[1:] != n or not 1 <= a.shape[0] <= n[0]:
                raise DimensionMismatch(
                    f"{name} band has shape {a.shape}, expected (k + 1, n) "
                    "with 1 <= k + 1 <= n, n the same for both bands")
            if not np.isfinite(a).all():
                raise InvalidArgument(f"{name} has non-finite entries")
            view = a.view()
            view.flags.writeable = False
            object.__setattr__(self, field, view)

    @property
    def n_points(self) -> int:
        return self.b_band.shape[1]

    @functools.cached_property
    def b(self) -> np.ndarray:
        """Dense B, scattered symmetrically from b_band once."""
        return _dense(self.b_band, symmetric=True)

    @functools.cached_property
    def v_factor(self) -> np.ndarray:
        """Dense lower-triangular V, scattered from v_band once."""
        return _dense(self.v_band, symmetric=False)


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


def _band_cholesky(band: np.ndarray, what: str) -> np.ndarray:
    # Lower band of the Cholesky factor of the matrix with this lower band.
    try:
        return scipy.linalg.cholesky_banded(band, lower=True,
                                            check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"{what} is not numerically SPD") from exc


def build_gaussian_covariance(grid: Grid1D, length_scale: float,
                              sigma_b: float) -> CovarianceModel:
    """Squared-exponential covariance on the grid coordinates, as a band.

    b[p, q] = sigma_b^2 * exp(-(x_p - x_q)^2 / (2 * length_scale^2)) with a
    diagonal jitter of 1e-10 * sigma_b^2; the kernel alone is numerically
    rank-deficient once length_scale spans several grid spacings.
    Both parameters enter squared, so each must be positive with a square
    that neither overflows nor underflows.

    Only the band is evaluated, sub-diagonal k at x[k:] - x[:-k] by the
    dense kernel's elementwise operations, so bit for bit.  It ends before
    the first sub-diagonal with no entry above 2^-53 * max diag(b)
    (bw = 4 / 17 / 68 at length_scale 0.5 / 2 / 8 on a unit grid); the
    kernel decays away from the diagonal, so no dropped entry exceeds the
    unit roundoff times the diagonal.  V, the Cholesky factor of the band,
    costs O(n bw^2); when the length scale spans the grid the band is
    full (bw = n - 1), and the cost is that of a dense factor again.
    """
    for name, value in (("length_scale", length_scale), ("sigma_b", sigma_b)):
        if not (value > 0.0 and 0.0 < value * value < math.inf):
            raise InvalidArgument(
                f"{name} must be positive with a finite, nonzero square, "
                f"got {value}"
            )
    x, scale = grid.coords, 2.0 * length_scale**2
    diagonal = sigma_b**2 + 1e-10 * sigma_b**2  # the kernel plus the jitter
    diagonals = [np.full(x.size, diagonal)]
    for k in range(1, x.size):
        d = sigma_b**2 * np.exp(-((x[k:] - x[:-k])**2) / scale)
        if d.max() <= math.ldexp(diagonal, -53):
            break
        diagonals.append(np.concatenate([d, np.zeros(k)]))
    b_band = np.array(diagonals)
    return CovarianceModel(
        b_band=b_band,
        v_band=_band_cholesky(b_band, "gaussian background covariance"),
        kind="gaussian",
        length_scale=float(length_scale),
        sigma_b=float(sigma_b),
    )


def identity_covariance(grid: Grid1D) -> CovarianceModel:
    """B = I with factor V = I: bands of one unit diagonal."""
    ones = np.ones((1, grid.n_points))
    return CovarianceModel(b_band=ones, v_band=ones, kind="identity")


def factor_check(model: CovarianceModel) -> float:
    """Max-abs residual of the factorization, max |B - V V^T|."""
    return float(np.max(np.abs(model.b - model.v_factor @ model.v_factor.T)))


def v_block(model: CovarianceModel, span: slice) -> np.ndarray:
    """Dense diagonal block V[span, span], read-only, from the band.

    Bit for bit v_factor[span, span]; the band is cut to the span's
    length when the span is narrower than the band.
    """
    return _dense(model.v_band[:span.stop - span.start, span],
                  symmetric=False)


def v_times(model: CovarianceModel, w: np.ndarray,
            span: slice | None = None) -> np.ndarray:
    """V[span, span] @ w by BLAS dtbmv on the band, O(s bw) for s points.

    The default span is the whole grid.  Equal to the dense product up to
    rounding: the sums run in a different order.
    """
    span = span if span is not None else slice(0, model.n_points)
    band = model.v_band[:span.stop - span.start, span]
    return scipy.linalg.blas.dtbmv(band.shape[0] - 1, band, w, lower=1)


def interface_coupling(model: CovarianceModel, dec: Decomposition,
                       i: int, j: int):
    """Interface rows of V against the two neighboring column ranges.

    Returns (p_i, p_j) where p_i holds the entries of V at the interface
    rows dec.interface(i, j) and the columns dec.span(i), and p_j the same
    rows against the columns dec.span(j); both are fresh arrays.  The
    interface lies inside both spans, so each is a set of rows of the
    subdomain's v_block, with the same bits as the dense V.  The pair
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
    spans = dec.span(i), dec.span(j)
    return tuple(v_block(model, s)[gamma - s.start] for s in spans)

"""Background and observation error covariances and the factor of B.

The background covariance B is carried together with a lower-triangular
factor V satisfying B = V V^T, which preconditions the minimization (the
control variable is w with increment V w).  The observation covariance R
is restricted to a diagonal, so its inverse is an elementwise division.
A CovarianceModel holds the bands of B and V and, for the Gaussian B,
sigma_b, checked where it is stored: nothing else of how B was built.

On strictly increasing coordinates the Gaussian B is banded to working
precision: every entry further from the diagonal than about 8.6 length
scales is below the unit roundoff 2^-53 times the diagonal.  B and V are
therefore stored as their lower bands, band[k, j] = A[j + k, j] (LAPACK
band storage); V is the banded Cholesky factor, O(n bw^2) for bw
sub-diagonals.  No other module reads the bands: the run reads V through
_band_rows, the one gather of rows of V (ProblemInstance.h_rows and the
interface pass of assembly), v_times (V x), v_blocks (the band of the
diagonal blocks of every subdomain, laid end to end), v_normal (the band of
V^T D V and V^T x on a diagonal block, D diagonal) and v_solve (V^{-1} x,
LAPACK dtbtrs).  _band_times (BLAS dtbmv) and _band_sym_times (dsbmv) are
the one triangular product with a lower band, v_times's and the stacked
blocks', and the one symmetric product, the fixed-point residual's and
local_gradient's.  _band_of reads the lower band of a sparse symmetric
matrix.  The entries band[d, j] of a band with d >= n - j lie past the
last row of its matrix, in its last min(k, n) columns; a system's band is
zero there (assembly._Banded).  The package holds every matrix as its
band and never forms an n x n array; dense matrices are the tests' oracles.
The package factors SPD systems by LAPACK dpbtrf in two forms.
_band_cholesky gives B's V as a lower band: V is an operator, multiplied
with and gathered, never solved with by dpbtrs.  Every solved system, the
global and stacked local systems in solvers and the observation-space
matrix in analysis, is factored by _spd_factor as the upper band of U,
A = U^T U, and solved by _band_solve (dpbtrs), as OpenBLAS runs both
triangular solves of an upper factor in its fast kernel and the L^T solve
of a lower one in a slower one (README gives the timings).  Each input is
checked once: CovarianceModel checks B's band, so _band_cholesky does not,
while _spd_factor checks the systems, which no model holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DimensionMismatch, FactorizationFailure, InvalidArgument,
                     _check_finite, _check_real, _check_type, _real_array,
                     _vector)
from .geometry import Decomposition, Grid1D

# past sqrt(106 ln 2) length scales the Gaussian kernel is below 2^-53
_GAUSSIAN_REACH = math.sqrt(106 * math.log(2))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _band_of(s, height: int | None = None) -> np.ndarray:
    # The lower band of the sparse symmetric s, height rows, by default as
    # many as its last nonzero sub-diagonal needs.
    s = s.tocoo()
    lower = s.row >= s.col
    k = s.row[lower] - s.col[lower]
    band = np.zeros((height or int(np.max(k, initial=0)) + 1, s.shape[1]))
    band[k, s.col[lower]] = s.data[lower]
    return band


@dataclass(frozen=True)
class CovarianceModel:
    """Background covariance B with factor V, B = V V^T, held as bands.

    b_band and v_band are the lower bands of B and V, each of shape
    (k + 1, n) with 1 <= k + 1 <= n.  sigma_b, the background standard
    deviation that sets synthesize's floor on sigma_o, is None for a
    model with no such scale (the identity).  Construction checks the
    shapes and finite entries of both bands and stores them as read-only
    views, and checks a given sigma_b by build_gaussian_covariance's rule
    and stores its float.  The bands are the model's only form of B and
    V: no n x n matrix is formed from them.  factor_check measures the
    residual, so a corrupted (but finite) v_band can be constructed.
    """

    b_band: np.ndarray
    v_band: np.ndarray
    sigma_b: float | None = None

    def __post_init__(self):
        n = ()
        for name in ("b_band", "v_band"):
            a = _real_array(name, getattr(self, name))
            n = n or a.shape[-1:]
            if a.ndim != 2 or a.shape[1:] != n or not 1 <= a.shape[0] <= n[0]:
                raise DimensionMismatch(
                    f"{name} has shape {a.shape}, expected (k + 1, n) "
                    "with 1 <= k + 1 <= n, n the same for both bands")
            _check_finite(name, a)
            object.__setattr__(self, name, _frozen(a.view()))
        if self.sigma_b is not None:
            object.__setattr__(self, "sigma_b", _check_scale(
                "sigma_b", self.sigma_b, InvalidArgument.fail))

    @property
    def n_points(self) -> int:
        return self.b_band.shape[1]

    @property
    def bandwidth(self) -> int:
        """bw, the sub-diagonals of the band of V."""
        return self.v_band.shape[0] - 1


@dataclass(frozen=True)
class ObsCovariance:
    """Diagonal observation error covariance, stored as its diagonal.

    Every variance must be finite and positive.
    """

    r_diag: np.ndarray

    def __post_init__(self):
        r = _check_finite("r_diag", _vector("r_diag", self.r_diag), "variance")
        if r.size and not np.all(r > 0.0):
            raise InvalidArgument("observation variances must be positive")
        object.__setattr__(self, "r_diag", r)


def _band_cholesky(band: np.ndarray, what: str) -> np.ndarray:
    """Lower band of L, A = L L^T, for the SPD A with this lower band.

    LAPACK dpbtrf, O(n k^2) for k sub-diagonals: the factor V of B, an
    operator (v_times, v_blocks, v_normal, v_solve).  what names the
    matrix in a FactorizationFailure at the first non-positive pivot.  The
    band is not scanned: CovarianceModel checks B's band and V's.
    """
    factor, info = scipy.linalg.lapack.dpbtrf(band, lower=1)
    if info > 0:
        raise FactorizationFailure(f"{what} is not numerically SPD")
    return factor


def _spd_factor(band: np.ndarray, what) -> np.ndarray:
    """Upper band of U, A = U^T U, for the SPD A with this lower band.

    The factor of every solved system, which _band_solve reads, by LAPACK
    dpbtrf on the upper band u[k - d, j] = A[j - d, j] = band[d, j - d].
    The band is written in one copy through a strided view of an array k
    columns longer, whose extra columns take the band's zeros past its
    last row; dpbtrf factors that array in place, so it is the factor and
    no other band-sized array is made.  what names the matrix in a
    FactorizationFailure; a callable what(row) names the part of it that
    holds the failing row, the first column with a non-finite entry or
    the first non-positive pivot.
    """
    def fail(row, reason):
        raise FactorizationFailure(
            f"{what(row) if callable(what) else what} {reason}")

    if not np.isfinite(band).all():
        fail(int(np.argmin(np.isfinite(band).all(axis=0))),
             "has non-finite entries")
    k, n = band.shape[0] - 1, band.shape[1]
    # rows[j] is column j of u: band[d, e] goes to u[k - d, e + d], that is
    # rows[e + d, k - d], e + d < n + k
    rows = np.zeros((n + k, k + 1))
    row, col = rows.strides
    np.ndarray(band.shape, float, rows, k * col, (row - col, row))[...] = band
    factor, info = scipy.linalg.lapack.dpbtrf(rows[:n].T, lower=0,
                                              overwrite_ab=1)
    if info > 0:
        fail(info - 1, "is not numerically SPD")
    return factor


def _band_solve(factor: np.ndarray, rhs: np.ndarray,
                overwrite: bool = False) -> np.ndarray:
    """Solve with the factor of _spd_factor by LAPACK dpbtrs, O(n k); if
    overwrite, the solution may take rhs's place (a contiguous float rhs)."""
    return scipy.linalg.lapack.dpbtrs(factor, rhs, lower=0,
                                      overwrite_b=overwrite)[0]


def _check_scale(name: str, value, fail, zero: bool = False) -> float:
    # A scale enters squared (sigma_b^2 in B, 1 / length_scale^2 in the
    # kernel, R^{-1} = 1 / sigma_o^2): it must be positive, 0 too if zero,
    # and its square and the square's reciprocal finite and nonzero.  The
    # float of it is returned.
    x = _check_real(name, value, fail)
    square = x * x
    if not (zero and x == 0.0 or x > 0.0 and 0.0 < square < math.inf
            and 1.0 / square < math.inf):
        fail(name, f"must be {'0 or ' if zero else ''}positive with a "
                   f"finite, nonzero square and reciprocal square, got "
                   f"{value!r}")
    return x


def _reach_rows(n_points: int, length_scale: float,
                spacing: float = 1.0) -> int:
    """Rows of the Gaussian band out to the kernel's reach, at most n_points.

    Past _GAUSSIAN_REACH length scales the kernel is below 2^-53 of its
    peak: on a uniform grid of this spacing, sub-diagonal
    ceil(reach / spacing) is the first that the build drops, and these
    rows hold the band and that one.  They are the build's first guess
    and, on a unit grid, the band height of the memory estimate of a
    config (cli._build_config).
    """
    reach, width = _GAUSSIAN_REACH * length_scale, (n_points - 1) * spacing
    return math.ceil(reach / spacing) + 1 if reach < width else n_points


@np.errstate(over="ignore")  # an overflowed distance is a zero of the kernel
def _gaussian_diagonal(x: np.ndarray, k: int, scale: float, variance: float,
                       out: np.ndarray) -> float:
    # sub-diagonal k of the kernel into out by the dense kernel's
    # elementwise operations in its order, so bit for bit; its largest entry
    np.subtract(x[k:], x[:-k], out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    np.divide(out, scale, out=out)
    np.exp(out, out=out)
    np.multiply(variance, out, out=out)
    return out.max()


def build_gaussian_covariance(grid: Grid1D, length_scale: float,
                              sigma_b: float) -> CovarianceModel:
    """Squared-exponential covariance on the grid coordinates, as a band.

    b[p, q] = sigma_b^2 * exp(-(x_p - x_q)^2 / (2 * length_scale^2)) with a
    diagonal jitter of 1e-10 * sigma_b^2; the kernel alone is numerically
    rank-deficient once length_scale spans several grid spacings.
    Both parameters enter squared, so each must be positive with a square
    and a reciprocal square that neither overflow nor underflow.

    Only the band is evaluated, in place: sub-diagonal k at x[k:] - x[:-k]
    straight into row k of one band, by the dense kernel's elementwise
    operations, so bit for bit.  It ends before the first sub-diagonal
    with no entry above 2^-53 * max diag(b) (bw = 4 / 17 / 68 at
    length_scale 0.5 / 2 / 8 on a unit grid); the kernel decays away from
    the diagonal, so no dropped entry exceeds the unit roundoff times the
    diagonal.  The band's first guess of its rows is the kernel's reach
    over the mean grid spacing (_reach_rows); it doubles when the grid
    needs more and is cut to its kept rows in place at the end, so b_band
    owns exactly its rows.  V, the Cholesky factor of the band, costs
    O(n bw^2); when the length scale spans the grid the band is full
    (bw = n - 1), and the cost is that of a dense factor again.
    """
    _check_type("grid", grid, Grid1D)
    length_scale = _check_scale("length_scale", length_scale,
                                InvalidArgument.fail)
    sigma_b = _check_scale("sigma_b", sigma_b, InvalidArgument.fail)
    x, scale, n = grid.coords, 2.0 * length_scale**2, grid.n_points
    diagonal = sigma_b**2 + 1e-10 * sigma_b**2  # the kernel plus the jitter
    with np.errstate(over="ignore"):  # inf on a grid wider than any float
        spacing = (x[-1] - x[0]) / (n - 1) if n > 1 else 1.0
    b_band = np.empty((_reach_rows(n, length_scale, spacing), n))
    b_band[0] = diagonal
    k = 1
    while k < n:
        if k == b_band.shape[0]:
            # the guess was short: resize reallocates the one buffer, the
            # rows so far kept; no view of b_band outlives its row, so
            # none is left on the old buffer
            b_band.resize((min(2 * k, n), n), refcheck=False)
        if (_gaussian_diagonal(x, k, scale, sigma_b**2, b_band[k, :n - k])
                <= math.ldexp(diagonal, -53)):
            break
        b_band[k, n - k:] = 0.0
        k += 1
    b_band.resize((k, n), refcheck=False)
    return CovarianceModel(
        b_band=b_band,
        v_band=_band_cholesky(b_band, "gaussian background covariance"),
        sigma_b=sigma_b,
    )


def identity_covariance(grid: Grid1D) -> CovarianceModel:
    """B = I with factor V = I: bands of one unit diagonal."""
    ones = np.ones((1, _check_type("grid", grid, Grid1D).n_points))
    return CovarianceModel(b_band=ones, v_band=ones)


def factor_check(model: CovarianceModel) -> float:
    """Max-abs residual of the factorization, max |B - V V^T|, on the bands.

    Sub-diagonal d of V V^T at column j sums v_band[d + e, j - e] *
    v_band[e, j - e] over e, one einsum over strided views of V's band
    (v_normal's idiom).  B - V V^T is symmetric and zero below the taller
    band; each sub-diagonal is cut at the last row, so entries past it are
    ignored.  O(n bw^2) for bw sub-diagonals, and no array beyond a band.
    """
    _check_type("model", model, CovarianceModel)
    b_band, n, k = model.b_band, model.n_points, model.bandwidth
    rows = max(b_band.shape[0], k + 1)
    # V's band atop zero rows, right of rows - 1 zero columns: j - e > -rows
    padded = np.zeros((rows, n + rows - 1))
    padded[:k + 1, rows - 1:] = model.v_band
    row, col = padded.strides
    worst = 0.0
    for d in range(rows):
        # a[e, j] = V[j + d, j - e] and b[e, j] = V[j, j - e], j < n - d
        a, b = (np.ndarray((rows - d, n - d), float, padded,
                           offset + (rows - 1) * col, (row - col, col))
                for offset in (d * row, 0))
        residual = np.einsum("ej,ej->j", a, b)
        if d < b_band.shape[0]:
            residual -= b_band[d, :n - d]
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst


def _band_rows(model: CovarianceModel, rows: np.ndarray):
    """(cols, vals): the one gather of rows of V, O(rows bw), bit for bit.

    Row r = rows[t] is nonzero only at the columns r - bw..r of cols[t],
    where vals[t, e] = v_band[bw - e, cols[t, e]], zero left of the grid.
    """
    band = model.v_band
    d = np.arange(band.shape[0] - 1, -1, -1)
    cols = rows[:, None] - d
    return cols, np.where(cols >= 0, band[d, np.maximum(cols, 0)], 0.0)


def _band_times(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L x for the lower-triangular L with this lower band, by BLAS dtbmv.

    The package's one triangular band product, O(n k) for k sub-diagonals.
    """
    return scipy.linalg.blas.dtbmv(band.shape[0] - 1, band, x, lower=1)


def _band_sym_times(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric A with this lower band by BLAS dsbmv, O(n k),
    reading a column-major band in place (a C-ordered one is copied); an
    empty x, which dsbmv rejects, has an empty product."""
    if not x.size:
        return np.zeros(0)
    return scipy.linalg.blas.dsbmv(band.shape[0] - 1, 1.0, band, x, lower=1)


def v_times(model: CovarianceModel, w: np.ndarray) -> np.ndarray:
    """V @ w by BLAS dtbmv on the band, O(n bw).

    Equal to the dense product up to rounding: the sums run in a different
    order.
    """
    return _band_times(model.v_band, w)


def v_blocks(model: CovarianceModel, dec: Decomposition) -> np.ndarray:
    """Lower band of blockdiag(V[span(i), span(i)]), the spans end to end.

    The blocks run in the order of Decomposition._stacked, bw + 1 rows
    against one column per point of every span, O(bw sum_i s_i).  A block's
    column is the column of the band of V at the same grid point with the
    entries past the block's last row zeroed, so that no block reaches into
    the next; _band_times on this band is every V[span(i), span(i)] w_i at
    once, each the same floats as _band_times on that block's own band,
    v_band[:s_i, span(i)].  dec must split the model's grid.
    """
    points, ends, _ = dec._stacked
    band = model.v_band[:, points]
    # the rows of its block from each stacked column on
    left = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(ends[-1])
    band[np.arange(band.shape[0])[:, None] >= left] = 0.0
    return band


def _block_height(model: CovarianceModel, s: int) -> int:
    return min(model.v_band.shape[0], s)  # rows of v_normal on s points


def v_normal(model: CovarianceModel, weights: np.ndarray, x: np.ndarray,
             span: slice):
    """Lower band of V_s^T diag(weights) V_s, and V_s^T x, for V[span, span].

    k = min(bw, s - 1) sub-diagonals for s points, O(s bw^2): band[d, c]
    sums weights[c + t] V_s[c + t, c] V_s[c + t, c + d] over t = d..k and
    (V_s^T x)[c] sums x[c + t] V_s[c + t, c] over t = 0..k, both in
    ascending t, by products over strided windows of the band.
    """
    s = span.stop - span.start
    k = _block_height(model, s) - 1
    # the band of V_s and k zero columns after it; zero weights past the span
    # silence the entries of V below it
    band = np.zeros((k + 1, s + k))
    band[:, :s] = model.v_band[:k + 1, span]
    padded = np.zeros((2, s + k))
    padded[:, :s] = weights, x
    row, col = band.strides
    # weighted[t, c] = weights[c + t] V_s[c + t, c], the same for x in xv,
    # for t <= k; the product array's rows k + 1..2k stay zero for a to read
    weighted, xv = product = np.zeros((2, 2 * k + 1, s))
    np.multiply(np.ndarray((2, k + 1, s), float, padded, 0,
                           (padded.strides[0], col, col)), band[:, :s],
                out=product[:, :k + 1])
    # a[d, c, u] = weighted[d + u, c], b[d, c, u] = V_s[c + d + u, c + d]
    a = np.ndarray((k + 1, s, k + 1), float, weighted, 0,
                   (weighted.strides[0], col, weighted.strides[0]))
    b = np.ndarray((k + 1, s, k + 1), float, band, 0, (col, col, row))
    return np.einsum("dcu,dcu->dc", a, b), xv.sum(axis=0)


def v_solve(model: CovarianceModel, x: np.ndarray) -> np.ndarray:
    """V^{-1} x by LAPACK dtbtrs, O(n bw), unless V has a zero diagonal."""
    w, info = scipy.linalg.lapack.dtbtrs(model.v_band, x, uplo="L")
    if info > 0:
        raise FactorizationFailure(f"v_band is singular: its diagonal "
                                   f"{info - 1} is zero")
    return w

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
sub-diagonals.  No other module reads the bands: the run reads V through
v_rows_sparse (rows, sparse) and _interface_factors (a subdomain's
interface pairs), both on _band_rows, the one gather of rows of V, and
through v_times (V x), v_blocks (the band of the diagonal blocks of every
subdomain, laid end to end), v_normal (the band of V^T D V and V^T x on a
diagonal block, D diagonal) and v_solve (V^{-1} x, LAPACK dtbtrs).
_band_times (BLAS dtbmv) is the one triangular product with a lower band,
v_times's and the stacked blocks'.  _dia_layout is the one place a band
becomes a matrix: it lays the band out as the lower rows of zeroed DIA
data, and _dia_matrix writes the upper rows from them and wraps that same
array as a sparse DIA array, no copy made.  The stacked local systems of
solvers hold their band in such data from the start, so the residual's
operator is that band's own storage; _band_matrix copies any other band
into a fresh layout, for local_gradient and for the dense b, v_factor and
assembled a (its toarray) of factor_check and the tests.  _band_of reads
the lower band of a sparse symmetric matrix.
_band_cholesky and _band_solve (LAPACK dpbtrf / dpbtrs) are the
package's one path for SPD systems: B here, the global and stacked local
systems in solvers and the observation-space matrix in analysis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (DimensionMismatch, FactorizationFailure, InvalidArgument,
                     _check_real)
from .geometry import Decomposition, Grid1D


def _dia_layout(k: int, n: int, symmetric: bool):
    """(data, band): zeroed DIA data of an n x n matrix with k
    sub-diagonals, and its lower band as a view.

    The one layout of a band as a matrix: data holds one row per diagonal
    in ascending offset, -k..k when symmetric (2k + 1 rows), else -k..0,
    and band is the reversed view of its lower k + 1 rows, band[d]
    sub-diagonal d (LAPACK band storage).  Whatever is written into band
    is what _dia_matrix(data, k) wraps.
    """
    data = np.zeros((2 * k + 1 if symmetric else k + 1, n))
    return data, data[k::-1]


def _dia_matrix(data: np.ndarray, k: int) -> scipy.sparse.dia_array:
    """The matrix of data laid out by _dia_layout, as a DIA array on it.

    The upper rows, if any, are first written in place from the band:
    upper diagonal d, a[r, r + d] = a[r + d, r], is sub-diagonal d
    shifted by d, and the d leading entries of its row, which have no
    matrix row, stay zero.  No copy is made.  A product sums each row
    over the diagonals in ascending offset, explicit zeros included, so a
    block gives the same floats alone or inside a wider, padded band.
    """
    n = data.shape[1]
    for d in range(1, min(data.shape[0] - k, n)):
        data[k + d, d:] = data[k - d, :n - d]
    return scipy.sparse.dia_array(
        (data, np.arange(-k, data.shape[0] - k)), shape=(n, n))


def _band_matrix(band: np.ndarray, symmetric: bool) -> scipy.sparse.dia_array:
    """The matrix with this lower band: a copy of it in a _dia_layout."""
    k, n = band.shape[0] - 1, band.shape[1]
    data, lower = _dia_layout(k, n, symmetric)
    lower[...] = band
    return _dia_matrix(data, k)


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
    (k + 1, n) with 1 <= k + 1 <= n.  kind is "identity" or "gaussian";
    length_scale and sigma_b are only set for the gaussian kind.
    Construction checks the shapes and finite entries of both bands and
    stores them as read-only views; the dense b and v_factor, read only by
    factor_check and the tests, are formed from them once, on first
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

    @property
    def bandwidth(self) -> int:
        """bw, the sub-diagonals of the band of V."""
        return self.v_band.shape[0] - 1

    @functools.cached_property
    def b(self) -> np.ndarray:
        """Dense B, the matrix of b_band, formed once."""
        return _frozen(_band_matrix(self.b_band, symmetric=True).toarray())

    @functools.cached_property
    def v_factor(self) -> np.ndarray:
        """Dense lower-triangular V, the matrix of v_band, formed once."""
        return _frozen(_band_matrix(self.v_band, symmetric=False).toarray())


@dataclass(frozen=True)
class ObsCovariance:
    """Diagonal observation error covariance, stored as its diagonal.

    Every variance must be finite and positive.
    """

    r_diag: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_diag, dtype=float).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(r))
        if bad.size:
            raise InvalidArgument(f"observation variance {r[bad[0]]} at "
                                  f"position {bad[0]} is not finite")
        if r.size and not np.all(r > 0.0):
            raise InvalidArgument("observation variances must be positive")
        object.__setattr__(self, "r_diag", r)

    @property
    def nobs(self) -> int:
        return int(self.r_diag.size)


def _band_cholesky(band: np.ndarray, what) -> np.ndarray:
    """Lower band of the Cholesky factor of the matrix with this lower band.

    The one factorization of every SPD system: LAPACK dpbtrf, O(n k^2) for
    k sub-diagonals.  what names the matrix in a FactorizationFailure; a
    callable what(row) names the part of it that holds the failing row,
    the first column with a non-finite entry or the first non-positive
    pivot.
    """
    def fail(row, reason):
        name = what(row) if callable(what) else what
        raise FactorizationFailure(f"{name} {reason}")

    finite = np.isfinite(band).all(axis=0)
    if not finite.all():
        fail(int(np.argmin(finite)), "has non-finite entries")
    factor, info = scipy.linalg.lapack.dpbtrf(band, lower=1)
    if info > 0:
        fail(info - 1, "is not numerically SPD")
    return factor


def _band_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factor of _band_cholesky by LAPACK dpbtrs, O(n k)."""
    return scipy.linalg.lapack.dpbtrs(factor, rhs, lower=1)[0]


def _check_scale(name: str, value, fail, zero: bool = False) -> None:
    # A scale enters squared (sigma_b^2 in B, 1 / length_scale^2 in the
    # kernel, R^{-1} = 1 / sigma_o^2): it must be positive, 0 too if zero,
    # and its square and the square's reciprocal finite and nonzero.
    _check_real(name, value, fail)
    square = float(value) * float(value)
    if not (zero and value == 0 or value > 0 and 0.0 < square < math.inf
            and 1.0 / square < math.inf):
        fail(name, f"must be {'0 or ' if zero else ''}positive with a "
                   f"finite, nonzero square and reciprocal square, got "
                   f"{value!r}")


def build_gaussian_covariance(grid: Grid1D, length_scale: float,
                              sigma_b: float) -> CovarianceModel:
    """Squared-exponential covariance on the grid coordinates, as a band.

    b[p, q] = sigma_b^2 * exp(-(x_p - x_q)^2 / (2 * length_scale^2)) with a
    diagonal jitter of 1e-10 * sigma_b^2; the kernel alone is numerically
    rank-deficient once length_scale spans several grid spacings.
    Both parameters enter squared, so each must be positive with a square
    and a reciprocal square that neither overflow nor underflow.

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
        _check_scale(name, value, InvalidArgument.fail)
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


def _band_rows(model: CovarianceModel, rows: np.ndarray):
    """(cols, vals): the one gather of rows of V, O(rows bw), bit for bit.

    Row r = rows[t] is nonzero only at the columns r - bw..r of cols[t],
    where vals[t, e] = v_band[bw - e, cols[t, e]], zero left of the grid.
    """
    band = model.v_band
    d = np.arange(band.shape[0] - 1, -1, -1)
    cols = rows[:, None] - d
    return cols, np.where(cols >= 0, band[d, np.maximum(cols, 0)], 0.0)


def v_rows_sparse(model: CovarianceModel, rows) -> scipy.sparse.csr_array:
    """V[rows, :] as a sparse CSR array of _band_rows, O(rows bw).

    Row r keeps the nonzero entries of its band, columns ascending and no
    stored zeros: at most bw + 1 entries per row.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    n = model.n_points
    if rows.size and not 0 <= rows.min() <= rows.max() < n:
        raise IndexError(f"rows must lie in 0..{n - 1}")
    cols, vals = _band_rows(model, rows)
    keep = vals != 0.0
    return scipy.sparse.csr_array(
        (vals[keep], cols[keep],
         np.concatenate([[0], np.cumsum(keep.sum(axis=1))])),
        shape=(rows.size, n))


def _band_times(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L x for the lower-triangular L with this lower band, by BLAS dtbmv.

    The package's one band product, O(n k) for k sub-diagonals.
    """
    return scipy.linalg.blas.dtbmv(band.shape[0] - 1, band, x, lower=1)


def v_times(model: CovarianceModel, w: np.ndarray) -> np.ndarray:
    """V @ w by BLAS dtbmv on the band, O(n bw).

    Equal to the dense product up to rounding: the sums run in a different
    order.
    """
    return _band_times(model.v_band, w)


def v_blocks(model: CovarianceModel, dec: Decomposition) -> np.ndarray:
    """Lower band of blockdiag(V[span(i), span(i)]), the spans end to end.

    The blocks run in subdomain-id order, bw + 1 rows against one column
    per point of every span, O(bw sum_i s_i).  A block's column is the
    column of the band of V at the same grid point with the entries past
    the block's last row zeroed, so that no block reaches into the next;
    _band_times on this band is every V[span(i), span(i)] w_i at once, each
    the same floats as _band_times on that block's own band,
    v_band[:s_i, span(i)].  dec must split the model's grid.
    """
    starts, stops = np.array(dec.subdomains).T
    sizes = stops - starts
    ends = np.cumsum(sizes)
    # each stacked column's grid point, and the rows of its block from it on
    cols = np.arange(ends[-1])
    band = model.v_band[:, cols + np.repeat(starts - (ends - sizes), sizes)]
    left = np.repeat(ends, sizes) - cols
    band[np.arange(band.shape[0])[:, None] >= left] = 0.0
    return band


def v_normal(model: CovarianceModel, weights: np.ndarray, x: np.ndarray,
             span: slice):
    """Lower band of V_s^T diag(weights) V_s, and V_s^T x, for V[span, span].

    k = min(bw, s - 1) sub-diagonals for s points, O(s bw^2): band[d, c]
    sums weights[c + t] V_s[c + t, c] V_s[c + t, c + d] over t = d..k and
    (V_s^T x)[c] sums x[c + t] V_s[c + t, c] over t = 0..k, both in
    ascending t, by products over strided windows of the band.
    """
    s = span.stop - span.start
    k = min(model.v_band.shape[0], s) - 1
    # the band of V_s atop a zero (2k + 1, s + k) block; zero weights past
    # the span silence the entries of V below it
    band = np.zeros((2 * k + 1, s + k))
    band[:k + 1, :s] = model.v_band[:k + 1, span]
    padded = np.zeros((2, s + 2 * k))
    padded[:, :s] = weights, x
    row, col = band.strides
    # weighted[t, c] = weights[c + t] V_s[c + t, c], the same for x in xv
    weighted, xv = np.ndarray((2, 2 * k + 1, s), float, padded, 0,
                              (padded.strides[0], col, col)) * band[:, :s]
    # a[d, c, u] = weighted[d + u, c], b[d, c, u] = V_s[c + d + u, c + d]
    a = np.ndarray((k + 1, s, k + 1), float, weighted, 0,
                   (weighted.strides[0], col, weighted.strides[0]))
    b = np.ndarray((k + 1, s, k + 1), float, band, 0, (col, col, row))
    return np.einsum("dcu,dcu->dc", a, b), xv.sum(axis=0)


def v_solve(model: CovarianceModel, x: np.ndarray) -> np.ndarray:
    """V^{-1} x by LAPACK dtbtrs, O(n bw); LinAlgError on a zero diagonal."""
    w, info = scipy.linalg.lapack.dtbtrs(model.v_band, x, uplo="L")
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix: resolution failed "
                                    f"at diagonal {info - 1}")
    return w


def _interface_factors(model: CovarianceModel, dec: Decomposition, i: int,
                       neighbors) -> tuple:
    """(j, p_i, p_j) for each listed neighbor j of subdomain i, in order.

    p_i is V at the rows dec.interface(i, j) and the columns dec.span(i),
    p_j at the same rows and dec.span(j): each the part, at its span's
    offset, of the interface's window of h + bw columns ending at its
    last point, from one _band_rows gather of all the interface rows.
    The pair defines the interface penalty 0.5 * ||p_i w_i - p_j w_j||^2:
    its stiffness on subdomain i is p_i^T p_i, its coupling toward j
    p_i^T (p_j w_j).
    """
    h, bw = dec.halo, model.bandwidth
    rows = np.array([dec.interface(i, j) for j in neighbors], np.intp)
    _, vals = _band_rows(model, rows.reshape(-1))
    # window[n, t, t + e] = vals[n * h + t, e]; window n covers the grid
    # columns rows[n, 0] - bw..rows[n, -1]
    t, e = np.arange(h)[:, None], np.arange(bw + 1)
    window = np.zeros((len(neighbors), h, h + bw))
    window[:, t, t + e] = vals.reshape(len(neighbors), h, e.size)
    pairs = []
    for n, j in enumerate(neighbors):
        pair = [np.zeros((h, dec.size(k))) for k in (i, j)]
        for p, k in zip(pair, (i, j)):
            off = rows[n, 0] - bw - dec.span(k).start  # < 0: left of the span
            p[:, max(off, 0):off + h + bw] = window[n, :, max(-off, 0):]
        pairs.append((j, *pair))
    return tuple(pairs)

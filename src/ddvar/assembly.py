"""Assembly of the global and per-subdomain linear systems.

The preconditioned cost is

    J(w) = 1/2 w^T w + 1/2 (H V w - d)^T R^{-1} (H V w - d)

whose stationarity condition is a w = c with a = V^T H^T R^{-1} H V + I and
c = V^T H^T R^{-1} d.  Each subdomain gets the same structure built from the
local blocks V_i, H_i, R_i, d_i.  The uncoupled scheme stops there; the
coupled scheme adds, per neighbor j, the interface penalty stiffness
p_i^T p_i to the matrix and keeps the interface factors (p_i, p_j).  The
neighbor's pull p_i^T (p_j w_j) enters the right-hand side during the
fixed-point sweep, through the coupling p_i^T p_j formed on the few
columns where p_i and p_j are nonzero.  The solvers lay the local systems
end to end: the lower band of blockdiag(a_i) and the sparse rows of the
coupling and of the fixed-point operator are built here, and
local_gradient multiplies one subdomain's rows of that operator.

The right-hand side c_i is computed by one shared code path regardless of
scheme, which is what makes the cross-scheme equality of c_i hold to the
bit, not merely to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .covariance import interface_coupling, v_rows
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    MissingNeighbor,
)
from .geometry import Decomposition
from .observation import ProblemInstance, innovation

SCHEME_MPS = "mps"
SCHEME_DDDA = "ddda"
_SCHEMES = (SCHEME_MPS, SCHEME_DDDA)


@dataclass(frozen=True)
class GlobalSystem:
    """Normal equations of the full-domain cost: a w = c."""

    a: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class LocalSystem:
    """One subdomain's system a_i w_i = c_i (+ coupling for the mps scheme).

    penalty_pairs holds the interface factors (j, p_i, p_j) in ascending
    neighbor order and is empty for the ddda scheme.  They define both the
    penalty stiffness sum_j p_i^T p_i inside a and the coupling
    sum_j p_i^T (p_j w_j) toward the neighbor iterates.
    """

    subdomain: int
    scheme: str
    a: np.ndarray
    c: np.ndarray
    penalty_pairs: tuple = ()

    @property
    def size(self) -> int:
        return int(self.c.size)


def _weighted_normal(m: np.ndarray, r_inv: np.ndarray, d: np.ndarray):
    # base = m^T R^{-1} m + I and rhs = m^T R^{-1} d; the lone code path
    # for both schemes and for the global system.
    n = m.shape[1]
    a = m.T @ (r_inv[:, None] * m) + np.eye(n)
    c = m.T @ (r_inv * d)
    return a, c


def penalty_stiffness(penalty_pairs, size: int) -> np.ndarray:
    """sum_j p_i^T p_i over the (j, p_i, p_j) pairs, in their listed order.

    The pairs come in ascending neighbor order, so every caller lands on
    the same floats; with no pairs the sum is the size x size zero matrix.
    """
    g = np.zeros((size, size))
    for _, p_i, _ in penalty_pairs:
        g += p_i.T @ p_i
    return g


def _require_scheme(locals_, scheme: str) -> None:
    for sys in locals_:
        if sys.scheme != scheme:
            raise InvalidArgument(
                f"subdomain {sys.subdomain} was assembled for scheme "
                f"{sys.scheme!r}, expected {scheme!r}"
            )


def _bandwidth(a: np.ndarray) -> int:
    """Sub-diagonals of a, read from the first nonzero of each row."""
    nonzero = a != 0.0
    first = np.argmax(nonzero, axis=1)
    rows = np.flatnonzero(nonzero[np.arange(a.shape[0]), first])
    return int(np.max(rows - first[rows], initial=0))


def _lower_band(a: np.ndarray, k: int) -> np.ndarray:
    """band[d, j] = a[j + d, j] for d = 0..k, zero past the last row."""
    s = a.shape[0]
    rows = np.arange(s) + np.arange(k + 1)[:, None]
    return np.where(rows < s, a[np.minimum(rows, s - 1), np.arange(s)], 0.0)


def _band_rows(band: np.ndarray, start: int = 0, width: int | None = None):
    """CSR of the symmetric matrix with this lower band, at column start.

    Explicit zeros are dropped and each row lists its columns in
    ascending order, so the rows of a block are the same entries whether
    its band sits in a wider stacked band or stands alone.
    """
    k, n = band.shape[0] - 1, band.shape[1]
    upper = [np.concatenate([np.zeros(d), band[d, :n - d]])
             for d in range(1, k + 1)]
    a = scipy.sparse.dia_array(
        (np.vstack([band[::-1], *upper]), np.arange(-k, k + 1)),
        shape=(n, n),
    ).tocsr()
    a.eliminate_zeros()
    return scipy.sparse.csr_array((a.data, a.indices + start, a.indptr),
                                  shape=(n, width or n))


def _coupling_rows(systems, layout):
    """CSR rows of the coupling C: p_i^T p_j at the columns of neighbor j.

    The rows of the listed systems are stacked in order.  layout maps a
    subdomain id to its (column offset, size), offsets ascending with the
    id; a neighbor missing from it raises MissingNeighbor, a p_j of
    another width DimensionMismatch.  Only the columns where p_i and p_j
    are nonzero are stored.
    """
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [[]]
    top = 0
    for sys in systems:
        for j, p_i, p_j in sys.penalty_pairs:
            if j not in layout:
                raise MissingNeighbor(
                    f"subdomain {sys.subdomain} needs the iterate of "
                    f"neighbor {j}"
                )
            if p_j.shape[1] != layout[j][1]:
                raise DimensionMismatch(
                    f"neighbor {j} has {layout[j][1]} points, subdomain "
                    f"{sys.subdomain} couples to {p_j.shape[1]}"
                )
            ci, cj = (np.flatnonzero(p.any(axis=0)) for p in (p_i, p_j))
            rows.append(np.repeat(ci + top, cj.size))
            cols.append(np.tile(cj + layout[j][0], ci.size))
            vals.append((p_i[:, ci].T @ p_j[:, cj]).ravel())
        top += sys.size
    return scipy.sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(top, max((start + size for start, size in layout.values()),
                        default=0)),
    )


def assemble_global(inst: ProblemInstance) -> GlobalSystem:
    """Build a = V^T H^T R^{-1} H V + I and c = V^T H^T R^{-1} d.

    H is a point selection, so H V is inst.h_rows, rows of V, densified
    here.  With no observations the system degenerates to a = I, c = 0.
    """
    r_inv = 1.0 / inst.obs.r_cov.r_diag
    a, c = _weighted_normal(inst.h_rows.toarray(), r_inv, innovation(inst))
    return GlobalSystem(a=a, c=c)


def assemble_local(inst: ProblemInstance, dec: Decomposition, i: int,
                   scheme: str) -> LocalSystem:
    """Build subdomain i's system for the given scheme.

    Both schemes share a_i = V_i^T H_i^T R_i^{-1} H_i V_i + I_i and
    c_i = V_i^T H_i^T R_i^{-1} d_i, where H_i V_i is gathered by v_rows
    (the observed rows of V against the span) and H_i, R_i, d_i keep exactly
    the observations whose grid point lies in subdomain i: a contiguous
    slice of the strictly increasing obs_indices, so an observation in an
    overlap enters both neighbors' systems.  The mps scheme
    then adds penalty_stiffness of its interface pairs, which reports
    recompose to identical floats.
    """
    if scheme not in _SCHEMES:
        raise InvalidArgument(
            f"scheme must be one of {_SCHEMES}, got {scheme!r}"
        )
    span = dec.span(i)
    idx = inst.obs.obs_indices
    sel = slice(*np.searchsorted(idx, [span.start, span.stop]))
    d = innovation(inst)
    m_i = v_rows(inst.cov, idx[sel], span)
    r_inv_i = 1.0 / inst.obs.r_cov.r_diag[sel]
    a, c = _weighted_normal(m_i, r_inv_i, d[sel])

    pairs = ()
    if scheme == SCHEME_MPS:
        pairs = tuple(
            (j, *interface_coupling(inst.cov, dec, i, j))
            for j in dec.neighbors(i)
        )
        a = a + penalty_stiffness(pairs, a.shape[0])

    return LocalSystem(
        subdomain=i,
        scheme=scheme,
        a=a,
        c=c,
        penalty_pairs=pairs,
    )


def cost_w(inst: ProblemInstance, w: np.ndarray) -> float:
    """Evaluate J(w) = 1/2 w^T w + 1/2 (H V w - d)^T R^{-1} (H V w - d)."""
    w = np.asarray(w, dtype=float)
    n = inst.grid.n_points
    if w.shape != (n,):
        raise DimensionMismatch(f"w has shape {w.shape}, expected ({n},)")
    misfit = inst.h_rows @ w - innovation(inst)
    r_inv = 1.0 / inst.obs.r_cov.r_diag
    return 0.5 * float(w @ w) + 0.5 * float(misfit @ (r_inv * misfit))


def local_gradient(sys: LocalSystem, w_i: np.ndarray,
                   neighbor_ws=None) -> np.ndarray:
    """Gradient of the coupled local cost at w_i given neighbor iterates.

    Equals a_i w_i - c_i - sum_j p_i^T (p_j w_j), the residual of the
    fixed-point system; it vanishes exactly at the local solve.
    neighbor_ws maps neighbor id to that subdomain's current iterate and
    may be omitted only when the subdomain has no neighbors.  It is
    subdomain i's row block of the stacked fixed_point_residual, computed
    by the same product, so the two agree to the bit.
    """
    _require_scheme([sys], SCHEME_MPS)
    w_i = np.asarray(w_i, dtype=float)
    if w_i.shape != (sys.size,):
        raise DimensionMismatch(
            f"w has shape {w_i.shape}, expected ({sys.size},)"
        )
    ws = {j: np.asarray(w, dtype=float)
          for j, w in (neighbor_ws or {}).items()}
    ws[sys.subdomain] = w_i
    ids = sorted({sys.subdomain, *(j for j, _, _ in sys.penalty_pairs)}
                 & ws.keys())
    for j in ids:
        if ws[j].ndim != 1:
            raise DimensionMismatch(
                f"neighbor {j} iterate has shape {ws[j].shape}"
            )
    starts = np.cumsum([0] + [ws[j].size for j in ids])
    layout = {j: (int(starts[n]), ws[j].size) for n, j in enumerate(ids)}
    own = layout[sys.subdomain][0]
    k = (_band_rows(_lower_band(sys.a, _bandwidth(sys.a)), own, starts[-1])
         - _coupling_rows([sys], layout))
    return k @ np.concatenate([ws[j] for j in ids]) - sys.c

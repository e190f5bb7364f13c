"""Assembly of the global and per-subdomain linear systems.

The preconditioned cost is

    J(w) = 1/2 w^T w + 1/2 (H V w - d)^T R^{-1} (H V w - d)

whose stationarity condition is a w = c with a = V^T H^T R^{-1} H V + I and
c = V^T H^T R^{-1} d.  Each subdomain gets the same structure built from the
local blocks V_i, H_i, R_i, d_i.  The uncoupled scheme stops there; the
coupled scheme adds, per neighbor j, the interface penalty stiffness
p_i^T p_i to the matrix and keeps the interface factors (p_i, p_j).  The
neighbor's pull p_i^T (p_j w_j) enters the right-hand side during the
fixed-point sweep; the rank-halo product p_i^T p_j is never formed.

The right-hand side c_i is computed by one shared code path regardless of
scheme, which is what makes the cross-scheme equality of c_i hold to the
bit, not merely to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _coupling(sys: LocalSystem, neighbor_ws) -> np.ndarray:
    # sum_j p_i^T (p_j w_j) in ascending neighbor order; neighbor_ws maps a
    # neighbor id to its iterate.  The one place the coupling is applied,
    # so the one place a neighbor iterate is looked up and checked.
    out = np.zeros(sys.size)
    for j, p_i, p_j in sys.penalty_pairs:
        if j not in neighbor_ws:
            raise MissingNeighbor(
                f"subdomain {sys.subdomain} needs the iterate of neighbor {j}"
            )
        w_j = np.asarray(neighbor_ws[j], dtype=float)
        if w_j.shape != (p_j.shape[1],):
            raise DimensionMismatch(
                f"neighbor {j} iterate has shape {w_j.shape}, expected "
                f"({p_j.shape[1]},)"
            )
        out += p_i.T @ (p_j @ w_j)
    return out


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
    may be omitted only when the subdomain has no neighbors.
    """
    _require_scheme([sys], SCHEME_MPS)
    w_i = np.asarray(w_i, dtype=float)
    if w_i.shape != (sys.size,):
        raise DimensionMismatch(
            f"w has shape {w_i.shape}, expected ({sys.size},)"
        )
    return sys.a @ w_i - sys.c - _coupling(sys, neighbor_ws or {})

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
columns where p_i and p_j are nonzero.

H selects distinct points, so H^T R^{-1} H is a diagonal D and
a = V^T D V + I has at most the bw sub-diagonals of V: it is formed and
stored as its lower band a_band, O(s bw^2) for s points, and no s x s
matrix is formed.  The local band is a product over windows of the band
of V, D and D d sliced from the instance's weights; the global one is
read off the sparse product of the observed rows of V, a separate path
that the one-subdomain decomposition is checked against.  The band is a
system's only form of a; the dense a is the tests' oracle.  The solvers
lay the bands end to end; the sparse rows of the coupling are built
here, and local_gradient computes one subdomain's rows of the
fixed-point residual the way the solvers compute them all.

The right-hand side c_i is computed by one shared code path regardless of
scheme, which is what makes the cross-scheme equality of c_i hold to the
bit, not merely to rounding.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .covariance import (_band_of, _band_sym_times, _interface_factors,
                         _past_last_row, v_normal)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    MissingNeighbor,
    _check_count,
    _check_type,
    _real_array,
    _vector,
)
from .geometry import Decomposition
from .observation import ProblemInstance

SCHEME_MPS = "mps"
SCHEME_DDDA = "ddda"
_SCHEMES = (SCHEME_MPS, SCHEME_DDDA)


class _Banded:
    # A system a w = c stored as the lower band a_band of a.

    def __post_init__(self):
        band, c = _real_array("a_band", self.a_band), _real_array("c", self.c)
        if band.ndim != 2 or band.shape[0] < 1 or band.shape[1:] != c.shape:
            raise DimensionMismatch(
                f"a_band has shape {band.shape}, expected (k + 1, n) for c "
                f"of shape {c.shape} = (n,)")
        if band[_past_last_row(band.shape)].any():
            raise InvalidArgument("a_band has nonzero entries past the "
                                  "last row")
        object.__setattr__(self, "a_band", band)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class GlobalSystem(_Banded):
    """Normal equations of the full-domain cost: a w = c, a as a_band."""

    a_band: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class LocalSystem(_Banded):
    """One subdomain's system a_i w_i = c_i (+ coupling for the mps scheme).

    a_band is the lower band of a_i and must be zero past the last row.
    penalty_pairs holds the interface factors (j, p_i, p_j) in ascending
    neighbor order and is empty for the ddda scheme.  They define both the
    penalty stiffness sum_j p_i^T p_i inside a and the coupling
    sum_j p_i^T (p_j w_j) toward the neighbor iterates.  Construction
    stores them as float arrays: each p_i (rows, size), its p_j (rows, any).
    The subdomain and every neighbor id j must be integers >= 0.
    """

    subdomain: int
    scheme: str
    a_band: np.ndarray
    c: np.ndarray
    penalty_pairs: tuple = ()

    def __post_init__(self):
        _check_scheme(self.scheme)
        _check_count("subdomain", self.subdomain, IndexOutOfRange.fail,
                     least=0)
        super().__post_init__()
        pairs = []
        for j, p_i, p_j in _check_pairs(self.penalty_pairs):
            _check_count("penalty_pairs neighbor id", j, IndexOutOfRange.fail,
                         least=0)
            p_i = _real_array(f"penalty_pairs p_i of neighbor {j}", p_i)
            p_j = _real_array(f"penalty_pairs p_j of neighbor {j}", p_j)
            pairs.append((j, p_i, p_j))
            rows = p_i.shape[:1]
            if (p_i.shape != (*rows, self.size)
                    or p_j.ndim != 2 or p_j.shape[:1] != rows):
                raise DimensionMismatch(
                    f"subdomain {self.subdomain}, neighbor {j}: p_i, p_j of "
                    f"shapes {p_i.shape}, {p_j.shape}, expected "
                    f"(rows, {self.size}), (rows, any)")
        object.__setattr__(self, "penalty_pairs", tuple(pairs))

    @property
    def size(self) -> int:
        return int(self.c.size)


def _check_pairs(penalty_pairs):
    """penalty_pairs; InvalidArgument unless a Sequence of triples.
    Tuples, as the assembly builds them, skip the slower ABC checks."""
    if type(penalty_pairs) is not tuple:
        _check_type("penalty_pairs", penalty_pairs, Sequence)
    for n, pair in enumerate(penalty_pairs):
        if type(pair) is not tuple or len(pair) != 3:
            _check_type(f"penalty_pairs[{n}]", pair, Sequence, 3)
    return penalty_pairs


def penalty_stiffness(penalty_pairs, shape) -> np.ndarray:
    """Lower band, of the given shape, of sum_j p_i^T p_i over the pairs.

    Each p_i^T p_i is one BLAS product on the range of columns where p_i is
    nonzero, added in the pairs' ascending neighbor order by one strided
    add, so every caller lands on the same floats; with no pairs the band
    is zero.
    """
    band = np.zeros(shape)
    for _, p_i, _ in _check_pairs(penalty_pairs):
        cols = p_i.any(axis=0).nonzero()[0]
        if not cols.size:  # p_i^T p_i is zero
            continue
        lo, w = cols[0], cols[-1] + 1 - cols[0]
        q = np.ascontiguousarray(p_i[:, lo:lo + w])
        # g[c + d, c] at (d, c); the zero rows add zeros past the last row
        g = np.zeros((2 * w, w))
        g[:w] = q.T @ q
        band[:w, lo:lo + w] += np.ndarray((min(shape[0], w), w), float, g, 0,
                                          (8 * w, 8 * w + 8))
    return band


def _check_scheme(scheme) -> None:
    if scheme not in _SCHEMES:
        raise InvalidArgument(
            f"scheme must be one of {_SCHEMES}, got {scheme!r}")


def _require_scheme(locals_, scheme: str) -> None:
    for sys in locals_:
        if sys.scheme != scheme:
            raise InvalidArgument(
                f"subdomain {sys.subdomain} was assembled for scheme "
                f"{sys.scheme!r}, expected {scheme!r}"
            )


def _require_grid(inst: ProblemInstance, dec: Decomposition) -> None:
    if (_check_type("inst", inst, ProblemInstance).grid.n_points
            != _check_type("dec", dec, Decomposition).grid.n_points):
        raise DimensionMismatch(
            f"decomposition is of a {dec.grid.n_points}-point grid, the "
            f"instance has {inst.grid.n_points} points"
        )


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
            ci, cj = (p.any(axis=0).nonzero()[0] for p in (p_i, p_j))
            rows.append(ci + top)
            cols.append(cj + layout[j][0])
            vals.append(p_i[:, ci].T @ p_j[:, cj])
        top += sys.size
    # entry e of a pair's product, row-major, is at (e // n_j, e % n_j)
    n_i, n_j = (np.array([c.size for c in cs]) for cs in (rows, cols))
    count = n_i * n_j
    e = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return scipy.sparse.csr_array(
        (np.concatenate(vals, axis=None),
         (np.repeat(np.concatenate(rows), np.repeat(n_j, n_i)),
          np.concatenate(cols)[np.repeat(np.cumsum(n_j) - n_j, count)
                               + e % np.repeat(n_j, count)])),
        shape=(top, max((start + size for start, size in layout.values()),
                        default=0)),
    )


def assemble_global(inst: ProblemInstance) -> GlobalSystem:
    """Build a = V^T H^T R^{-1} H V + I and c = V^T H^T R^{-1} d.

    H is a point selection, so H V is inst.h_rows, the observed rows of V,
    sparse: a_band is read off the sparse M^T R^{-1} M, O(nobs bw^2), as
    the bw sub-diagonals of V.  With no observations a = I, c = 0.
    """
    m = _check_type("inst", inst, ProblemInstance).h_rows
    r_inv = 1.0 / inst.obs.r_cov.r_diag
    a_band = _band_of(m.T @ m.multiply(r_inv[:, None]),
                      inst.cov.bandwidth + 1)
    a_band[0] += 1.0
    return GlobalSystem(a_band=a_band, c=m.T @ (r_inv * inst.innovation))


def assemble_local(inst: ProblemInstance, dec: Decomposition, i: int,
                   scheme: str) -> LocalSystem:
    """Build subdomain i's system for the given scheme.

    Both schemes share a_i = V_i^T H_i^T R_i^{-1} H_i V_i + I_i and
    c_i = V_i^T H_i^T R_i^{-1} d_i, V_i = V[span, span], where H_i, R_i,
    d_i keep exactly the observations whose grid point lies in subdomain
    i, so an observation in an overlap enters both neighbors' systems:
    H_i^T R_i^{-1} H_i and H_i^T R_i^{-1} d_i are the span's slice of
    inst.weights, and both come from v_normal, on the band of V.  The mps
    scheme then cuts its interface pairs from one gather of their rows of
    V and adds the band of their penalty_stiffness, which reports
    recompose to identical floats.  dec must split the instance's grid.
    """
    _require_grid(inst, dec)
    _check_scheme(scheme)
    span = dec.span(i)
    a_band, c = v_normal(inst.cov, *inst.weights[:, span], span)
    a_band[0] += 1.0

    pairs = ()
    if scheme == SCHEME_MPS:
        pairs = _interface_factors(inst.cov, dec, i, dec.neighbors(i))
        a_band = a_band + penalty_stiffness(pairs, a_band.shape)

    return LocalSystem(
        subdomain=i,
        scheme=scheme,
        a_band=a_band,
        c=c,
        penalty_pairs=pairs,
    )


def cost_w(inst: ProblemInstance, w: np.ndarray) -> float:
    """Evaluate J(w) = 1/2 w^T w + 1/2 (H V w - d)^T R^{-1} (H V w - d)."""
    _check_type("inst", inst, ProblemInstance)
    w = _vector("w", w, inst.grid.n_points)
    misfit = inst.h_rows @ w - inst.innovation
    r_inv = 1.0 / inst.obs.r_cov.r_diag
    return 0.5 * float(w @ w) + 0.5 * float(misfit @ (r_inv * misfit))


def local_gradient(sys: LocalSystem, w_i: np.ndarray,
                   neighbor_ws=None) -> np.ndarray:
    """Gradient of the coupled local cost at w_i given neighbor iterates.

    Equals a_i w_i - c_i - sum_j p_i^T (p_j w_j), the residual of the
    fixed-point system; it vanishes exactly at the local solve.
    neighbor_ws maps neighbor id to that subdomain's current iterate and
    may be omitted only when the subdomain has no neighbors.  It is
    subdomain i's row block of the stacked fixed_point_residual by the
    same products, which dsbmv may sum in another order: equal to rounding.
    """
    _check_type("sys", sys, LocalSystem)
    _require_scheme([sys], SCHEME_MPS)
    neighbor_ws = _check_type(
        "neighbor_ws", {} if neighbor_ws is None else neighbor_ws, Mapping)
    # a neighbor absent from neighbor_ws fails in _coupling_rows
    ws = {j: _vector(f"neighbor {j} iterate", neighbor_ws[j], p_j.shape[1])
          for j, _, p_j in sys.penalty_pairs if j in neighbor_ws}
    w_i = ws[sys.subdomain] = _vector("w", w_i, sys.size)
    ids = sorted(ws)
    starts = np.cumsum([0] + [ws[j].size for j in ids])
    layout = {j: (int(starts[n]), ws[j].size) for n, j in enumerate(ids)}
    w = np.concatenate([ws[j] for j in ids])
    return (_band_sym_times(sys.a_band, w_i)
            - _coupling_rows([sys], layout) @ w - sys.c)

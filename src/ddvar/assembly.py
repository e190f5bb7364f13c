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
lay the bands end to end.  The interface pass is the one path that forms
the stiffness: a run couples its stack of uncoupled systems by one pass
over every pair, which adds the stiffness into the stacked band in place
and writes C as CSR, and assemble_local(mps) runs it on one subdomain's
pairs.  _coupling_rows builds C from listed systems' pairs, and
local_gradient computes one subdomain's rows of the fixed-point residual
the way the solvers compute them all.

The right-hand side c_i is computed by one shared code path regardless of
scheme, which is what makes the cross-scheme equality of c_i hold to the
bit, not merely to rounding.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .covariance import _band_of, _band_rows, _band_sym_times, v_normal
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    MissingNeighbor,
    _check_choice,
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
    # A system a w = c stored as the lower band a_band of a, zero past the
    # last row (d >= n - j): only the last min(k, n) columns are read.

    def __post_init__(self):
        band, c = _real_array("a_band", self.a_band), _real_array("c", self.c)
        if band.ndim != 2 or band.shape[0] < 1 or band.shape[1:] != c.shape:
            raise DimensionMismatch(
                f"a_band has shape {band.shape}, expected (k + 1, n) for c "
                f"of shape {c.shape} = (n,)")
        rows, n = band.shape
        lo = max(n - rows + 1, 0)
        past = np.arange(rows)[:, None] >= np.arange(n - lo, 0, -1)
        if band[:, lo:][past].any():
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
        # every streamed system passes its empty tuple: skip the ABC check
        if type(self.penalty_pairs) is not tuple:
            _check_type("penalty_pairs", self.penalty_pairs, Sequence)
        pairs = []
        for n, pair in enumerate(self.penalty_pairs):
            j, p_i, p_j = _check_type(f"penalty_pairs[{n}]", pair, Sequence, 3)
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


def _check_scheme(scheme) -> None:
    _check_choice("scheme", scheme, _SCHEMES, InvalidArgument.fail)


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
    parts = [(np.zeros(0), np.zeros(0, int), np.zeros(0, int))]
    top = 0
    for sys in systems:
        for j, p_i, p_j in sys.penalty_pairs:
            if j not in layout:
                raise MissingNeighbor(f"subdomain {sys.subdomain} needs the "
                                      f"iterate of neighbor {j}")
            if p_j.shape[1] != layout[j][1]:
                raise DimensionMismatch(
                    f"neighbor {j} has {layout[j][1]} points, subdomain "
                    f"{sys.subdomain} couples to {p_j.shape[1]}")
            ci, cj = (p.any(axis=0).nonzero()[0] for p in (p_i, p_j))
            parts.append((p_i[:, ci].T @ p_j[:, cj], *np.meshgrid(
                ci + top, cj + layout[j][0], indexing="ij")))
        top += sys.size
    # the conversion sorts each row by column, which puts a left
    # neighbor's entries before a right one's
    data, rows, cols = (np.concatenate([a.ravel() for a in arrays])
                        for arrays in zip(*parts))
    return scipy.sparse.csr_array((data, (rows, cols)), shape=(top, max(
        (start + size for start, size in layout.values()), default=0)))


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
    scheme then runs a stack's interface pass on its own pairs, which adds
    sum_j p_i^T p_i into a_band and returns the pairs cut at full width.
    dec must split the instance's grid.
    """
    _require_grid(inst, dec)
    _check_scheme(scheme)
    span = dec.span(i)
    a_band, c = v_normal(inst.cov, *inst.weights[:, span], span)
    a_band[0] += 1.0
    pairs = ()
    if scheme == SCHEME_MPS:
        pairs = _interface_pass(inst.cov, dec, [i], a_band)
    return LocalSystem(
        subdomain=i,
        scheme=scheme,
        a_band=a_band,
        c=c,
        penalty_pairs=pairs,
    )


def _interface_pass(model, dec, ids, band, starts=None):
    """The interface penalty of the listed subdomains, from one gather.

    Pair (i, j), j = i - 1 then i + 1, is read off a window of V from one
    _band_rows gather: the h interface rows of i toward j, found from
    dec.subdomains, at the h + bw columns that end at the last of them;
    p_i and p_j are its columns in span i and span j.  Subdomains whose
    pairs have equal shapes share one batched matmul per side and product.
    _stiffen adds each p_i^T p_i into band, block i at column starts[i]
    (or 0).  With starts, C = sum_j p_i^T p_j is returned, written straight
    into CSR, a row's left entries first; else ids[0]'s full-width pairs.
    """
    h, bw = dec.halo, model.bandwidth
    spans = np.array(dec.subdomains).reshape(-1, 2)
    i = np.asarray(ids, np.intp)[:, None]
    there = (h > 0) & (i - [1, -1] >= 0) & (i - [1, -1] < dec.j_sub)
    j = np.where(there, i - [1, -1], i)
    first = np.where(j > i, spans[i, 1] - h, spans[i, 0])  # interface rows
    lo_i, lo_j = (np.maximum(spans[k, 0] - first + bw, 0) for k in (i, j))
    at = first - bw + lo_i - spans[i, 0] + (0 if starts is None
                                            else starts[i])
    window = np.zeros((there.sum(), h, h + bw))  # [n, t, t + e] is row n h + t
    np.ndarray((len(window), h, bw + 1), float, window, 0,
               (window.strides[0], 8 * (h + bw + 1), 8))[...] = _band_rows(
        model, (first[there][:, None] + np.arange(h)).reshape(-1))[1].reshape(
            len(window), h, bw + 1)
    pid = np.cumsum(there).reshape(there.shape) - 1
    # the left window of i ends at column at[:, 0] + h
    keys = np.column_stack([np.where(there, lo_i, -1), np.where(
        there, lo_j, -1), there.all(axis=1) * np.maximum(at[:, 0] + h
                                                         - at[:, 1], 0)])
    order = np.lexsort(keys.T)
    groups = np.split(order, np.flatnonzero(np.diff(keys[order], axis=0)
                                            .any(axis=1)) + 1)
    for m in groups:
        _stiffen(band, [(window[pid[m, s], :, keys[m[0], s]:], at[m, s])
                         for s in (0, 1) if keys[m[0], s] >= 0], keys[m[0], 4])
    if starts is None:
        return tuple((int(j[0, s]), *(np.pad(window[pid[0, s], :, lo:], (
            (0, 0), (first[0, s] - bw + lo - spans[k, 0],
                     spans[k, 1] - first[0, s] - h)))
            for k, lo in ((i[0, 0], lo_i[0, s]), (j[0, s], lo_j[0, s]))))
            for s in (0, 1) if there[0, s])
    # each row's count, differenced one row on, then summed twice in place
    indptr = np.zeros(starts[-1] + 2, np.intp)
    np.add.at(indptr, at[there] + 1, (bw + h - lo_j)[there])
    np.add.at(indptr, (at + bw + h - lo_i)[there] + 1, (lo_j - bw - h)[there])
    indptr = np.cumsum(np.cumsum(indptr, out=indptr), out=indptr)[:-1]
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], np.intp)
    col = first - bw + lo_j - spans[j, 0] + starts[j]
    for m in groups:
        for s in np.flatnonzero(keys[m[0], :2] >= 0):
            q_i, q_j = (window[pid[m, s], :, lo:] for lo in keys[m[0], s:4:2])
            w = np.arange(q_j.shape[2])
            r = at[m, s][:, None] + np.arange(q_i.shape[2])
            e = (indptr[r] if s == 0 else indptr[r + 1] - w.size)[
                ..., None] + w
            data[e] = np.matmul(q_i.transpose(0, 2, 1), q_j)
            indices[e] = col[m, s][:, None, None] + w
    return scipy.sparse.csr_array((data, indices, indptr),
                                  shape=(starts[-1],) * 2)


def _stiffen(band, sides, overlap):
    """Add q^T q of each (q, at) in sides into band, from column at.

    A side stacks equal windows q, the left side first; where the windows
    of a subdomain overlap by `overlap` columns, the left product L is
    summed into the right one R first, so that band gets a + (L + R), the
    uncoupled a plus the penalty sum, as acceptance 02 adds them.
    """
    gs = []
    for q, _ in sides:  # g[c + d, c] is the band at (d, c), zero past w
        w = q.shape[2]
        gs.append(np.zeros((len(q), w + min(len(band), w) - 1, w)))
        np.matmul(q.transpose(0, 2, 1), q, out=gs[-1][:, :w])
    if overlap:
        n = gs[0].shape[2] - overlap
        gs[1][:, :overlap, :overlap] += gs[0][:, n:n + overlap, n:]
        gs[0][:, n:n + overlap, n:] = 0.0
    for g, (_, at) in zip(gs, sides):
        w, k = g.shape[2], g.shape[1] - g.shape[2] + 1
        band.T[at[:, None] + np.arange(w), :k] += np.ndarray(
            (len(g), w, k), float, g, 0, (g.strides[0], 8 * w + 8, 8 * w))


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

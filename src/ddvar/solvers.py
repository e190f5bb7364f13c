"""Direct, per-subdomain, and fixed-point solvers.

Every system, global or local, arrives as its lower band a_band, k
sub-diagonals with k at most the bandwidth of V, and is solved on it: one
banded Cholesky factor (LAPACK dpbtrf) per solve call, O(n k^2), held as
the upper band of U, a = U^T U (covariance._spd_factor), while V stays B's
lower factor, an operator that dpbtrs never reads.  OpenBLAS runs both
triangular solves of dpbtrs with an upper factor in its fast kernel: one
solve of mps_4k's 4,120-row stack takes 81-91 us, against 130-145 us
with a lower factor, whose L^T solve alone took 89-99 us.  The
local bands of a call are laid end to end in subdomain-id order, each
zero-padded to the tallest, as one block-diagonal band; its banded factor
is the block diagonal of the blocks' own factors, so listing order cannot
change a result; of each system, listed or streamed in, the stack keeps
only its id, size and scheme.  Each uncoupled system needs one solve, and
all of them are one banded solve; the coupled scheme iterates

    a_i w_i^{n+1} = c_i + sum_j p_i^T (p_j w_j^n)

with every subdomain in an iteration consuming only iteration-n neighbor
values, a Jacobi-style parallel sweep: one banded solve of c + C w^n per
iteration, C the sparse coupling sum_j p_i^T p_j of the stack, on an
iterate kept stacked until it is returned.  The stop test fires when the
largest successive-iterate change drops to tol, or when every fixed-point
residual is already below tol * kappa with kappa = 1 + max_i ||a_i||_inf,
the largest absolute row sum of the stacked band's matrix, read off the
band by shifted sums (which lets a coupling-free system stop after its
first, already exact, solve).
"Converged" means one of the two tests fired; kappa grows with R^{-1}, so
the residual branch does not bound the distance to the fixed point.
Running out of iterations is reported through the history flag, never
raised, so the best iterate stays available.  The sweep computes only
what its stop test reads; a cost of the iterate, when asked for, is
evaluated once, at the returned iterate.
"""

from __future__ import annotations

import collections
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .assembly import (
    SCHEME_DDDA,
    SCHEME_MPS,
    GlobalSystem,
    LocalSystem,
    _coupling_rows,
    _require_scheme,
)
from .covariance import _band_solve, _band_sym_times, _spd_factor
from .errors import (DimensionMismatch, InvalidArgument, _check_count,
                     _check_real, _check_type, _vector)


def _check_options(tol, max_iters, fail, threads=1) -> float:
    x = _check_real("tol", tol, fail)
    if not 0.0 < x < math.inf:
        fail("tol", f"must be positive and finite, got {tol!r}")
    _check_count("max_iters", max_iters, fail)
    _check_count("threads", threads, fail)
    return x


@dataclass
class SolverOptions:
    """Settings of the subdomain solvers.

    tol and max_iters control the fixed-point sweep.  threads is checked
    but has no effect: every iteration is one banded solve, and scipy's
    LAPACK wrappers hold the GIL, so threads did not pay.
    """

    tol: float = 1e-12
    max_iters: int = 500
    threads: int = 1

    def __post_init__(self):
        self.tol = _check_options(self.tol, self.max_iters,
                                  InvalidArgument.fail, self.threads)


@dataclass(frozen=True)
class IterationRecord:
    """One sweep iteration; its number is its 1-based position in
    IterationHistory.records."""

    max_delta: float
    residual_norms: tuple


@dataclass
class IterationHistory:
    """Per-iteration trace of the fixed-point sweep.

    records holds one IterationRecord per iteration in order, so
    records[k - 1] is iteration k.  final_cost is the cost of the
    returned iterate: set on every history that assimilate and
    equivalence_report return, NaN from a solve_mps given no cost_fn.
    """

    records: list = field(default_factory=list)
    converged: bool = False
    final_cost: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.records)


def _vectors(ws, layout) -> list:
    # ws as float vectors, one per (subdomain id, size) pair of layout: the
    # one check of a per-subdomain iterate list.
    if len(_check_type("ws", ws, Sequence)) != len(layout):
        raise DimensionMismatch(
            f"{len(ws)} iterates for {len(layout)} subdomains")
    return [_vector(f"iterate for subdomain {i}", w, size)
            for (i, size), w in zip(layout, ws)]


_Entry = collections.namedtuple("_Entry", "subdomain size scheme")


def _next_system(systems, entry, height):
    # the next of systems, a LocalSystem of the entry's (subdomain, size,
    # scheme) with at most height band rows, or InvalidArgument
    sys = _check_type("local system", next(systems, None), LocalSystem)
    if ((sys.subdomain, sys.size, sys.scheme) != entry
            or len(sys.a_band) > height):
        raise InvalidArgument(f"local system {sys.subdomain} does not match "
                              f"its entry {entry}")
    return sys


class _Stack(tuple):
    """The local systems of one solve call, laid end to end by id.

    The tuple holds each system's (subdomain, size, scheme), in listed order;
    the arrays, in subdomain-id order, are sized from the listed systems or a
    stream's layout = (those triples in id order, band height), and one loop
    copies each system in, checked against its entry, and lets it go.  Anything
    but LocalSystems, a repeated id and a missing or mis-sized neighbor fail
    before anything is factored.  band, the lower band of blockdiag(a_i) with
    each a_band zero-padded to the tallest, is column-major, which BLAS dsbmv
    reads in place.  coupling is the CSR coupling C of the listed systems
    (assembly._coupling_rows); a stream is uncoupled, its C empty, an mps
    stack's C given to coupled().  c is the stacked right-hand sides, segments
    the stacked start and listed position of each nonempty block, factor() a
    fresh array.  A stack passed in is returned unchanged.
    """

    def __new__(cls, locals_, layout=None):
        if isinstance(locals_, _Stack):
            return locals_
        if listed := layout is None:  # the listed systems' own, in id order
            for n, sys in enumerate(_check_type("locals_", locals_,
                                                Sequence)):
                _check_type(f"locals_[{n}]", sys, LocalSystem)
            layout = ([(sys.subdomain, sys.size, sys.scheme)
                       for sys in locals_],
                      max((len(sys.a_band) for sys in locals_), default=1))
            locals_ = sorted(locals_, key=lambda sys: sys.subdomain)
        if not layout[0]:
            raise InvalidArgument("need at least one local system")
        stack = super().__new__(cls, map(_Entry._make, layout[0]))
        ids = [entry.subdomain for entry in stack]
        if len(set(ids)) < len(ids):
            raise InvalidArgument(f"a subdomain appears twice in {ids}")
        stack.order = sorted(range(len(ids)), key=ids.__getitem__)
        entries = [stack[k] for k in stack.order]
        stack.starts = np.cumsum([0] + [entry.size for entry in entries])
        full = np.diff(stack.starts) > 0
        stack.segments = (stack.starts[:-1][full],
                          np.asarray(stack.order)[full])
        n = int(stack.starts[-1])
        stack.band = np.zeros((n, layout[1])).T
        stack.c, systems = np.empty(n), iter(locals_)
        for entry, start in zip(entries, stack.starts.tolist()):
            sys = _next_system(systems, entry, layout[1])
            stop = start + entry.size
            stack.band[:len(sys.a_band), start:stop] = sys.a_band
            stack.c[start:stop] = sys.c
        stack.coupling = _coupling_rows(locals_, {
            entry.subdomain: (int(start), entry.size)
            for entry, start in zip(entries, stack.starts)}) if listed else (
                scipy.sparse.csr_array((np.zeros(0), np.zeros(0, np.intp),
                                        np.zeros(n + 1, np.intp)), (n, n)))
        return stack

    def coupled(self, coupling):
        """This stack's arrays as an mps stack with the coupling C."""
        stack = tuple.__new__(_Stack, (entry._replace(scheme=SCHEME_MPS)
                                       for entry in self))
        vars(stack).update(vars(self), coupling=coupling)
        return stack

    @property
    def kappa(self) -> float:
        """1 + the largest absolute row sum of blockdiag(a_i), off the band.

        Row r sums |a[r, r - d]| = |band[d, r - d]| over d = k..1, then
        the diagonal, then |a[r, r + d]| = |band[d, r]| over d = 1..k.  The
        band is read 8192 columns at a time, each block's diagonals from
        cache, with no band-sized abs: in every row the same order.
        """
        band = self.band
        k, n = min(band.shape) - 1, band.shape[1]  # no row at n or beyond
        sums = np.zeros(n)
        for lo in range(0, n, 8192):
            for d in range(-k, k + 1):  # d < 0: left of the diagonal
                hi, shift = min(lo + 8192, n - abs(d)), max(-d, 0)
                sums[lo + shift:hi + shift] += np.abs(band[abs(d), lo:hi])
        return 1.0 + float(np.max(sums, initial=0.0))

    def factor(self) -> np.ndarray:
        """Upper banded Cholesky factor of blockdiag(a_i); a failure names
        its subdomain."""
        def what(row):
            block = int(np.searchsorted(self.starts, row, side="right")) - 1
            return f"subdomain {self[self.order[block]].subdomain} matrix"

        return _spd_factor(self.band, what)

    def gather(self, ws) -> np.ndarray:
        """The iterate as one vector: the listed ones stacked, or as given."""
        if isinstance(ws, np.ndarray) and ws.ndim == 1:
            return _vector("stacked iterate", ws, self.c.size)
        vecs = _vectors(ws, [entry[:2] for entry in self])
        return np.concatenate([vecs[k] for k in self.order])

    def split(self, w: np.ndarray) -> list:
        """A stacked vector as per-subdomain views, in listed order."""
        views = np.split(w, self.starts[1:-1])
        return [views[n] for n in np.argsort(self.order)]


def solve_global(sys: GlobalSystem):
    """Solve a w = c for the full-domain system on its band."""
    _check_type("sys", sys, GlobalSystem)
    return _band_solve(_spd_factor(sys.a_band, "global matrix"), sys.c)


def solve_ddda(locals_: list):
    """Solve every uncoupled local system independently.

    The right-hand sides carry no iteration index, so a single solve per
    subdomain is the entire scheme; repeating it cannot change anything.
    All of them are one banded solve of the stacked right-hand side.
    """
    stack = _Stack(locals_)
    _require_scheme(stack, SCHEME_DDDA)
    return stack.split(_band_solve(stack.factor(), stack.c))


def solve_mps(locals_: list, opts: SolverOptions | None = None,
              cost_fn=None):
    """Run the parallel fixed-point sweep over the coupled local systems.

    The sweep starts from all zeros (the background) and factors the
    stacked band once; each iteration is one banded solve and one
    fixed_point_residual of the stacked iterate, split once, on return,
    and kappa is read off the band.  The factor, as large as the band,
    is freed when the sweep ends, before cost_fn is called: cost_fn, when
    given, is called once, on the returned iterate list, and its value is
    history.final_cost; otherwise that is NaN.  Returns (iterates,
    history); history.converged is False when the iteration budget ran
    out.  The kappa of the residual stop test grows with R^{-1}, so a
    sweep that stopped on that test need not be within tol of the fixed
    point.  A coupled neighbor absent from locals_ raises MissingNeighbor
    before the first sweep.
    """
    opts = SolverOptions() if opts is None else _check_type(
        "opts", opts, SolverOptions)
    stack = _Stack(locals_)
    _require_scheme(stack, SCHEME_MPS)
    factor = stack.factor()
    kappa = stack.kappa

    w = np.zeros(stack.c.size)
    history = IterationHistory()
    for _ in range(opts.max_iters):
        rhs = stack.coupling @ w
        rhs += stack.c
        new = _band_solve(factor, rhs, overwrite=True)
        # w is dead once C w is formed: its change is taken in its place
        max_delta = float(np.max(np.abs(np.subtract(new, w, out=w), out=w),
                                 initial=0.0))
        residuals = fixed_point_residual(stack, new)
        history.records.append(
            IterationRecord(max_delta, tuple(residuals.tolist())))
        w = new
        if (max_delta <= opts.tol
                or float(np.max(residuals)) <= opts.tol * kappa):
            history.converged = True
            break

    # the factor is the sweep's alone: freed before cost_fn, whose lift
    # may reuse its memory
    del factor
    ws = stack.split(w)
    if cost_fn is not None:
        history.final_cost = float(cost_fn(ws))
    return ws, history


def fixed_point_residual(locals_: list, ws) -> np.ndarray:
    """Per-subdomain sup-norm of a_i w_i - c_i - sum_j p_i^T (p_j w_j).

    Zero exactly at a fixed point of the sweep.  Accepts uncoupled systems
    too, where it degenerates to the plain linear residual, and accepts
    iterates from either scheme, which is how the uncoupled solutions are
    measured against the coupled systems.  ws lists the iterates, or is
    one 1-D array stacking them in subdomain-id order, as solve_mps passes
    it, to the same norms.  One dsbmv product with the stacked band, one
    with C, and one segmented maximum over the blocks of blockdiag(a_i) w
    - C w - c, returned in the listed order; entry i is the sup-norm of
    local_gradient for subdomain i, to rounding.  A non-finite entry of
    w_i makes norm i non-finite; through the band's explicit zeros it may
    also reach the norms of blocks within k stacked positions, k the
    stack's sub-diagonals.  A stack passed in is not rebuilt.
    """
    stack = _Stack(locals_)
    w = stack.gather(ws)
    r = _band_sym_times(stack.band, w)
    r -= stack.coupling @ w
    r -= stack.c
    np.abs(r, out=r)
    starts, listed = stack.segments
    norms = np.zeros(len(stack))  # an empty block keeps the norm 0.0
    norms[listed] = np.maximum.reduceat(r, starts)
    return norms

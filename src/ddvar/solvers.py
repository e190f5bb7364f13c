"""Direct, per-subdomain, and fixed-point solvers.

Every system, global or local, arrives as its lower band a_band, k
sub-diagonals with k at most the bandwidth of V, and is solved on it: one
banded Cholesky factor (LAPACK dpbtrf) per solve call, O(n k^2).  The
local bands of a call are laid end to end in subdomain-id order, whatever
their listing order, each zero-padded to the tallest, as one
block-diagonal band; its banded factor is the block diagonal of the
blocks' own factors, so listing order cannot change a result.  Each
uncoupled system needs one solve, and all of them are one banded solve;
the coupled scheme iterates

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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    SCHEME_DDDA,
    SCHEME_MPS,
    GlobalSystem,
    _coupling_rows,
    _require_scheme,
)
from .covariance import (_band_cholesky, _band_solve, _dia_layout,
                         _dia_matrix)
from .errors import (DimensionMismatch, InvalidArgument, _check_integer,
                     _check_real)


def _check_options(tol, max_iters, fail, threads=1) -> None:
    _check_real("tol", tol, fail)
    if not 0.0 < tol < math.inf:
        fail("tol", f"must be positive and finite, got {tol!r}")
    for name, value in (("max_iters", max_iters), ("threads", threads)):
        _check_integer(name, value, fail)
        if value < 1:
            fail(name, f"must be >= 1, got {value!r}")


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
        _check_options(self.tol, self.max_iters, InvalidArgument.fail,
                       self.threads)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    max_delta: float
    residual_norms: tuple


@dataclass
class IterationHistory:
    """Per-iteration trace of the fixed-point sweep.

    final_cost is the cost of the returned iterate: set on every history
    that assimilate and equivalence_report return, NaN from a solve_mps
    given no cost_fn.
    """

    records: list = field(default_factory=list)
    converged: bool = False
    final_cost: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.records)

    def append(self, record: IterationRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise InvalidArgument("iteration records must be appended in order")
        self.records.append(record)


def _vectors(ws, layout, what: str) -> list:
    # ws as float vectors, one per (subdomain id, size) pair of layout: the
    # one check of a per-subdomain vector list.
    if len(ws) != len(layout):
        raise DimensionMismatch(
            f"{len(ws)} {what}s for {len(layout)} subdomains"
        )
    out = []
    for (i, size), w in zip(layout, ws):
        w = np.asarray(w, dtype=float)
        if w.shape != (size,):
            raise DimensionMismatch(
                f"{what} for subdomain {i} has shape {w.shape}, expected "
                f"({size},)"
            )
        out.append(w)
    return out


class _Stack(tuple):
    """The local systems of one solve call, laid end to end by id.

    The tuple holds the systems in their listed order; the stacked arrays
    run in subdomain-id order.  Construction rejects a repeated id and a
    missing or mis-sized neighbor, before anything is factored.  One array
    holds blockdiag(a_i), allocated zeroed at construction as the DIA data
    of its 2k + 1 diagonals (covariance._dia_layout), k the sub-diagonals
    of the tallest a_band: band, the lower band with each a_band copied in
    and zero-padded, is the reversed view of its lower k + 1 rows, and
    operator, built on first use, writes the upper k rows from band and
    wraps the same array; until then those rows stay zero and unwritten,
    which a large allocation does not keep in memory.  The array lives as
    long as the stack.  factor() returns a fresh array that its caller
    frees; coupling is the CSR coupling C (see assembly._coupling_rows)
    and c the concatenated right-hand sides.  A stack passed in is
    returned unchanged.
    """

    def __new__(cls, locals_):
        if isinstance(locals_, _Stack):
            return locals_
        if not locals_:
            raise InvalidArgument("need at least one local system")
        stack = super().__new__(cls, locals_)
        ids = [sys.subdomain for sys in stack]
        if len(set(ids)) < len(ids):
            raise InvalidArgument(f"a subdomain appears twice in {ids}")
        stack.order = sorted(range(len(ids)), key=ids.__getitem__)
        stack.systems = [stack[k] for k in stack.order]
        stack.starts = np.cumsum([0] + [sys.size for sys in stack.systems])
        layout = {sys.subdomain: (int(start), sys.size)
                  for sys, start in zip(stack.systems, stack.starts)}
        stack.coupling = _coupling_rows(stack.systems, layout)
        stack._data, stack.band = _dia_layout(
            max(sys.a_band.shape[0] for sys in stack) - 1,
            int(stack.starts[-1]), symmetric=True)
        for sys, start in zip(stack.systems, stack.starts):
            stack.band[:sys.a_band.shape[0], start:start + sys.size] = (
                sys.a_band)
        stack.c = np.concatenate([sys.c for sys in stack.systems])
        return stack

    @functools.cached_property
    def operator(self):
        """blockdiag(a_i) as a DIA array on band's own storage, on first use.

        Its upper rows are written from the band then; no array is copied.
        """
        return _dia_matrix(self._data, self.band.shape[0] - 1)

    @property
    def kappa(self) -> float:
        """1 + the largest absolute row sum of blockdiag(a_i), off the band.

        Row r sums |a[r, r - d]| = |band[d, r - d]| over d = k..1, then
        the diagonal, then |a[r, r + d]| = |band[d, r]| over d = 1..k: the
        order in which the operator's product sums a row, so this is
        1 + max(abs(operator) @ ones) to the bit, with no band-sized abs.
        """
        band = self.band
        # a sub-diagonal at n or beyond has no row
        k, n = min(band.shape[0], band.shape[1]) - 1, band.shape[1]
        sums = np.zeros(n)
        for d in range(k, 0, -1):
            sums[d:] += np.abs(band[d, :n - d])
        sums += np.abs(band[0])
        for d in range(1, k + 1):
            sums[:n - d] += np.abs(band[d, :n - d])
        return 1.0 + float(np.max(sums))

    def factor(self) -> np.ndarray:
        """Banded Cholesky factor of blockdiag(a_i); a failure names its
        subdomain."""
        def what(row):
            block = int(np.searchsorted(self.starts, row, side="right")) - 1
            return f"subdomain {self.systems[block].subdomain} matrix"

        return _band_cholesky(self.band, what)

    def gather(self, ws) -> np.ndarray:
        """The iterate as one vector: the listed ones stacked, or as given."""
        if isinstance(ws, np.ndarray) and ws.ndim == 1:
            if ws.shape != self.c.shape:
                raise DimensionMismatch(f"stacked iterate has shape "
                                        f"{ws.shape}, expected {self.c.shape}")
            return ws.astype(float, copy=False)
        vecs = _vectors(ws, [(sys.subdomain, sys.size) for sys in self],
                        "iterate")
        return np.concatenate([vecs[k] for k in self.order])

    def split(self, w: np.ndarray) -> list:
        """A stacked vector as per-subdomain views, in listed order."""
        out = [None] * len(self)
        for n, k in enumerate(self.order):
            out[k] = w[self.starts[n]:self.starts[n + 1]]
        return out


def solve_global(sys: GlobalSystem):
    """Solve a w = c for the full-domain system on its band."""
    return _band_solve(_band_cholesky(sys.a_band, "global matrix"), sys.c)


def solve_ddda(locals_: list):
    """Solve every uncoupled local system independently.

    The right-hand sides carry no iteration index, so a single solve per
    subdomain is the entire scheme; repeating it cannot change anything.
    All of them are one banded solve of the stacked right-hand side.
    """
    _require_scheme(locals_, SCHEME_DDDA)
    stack = _Stack(locals_)
    return stack.split(_band_solve(stack.factor(), stack.c))


def solve_mps(locals_: list, opts: SolverOptions | None = None,
              cost_fn=None):
    """Run the parallel fixed-point sweep over the coupled local systems.

    The sweep starts from all zeros (the background) and factors the
    stacked band once; each iteration is one banded solve and one
    fixed_point_residual of the stacked iterate, split once, on return,
    and kappa is read off the band.  The first residual builds the stack's
    operator on the band's own storage.  The factor, as large as the band,
    is freed when the sweep ends, before cost_fn is called: cost_fn, when
    given, is called once, on the returned iterate list, and its value is
    history.final_cost; otherwise that is NaN.  Returns (iterates,
    history); history.converged is False when the iteration budget ran
    out.  The kappa of the residual stop test grows with R^{-1}, so a
    sweep that stopped on that test need not be within tol of the fixed
    point.  A coupled neighbor absent from locals_ raises MissingNeighbor
    before the first sweep.
    """
    opts = opts if opts is not None else SolverOptions()
    _require_scheme(locals_, SCHEME_MPS)
    stack = _Stack(locals_)
    factor = stack.factor()
    kappa = stack.kappa

    w = np.zeros(stack.c.size)
    history = IterationHistory()
    for n in range(1, opts.max_iters + 1):
        new = _band_solve(factor, stack.c + stack.coupling @ w)
        max_delta = float(np.max(np.abs(new - w), initial=0.0))
        residuals = fixed_point_residual(stack, new)
        history.append(
            IterationRecord(
                iteration=n,
                max_delta=max_delta,
                residual_norms=tuple(residuals.tolist()),
            )
        )
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
    it, to the same norms.  One product with the stacked operator, one
    with C, and one segmented maximum over the blocks of
    operator w - C w - c, returned in the listed order; entry i is the
    sup-norm of local_gradient for subdomain i, to the bit.  A non-finite
    entry of w_i makes norm i non-finite; through the operator's explicit
    zeros it may also reach the norms of blocks within k stacked
    positions, k the stack's sub-diagonals.  A stack passed in, as
    solve_mps passes, is not rebuilt.
    """
    stack = _Stack(locals_)
    w = stack.gather(ws)
    r = np.abs(stack.operator @ w - stack.coupling @ w - stack.c)
    # an empty block keeps the norm 0.0
    starts, full = stack.starts[:-1], np.diff(stack.starts) > 0
    norms = np.zeros(len(stack))
    norms[np.asarray(stack.order)[full]] = np.maximum.reduceat(
        r, starts[full])
    return norms

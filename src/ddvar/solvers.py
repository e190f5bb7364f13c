"""Direct, per-subdomain, and fixed-point solvers.

Every system, global or local, is solved through a dense Cholesky factor
computed once per solve call.  Each uncoupled system needs one solve; the
coupled scheme iterates

    a_i w_i^{n+1} = c_i + sum_j p_i^T (p_j w_j^n)

with every subdomain in an iteration consuming only iteration-n neighbor
values, a Jacobi-style parallel sweep.  The stop test fires when the
largest successive-iterate change drops to tol, or when every fixed-point
residual is already below tol * kappa with kappa = 1 + max_i ||a_i||_inf
(which lets a coupling-free system stop after its first, already exact,
solve).  Running out of iterations is reported through the history flag,
never raised, so the best iterate stays available.

Subdomain solves within one iteration are data-parallel over immutable
inputs; with threads > 1 they run on one thread pool per solve call.
Each local solve performs the same floating-point operations in the same
order no matter where it runs, so results do not depend on the degree of
parallelism.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import SCHEME_DDDA, SCHEME_MPS, GlobalSystem, _coupling
from .errors import (
    DimensionMismatch,
    FactorizationFailure,
    InvalidArgument,
    MissingNeighbor,
)


@dataclass
class SolverOptions:
    """Settings of the subdomain solvers.

    tol and max_iters control the fixed-point sweep; threads caps the
    worker pool that runs the subdomain solves of one iteration, 1
    meaning serial.
    """

    tol: float = 1e-12
    max_iters: int = 500
    threads: int = 1

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise InvalidArgument(f"tol must be positive and finite, got "
                                  f"{self.tol}")
        if self.max_iters < 1:
            raise InvalidArgument("max_iters must be >= 1")
        if self.threads < 1:
            raise InvalidArgument("threads must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    max_delta: float
    global_cost: float
    residual_norms: tuple


@dataclass
class IterationHistory:
    """Per-iteration trace of the fixed-point sweep."""

    records: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.records)

    def append(self, record: IterationRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise InvalidArgument("iteration records must be appended in order")
        self.records.append(record)


def _factorize(a: np.ndarray, what: str):
    try:
        return scipy.linalg.cho_factor(a, lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"{what} is not numerically SPD") from exc
    except ValueError as exc:  # scipy's finiteness check
        raise FactorizationFailure(f"{what} has non-finite entries") from exc


def _local_factor(sys):
    return _factorize(sys.a, f"subdomain {sys.subdomain} matrix")


def _pool(threads: int, count: int):
    # One pool serves every iteration of a solve; None means run serially.
    if threads == 1 or count <= 1:
        return contextlib.nullcontext()
    return ThreadPoolExecutor(max_workers=threads)


def _map_ordered(fn, count: int, pool):
    # Results gathered by index, so the outcome is identical whether the
    # tasks ran serially or on a pool.
    if pool is None:
        return [fn(k) for k in range(count)]
    return list(pool.map(fn, range(count)))


def _positions(locals_: list) -> dict:
    pos = {}
    for k, sys in enumerate(locals_):
        if sys.subdomain in pos:
            raise InvalidArgument(
                f"subdomain {sys.subdomain} appears twice in the system list"
            )
        pos[sys.subdomain] = k
    return pos


def solve_global(sys: GlobalSystem):
    """Solve a w = c for the full-domain system."""
    return scipy.linalg.cho_solve(_factorize(sys.a, "global matrix"), sys.c)


def solve_ddda(locals_: list, opts: SolverOptions | None = None):
    """Solve every uncoupled local system independently, one solve each.

    The right-hand sides carry no iteration index, so a single solve per
    subdomain is the entire scheme; repeating it cannot change anything.
    """
    opts = opts if opts is not None else SolverOptions()
    for sys in locals_:
        if sys.scheme != SCHEME_DDDA:
            raise InvalidArgument(
                f"subdomain {sys.subdomain} was assembled for scheme "
                f"{sys.scheme!r}, expected {SCHEME_DDDA!r}"
            )

    def solve_one(k: int) -> np.ndarray:
        sys = locals_[k]
        return scipy.linalg.cho_solve(_local_factor(sys), sys.c)

    with _pool(opts.threads, len(locals_)) as pool:
        return _map_ordered(solve_one, len(locals_), pool)


def solve_mps(locals_: list, w0=None, opts: SolverOptions | None = None,
              cost_fn=None):
    """Run the parallel fixed-point sweep over the coupled local systems.

    w0 defaults to all zeros (analysis starts at the background).  cost_fn,
    when given, is called once per iteration with the fresh iterate list
    and its value lands in the history; otherwise the cost column is NaN.
    Returns (iterates, history); history.converged is False when the
    iteration budget ran out.
    """
    opts = opts if opts is not None else SolverOptions()
    if not locals_:
        raise InvalidArgument("need at least one local system")
    for sys in locals_:
        if sys.scheme != SCHEME_MPS:
            raise InvalidArgument(
                f"subdomain {sys.subdomain} was assembled for scheme "
                f"{sys.scheme!r}, expected {SCHEME_MPS!r}"
            )
    pos = _positions(locals_)
    for sys in locals_:
        for j, _, _ in sys.penalty_pairs:
            if j not in pos:
                raise MissingNeighbor(
                    f"subdomain {sys.subdomain} couples to {j}, which is "
                    "absent from the system list"
                )

    if w0 is None:
        ws = [np.zeros(sys.size) for sys in locals_]
    else:
        if len(w0) != len(locals_):
            raise DimensionMismatch(
                f"{len(w0)} start vectors for {len(locals_)} subdomains"
            )
        ws = []
        for sys, w in zip(locals_, w0):
            w = np.asarray(w, dtype=float)
            if w.shape != (sys.size,):
                raise DimensionMismatch(
                    f"start vector for subdomain {sys.subdomain} has shape "
                    f"{w.shape}, expected ({sys.size},)"
                )
            ws.append(w.copy())

    factors = [_local_factor(sys) for sys in locals_]
    kappa = 1.0 + max(
        float(np.max(np.sum(np.abs(sys.a), axis=1))) for sys in locals_
    )

    history = IterationHistory()
    with _pool(opts.threads, len(locals_)) as pool:
        for n in range(1, opts.max_iters + 1):
            by_id = {sys.subdomain: w for sys, w in zip(locals_, ws)}

            def sweep(k: int) -> np.ndarray:
                sys = locals_[k]
                rhs = sys.c + _coupling(sys, by_id)
                return scipy.linalg.cho_solve(factors[k], rhs)

            new_ws = _map_ordered(sweep, len(locals_), pool)
            max_delta = max(
                float(np.max(np.abs(new - old))) if new.size else 0.0
                for new, old in zip(new_ws, ws)
            )
            residuals = fixed_point_residual(locals_, new_ws)
            cost = cost_fn(new_ws) if cost_fn is not None else math.nan
            history.append(
                IterationRecord(
                    iteration=n,
                    max_delta=max_delta,
                    global_cost=float(cost),
                    residual_norms=tuple(float(r) for r in residuals),
                )
            )
            ws = new_ws
            if (max_delta <= opts.tol
                    or float(np.max(residuals)) <= opts.tol * kappa):
                history.converged = True
                break

    return ws, history


def fixed_point_residual(locals_: list, ws) -> np.ndarray:
    """Per-subdomain sup-norm of a_i w_i - c_i - sum_j p_i^T (p_j w_j).

    Zero exactly at a fixed point of the sweep.  Accepts uncoupled systems
    too, where it degenerates to the plain linear residual, and accepts
    iterates from either scheme, which is how the uncoupled solutions are
    measured against the coupled systems.
    """
    if len(ws) != len(locals_):
        raise DimensionMismatch(
            f"{len(ws)} iterates for {len(locals_)} subdomains"
        )
    _positions(locals_)  # rejects a subdomain listed twice
    vecs = []
    for sys, w in zip(locals_, ws):
        w = np.asarray(w, dtype=float)
        if w.shape != (sys.size,):
            raise DimensionMismatch(
                f"iterate for subdomain {sys.subdomain} has shape {w.shape}, "
                f"expected ({sys.size},)"
            )
        vecs.append(w)
    by_id = {sys.subdomain: w for sys, w in zip(locals_, vecs)}
    out = []
    for sys, w in zip(locals_, vecs):
        r = sys.a @ w - sys.c - _coupling(sys, by_id)
        out.append(float(np.max(np.abs(r))) if r.size else 0.0)
    return np.asarray(out)

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
solve).  "Converged" means one of the two tests fired; kappa grows with
R^{-1}, so the residual branch does not bound the distance to the fixed
point.  Running out of iterations is reported through the history flag,
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
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import (
    SCHEME_DDDA,
    SCHEME_MPS,
    GlobalSystem,
    _coupling,
    _require_scheme,
)
from .errors import (
    DimensionMismatch,
    FactorizationFailure,
    InvalidArgument,
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
        for name in ("max_iters", "threads"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise InvalidArgument(
                    f"{name} must be an integer >= 1, got {value!r}"
                )


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


def _vectors(ws, layout, what: str) -> list:
    # ws as float vectors, one per (subdomain id, size) pair of layout: the
    # one check of a per-subdomain vector list.
    if len(ws) != len(layout):
        raise DimensionMismatch(
            f"{len(ws)} {what}s for {len(layout)} subdomains"
        )
    ids = [i for i, _ in layout]
    if len(set(ids)) < len(ids):
        raise InvalidArgument(f"a subdomain appears twice in {ids}")
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


def solve_global(sys: GlobalSystem):
    """Solve a w = c for the full-domain system."""
    return scipy.linalg.cho_solve(_factorize(sys.a, "global matrix"), sys.c)


def solve_ddda(locals_: list, opts: SolverOptions | None = None):
    """Solve every uncoupled local system independently, one solve each.

    The right-hand sides carry no iteration index, so a single solve per
    subdomain is the entire scheme; repeating it cannot change anything.
    """
    opts = opts if opts is not None else SolverOptions()
    _require_scheme(locals_, SCHEME_DDDA)

    def solve_one(k: int) -> np.ndarray:
        sys = locals_[k]
        return scipy.linalg.cho_solve(_local_factor(sys), sys.c,
                                      check_finite=False)

    with _pool(opts.threads, len(locals_)) as pool:
        return _map_ordered(solve_one, len(locals_), pool)


def solve_mps(locals_: list, opts: SolverOptions | None = None,
              cost_fn=None):
    """Run the parallel fixed-point sweep over the coupled local systems.

    The sweep starts from all zeros (the background).  cost_fn,
    when given, is called once per iteration with the fresh iterate list
    and its value lands in the history; otherwise the cost column is NaN.
    Returns (iterates, history); history.converged is False when the
    iteration budget ran out.  The kappa of the residual stop test grows
    with R^{-1}, so a sweep that stopped on that test need not be within
    tol of the fixed point.  A coupled neighbor absent from locals_ raises
    MissingNeighbor at the first sweep.
    """
    opts = opts if opts is not None else SolverOptions()
    if not locals_:
        raise InvalidArgument("need at least one local system")
    _require_scheme(locals_, SCHEME_MPS)
    layout = [(sys.subdomain, sys.size) for sys in locals_]
    # the zero start goes through the one check that rejects a repeated id
    ws = _vectors([np.zeros(s) for _, s in layout], layout, "start vector")

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
                return scipy.linalg.cho_solve(factors[k], rhs,
                                              check_finite=False)

            new_ws = _map_ordered(sweep, len(locals_), pool)
            max_delta = float(np.max([
                np.max(np.abs(new - old)) if new.size else 0.0
                for new, old in zip(new_ws, ws)
            ]))
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
    vecs = _vectors(ws, [(sys.subdomain, sys.size) for sys in locals_],
                    "iterate")
    by_id = {sys.subdomain: w for sys, w in zip(locals_, vecs)}
    out = []
    for sys, w in zip(locals_, vecs):
        r = sys.a @ w - sys.c - _coupling(sys, by_id)
        out.append(float(np.max(np.abs(r))) if r.size else 0.0)
    return np.asarray(out)

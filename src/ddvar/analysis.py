"""Physical-space updates, patching, and the scheme-equivalence checks.

A control vector w_i lives in the preconditioned space of its subdomain;
local_update maps it back to a physical increment on the subdomain, patch
recombines the subdomain states into the full-domain analysis, and
equivalence_report measures, on one instance, every quantity behind the
claim that the coupled and uncoupled schemes produce the same solution:
identical right-hand sides, the exact penalty structure of the coupled
matrices, and the interface agreement that turns uncoupled solutions into
fixed points of the coupled sweep.

The single-domain reference both entry points measure against is the
minimizer w* of the preconditioned cost, computed in observation space:
with M = H V held sparse, w* = (M^T R^{-1} M + I)^{-1} M^T R^{-1} d is
M^T (M M^T + R)^{-1} d exactly, one nobs x nobs Cholesky factor instead
of an n x n one; control_equivalent solves with V on its band.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg

from .assembly import (
    SCHEME_DDDA,
    SCHEME_MPS,
    assemble_local,
    cost_w,
    penalty_stiffness,
)
from .covariance import interface_coupling, v_times
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    UncoveredPoint,
)
from .geometry import Decomposition
from .observation import ProblemInstance, innovation
from .solvers import (
    IterationHistory,
    SolverOptions,
    _factorize,
    _vectors,
    fixed_point_residual,
    solve_ddda,
    solve_mps,
)

V_TIMES_W = "v_times_w"

SCHEME_GLOBAL = "global"


@dataclass(frozen=True)
class AssimilationResult:
    """Analysis state plus the control vectors and run diagnostics.

    history is empty for the direct schemes.  diagnostics carries
    global_cost (cost of the analysis through its control-space
    equivalent), interface_mismatch, and vs_global_linf (sup-norm distance
    to the single-domain analysis u^b + V w*).  That analysis comes from
    the observation-space solve of the module docstring, which is also the
    whole result of the global scheme.
    """

    u_analysis: np.ndarray
    per_subdomain_w: tuple
    scheme: str
    history: IterationHistory
    diagnostics: dict


def local_update(inst: ProblemInstance, dec: Decomposition, i: int,
                 w_i: np.ndarray) -> np.ndarray:
    """Subdomain analysis u_i = u_i^b + V_i w_i from its control vector.

    Under this increment the quadratic cost is exactly the cost of the
    returned state.  V_i w_i is taken on the band of V (v_times), and u_i^b
    is a view through dec.span(i).
    """
    span = dec.span(i)
    u_b = inst.u_background[span]
    (w_i,) = _vectors([w_i], [(i, u_b.size)], "control vector")
    return u_b + v_times(inst.cov, w_i, span)


def patch(dec: Decomposition, local_us) -> np.ndarray:
    """Recombine per-subdomain states into the full-domain vector.

    Points in a single subdomain take its value; points shared by several
    take the value of the highest subdomain index.  Implemented by writing
    subdomains in ascending order so later ones overwrite shared points.
    """
    local_us = _vectors(local_us, [(i, dec.size(i)) for i in range(dec.j_sub)],
                        "local vector")
    n = dec.grid.n_points
    out = np.zeros(n)
    covered = np.zeros(n, dtype=bool)
    for i, u_i in enumerate(local_us):
        span = dec.span(i)
        out[span] = u_i
        covered[span] = True
    if not covered.all():
        missing = np.nonzero(~covered)[0].tolist()
        raise UncoveredPoint(f"grid points {missing} belong to no subdomain")
    return out


def interface_mismatch(inst: ProblemInstance, dec: Decomposition,
                       ws) -> float:
    """Max over neighbor pairs of the interface gap ||p_i w_i - p_j w_j||_inf.

    ws holds one control vector per subdomain, in subdomain order, from
    either scheme; the interface factors come straight from the
    covariance, so no local system is assembled.  When this vanishes for
    the uncoupled solutions, those solutions satisfy the coupled systems
    verbatim; on generic data it is a reported diagnostic, not an error.
    """
    vecs = _vectors(ws, [(i, dec.size(i)) for i in range(dec.j_sub)],
                    "iterate")
    worst = 0.0
    for i in range(dec.j_sub):
        for j in dec.neighbors(i):
            p_i, p_j = interface_coupling(inst.cov, dec, i, j)
            gap = p_i @ vecs[i] - p_j @ vecs[j]
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def control_equivalent(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    """The w with u = u^b + V w, by one triangular solve on the band of V.

    LAPACK dtbtrs costs O(n bw); a zero on the diagonal of V raises
    LinAlgError.  Only u - u^b is checked for finite entries; the band was
    checked once, when its CovarianceModel was built, and is read-only.
    """
    u = np.asarray(u, dtype=float)
    n = inst.grid.n_points
    if u.shape != (n,):
        raise DimensionMismatch(f"u has shape {u.shape}, expected ({n},)")
    du = u - inst.u_background
    if not np.isfinite(du).all():
        raise InvalidArgument("u has non-finite entries")
    w, info = scipy.linalg.lapack.dtbtrs(inst.cov.v_band, du, uplo="L")
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix: resolution failed "
                                    f"at diagonal {info - 1}")
    return w


def _global_w(inst: ProblemInstance) -> np.ndarray:
    # The single-domain minimizer w* = M^T (M M^T + R)^{-1} d, M = H V:
    # the sparse H rows of V, one nobs x nobs Cholesky factor, two products.
    m = inst.h_rows
    if m.shape[0] == 0:
        return np.zeros(m.shape[1])
    s = (m @ m.T).toarray()
    s[np.diag_indices_from(s)] += inst.obs.r_cov.r_diag
    z = scipy.linalg.cho_solve(_factorize(s, "observation-space matrix"),
                               innovation(inst))
    return m.T @ z


def _patched(inst, dec, ws):
    return patch(dec, [
        local_update(inst, dec, i, ws[i]) for i in range(dec.j_sub)
    ])


def _check_convention(convention: str) -> None:
    if convention != V_TIMES_W:
        raise InvalidArgument(
            f"convention must be {V_TIMES_W!r}, got {convention!r}"
        )


def _iterate_cost(inst, dec):
    def cost_of(ws):
        u = _patched(inst, dec, ws)
        return cost_w(inst, control_equivalent(inst, u))
    return cost_of


def assimilate(inst: ProblemInstance, dec: Decomposition, method: str,
               opts: SolverOptions | None = None,
               convention: str = V_TIMES_W) -> AssimilationResult:
    """Run one scheme end to end and return the patched analysis.

    method is "global", "mps", or "ddda".  The single-domain analysis is
    always computed alongside as the reference for vs_global_linf, by the
    observation-space solve of the module docstring: the sparse M M^T
    costs O(nobs bw^2) and its factor O(nobs^3), against O(n^3) for the
    normal equations of assemble_global, left to tests and checks.
    convention accepts only "v_times_w"; it remains because the benchmark
    worker passes the config's update_convention positionally.
    """
    _check_convention(convention)
    opts = opts if opts is not None else SolverOptions()
    if method not in (SCHEME_GLOBAL, SCHEME_MPS, SCHEME_DDDA):
        raise InvalidArgument(
            f"method must be one of ('global', 'mps', 'ddda'), got {method!r}"
        )

    w_star = _global_w(inst)
    u_global = inst.u_background + v_times(inst.cov, w_star)

    if method == SCHEME_GLOBAL:
        u = u_global
        per_w = (w_star,)
        history = IterationHistory(converged=True)
        gap = 0.0
    else:
        locals_ = [
            assemble_local(inst, dec, i, method) for i in range(dec.j_sub)
        ]
        if method == SCHEME_DDDA:
            ws = solve_ddda(locals_, opts)
            history = IterationHistory(converged=True)
        else:
            ws, history = solve_mps(
                locals_, None, opts,
                cost_fn=_iterate_cost(inst, dec),
            )
        u = _patched(inst, dec, ws)
        per_w = tuple(ws)
        gap = interface_mismatch(inst, dec, ws)

    diagnostics = {
        "global_cost": cost_w(inst, control_equivalent(inst, u)),
        "interface_mismatch": gap,
        "vs_global_linf": float(np.max(np.abs(u - u_global))),
    }
    return AssimilationResult(
        u_analysis=u,
        per_subdomain_w=per_w,
        scheme=method,
        history=history,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Measured equivalence of the two schemes on one instance.

    c_equal and a_structure_exact are identities that hold on any data;
    the remaining numbers quantify how far the uncoupled solutions are
    from being a fixed point of the coupled sweep and how far the two
    schemes' solutions and costs sit from each other and from the
    single-domain solve.  mps_converged flags whether the sweep hit its
    stop test inside the iteration budget.
    """

    c_equal: bool
    a_structure_exact: bool
    interface_mismatch: float
    ddda_in_mps_residual: float
    w_delta_linf: float
    cost_global: float
    cost_mps: float
    cost_ddda: float
    iters_mps: int
    mps_converged: bool
    history: IterationHistory = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        """Every compared field by name; the history stays out."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.compare}


def equivalence_report(inst: ProblemInstance, dec: Decomposition,
                       opts: SolverOptions | None = None,
                       convention: str = V_TIMES_W) -> EquivalenceReport:
    """Solve both schemes and measure every equivalence quantity.

    Mismatch is data, not an error: the report never raises on a nonzero
    gap, it only records it.  cost_global is the cost of the
    observation-space reference w* of the module docstring.  convention
    accepts only "v_times_w"; it remains because the benchmark worker
    passes the config's update_convention positionally.
    """
    _check_convention(convention)
    opts = opts if opts is not None else SolverOptions()
    mps_locals = [
        assemble_local(inst, dec, i, SCHEME_MPS) for i in range(dec.j_sub)
    ]
    dd_locals = [
        assemble_local(inst, dec, i, SCHEME_DDDA) for i in range(dec.j_sub)
    ]

    c_equal = all(
        m.c.tobytes() == d.c.tobytes()
        for m, d in zip(mps_locals, dd_locals)
    )

    structure_dev = max(
        float(np.max(np.abs(
            m.a - (d.a + penalty_stiffness(m.penalty_pairs, d.size))
        )))
        for m, d in zip(mps_locals, dd_locals)
    )

    ws_dd = solve_ddda(dd_locals, opts)
    cost_fn = _iterate_cost(inst, dec)
    ws_mps, history = solve_mps(mps_locals, None, opts, cost_fn=cost_fn)
    w_star = _global_w(inst)

    w_delta = max(
        float(np.max(np.abs(wm - wd))) for wm, wd in zip(ws_mps, ws_dd)
    )
    return EquivalenceReport(
        c_equal=c_equal,
        a_structure_exact=structure_dev == 0.0,
        interface_mismatch=interface_mismatch(inst, dec, ws_dd),
        ddda_in_mps_residual=float(
            np.max(fixed_point_residual(mps_locals, ws_dd))
        ),
        w_delta_linf=w_delta,
        cost_global=cost_w(inst, w_star),
        cost_mps=history.records[-1].global_cost,
        cost_ddda=cost_fn(ws_dd),
        iters_mps=history.iterations,
        mps_converged=history.converged,
        history=history,
    )

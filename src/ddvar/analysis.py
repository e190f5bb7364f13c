"""The analysis of each scheme and the scheme-equivalence checks.

A control vector w_i lives in the preconditioned space of its subdomain.
Its subdomain analysis is u_i = u^b[span(i)] + V[span(i), span(i)] w_i,
and the full-domain analysis patches the u_i together, each point taken
from its owner.  A run lifts every subdomain at once: with the blocks
V[span(i), span(i)] laid end to end as one band (covariance.v_blocks,
built for each patch and freed with it), the stacked u_i are one band
product plus u^b at the spans, their patch one gather and the interface
mismatch one max.
One scheme run (assemble, solve, patch, cost) serves both entry points:
assimilate makes one, and equivalence_report makes one of each scheme
and measures off the two every quantity behind the claim that the
coupled and uncoupled schemes produce the same solution: identical
right-hand sides, the exact penalty structure of the coupled matrices,
and the interface agreement, read off the local analyses, that turns
uncoupled solutions into fixed points of the coupled sweep.

The single-domain reference both entry points measure against, solved
before either scheme is assembled, is the minimizer w* of the
preconditioned cost, computed in observation space
(PSAS): with M = H V held sparse, w* = (M^T R^{-1} M + I)^{-1} M^T R^{-1} d
is M^T (M M^T + R)^{-1} d exactly.  M M^T + R is banded, since S[p, q] is
zero once observations p and q lie more than bw grid points apart, so it
is factored on its band, O(nobs k_S^2) for k_S sub-diagonals (k_S <= bw;
3 at length_scale 2 with nobs = n/5); control_equivalent solves with V on
its band.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .assembly import (
    SCHEME_DDDA,
    SCHEME_MPS,
    _require_grid,
    assemble_local,
    cost_w,
    penalty_stiffness,
)
from .covariance import (
    _band_cholesky,
    _band_of,
    _band_solve,
    _band_times,
    v_blocks,
    v_solve,
    v_times,
)
from .errors import DimensionMismatch, InvalidArgument
from .geometry import Decomposition
from .observation import ProblemInstance
from .solvers import (
    IterationHistory,
    SolverOptions,
    _Stack,
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


def interface_mismatch(inst: ProblemInstance, dec: Decomposition,
                       ws) -> float:
    """Max over subdomains of ||u_i - u[span(i)]||_inf, u the patch of the u_i.

    ws holds one control vector per subdomain, in subdomain order, from
    either scheme, and u_i = u^b[span(i)] + V[span(i), span(i)] w_i, all
    of them lifted by one band product on the stacked blocks of V.  Each
    interface Gamma of i toward j lies in j's base block, where u is u_j,
    so this is the largest gap ||p_i w_i - p_j w_j||_inf up to the
    rounding of adding u^b, and 0.0 at halo 0.  When it vanishes for the
    uncoupled solutions, those solutions satisfy the coupled systems
    verbatim; on generic data it is a reported diagnostic, not an error.
    A NaN iterate makes it NaN.
    """
    ws = _vectors(ws, [(i, dec.size(i)) for i in range(dec.j_sub)],
                  "iterate")
    return _Lift(inst, dec).gap(np.concatenate(ws))[1]


def control_equivalent(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    """The w with u = u^b + V w, by one triangular solve on the band of V.

    v_solve costs O(n bw).  Only u - u^b is checked for finite entries; the
    band was checked once, when its CovarianceModel was built.
    """
    u = np.asarray(u, dtype=float)
    n = inst.grid.n_points
    if u.shape != (n,):
        raise DimensionMismatch(f"u has shape {u.shape}, expected ({n},)")
    du = u - inst.u_background
    if not np.isfinite(du).all():
        raise InvalidArgument("u has non-finite entries")
    return v_solve(inst.cov, du)


def _global_w(inst: ProblemInstance) -> np.ndarray:
    # The single-domain minimizer w* = M^T (M M^T + R)^{-1} d, M = H V:
    # the lower band of the sparse M M^T plus R, one banded factor, two
    # products.
    m = inst.h_rows
    if m.shape[0] == 0:
        return np.zeros(m.shape[1])
    band = _band_of(m @ m.T)
    band[0] += inst.obs.r_cov.r_diag
    z = _band_solve(_band_cholesky(band, "observation-space matrix"),
                    inst.innovation)
    return m.T @ z


class _Lift:
    """The local analyses of every subdomain at once, spans end to end.

    index is the grid point of each stacked entry and owned the stacked
    position of each grid point's owner entry.  A stacked control vector
    w lifts to the stacked u_i = u^b[span(i)] + V[span(i), span(i)] w_i
    by one band product with the lower band of blockdiag(V[span(i),
    span(i)]) in subdomain-id order (covariance.v_blocks), and those patch
    by one gather: each point takes the value of its owner, the subdomain
    whose base block dec.owned(i) holds it (restricted additive Schwarz),
    so the halo values, worst at a subdomain's edge, are dropped.
    """

    def __init__(self, inst, dec):
        _require_grid(inst, dec)
        self.cov, self.dec = inst.cov, dec
        self.index = np.concatenate([dec.indices(i)
                                     for i in range(dec.j_sub)])
        self.u_b = inst.u_background[self.index]
        offsets = np.cumsum([0] + [dec.size(i) for i in range(dec.j_sub)])
        self.owned = np.concatenate([
            np.arange(dec.owned(i).start, dec.owned(i).stop)
            + (offsets[i] - dec.span(i).start) for i in range(dec.j_sub)
        ])

    def patch(self, w):
        """The patch u of the stacked w and the stacked analyses; the
        stacked blocks of V live only inside this call."""
        us = self.u_b + _band_times(v_blocks(self.cov, self.dec), w)
        return us[self.owned], us

    def gap(self, w):
        """The patch u of the stacked w and max_i ||u_i - u[span(i)]||_inf."""
        u, us = self.patch(w)
        return u, float(np.max(np.abs(us - u[self.index])))


def _check_convention(convention, fail) -> None:
    if convention != V_TIMES_W:
        fail("convention", f"must be {V_TIMES_W!r}, got {convention!r}")


def _analysis_cost(inst, u):
    """The cost of the analysis u, through its control-space equivalent."""
    return cost_w(inst, control_equivalent(inst, u))


def _run_scheme(inst, dec, scheme, opts, lift):
    """(stack, ws, history, u, gap) of one ddda or mps run.

    The stacked local systems, the control vectors in subdomain order, the
    history (empty for ddda) and the patch u through lift with its interface
    mismatch, both from one lift.gap of the returned iterate, which also
    takes the cost of u into history.final_cost (the sweep's cost_fn).
    """
    stack = _Stack([assemble_local(inst, dec, i, scheme)
                    for i in range(dec.j_sub)])
    patched = {}

    def patch_and_cost(ws):
        # both solvers return views of one stacked vector, already checked
        patched["u"], patched["gap"] = lift.gap(np.concatenate(ws))
        return _analysis_cost(inst, patched["u"])

    if scheme == SCHEME_DDDA:
        ws = solve_ddda(stack)
        history = IterationHistory(converged=True,
                                   final_cost=patch_and_cost(ws))
    else:
        ws, history = solve_mps(stack, opts, cost_fn=patch_and_cost)
    return stack, ws, history, patched["u"], patched["gap"]


def assimilate(inst: ProblemInstance, dec: Decomposition, method: str,
               opts: SolverOptions | None = None,
               convention: str = V_TIMES_W) -> AssimilationResult:
    """Run one scheme end to end and return the patched analysis.

    method is "global", "mps", or "ddda".  The single-domain analysis is
    always computed alongside as the reference for vs_global_linf, by the
    observation-space solve of the module docstring: the sparse M M^T
    costs O(nobs bw^2) and its banded factor O(nobs k_S^2), against
    O(n bw^2) for the normal equations of assemble_global.  convention
    accepts only "v_times_w"; it remains because the benchmark
    worker passes the config's update_convention positionally.
    """
    _check_convention(convention, InvalidArgument.fail)
    if method not in (SCHEME_GLOBAL, SCHEME_MPS, SCHEME_DDDA):
        raise InvalidArgument(
            f"method must be one of ('global', 'mps', 'ddda'), got {method!r}"
        )

    w_star = _global_w(inst)
    u_global = inst.u_background + v_times(inst.cov, w_star)

    if method == SCHEME_GLOBAL:
        u, gap, ws = u_global, 0.0, [w_star]
        history = IterationHistory(converged=True,
                                   final_cost=_analysis_cost(inst, u))
    else:
        _, ws, history, u, gap = _run_scheme(inst, dec, method, opts,
                                             _Lift(inst, dec))
    return AssimilationResult(
        u_analysis=u,
        per_subdomain_w=tuple(ws),
        scheme=method,
        history=history,
        diagnostics={
            "global_cost": history.final_cost,
            "interface_mismatch": gap,
            "vs_global_linf": float(np.max(np.abs(u - u_global))),
        },
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
    observation-space reference w* of the module docstring, solved first.
    convention accepts only "v_times_w"; it remains because the benchmark
    worker passes the config's update_convention positionally.
    """
    _check_convention(convention, InvalidArgument.fail)
    cost_global = cost_w(inst, _global_w(inst))
    lift = _Lift(inst, dec)
    dd_stack, ws_dd, dd_history, _, gap_dd = _run_scheme(
        inst, dec, SCHEME_DDDA, None, lift)
    # the ddda systems, c and iterate live through the mps run; their
    # stacked band and the lift's blocks of V do not
    dd_systems, dd_c = tuple(dd_stack), dd_stack.c
    del dd_stack
    mps_stack, ws_mps, history, _, _ = _run_scheme(
        inst, dec, SCHEME_MPS, opts, lift)
    return EquivalenceReport(
        # both stacks run in subdomain-id order
        c_equal=mps_stack.c.tobytes() == dd_c.tobytes(),
        a_structure_exact=all(
            np.array_equal(m.a_band, d.a_band + penalty_stiffness(
                m.penalty_pairs, d.a_band.shape))
            for m, d in zip(mps_stack, dd_systems)
        ),
        interface_mismatch=gap_dd,
        ddda_in_mps_residual=float(
            np.max(fixed_point_residual(mps_stack, ws_dd))
        ),
        w_delta_linf=float(np.max(np.abs(
            np.concatenate(ws_mps) - np.concatenate(ws_dd)))),
        cost_global=cost_global,
        cost_mps=history.final_cost,
        cost_ddda=dd_history.final_cost,
        iters_mps=history.iterations,
        mps_converged=history.converged,
        history=history,
    )

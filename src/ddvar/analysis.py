"""The analysis of each scheme and the scheme-equivalence checks.

A control vector w_i lives in the preconditioned space of its subdomain.
Its subdomain analysis is u_i = u^b[span(i)] + V[span(i), span(i)] w_i,
and the full-domain analysis patches the u_i together, each point taken
from its owner.  A run lifts every subdomain at once, on the spans laid
end to end (Decomposition._stacked): with the blocks V[span(i), span(i)]
stacked as one band (covariance.v_blocks, built for each patch and freed
with it), the u_i are one band product plus u^b at the stacked points,
their patch one gather of owner entries and the interface mismatch one max.
One scheme run (solve, patch, cost) of a stack serves both entry points,
whose stacks read _assemble, one uncoupled system at a time, an mps stack
then coupled in place by one interface pass: assimilate streams one stack,
and equivalence_report couples its solved ddda stack for the mps run,
after checking each system of a second stream against it, and measures
every quantity behind the claim that the two schemes produce the same
solution: identical right-hand sides and the exact penalty structure of
the coupled matrices, read off the second stream, and the interface
agreement, read off the local analyses, that makes uncoupled solutions
fixed points of the coupled sweep.

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
    _interface_pass,
    _require_grid,
    assemble_local,
    cost_w,
)
from .covariance import (
    _band_of,
    _band_solve,
    _band_times,
    _block_height,
    _spd_factor,
    v_blocks,
    v_solve,
    v_times,
)
from .errors import (InvalidArgument, _check_choice, _check_finite,
                     _check_type, _vector)
from .geometry import Decomposition
from .observation import ProblemInstance
from .solvers import (
    IterationHistory,
    SolverOptions,
    _Stack,
    _next_system,
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

    For a patched analysis (mps, ddda) global_cost is J(V^{-1}(u - u^b)):
    V^{-1} amplifies every jump where two owned blocks meet, so it weighs
    the seams more than the fit.  At np=2000, length_scale 8, j_sub=16,
    halo 4, mps, seed 3 it is 2.65e10 (vs_global_linf 2.475); the global
    scheme on the same instance gives 211.4.
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
    _require_grid(inst, dec)
    ws = _vectors(ws, [(i, b - a) for i, (a, b) in enumerate(dec.subdomains)])
    return _gap(inst, dec, np.concatenate(ws))[1]


def control_equivalent(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    """The w with u = u^b + V w, by one triangular solve on the band of V.

    v_solve costs O(n bw).  Only u - u^b is checked for finite entries; the
    band was checked once, when its CovarianceModel was built.
    """
    _check_type("inst", inst, ProblemInstance)
    du = _vector("u", u, inst.grid.n_points) - inst.u_background
    return v_solve(inst.cov, _check_finite("u - u^b", du))


def _global_w(inst: ProblemInstance) -> np.ndarray:
    # The single-domain minimizer w* = M^T (M M^T + R)^{-1} d, M = H V:
    # the lower band of the sparse M M^T plus R, one banded factor, two
    # products.
    m = _check_type("inst", inst, ProblemInstance).h_rows
    if m.shape[0] == 0:
        return np.zeros(m.shape[1])
    band = _band_of(m @ m.T)
    band[0] += inst.obs.r_cov.r_diag
    z = _band_solve(_spd_factor(band, "observation-space matrix"),
                    inst.innovation)
    return m.T @ z


def _patch(inst, dec, w):
    """The patch u of the stacked control vector w and the stacked u_i.

    The u_i are one band product with v_blocks, made first to fill the
    block the sweep's factor freed (compare frees no band before it) and
    freed on return; the patch gathers each point from its owner, the
    subdomain whose base block holds it (restricted additive Schwarz), so
    the halo values, worst at a subdomain's edge, are dropped.
    """
    _require_grid(inst, dec)
    points, _, owners = dec._stacked
    us = _band_times(v_blocks(inst.cov, dec), w) + inst.u_background[points]
    return us[owners], us


def _gap(inst, dec, w):
    """The patch u of the stacked w and max_i ||u_i - u[span(i)]||_inf."""
    u, us = _patch(inst, dec, w)
    return u, float(np.max(np.abs(us - u[dec._stacked[0]])))


def _check_convention(convention, fail) -> None:
    _check_choice("convention", convention, (V_TIMES_W,), fail)


def _check_opts(opts) -> None:
    if opts is not None:
        _check_type("opts", opts, SolverOptions)


def _analysis_cost(inst, u):
    """The cost of the analysis u, through its control-space equivalent."""
    return cost_w(inst, control_equivalent(inst, u))


def _assemble(inst, dec):
    _require_grid(inst, dec)
    return (assemble_local(inst, dec, i, SCHEME_DDDA)
            for i in range(dec.j_sub))


def _stack(inst, dec, scheme, systems=None):
    # dec's stream of uncoupled systems (or a stack, kept) stacked by dec's
    # layout; one interface pass couples an mps stack's band in place
    stack = _Stack(systems or _assemble(inst, dec), (
        [(i, b - a, SCHEME_DDDA) for i, (a, b) in enumerate(dec.subdomains)],
        _block_height(inst.cov, max(b - a for a, b in dec.subdomains))))
    if scheme == SCHEME_MPS:
        stack = stack.coupled(_interface_pass(
            inst.cov, dec, range(dec.j_sub), stack.band, stack.starts))
    return stack


def _matches(stack, sys, start):
    # (c equal, a_band equal with nothing below it) of an uncoupled system
    # against its block of stack, from column start; c to the byte
    stop = start + sys.size
    block, k = stack.band[:, start:stop], len(sys.a_band)
    return (sys.c.tobytes() == stack.c[start:stop].tobytes(),
            np.array_equal(sys.a_band, block[:k]) and not block[k:].any())


def _run_scheme(inst, dec, stack, opts):
    """(ws, history, u, gap) of one ddda or mps run of a caller's stack.

    The control vectors in subdomain order, the history (empty for ddda)
    and the patch u with its interface mismatch, both from one _gap of the
    returned iterate, which also takes the cost of u into
    history.final_cost (the sweep's cost_fn).
    """
    patched = {}

    def patch_and_cost(ws):
        # both solvers return views of one stacked vector, already checked
        patched["u"], patched["gap"] = _gap(inst, dec, np.concatenate(ws))
        return _analysis_cost(inst, patched["u"])

    if stack[0].scheme == SCHEME_DDDA:
        ws = solve_ddda(stack)
        history = IterationHistory(converged=True,
                                   final_cost=patch_and_cost(ws))
    else:
        ws, history = solve_mps(stack, opts, cost_fn=patch_and_cost)
    return ws, history, patched["u"], patched["gap"]


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
    _check_choice("method", method, (SCHEME_GLOBAL, SCHEME_MPS, SCHEME_DDDA),
                  InvalidArgument.fail)
    _check_opts(opts)

    w_star = _global_w(inst)
    u_global = inst.u_background + v_times(inst.cov, w_star)

    if method == SCHEME_GLOBAL:
        u, gap, ws = u_global, 0.0, [w_star]
        history = IterationHistory(converged=True,
                                   final_cost=_analysis_cost(inst, u))
    else:
        ws, history, u, gap = _run_scheme(
            inst, dec, _stack(inst, dec, method), opts)
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

    The ddda stack is streamed and solved first; c_equal and
    a_structure_exact conjoin the checks of each system of a second stream
    against its entry and its block of that stack, whose band one
    interface pass then couples in place: a report holds one stacked band.
    Mismatch is data, not an error: the report never raises on a nonzero
    gap, it only records it.  cost_global is the cost of the
    observation-space reference w* of the module docstring, solved first.
    convention accepts only "v_times_w"; it remains because the benchmark
    worker passes the config's update_convention positionally.
    """
    _check_convention(convention, InvalidArgument.fail)
    _check_opts(opts)
    cost_global = cost_w(inst, _global_w(inst))
    dd = _stack(inst, dec, SCHEME_DDDA)
    ws_dd, dd_history, _, gap_dd = _run_scheme(inst, dec, dd, None)
    systems = _assemble(inst, dec)
    checks = [_matches(dd, _next_system(systems, entry, len(dd.band)), start)
              for entry, start in zip(dd, dd.starts.tolist())]
    mps_stack = _stack(inst, dec, SCHEME_MPS, dd)
    ws_mps, history, _, _ = _run_scheme(inst, dec, mps_stack, opts)
    c_equal, exact = map(all, zip(*checks))
    w_dd = np.concatenate(ws_dd)  # the stacked iterate, as dd lays it out
    return EquivalenceReport(
        c_equal=c_equal,
        a_structure_exact=exact,
        interface_mismatch=gap_dd,
        ddda_in_mps_residual=float(
            np.max(fixed_point_residual(mps_stack, w_dd))
        ),
        w_delta_linf=float(np.max(np.abs(
            np.concatenate(ws_mps) - w_dd))),
        cost_global=cost_global,
        cost_mps=history.final_cost,
        cost_ddda=dd_history.final_cost,
        iters_mps=history.iterations,
        mps_converged=history.converged,
        history=history,
    )

"""Property tests of the identities behind equivalence_report's numbers.

a_mps = a_ddda + sum_j p_i^T p_i and a_ddda w_dd = c, so the mps residual
of the ddda solution is r_i = sum_j p_i^T (p_i w_i - p_j w_j): zero
exactly when every interface gap is.  And for any w, w - w_fix =
K^-1 (K w - c), K = blockdiag(a_i) - C, so the distance of the two
schemes' solutions is bounded by K^-1 and the residuals the report reads.
Both are checked over small instances against conftest.FixedPoint, whose
C is formed from the penalty pairs apart from the solvers' coupling.

Every float bound below rests on one rounding budget: at a stacked w, a
row of a residual, a gap or a product of the pairs sums at most N
products, N = (stacked length) + (most interface rows) + 4, of the
entries of the nonnegative row terms |a||w| + sum_j |p_i|^T (|p_i||w_i| +
|p_j||w_j|) + |c|, so any two evaluations of it, in any order, FMA or not,
differ by at most 2 gamma_N times those terms (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, sections 3.1 and 3.5).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ddvar import (  # noqa: E402
    SCHEME_DDDA,
    SCHEME_MPS,
    assemble_local,
    equivalence_report,
    fixed_point_residual,
    solve_ddda,
    solve_mps,
)

from conftest import (FixedPoint, dense, make_instance,  # noqa: E402
                      residual_bound)

EPS = np.finfo(float).eps


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 300))
    j_sub = draw(st.integers(1, n))
    # a halo is bounded only between subdomains: 2 halo + 1 <= n // j_sub
    halo = draw(st.integers(0, (n // j_sub - 1) // 2 if j_sub > 1 else n))
    length_scale = draw(st.sampled_from([None, 0.5, 2.0, 8.0]))
    sigma_o = draw(st.sampled_from([1.0, 0.1, 1e-4]))
    return n, j_sub, halo, length_scale, sigma_o, draw(st.integers(0, 999))


def _problem(case):
    """The instance's mps and ddda systems, in id order, and its report."""
    n, j_sub, halo, length_scale, sigma_o, seed = case
    inst, dec = make_instance(
        n=n, j_sub=j_sub, halo=halo, seed=seed, sigma_o=sigma_o,
        kind="identity" if length_scale is None else "gaussian",
        length_scale=length_scale or 1.0)
    systems = {scheme: [assemble_local(inst, dec, i, scheme)
                        for i in range(j_sub)]
               for scheme in (SCHEME_MPS, SCHEME_DDDA)}
    return systems[SCHEME_MPS], systems[SCHEME_DDDA], equivalence_report(
        inst, dec)


def _row_terms(systems, ws):
    """|a||w| + sum_j |p_i|^T (|p_i||w_i| + |p_j||w_j|) + |c|, stacked."""
    terms = []
    for sys in systems:
        t = (np.abs(dense(sys.a_band)) @ np.abs(ws[sys.subdomain])
             + np.abs(sys.c))
        for j, p_i, p_j in sys.penalty_pairs:
            t += np.abs(p_i).T @ (np.abs(p_i) @ np.abs(ws[sys.subdomain])
                                  + np.abs(p_j) @ np.abs(ws[j]))
        terms.append(t)
    return np.concatenate(terms)


def _gamma2(systems):
    """2 gamma_N of the module docstring."""
    rows = max((len(p_i) for sys in systems
                for _, p_i, _ in sys.penalty_pairs), default=0)
    terms = sum(sys.size for sys in systems) + rows + 4
    return 2.0 * terms * EPS / 2 / (1.0 - terms * EPS / 2)


_SETTINGS = settings(max_examples=40, deadline=None)


@_SETTINGS
@given(_cases())
# twelve subdomains of 20 points, overlapping by 3
@example((240, 12, 3, 2.0, 0.1, 5))
# entries of a about 1e8
@example((300, 4, 4, 2.0, 1e-4, 3))
# every gap exactly 0
@example((120, 6, 2, None, 0.1, 1))
def test_the_ddda_residual_in_mps_is_the_interface_gap_sum(case):
    # fixed_point_residual_i at w_dd is ||sum_j p_i^T (p_i w_i - p_j w_j)||
    # up to the ddda solve's own residual and 2 gamma_N of the row terms,
    # and that sum is at most sum_j ||p_i^T||_inf ||p_i w_i - p_j w_j||_inf
    # up to ||p_i^T||_inf times the rounding of each gap
    mps, dd, rep = _problem(case)
    ws = solve_ddda(dd)
    r = fixed_point_residual(mps, ws)
    assert rep.ddda_in_mps_residual == np.max(r)
    gamma2 = _gamma2(mps)
    own = fixed_point_residual(dd, ws)  # a_dd w_dd - c
    dd_rounding = residual_bound(dd, ws)
    rounding = gamma2 * _row_terms(mps, ws)
    starts = np.cumsum([0] + [sys.size for sys in mps])
    for sys, lo, hi in zip(mps, starts, starts[1:]):
        i = sys.subdomain
        g = np.zeros(sys.size)
        bound = 0.0
        for j, p_i, p_j in sys.penalty_pairs:
            gap = p_i @ ws[i] - p_j @ ws[j]
            g += p_i.T @ gap
            gap_rounding = gamma2 * np.max(np.abs(p_i) @ np.abs(ws[i])
                                           + np.abs(p_j) @ np.abs(ws[j]),
                                           initial=0.0)
            bound += (np.max(np.abs(p_i).sum(axis=0), initial=0.0)
                      * (np.max(np.abs(gap), initial=0.0) + gap_rounding))
        g_norm = np.max(np.abs(g), initial=0.0)
        slack = np.max(rounding[lo:hi], initial=0.0)
        assert abs(r[i] - g_norm) <= (own[i] + np.max(dd_rounding[lo:hi],
                                                      initial=0.0) + slack)
        assert g_norm <= (1.0 + gamma2) * bound + slack


@_SETTINGS
@given(_cases())
@example((240, 12, 3, 2.0, 0.1, 5))
@example((300, 4, 4, 2.0, 1e-4, 3))
@example((120, 6, 2, None, 0.1, 1))
def test_the_schemes_distance_is_bounded_through_the_exact_fixed_point(case):
    # ||w - w_fix|| <= ||K^-1|| (||K w - c|| + rounding) at every w, so
    # the sweep's returned iterate is within ||K^-1|| times its own last
    # residual of w_fix, and w_delta_linf <= ||K^-1|| ddda_in_mps_residual
    # + the sweep's distance to w_fix; the oracle's w_fix is off by its
    # own residual times ||K^-1||, and ||K^-1||, read off the columns of
    # K^-1, by a relative n eps cond(K), at most 1e-4 on the instances
    # kept and taken as 1e-3
    mps, dd, rep = _problem(case)
    oracle = FixedPoint(mps)
    n = oracle.k.shape[0]
    assume(n * EPS * oracle.cond_estimate() <= 1e-4)
    inverse = (1.0 + 1e-3) * oracle.inverse_norm_inf()
    gamma2 = _gamma2(mps)

    def slack(w):
        # ||K^-1|| times the rounding of any residual of K at w
        ws = np.split(w, np.cumsum([sys.size for sys in mps])[:-1])
        return inverse * gamma2 * np.max(_row_terms(mps, ws), initial=0.0)

    w_fix = oracle.w_fix
    fix_error = inverse * np.max(np.abs(oracle.k @ w_fix - oracle.c),
                                 initial=0.0) + slack(w_fix)
    w_mps = np.concatenate(solve_mps(mps)[0])
    w_dd = np.concatenate(solve_ddda(dd))
    assert rep.w_delta_linf == np.max(np.abs(w_mps - w_dd), initial=0.0)
    sweep = np.max(np.abs(w_mps - w_fix), initial=0.0)
    last = max(rep.history.records[-1].residual_norms)
    assert sweep <= (1.0 + EPS) * (inverse * last + slack(w_mps)
                                   + fix_error)
    assert rep.w_delta_linf <= (1.0 + EPS) * (
        inverse * rep.ddda_in_mps_residual + slack(w_dd) + sweep + fix_error)

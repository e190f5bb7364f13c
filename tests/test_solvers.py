import math

import numpy as np
import pytest

from ddvar import (
    DimensionMismatch,
    FactorizationFailure,
    GlobalSystem,
    Grid1D,
    InvalidArgument,
    IterationHistory,
    IterationRecord,
    MissingNeighbor,
    ProblemInstance,
    SCHEME_DDDA,
    SCHEME_MPS,
    SolverOptions,
    assemble_global,
    assemble_local,
    cost_w,
    decompose_uniform,
    fixed_point_residual,
    identity_covariance,
    local_gradient,
    point_observations,
    solve_ddda,
    solve_global,
    solve_mps,
)

from conftest import make_instance


def _locals(inst, dec, scheme):
    return [assemble_local(inst, dec, i, scheme) for i in range(dec.j_sub)]


def test_global_single_point():
    grid = Grid1D.uniform(1)
    obs = point_observations(grid, [0], [2.0], [1.0])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(1))
    w = solve_global(assemble_global(inst))
    np.testing.assert_allclose(w, [1.0], rtol=0, atol=1e-15)


def test_non_finite_matrix_is_a_factorization_failure():
    # scipy rejects infs and NaNs with a bare ValueError; it must surface
    # as the package's typed error
    for bad in (np.inf, np.nan):
        sys = GlobalSystem(a=np.array([[1.0, 0.0], [0.0, bad]]),
                           c=np.ones(2))
        with pytest.raises(FactorizationFailure, match="non-finite"):
            solve_global(sys)


def test_global_zero_rhs_gives_zero():
    grid = Grid1D.uniform(7)
    obs = point_observations(grid, [], [], [])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(7))
    w = solve_global(assemble_global(inst))
    np.testing.assert_array_equal(w, np.zeros(7))


def test_global_solution_is_the_minimizer():
    inst, _ = make_instance(n=22, seed=3)
    sys = assemble_global(inst)
    w = solve_global(sys)
    assert np.max(np.abs(sys.a @ w - sys.c)) <= 1e-12 * (1.0 + np.max(np.abs(sys.c)))
    rng = np.random.default_rng(0)
    base = cost_w(inst, w)
    for _ in range(10):
        delta = rng.standard_normal(22)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert cost_w(inst, w + delta) >= base


def test_ddda_single_subdomain_matches_global():
    inst, dec = make_instance(n=18, j_sub=1, halo=0)
    w_global = solve_global(assemble_global(inst))
    (w_local,) = solve_ddda(_locals(inst, dec, SCHEME_DDDA))
    np.testing.assert_array_equal(w_local, w_global)


def test_ddda_matches_dense_oracle_per_block():
    grid = Grid1D.uniform(10)
    obs = point_observations(grid, [2], [1.5], [1.0])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(10))
    dec = decompose_uniform(grid, 2, 1)
    locals_ = _locals(inst, dec, SCHEME_DDDA)
    ws = solve_ddda(locals_)
    for sys, w in zip(locals_, ws):
        oracle = np.linalg.solve(sys.a, sys.c)
        np.testing.assert_allclose(w, oracle, rtol=0, atol=1e-13)
    # the observation sits in subdomain 0 only; subdomain 1 sees nothing
    np.testing.assert_array_equal(ws[1], np.zeros(6))
    assert ws[0][2] == pytest.approx(0.75)


def test_ddda_repeat_is_bitwise_identical():
    inst, dec = make_instance(n=27, j_sub=3, halo=1, seed=6)
    locals_ = _locals(inst, dec, SCHEME_DDDA)
    first = solve_ddda(locals_)
    second = solve_ddda(locals_)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_mps_single_subdomain_stops_after_one_iteration():
    inst, dec = make_instance(n=18, j_sub=1, halo=0)
    ws, history = solve_mps(_locals(inst, dec, SCHEME_MPS))
    assert history.converged
    assert history.iterations == 1
    w_global = solve_global(assemble_global(inst))
    assert np.max(np.abs(ws[0] - w_global)) <= 1e-12


def test_mps_without_observations_is_immediately_stationary():
    grid = Grid1D.uniform(12)
    obs = point_observations(grid, [], [], [])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(12))
    dec = decompose_uniform(grid, 2, 1)
    ws, history = solve_mps(_locals(inst, dec, SCHEME_MPS))
    assert history.converged
    assert history.iterations == 1
    for w in ws:
        np.testing.assert_array_equal(w, np.zeros(w.size))


def test_mps_converges_and_is_stationary_at_the_limit():
    inst, dec = make_instance(n=30, j_sub=2, halo=2, seed=9)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    opts = SolverOptions(tol=1e-12, max_iters=500)
    ws, history = solve_mps(locals_, opts=opts)
    assert history.converged
    kappa = 1.0 + max(
        float(np.max(np.sum(np.abs(sys.a), axis=1))) for sys in locals_
    )
    assert float(np.max(fixed_point_residual(locals_, ws))) <= opts.tol * kappa


def test_mps_result_does_not_depend_on_listing_order():
    inst, dec = make_instance(n=30, j_sub=3, halo=1, seed=10)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    ws_fwd, _ = solve_mps(locals_)
    perm = [2, 0, 1]
    ws_perm, _ = solve_mps([locals_[k] for k in perm])
    for spot, k in enumerate(perm):
        assert np.max(np.abs(ws_perm[spot] - ws_fwd[k])) <= 1e-15


def test_mps_threads_do_not_change_bits():
    inst, dec = make_instance(n=33, j_sub=3, halo=2, seed=11)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    ws_1, h_1 = solve_mps(locals_, opts=SolverOptions(threads=1))
    ws_4, h_4 = solve_mps(locals_, opts=SolverOptions(threads=4))
    assert h_1.iterations == h_4.iterations
    for a, b in zip(ws_1, ws_4):
        assert a.tobytes() == b.tobytes()
    for r_1, r_4 in zip(h_1.records, h_4.records):
        assert r_1 == r_4


def test_mps_budget_exhaustion_is_flagged_not_raised():
    inst, dec = make_instance(n=30, j_sub=2, halo=2, seed=9)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    ws, history = solve_mps(locals_, opts=SolverOptions(max_iters=1))
    assert not history.converged
    assert history.iterations == 1
    assert len(ws) == 2


def test_mps_records_cost_when_asked():
    inst, dec = make_instance(n=20, j_sub=2, halo=1, seed=12)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    _, plain = solve_mps(locals_, opts=SolverOptions(max_iters=3, tol=1e-30))
    assert all(math.isnan(r.global_cost) for r in plain.records)
    _, traced = solve_mps(
        locals_,
        opts=SolverOptions(max_iters=3, tol=1e-30),
        cost_fn=lambda ws: 7.0,
    )
    assert all(r.global_cost == 7.0 for r in traced.records)


def test_mps_accepts_warm_start():
    inst, dec = make_instance(n=20, j_sub=2, halo=1, seed=13)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    ws, _ = solve_mps(locals_)
    ws_again, history = solve_mps(locals_, w0=ws)
    assert history.converged
    assert history.iterations == 1
    for a, b in zip(ws, ws_again):
        assert np.max(np.abs(a - b)) <= 1e-8


def test_fixed_point_residual_zero_at_uncoupled_solve():
    inst, dec = make_instance(n=24, j_sub=2, halo=1, seed=14)
    locals_ = _locals(inst, dec, SCHEME_DDDA)
    ws = solve_ddda(locals_)
    res = fixed_point_residual(locals_, ws)
    assert np.max(res) <= 1e-13


def test_fixed_point_residual_is_the_local_gradient_norm():
    # both apply the coupling through the same factors, so on any iterates
    # each residual entry is the sup-norm of that subdomain's gradient
    inst, dec = make_instance(n=33, j_sub=3, halo=2, seed=17)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    rng = np.random.default_rng(18)
    for _ in range(3):
        ws = [rng.standard_normal(sys.size) for sys in locals_]
        res = fixed_point_residual(locals_, ws)
        for i, sys in enumerate(locals_):
            g = local_gradient(sys, ws[i], dict(enumerate(ws)))
            assert res[i] == float(np.max(np.abs(g)))


def test_fixed_point_residual_validation():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    with pytest.raises(DimensionMismatch):
        fixed_point_residual(locals_, [np.zeros(locals_[0].size)])
    with pytest.raises(DimensionMismatch):
        fixed_point_residual(locals_, [np.zeros(3), np.zeros(3)])
    with pytest.raises(InvalidArgument):
        fixed_point_residual([locals_[0], locals_[0]],
                             [np.zeros(locals_[0].size)] * 2)
    # subdomain 0 couples to 1, whose iterate is not in the list
    with pytest.raises(MissingNeighbor):
        fixed_point_residual(locals_[:1], [np.zeros(locals_[0].size)])


def test_solver_options_validation():
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidArgument, match="tol"):
            SolverOptions(tol=tol)
    with pytest.raises(InvalidArgument):
        SolverOptions(max_iters=0)
    with pytest.raises(InvalidArgument):
        SolverOptions(threads=0)
    # a non-integer count fails here, not later inside the solve
    with pytest.raises(InvalidArgument, match="max_iters"):
        SolverOptions(max_iters=2.5)
    with pytest.raises(InvalidArgument, match="threads"):
        SolverOptions(threads=2.5)


def test_solvers_reject_mismatched_schemes():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    mps = _locals(inst, dec, SCHEME_MPS)
    ddda = _locals(inst, dec, SCHEME_DDDA)
    with pytest.raises(InvalidArgument):
        solve_ddda(mps)
    with pytest.raises(InvalidArgument):
        solve_mps(ddda)
    with pytest.raises(InvalidArgument):
        solve_mps([])


def test_mps_requires_every_coupled_neighbor():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    with pytest.raises(MissingNeighbor):
        solve_mps(locals_[:1])


def test_mps_validates_warm_start_shapes():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    with pytest.raises(DimensionMismatch):
        solve_mps(locals_, w0=[np.zeros(locals_[0].size)])
    with pytest.raises(DimensionMismatch):
        solve_mps(locals_, w0=[np.zeros(2), np.zeros(2)])


def test_history_appends_in_order_only():
    history = IterationHistory()
    history.append(IterationRecord(1, 0.5, math.nan, (0.1,)))
    history.append(IterationRecord(2, 0.25, math.nan, (0.05,)))
    assert history.iterations == 2
    with pytest.raises(InvalidArgument):
        history.append(IterationRecord(2, 0.1, math.nan, (0.01,)))

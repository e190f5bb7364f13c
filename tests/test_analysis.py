import numpy as np
import pytest
import scipy.linalg

from ddvar import (
    CovarianceModel,
    Decomposition,
    DimensionMismatch,
    Grid1D,
    IndexOutOfRange,
    InvalidArgument,
    ProblemInstance,
    SCHEME_DDDA,
    UncoveredPoint,
    build_gaussian_covariance,
    assemble_global,
    assemble_local,
    assimilate,
    control_equivalent,
    cost_w,
    decompose_uniform,
    equivalence_report,
    identity_covariance,
    interface_mismatch,
    local_update,
    patch,
    point_observations,
    solve_ddda,
    solve_global,
    synthesize,
)

from conftest import make_instance, mirror_symmetric_instance
from test_acceptance import instance_matrix


def test_local_update_zero_control_returns_background():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    for i in range(2):
        idx = dec.indices(i)
        u = local_update(inst, dec, i, np.zeros(idx.size))
        np.testing.assert_array_equal(u, inst.u_background[idx])


def test_local_update_validation():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    with pytest.raises(DimensionMismatch):
        local_update(inst, dec, 0, np.zeros(dec.size(0) + 1))
    for bad in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            local_update(inst, dec, bad, np.zeros(dec.size(0)))


def test_global_analysis_matches_state_space_oracle():
    # the same minimizer computed without preconditioning:
    # (B^{-1} + H^T R^{-1} H) du = H^T R^{-1} d, u = u_b + du
    inst, dec = make_instance(n=30, j_sub=2, halo=2, seed=2)
    res = assimilate(inst, dec, "global")
    h = np.eye(inst.grid.n_points)[inst.obs.obs_indices]
    r_inv = np.diag(1.0 / inst.obs.r_cov.r_diag)
    lhs = np.linalg.inv(inst.cov.b) + h.T @ r_inv @ h
    d = inst.obs.values - h @ inst.u_background
    du = np.linalg.solve(lhs, h.T @ r_inv @ d)
    np.testing.assert_allclose(res.u_analysis, inst.u_background + du,
                               rtol=0, atol=1e-8)


def test_patch_single_subdomain_is_identity():
    grid = Grid1D.uniform(9)
    dec = decompose_uniform(grid, 1, 0)
    u = np.arange(9.0)
    np.testing.assert_array_equal(patch(dec, [u]), u)


def test_patch_shared_points_take_higher_subdomain():
    grid = Grid1D.uniform(10)
    dec = decompose_uniform(grid, 2, 1)
    lo = np.full(6, 1.0)
    hi = np.full(6, 2.0)
    out = patch(dec, [lo, hi])
    np.testing.assert_array_equal(out[:4], 1.0)
    np.testing.assert_array_equal(out[4:], 2.0)


def test_patch_reassembles_consistent_states_exactly():
    inst, dec = make_instance(n=23, j_sub=3, halo=2, seed=3)
    u = np.sin(np.arange(23.0))
    pieces = [u[dec.indices(i)] for i in range(dec.j_sub)]
    np.testing.assert_array_equal(patch(dec, pieces), u)


def test_patch_rejects_gaps_and_bad_shapes():
    grid = Grid1D.uniform(8)
    broken = Decomposition(
        grid=grid,
        j_sub=2,
        halo=0,
        subdomains=((0, 3), (5, 8)),
        interfaces={},
    )
    with pytest.raises(UncoveredPoint):
        patch(broken, [np.zeros(3), np.zeros(3)])
    dec = decompose_uniform(grid, 2, 1)
    with pytest.raises(DimensionMismatch):
        patch(dec, [np.zeros(dec.size(0))])
    with pytest.raises(DimensionMismatch):
        patch(dec, [np.zeros(dec.size(0) + 1), np.zeros(dec.size(1))])


def _ddda_ws(inst, dec):
    return solve_ddda([assemble_local(inst, dec, i, SCHEME_DDDA)
                       for i in range(dec.j_sub)])


def test_interface_mismatch_trivial_without_neighbors():
    inst, dec = make_instance(n=18, j_sub=1, halo=0)
    assert interface_mismatch(inst, dec, _ddda_ws(inst, dec)) == 0.0


def test_interface_mismatch_small_on_balanced_instance():
    inst, dec = mirror_symmetric_instance()
    assert interface_mismatch(inst, dec, _ddda_ws(inst, dec)) <= 1e-10


def test_interface_mismatch_nonzero_on_generic_instance():
    inst, dec = make_instance(n=30, j_sub=2, halo=2, seed=4)
    assert interface_mismatch(inst, dec, _ddda_ws(inst, dec)) > 0.0


def test_interface_mismatch_rejects_bad_iterates():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    ws = _ddda_ws(inst, dec)
    with pytest.raises(DimensionMismatch):
        interface_mismatch(inst, dec, ws[:1])
    with pytest.raises(DimensionMismatch):
        interface_mismatch(inst, dec, [ws[0], ws[1][:-1]])


def test_control_equivalent_roundtrip():
    inst, _ = make_instance(n=25, seed=5)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(25)
    u = inst.u_background + inst.cov.v_factor @ w
    np.testing.assert_allclose(control_equivalent(inst, u), w,
                               rtol=0, atol=1e-8)
    assert abs(cost_w(inst, control_equivalent(inst, u)) - cost_w(inst, w)) \
        <= 1e-8 * (1.0 + cost_w(inst, w))
    with pytest.raises(DimensionMismatch):
        control_equivalent(inst, np.zeros(24))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_control_equivalent_rejects_non_finite_states(bad):
    inst, _ = make_instance(n=25, seed=5)
    u = inst.u_background.copy()
    u[7] = bad
    with pytest.raises(InvalidArgument, match="non-finite"):
        control_equivalent(inst, u)


@pytest.mark.parametrize("n, length_scale, kind", [
    (300, 2.0, "gaussian"),
    (300, 8.0, "gaussian"),
    (200, 1e4, "gaussian"),  # the band is full
    (300, 2.0, "identity"),
])
def test_control_equivalent_matches_dense_triangular_solve(n, length_scale,
                                                           kind):
    inst, _ = make_instance(n=n, length_scale=length_scale, kind=kind,
                            seed=5)
    if kind == "gaussian" and length_scale == 1e4:
        assert inst.cov.v_band.shape == (n, n)
    rng = np.random.default_rng(1)
    for u in (inst.u_truth,
              inst.u_background + rng.standard_normal(n),
              inst.u_background + inst.cov.v_factor @ rng.standard_normal(n)):
        w = control_equivalent(inst, u)
        dense = scipy.linalg.solve_triangular(
            inst.cov.v_factor, u - inst.u_background, lower=True
        )
        assert np.max(np.abs(w - dense)) <= 1e-10 * (
            1.0 + np.max(np.abs(dense)))


def test_control_equivalent_rejects_singular_factor():
    grid = Grid1D.uniform(10)
    band = np.ones((2, 10))
    band[0, 3] = 0.0
    cov = CovarianceModel(b_band=np.ones((1, 10)), v_band=band,
                          kind="identity")
    obs = point_observations(grid, [2], [1.0], [1.0])
    inst = ProblemInstance(grid, cov, obs, np.zeros(10))
    with pytest.raises(np.linalg.LinAlgError,
                       match="resolution failed at diagonal 3"):
        control_equivalent(inst, np.ones(10))


def test_run_path_never_forms_dense_b():
    # synthesis, every scheme and the report read B and V on their bands;
    # the dense b and v_factor stay the oracle of tests and checks
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)
    for method in ("global", "mps", "ddda"):
        assimilate(inst, dec, method)
    equivalence_report(inst, dec)
    assert "b" not in vars(inst.cov)
    assert "v_factor" not in vars(inst.cov)


def test_only_the_v_times_w_convention_is_accepted():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    assert assimilate(inst, dec, "ddda", None, "v_times_w").scheme == "ddda"
    for bad in ("binv_v_times_w", "w"):
        with pytest.raises(InvalidArgument, match="convention"):
            assimilate(inst, dec, "mps", None, bad)
        with pytest.raises(InvalidArgument, match="convention"):
            equivalence_report(inst, dec, None, bad)


def test_local_update_is_the_dense_block_product():
    # within rounding of u^b + v_factor[span, span] @ w: the band product
    # sums in another order
    inst, dec = make_instance(n=40, j_sub=3, halo=2, seed=2)
    rng = np.random.default_rng(1)
    v = inst.cov.v_factor
    for i in range(dec.j_sub):
        span = dec.span(i)
        w = rng.standard_normal(dec.size(i))
        expected = inst.u_background[span] + v[span, span] @ w
        np.testing.assert_allclose(local_update(inst, dec, i, w), expected,
                                   rtol=0, atol=1e-14)


def _reference_gap(inst):
    # the global scheme's w* (observation space) against the normal
    # equations, relative to 1 + ||w||_inf
    whole = decompose_uniform(inst.grid, 1, 0)
    (w,) = assimilate(inst, whole, "global").per_subdomain_w
    w_normal = solve_global(assemble_global(inst))
    return float(np.max(np.abs(w - w_normal), initial=0.0)
                 / (1.0 + np.max(np.abs(w_normal), initial=0.0)))


def test_reference_matches_normal_equations_on_instance_matrix():
    # measured: at most 2e-14 over the 100 acceptance instances
    worst = max(_reference_gap(inst) for inst, _ in instance_matrix())
    assert worst <= 1e-12


@pytest.mark.parametrize("n, kind, length_scale, sigma_o, nobs", [
    (30, "identity", 2.0, 0.1, 6),
    (30, "identity", 2.0, 0.1, 30),
    (30, "gaussian", 2.0, 0.0, 6),
    (30, "gaussian", 2.0, 0.1, 0),
    (30, "gaussian", 2.0, 0.1, 1),
    (30, "gaussian", 2.0, 0.1, 30),
    (1, "gaussian", 2.0, 0.1, 1),
    (1, "identity", 2.0, 0.0, 1),
    (1, "gaussian", 2.0, 0.1, 0),
    (400, "gaussian", 0.5, 0.1, 80),
    (400, "gaussian", 2.0, 1.0, 400),
    (1000, "gaussian", 8.0, 0.1, 1000),
])
def test_reference_matches_normal_equations_edge_cases(n, kind, length_scale,
                                                       sigma_o, nobs):
    # measured: at most 2e-13, at n = 1000, length_scale 8, every point seen
    inst, _ = make_instance(n=n, j_sub=1, halo=0, nobs=nobs, kind=kind,
                            length_scale=length_scale, sigma_o=sigma_o)
    assert _reference_gap(inst) <= 1e-12


def test_reference_cost_matches_normal_equations_when_ill_conditioned():
    # sigma_o = 1e-4 with length_scale 8: the normal matrix's conditioning
    # separates the two w by about 1e-8, while their costs agree to 12+
    # digits
    grid = Grid1D.uniform(300)
    inst = synthesize(grid, build_gaussian_covariance(grid, 8.0, 1.0), 60,
                      1e-4, seed=0)
    whole = decompose_uniform(grid, 1, 0)
    res = assimilate(inst, whole, "global")
    cost_normal = cost_w(inst, solve_global(assemble_global(inst)))
    assert res.diagnostics["global_cost"] == pytest.approx(cost_normal,
                                                           rel=1e-10)


def test_assimilate_global_diagnostics():
    inst, dec = make_instance(n=24, j_sub=2, halo=1, seed=7)
    res = assimilate(inst, dec, "global")
    assert res.scheme == "global"
    assert res.diagnostics["vs_global_linf"] == 0.0
    assert res.diagnostics["interface_mismatch"] == 0.0
    w_star = solve_global(assemble_global(inst))
    assert res.diagnostics["global_cost"] == pytest.approx(
        cost_w(inst, w_star), rel=1e-8
    )
    assert res.history.converged
    assert res.history.iterations == 0


def test_assimilate_mps_runs_and_reports():
    inst, dec = make_instance(n=24, j_sub=2, halo=1, seed=8)
    res = assimilate(inst, dec, "mps")
    assert res.scheme == "mps"
    assert res.history.converged
    assert res.history.iterations >= 1
    assert np.isfinite(res.diagnostics["global_cost"])
    assert res.diagnostics["interface_mismatch"] >= 0.0
    assert res.diagnostics["vs_global_linf"] >= 0.0
    assert len(res.per_subdomain_w) == 2
    # the recorded cost of the last iterate is the cost of the analysis
    assert res.history.records[-1].global_cost == pytest.approx(
        res.diagnostics["global_cost"], rel=1e-12
    )


def test_assimilate_ddda_runs_and_reports():
    inst, dec = make_instance(n=24, j_sub=3, halo=1, seed=8)
    res = assimilate(inst, dec, "ddda")
    assert res.scheme == "ddda"
    assert res.history.converged
    assert res.history.iterations == 0
    assert res.diagnostics["interface_mismatch"] > 0.0
    assert len(res.per_subdomain_w) == 3


def test_assimilate_rejects_unknown_method():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    with pytest.raises(InvalidArgument):
        assimilate(inst, dec, "schwarz")


@pytest.mark.parametrize("method", ["global", "mps", "ddda"])
def test_assimilate_without_observations_returns_background(method):
    grid = Grid1D.uniform(20)
    obs = point_observations(grid, [], [], [])
    rng = np.random.default_rng(9)
    u_b = rng.standard_normal(20)
    dec = decompose_uniform(grid, 2, 1)
    for cov in (identity_covariance(grid),
                build_gaussian_covariance(grid, 2.0, 1.0)):
        inst = ProblemInstance(grid, cov, obs, u_b)
        res = assimilate(inst, dec, method)
        np.testing.assert_array_equal(res.u_analysis, u_b)
        for w in res.per_subdomain_w:
            np.testing.assert_array_equal(w, np.zeros(w.size))
        assert res.diagnostics["vs_global_linf"] == 0.0


def test_equivalence_report_single_subdomain():
    inst, dec = make_instance(n=18, j_sub=1, halo=0)
    rep = equivalence_report(inst, dec)
    assert rep.c_equal
    assert rep.a_structure_exact
    assert rep.w_delta_linf == 0.0
    assert rep.interface_mismatch == 0.0
    assert rep.ddda_in_mps_residual <= 1e-10
    assert rep.iters_mps == 1
    assert rep.mps_converged
    assert rep.cost_mps == pytest.approx(rep.cost_global, rel=1e-8)
    assert rep.cost_ddda == pytest.approx(rep.cost_global, rel=1e-8)


def test_equivalence_report_balanced_instance():
    inst, dec = mirror_symmetric_instance()
    rep = equivalence_report(inst, dec)
    assert rep.c_equal
    assert rep.a_structure_exact
    assert rep.w_delta_linf <= 1e-10
    assert rep.interface_mismatch <= 1e-10
    assert rep.mps_converged
    assert rep.cost_mps == pytest.approx(rep.cost_global, rel=1e-6)
    assert rep.cost_ddda == pytest.approx(rep.cost_global, rel=1e-6)


def test_equivalence_report_generic_instance():
    inst, dec = make_instance(n=30, j_sub=2, halo=2, seed=10)
    rep = equivalence_report(inst, dec)
    assert rep.c_equal
    assert rep.a_structure_exact
    assert rep.interface_mismatch > 0.0
    assert rep.mps_converged
    assert np.isfinite(rep.cost_mps)
    assert np.isfinite(rep.cost_ddda)
    d = rep.to_dict()
    assert sorted(d) == [
        "a_structure_exact",
        "c_equal",
        "cost_ddda",
        "cost_global",
        "cost_mps",
        "ddda_in_mps_residual",
        "interface_mismatch",
        "iters_mps",
        "mps_converged",
        "w_delta_linf",
    ]

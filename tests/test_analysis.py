import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from ddvar import (
    CovarianceModel,
    Decomposition,
    DimensionMismatch,
    FactorizationFailure,
    Grid1D,
    InvalidArgument,
    ProblemInstance,
    SCHEME_DDDA,
    SCHEME_MPS,
    build_gaussian_covariance,
    assemble_global,
    assemble_local,
    assimilate,
    control_equivalent,
    cost_w,
    decompose_uniform,
    equivalence_report,
    factor_check,
    identity_covariance,
    interface_mismatch,
    point_observations,
    solve_ddda,
    solve_global,
    synthesize,
)

from ddvar import analysis, assembly, covariance, solvers

from conftest import (
    dense,
    interface_pair,
    local_update,
    make_instance,
    mirror_symmetric_instance,
    patch,
)
from test_acceptance import instance_matrix


def test_local_update_zero_control_returns_background():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    for i in range(2):
        span = dec.span(i)
        u = local_update(inst, dec, i, np.zeros(span.stop - span.start))
        np.testing.assert_array_equal(u, inst.u_background[span])
    # and so is the stacked lift of zero controls, patched or not
    points = dec._stacked[0]
    u, us = analysis._patch(inst, dec, np.zeros(points.size))
    np.testing.assert_array_equal(us, inst.u_background[points])
    np.testing.assert_array_equal(u, inst.u_background)


def test_global_analysis_matches_state_space_oracle():
    # the same minimizer computed without preconditioning:
    # (B^{-1} + H^T R^{-1} H) du = H^T R^{-1} d, u = u_b + du
    inst, dec = make_instance(n=30, j_sub=2, halo=2, seed=2)
    res = assimilate(inst, dec, "global")
    h = np.eye(inst.grid.n_points)[inst.obs.obs_indices]
    r_inv = np.diag(1.0 / inst.obs.r_cov.r_diag)
    lhs = np.linalg.inv(dense(inst.cov.b_band)) + h.T @ r_inv @ h
    d = inst.obs.values - h @ inst.u_background
    du = np.linalg.solve(lhs, h.T @ r_inv @ d)
    np.testing.assert_allclose(res.u_analysis, inst.u_background + du,
                               rtol=0, atol=1e-8)


def test_patch_single_subdomain_is_identity():
    grid = Grid1D.uniform(9)
    dec = decompose_uniform(grid, 1, 0)
    u = np.arange(9.0)
    np.testing.assert_array_equal(patch(dec, [u]), u)


def test_patch_takes_each_point_from_its_owner():
    # subdomains (0, 5), (3, 9), (7, 12) own their base blocks (0, 4),
    # (4, 8), (8, 12): no halo value reaches the patched state
    dec = decompose_uniform(Grid1D.uniform(12), 3, 1)
    out = patch(dec, [np.full(stop - start, float(i))
                      for i, (start, stop) in enumerate(dec.subdomains)])
    np.testing.assert_array_equal(out, np.repeat([0.0, 1.0, 2.0], 4))


def test_owner_patch_approaches_the_global_analysis_as_the_halo_grows():
    # each subdomain's analysis is worst at its edges, in the halo the
    # owner patch drops; a wider halo moves those edges further away
    inst, _ = make_instance(n=2000, j_sub=16, halo=4, seed=3)
    for method in ("ddda", "mps"):
        gaps = [
            assimilate(inst, decompose_uniform(inst.grid, 16, halo),
                       method).diagnostics["vs_global_linf"]
            for halo in (4, 8, 16, 24)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (method, gaps)
        assert gaps[-1] <= 1e-5, (method, gaps)


def test_patch_reassembles_consistent_states_exactly():
    inst, dec = make_instance(n=23, j_sub=3, halo=2, seed=3)
    u = np.sin(np.arange(23.0))
    pieces = [u[dec.span(i)] for i in range(dec.j_sub)]
    np.testing.assert_array_equal(patch(dec, pieces), u)


def test_patch_rejects_gaps_and_bad_shapes():
    grid = Grid1D.uniform(8)
    # a decomposition with a gap cannot be built: its spans are derived
    # from (grid, j_sub, halo) and its base blocks tile the grid
    with pytest.raises(TypeError):
        Decomposition(grid=grid, j_sub=2, halo=0, subdomains=((0, 3), (5, 8)))


def _ddda_ws(inst, dec):
    return solve_ddda([assemble_local(inst, dec, i, SCHEME_DDDA)
                       for i in range(dec.j_sub)])


def test_interface_mismatch_reports_a_nan_iterate():
    # a NaN gap must not read as "the interfaces agree", wherever it sits
    inst, dec = make_instance(n=40, j_sub=4, halo=2, seed=1)
    ws = _ddda_ws(inst, dec)
    for bad in range(dec.j_sub):
        nan_ws = list(ws)
        nan_ws[bad] = np.full(ws[bad].size, np.nan)
        assert np.isnan(interface_mismatch(inst, dec, nan_ws)), bad


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


@pytest.mark.parametrize("length_scale", [None, 0.5, 2.0, 8.0])
def test_interface_mismatch_is_the_largest_interface_factor_gap(length_scale):
    # the gap read off the local analyses against its definition,
    # max ||p_i w_i - p_j w_j||_inf over the interface factor pairs; they
    # differ only by the rounding of adding u^b
    grid = Grid1D.uniform(120)
    cov = (identity_covariance(grid) if length_scale is None
           else build_gaussian_covariance(grid, length_scale, 1.0))
    rng = np.random.default_rng(7)
    for seed in range(3):
        inst = synthesize(grid, cov, 24, 0.1, seed)
        for j_sub in range(1, 7):
            for halo in (0, 1, 4, 8):
                if j_sub > 1 and 120 // j_sub < 2 * halo + 1:
                    continue
                dec = decompose_uniform(grid, j_sub, halo)
                ws = [rng.standard_normal(stop - start)
                      for start, stop in dec.subdomains]
                gaps = [0.0]
                for i in range(j_sub):
                    for j in dec.neighbors(i):
                        p_i, p_j = interface_pair(cov, dec, i, j)
                        gaps.append(np.max(np.abs(p_i @ ws[i]
                                                  - p_j @ ws[j])))
                gap = interface_mismatch(inst, dec, ws)
                if halo == 0:
                    assert gap == 0.0
                u_max = max(np.max(np.abs(local_update(inst, dec, i, w)))
                            for i, w in enumerate(ws))
                assert abs(gap - max(gaps)) <= 4 * np.spacing(u_max), (
                    seed, j_sub, halo)


def test_each_run_gathers_interface_factors_and_couplings_once(monkeypatch):
    # the mps assembly is the only reader of the interface factors, one
    # _band_rows gather per subdomain for all of its neighbor pairs; the
    # observed rows of V are one more gather, made once per instance when
    # h_rows is first read; and a report builds one coupling per scheme
    calls = {"gather": 0, "coupling": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(covariance, "_band_rows",
                        counted(covariance._band_rows, "gather"))
    monkeypatch.setattr(solvers, "_coupling_rows",
                        counted(solvers._coupling_rows, "coupling"))
    j_sub = 5
    inst, dec = make_instance(n=60, j_sub=j_sub, halo=2, seed=3)
    for method, gathers in (("mps", j_sub + 1), ("mps", j_sub),
                            ("ddda", 0)):
        calls.update(gather=0, coupling=0)
        assimilate(inst, dec, method)
        assert calls == {"gather": gathers, "coupling": 1}, method
    calls.update(gather=0, coupling=0)
    equivalence_report(inst, dec)
    assert calls == {"gather": j_sub, "coupling": 2}
    # without interfaces each gather is of no rows
    calls.update(gather=0, coupling=0)
    assimilate(inst, decompose_uniform(inst.grid, j_sub, 0), "mps")
    assert calls == {"gather": j_sub, "coupling": 1}


@pytest.mark.parametrize("n, j_sub, halo, kind, length_scale", [
    (120, 5, 3, "identity", 2.0),
    (120, 5, 4, "gaussian", 0.5),
    (120, 5, 4, "gaussian", 2.0),
    (120, 5, 4, "gaussian", 8.0),
    (120, 1, 0, "gaussian", 2.0),
    (120, 6, 0, "gaussian", 2.0),
    (40, 8, 1, "gaussian", 8.0),  # spans of 6-7 points, bw + 1 = 40
])
def test_stacked_lift_matches_local_update_and_patch(n, j_sub, halo, kind,
                                                     length_scale):
    # one band product on the stacked blocks of V against local_update per
    # subdomain and patch: the same sums, but BLAS may split a block's
    # short tail columns differently, so within 4 ulp of max|u|
    inst, dec = make_instance(n=n, j_sub=j_sub, halo=halo, kind=kind,
                              length_scale=length_scale, seed=2)
    rng = np.random.default_rng(n + j_sub + halo)
    for _ in range(5):
        ws = [rng.standard_normal(stop - start)
              for start, stop in dec.subdomains]
        us_ref = [local_update(inst, dec, i, w) for i, w in enumerate(ws)]
        u_ref = patch(dec, us_ref)
        gap_ref = max(np.max(np.abs(u_i - u_ref[dec.span(i)]))
                      for i, u_i in enumerate(us_ref))
        bound = 4 * np.spacing(np.max(np.abs(np.concatenate(us_ref))))
        u, us = analysis._patch(inst, dec, np.concatenate(ws))
        assert np.max(np.abs(us - np.concatenate(us_ref))) <= bound
        assert np.max(np.abs(u - u_ref)) <= bound
        u_gap, gap = analysis._gap(inst, dec, np.concatenate(ws))
        assert np.array_equal(u_gap, u)
        assert abs(gap - gap_ref) <= bound
        assert interface_mismatch(inst, dec, ws) == gap
        if halo == 0:
            assert gap == 0.0


@pytest.mark.parametrize("length_scale", [2.0, 8.0])
def test_report_measures_the_runs_assimilate_makes(length_scale):
    # the report's ddda and mps numbers come from the same scheme runs that
    # assimilate makes, so they agree bit for bit
    inst, dec = make_instance(n=300, j_sub=6, halo=3, seed=4,
                              length_scale=length_scale)
    report = equivalence_report(inst, dec)
    ddda = assimilate(inst, dec, "ddda")
    mps = assimilate(inst, dec, "mps")

    def bits(*x):
        return np.array(x, dtype=float).tobytes()

    def rows(history):
        return [bits(n, r.max_delta, *r.residual_norms)
                for n, r in enumerate(history.records, 1)]

    assert (bits(report.interface_mismatch, report.cost_ddda)
            == bits(*(ddda.diagnostics[k]
                      for k in ("interface_mismatch", "global_cost"))))
    assert bits(report.cost_mps) == bits(mps.diagnostics["global_cost"])
    assert report.iters_mps == mps.history.iterations > 1
    assert report.mps_converged is mps.history.converged is True
    assert rows(report.history) == rows(mps.history)
    # and the two control vectors they compare are the runs' own
    w_delta = max(np.max(np.abs(wm - wd)) for wm, wd in
                  zip(mps.per_subdomain_w, ddda.per_subdomain_w))
    assert bits(report.w_delta_linf) == bits(w_delta)


def test_each_run_lifts_through_one_stacked_band(monkeypatch):
    # each scheme run builds the stacked blocks of V once, however many
    # sweep iterations it takes, and lifts its returned iterate by one
    # band product, which gives its patch, its interface gap and its
    # cost; the report's two runs build them once each, so none are
    # alive during the mps sweep
    calls = 0
    lifts = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return covariance.v_blocks(*args, **kwargs)

    def counted_lift(*args, _fn=analysis._band_times):
        nonlocal lifts
        lifts += 1
        return _fn(*args)

    monkeypatch.setattr(analysis, "v_blocks", counted)
    monkeypatch.setattr(analysis, "_band_times", counted_lift)
    inst, dec = make_instance(n=60, j_sub=5, halo=2, seed=3)
    for method, builds in (("mps", 1), ("ddda", 1), ("global", 0)):
        calls = lifts = 0
        result = assimilate(inst, dec, method)
        assert calls == builds, method
        assert lifts == builds, method
        if method == "mps":
            assert result.history.iterations > 1
    calls = lifts = 0
    equivalence_report(inst, dec)
    assert calls == 2
    assert lifts == 2


def test_a_decomposition_of_another_grid_is_rejected():
    inst, _ = make_instance(n=40, j_sub=2, halo=2)
    for n in (30, 60):
        dec = decompose_uniform(Grid1D.uniform(n), 2, 2)
        for method in ("ddda", "mps"):
            with pytest.raises(DimensionMismatch, match="grid"):
                assimilate(inst, dec, method)
        with pytest.raises(DimensionMismatch, match="grid"):
            equivalence_report(inst, dec)
        with pytest.raises(DimensionMismatch, match="grid"):
            interface_mismatch(inst, dec, [np.zeros(stop - start)
                                           for start, stop in dec.subdomains])


def test_control_equivalent_roundtrip():
    inst, _ = make_instance(n=25, seed=5)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(25)
    u = inst.u_background + dense(inst.cov.v_band, symmetric=False) @ w
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
    v = dense(inst.cov.v_band, symmetric=False)
    for u in (inst.u_truth,
              inst.u_background + rng.standard_normal(n),
              inst.u_background + v @ rng.standard_normal(n)):
        w = control_equivalent(inst, u)
        oracle = scipy.linalg.solve_triangular(v, u - inst.u_background,
                                               lower=True)
        assert np.max(np.abs(w - oracle)) <= 1e-10 * (
            1.0 + np.max(np.abs(oracle)))


def test_control_equivalent_rejects_singular_factor():
    grid = Grid1D.uniform(10)
    band = np.ones((2, 10))
    band[0, 3] = 0.0
    cov = CovarianceModel(b_band=np.ones((1, 10)), v_band=band)
    obs = point_observations(grid, [2], [1.0], [1.0])
    inst = ProblemInstance(grid, cov, obs, np.zeros(10))
    with pytest.raises(FactorizationFailure,
                       match="v_band is singular: its diagonal 3 is zero"):
        control_equivalent(inst, np.ones(10))


def test_no_call_forms_a_dense_matrix():
    # every scheme, the report and the factor check read B, V and every
    # normal matrix on their bands: each call peaks far below one
    # 3000 x 3000 float array, 72 MB
    inst, dec = make_instance(n=3000, j_sub=16, halo=4, seed=4)
    calls = {method: (assimilate, inst, dec, method)
             for method in ("global", "mps", "ddda")}
    calls["equivalence_report"] = (equivalence_report, inst, dec)
    calls["factor_check"] = (factor_check, inst.cov)
    for name, (call, *args) in calls.items():
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, (name, peak)


def test_only_the_v_times_w_convention_is_accepted():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    assert assimilate(inst, dec, "ddda", None, "v_times_w").scheme == "ddda"
    for bad in ("binv_v_times_w", "w"):
        with pytest.raises(InvalidArgument, match="convention"):
            assimilate(inst, dec, "mps", None, bad)
        with pytest.raises(InvalidArgument, match="convention"):
            equivalence_report(inst, dec, None, bad)


def test_local_update_is_the_dense_block_product():
    # within rounding of u^b + V[span, span] @ w: the band product
    # sums in another order
    inst, dec = make_instance(n=40, j_sub=3, halo=2, seed=2)
    rng = np.random.default_rng(1)
    v = dense(inst.cov.v_band, symmetric=False)
    for i in range(dec.j_sub):
        span = dec.span(i)
        w = rng.standard_normal(span.stop - span.start)
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


@pytest.mark.parametrize("length_scale", [2.0, 8.0])
def test_banded_reference_matches_dense_observation_space_solve(
        length_scale):
    # the band of M M^T + R solved against the dense matrix it stands for
    inst, _ = make_instance(n=600, j_sub=1, halo=0, seed=4,
                            length_scale=length_scale)
    m = inst.h_rows.toarray()
    s = m @ m.T + np.diag(inst.obs.r_cov.r_diag)
    w_dense = m.T @ np.linalg.solve(s, inst.innovation)
    w = analysis._global_w(inst)
    assert np.max(np.abs(w - w_dense)) <= 1e-12 * np.max(np.abs(w_dense))


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
    assert res.history.final_cost == res.diagnostics["global_cost"]


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
    # the sweep's cost of its returned iterate is the cost of the analysis
    assert res.history.final_cost == res.diagnostics["global_cost"]


def test_assimilate_mps_takes_the_cost_once(monkeypatch):
    # the sweep's stop test does not read the cost: it is taken once, of
    # the returned iterate, however many iterations the sweep runs
    inst, dec = make_instance(n=120, j_sub=4, halo=2, seed=3)
    calls = dict.fromkeys(("control_equivalent", "cost_w"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(analysis, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(analysis, name, counted)
    res = assimilate(inst, dec, "mps")
    assert res.history.iterations > 1
    assert calls == {"control_equivalent": 1, "cost_w": 1}


def test_assimilate_ddda_runs_and_reports():
    inst, dec = make_instance(n=24, j_sub=3, halo=1, seed=8)
    res = assimilate(inst, dec, "ddda")
    assert res.scheme == "ddda"
    assert res.history.converged
    assert res.history.iterations == 0
    assert res.diagnostics["interface_mismatch"] > 0.0
    assert len(res.per_subdomain_w) == 3
    assert res.history.final_cost == res.diagnostics["global_cost"]


def test_equivalence_report_releases_the_ddda_stack_before_the_mps_run(
        monkeypatch):
    # the mps systems are checked against the ddda stack as they stream
    # in, so it outlives the mps assembly; it is gone, band and right-hand
    # sides, when the mps sweep starts
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)
    arrays, alive = [], []

    def solve(stack, _fn=analysis.solve_ddda):
        arrays.extend(weakref.ref(a) for a in (stack.band, stack.c))
        return _fn(stack)

    def sweep(*args, _fn=analysis.solve_mps, **kwargs):
        alive.append([ref() is not None for ref in arrays])
        return _fn(*args, **kwargs)

    monkeypatch.setattr(analysis, "solve_ddda", solve)
    monkeypatch.setattr(analysis, "solve_mps", sweep)
    rep = equivalence_report(inst, dec)
    assert alive == [[False, False]]
    assert rep.c_equal and rep.a_structure_exact


@pytest.mark.parametrize("field, at", [
    ("c", (0,)), ("c", (-1,)),
    ("a_band", (0, 0)), ("a_band", (0, -1)), ("a_band", (1, 0)),
])
@pytest.mark.parametrize("i", [0, 2])
def test_equivalence_report_sees_one_ulp_in_one_mps_system(
        monkeypatch, field, at, i):
    # one entry of the c or of the a_band of one streamed mps system moved
    # by one ulp turns its check false and leaves the other true
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)

    def assemble(inst, dec, j, scheme, _fn=analysis.assemble_local):
        sys = _fn(inst, dec, j, scheme)
        if scheme != SCHEME_MPS or j != i:
            return sys
        arrays = {"c": sys.c.copy(), "a_band": sys.a_band.copy()}
        arrays[field][at] = np.nextafter(arrays[field][at], np.inf)
        return assembly.LocalSystem(j, scheme, arrays["a_band"], arrays["c"],
                                    sys.penalty_pairs)

    monkeypatch.setattr(analysis, "assemble_local", assemble)
    rep = equivalence_report(inst, dec)
    assert (rep.c_equal, rep.a_structure_exact) == (
        field != "c", field != "a_band")


def _track_mps_systems(monkeypatch):
    # weak references to every mps system assemble_local makes, and the
    # number of them alive each time solve_mps starts
    systems, alive = [], []

    def assemble(inst, dec, i, scheme, _fn=analysis.assemble_local):
        sys = _fn(inst, dec, i, scheme)
        if scheme == SCHEME_MPS:
            systems.append(weakref.ref(sys))
        return sys

    def sweep(*args, _fn=analysis.solve_mps, **kwargs):
        alive.append(sum(ref() is not None for ref in systems))
        return _fn(*args, **kwargs)

    monkeypatch.setattr(analysis, "assemble_local", assemble)
    monkeypatch.setattr(analysis, "solve_mps", sweep)
    return systems, alive


def test_assimilate_lets_the_local_systems_go_before_the_sweep(monkeypatch):
    # the run keeps the stack of the mps systems, not the systems
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)
    systems, alive = _track_mps_systems(monkeypatch)
    assimilate(inst, dec, SCHEME_MPS)
    assert len(systems) == 3
    assert alive == [0]


def test_equivalence_report_lets_the_mps_systems_go_before_the_sweep(
        monkeypatch):
    # the structure checks are read off the systems before they are
    # dropped; none of them is alive when the sweep starts
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)
    systems, alive = _track_mps_systems(monkeypatch)
    rep = equivalence_report(inst, dec)
    assert len(systems) == 3
    assert alive == [0]
    assert rep.c_equal and rep.a_structure_exact


@pytest.mark.parametrize("scheme", [SCHEME_MPS, SCHEME_DDDA])
@pytest.mark.parametrize("n, j_sub, halo, kind, length_scale", [
    (60, 3, 2, "identity", 2.0),
    (120, 5, 4, "gaussian", 0.5),
    (120, 5, 1, "gaussian", 2.0),
    (120, 5, 4, "gaussian", 8.0),
    (120, 6, 0, "gaussian", 2.0),
    (120, 1, 0, "gaussian", 2.0),
    (40, 8, 1, "gaussian", 8.0),  # spans of 6-7 points, bw + 1 = 40
])
def test_the_streamed_stack_is_the_stack_of_the_listed_systems(
        n, j_sub, halo, kind, length_scale, scheme):
    # a run streams its systems into a stack sized from the decomposition;
    # every array is the one the listed systems stack to, bit for bit
    inst, dec = make_instance(n=n, j_sub=j_sub, halo=halo, kind=kind,
                              length_scale=length_scale, seed=6)
    listed = solvers._Stack(list(analysis._assemble(inst, dec, scheme)))
    streamed = analysis._stack(inst, dec, scheme,
                               analysis._assemble(inst, dec, scheme))
    assert tuple(streamed) == tuple(listed)
    assert streamed.order == listed.order
    for a, b in [(streamed.starts, listed.starts),
                 *zip(streamed.segments, listed.segments),
                 (streamed.band, listed.band), (streamed.c, listed.c),
                 (streamed.coupling.data, listed.coupling.data),
                 (streamed.coupling.indices, listed.coupling.indices),
                 (streamed.coupling.indptr, listed.coupling.indptr)]:
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert streamed.band.flags.f_contiguous


@pytest.mark.parametrize("run", [
    lambda inst, dec: assimilate(inst, dec, SCHEME_MPS),
    lambda inst, dec: equivalence_report(inst, dec),
])
def test_a_run_holds_one_mps_system_at_a_time(monkeypatch, run):
    # each system is stacked and let go before the next is assembled: at
    # most the one just stacked of its scheme is alive when another is
    # asked for, the ddda systems of equivalence_report included
    inst, dec = make_instance(n=120, j_sub=6, halo=2, seed=4)
    systems = {SCHEME_MPS: [], SCHEME_DDDA: []}
    alive = {SCHEME_MPS: [0], SCHEME_DDDA: [0]}

    def assemble(inst, dec, i, scheme, _fn=analysis.assemble_local):
        alive[scheme].append(sum(ref() is not None for ref in systems[scheme]))
        sys = _fn(inst, dec, i, scheme)
        systems[scheme].append(weakref.ref(sys))
        return sys

    monkeypatch.setattr(analysis, "assemble_local", assemble)
    run(inst, dec)
    assert len(systems[SCHEME_MPS]) == 6
    assert len(systems[SCHEME_DDDA]) in (0, 6)
    assert max(alive[SCHEME_MPS]) <= 1
    assert max(alive[SCHEME_DDDA]) <= 1


def test_a_streamed_system_unlike_its_layout_entry_is_rejected():
    # the stream is checked entry by entry against the layout it was
    # sized from: another id, size, scheme or a taller band, or a stream
    # that ends early
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)
    mps = list(analysis._assemble(inst, dec, SCHEME_MPS))
    ddda = list(analysis._assemble(inst, dec, SCHEME_DDDA))
    other = make_instance(n=61, j_sub=3, halo=2, seed=4)
    tall = assembly.LocalSystem(
        0, SCHEME_MPS, np.zeros((40, mps[0].size)), mps[0].c,
        mps[0].penalty_pairs)
    for stream in ([mps[1], mps[0], mps[2]], [ddda[0], *mps[1:]],
                   [assemble_local(*other, 0, SCHEME_MPS), *mps[1:]],
                   [tall, *mps[1:]], mps[:2], ["x", *mps[1:]]):
        with pytest.raises(InvalidArgument):
            analysis._stack(inst, dec, SCHEME_MPS, iter(stream))
    analysis._stack(inst, dec, SCHEME_MPS, iter(mps))


def test_equivalence_report_frees_the_blocks_of_v_before_the_mps_sweep(
        monkeypatch):
    # the ddda run's lift builds the stacked blocks of V and lets them go:
    # none is alive when the mps sweep starts
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)
    bands, sweeps = [], []

    def blocks(*args, _fn=analysis.v_blocks):
        band = _fn(*args)
        bands.append(weakref.ref(band))
        return band

    def sweep(*args, _fn=analysis.solve_mps, **kwargs):
        assert bands and all(band() is None for band in bands)
        sweeps.append(len(bands))
        return _fn(*args, **kwargs)

    monkeypatch.setattr(analysis, "v_blocks", blocks)
    monkeypatch.setattr(analysis, "solve_mps", sweep)
    rep = equivalence_report(inst, dec)
    assert sweeps == [1]
    assert len(bands) == 2
    assert rep.c_equal and rep.a_structure_exact


@pytest.mark.parametrize("run", [
    *(lambda inst, dec, opts, m=m: assimilate(inst, dec, m, opts)
      for m in ("global", SCHEME_MPS, SCHEME_DDDA)),
    lambda inst, dec, opts: equivalence_report(inst, dec, opts),
])
def test_opts_is_checked_before_the_reference_solve(monkeypatch, run):
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    solves = []
    monkeypatch.setattr(analysis, "_global_w", solves.append)
    with pytest.raises(InvalidArgument, match="^opts must be a SolverOptions"):
        run(inst, dec, "x")
    assert solves == []


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
    assert rep.history.final_cost == rep.cost_mps
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

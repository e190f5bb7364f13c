import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ddvar import (
    DimensionMismatch,
    FactorizationFailure,
    GlobalSystem,
    Grid1D,
    InvalidArgument,
    LocalSystem,
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

from ddvar import solvers
from ddvar.solvers import _Stack

from conftest import (FixedPoint, dense, lower_band, make_instance,
                      residual_bound)


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
        sys = GlobalSystem(a_band=np.array([[1.0, bad], [0.0, 0.0]]),
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
    assert (np.max(np.abs(dense(sys.a_band) @ w - sys.c))
            <= 1e-12 * (1.0 + np.max(np.abs(sys.c))))
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
        oracle = np.linalg.solve(dense(sys.a_band), sys.c)
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
        float(np.max(np.sum(np.abs(dense(sys.a_band)), axis=1)))
        for sys in locals_
    )
    assert float(np.max(fixed_point_residual(locals_, ws))) <= opts.tol * kappa


# at np=4000, l=2 the residual branch of the stop test fires while the
# sweep is still 2e-11 (sigma_o = 0.1), 1e-5 (1e-4) and 0.3 (1e-6) from
# the fixed point: ROADMAP item 3b stops on the step instead
FALSE_STOP = pytest.mark.xfail(strict=True, reason="the residual stop "
                               "fires early; ROADMAP item 3b")


@pytest.mark.parametrize("n, halo, length_scale, sigma_o", [
    (2000, 16, 8.0, 0.1),
    pytest.param(4000, 4, 2.0, 0.1, marks=FALSE_STOP),
    pytest.param(4000, 4, 2.0, 1e-4, marks=FALSE_STOP),
    pytest.param(4000, 4, 2.0, 1e-6, marks=FALSE_STOP),
])
def test_the_sweep_stops_at_the_exact_fixed_point(n, halo, length_scale,
                                                  sigma_o):
    # w_fix is itself known only to about eps cond(K) ||w_fix||, so the
    # sweep that stopped is within ten times the larger of tol and that
    # floor of it; cond(K) is onenormest's, a lower bound, which can only
    # tighten the test
    inst, dec = make_instance(n=n, j_sub=16, halo=halo, seed=3,
                              length_scale=length_scale, sigma_o=sigma_o)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    oracle = FixedPoint(locals_)
    opts = SolverOptions()
    ws, history = solve_mps(locals_, opts)
    assert history.converged
    floor = (np.finfo(float).eps * oracle.cond_estimate()
             * np.max(np.abs(oracle.w_fix)))
    assert (np.max(np.abs(np.concatenate(ws) - oracle.w_fix))
            <= 10 * max(opts.tol, floor))


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
    # the cost is taken once, of the returned iterate, however many
    # iterations the sweep runs
    inst, dec = make_instance(n=20, j_sub=2, halo=1, seed=12)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    _, plain = solve_mps(locals_, opts=SolverOptions(max_iters=3, tol=1e-30))
    assert math.isnan(plain.final_cost)
    seen = []

    def cost_fn(ws):
        seen.append([w.copy() for w in ws])
        return 7.0

    ws, traced = solve_mps(
        locals_,
        opts=SolverOptions(max_iters=3, tol=1e-30),
        cost_fn=cost_fn,
    )
    assert traced.iterations == 3
    assert traced.final_cost == 7.0
    assert len(seen) == 1
    for seen_w, w in zip(seen[0], ws):
        assert seen_w.tobytes() == w.tobytes()


def test_the_sweep_frees_its_factor_before_the_cost(monkeypatch):
    # the factor is dead by the time cost_fn runs, so the lift of the
    # returned iterate can take its memory
    inst, dec = make_instance(n=60, j_sub=4, halo=2, seed=9)
    factors = []
    cholesky = solvers._band_cholesky

    def kept(*args):
        factor = cholesky(*args)
        factors.append(weakref.ref(factor))
        return factor

    def cost_fn(ws):
        assert len(factors) == 1 and factors[0]() is None
        return 0.0

    monkeypatch.setattr(solvers, "_band_cholesky", kept)
    _, history = solve_mps(_locals(inst, dec, SCHEME_MPS), cost_fn=cost_fn)
    assert history.iterations > 1 and history.final_cost == 0.0


@pytest.mark.parametrize("n, j_sub, halo, kind, length_scale", [
    (120, 4, 3, "gaussian", 0.5),
    (120, 4, 3, "gaussian", 2.0),
    (120, 4, 3, "gaussian", 8.0),
    (60, 3, 2, "identity", 2.0),
    # each block narrower than V's band: the stack pads them to the tallest
    (40, 8, 1, "gaussian", 8.0),
])
def test_kappa_is_read_off_the_band(n, j_sub, halo, kind, length_scale):
    # the largest absolute row sum of the dense blocks within 2 ulp; on a
    # band of 8 or more sub-diagonals its working arrays stay below half
    # the band, as no band-sized abs is taken
    inst, dec = make_instance(n=n, j_sub=j_sub, halo=halo, seed=4, kind=kind,
                              length_scale=length_scale)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    stack = _Stack(locals_)
    tracemalloc.start()
    try:
        stack.kappa
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if stack.band.shape[0] > 8:
        assert peak < stack.band.nbytes / 2
    row_sum = max(float(np.max(np.abs(dense(sys.a_band)).sum(axis=1)))
                  for sys in locals_)
    assert abs((stack.kappa - 1.0) - row_sum) <= 2 * np.spacing(row_sum)


def test_the_stack_keeps_no_local_system():
    # a stack holds its own arrays: once the list it was built from is
    # dropped, every system is freed, and the stack still solves to the
    # bits of a solve of the list
    inst, dec = make_instance(n=60, j_sub=3, halo=2, seed=4)
    ws_listed, history_listed = solve_mps(_locals(inst, dec, SCHEME_MPS))
    locals_ = _locals(inst, dec, SCHEME_MPS)
    refs = [weakref.ref(sys) for sys in locals_]
    stack = _Stack(locals_)
    del locals_
    assert all(ref() is None for ref in refs)
    ws, history = solve_mps(stack)
    assert history.records == history_listed.records
    for w, w_listed in zip(ws, ws_listed):
        assert w.tobytes() == w_listed.tobytes()


@pytest.mark.parametrize("n, j_sub, halo, kind, length_scale, scheme", [
    # each block narrower than V's band: the stack pads them to the tallest
    (40, 8, 1, "gaussian", 8.0, SCHEME_MPS),
    (40, 8, 1, "gaussian", 8.0, SCHEME_DDDA),
    (120, 4, 3, "gaussian", 2.0, SCHEME_MPS),
    (60, 3, 2, "identity", 2.0, SCHEME_MPS),
])
def test_the_stacked_band_is_one_column_major_array(n, j_sub, halo, kind,
                                                    length_scale, scheme):
    # the stack holds blockdiag(a_i) as one column-major array of k + 1
    # rows, each a_band in it to the bit and zero-padded, and BLAS dsbmv
    # reads it in place: on a band of 8 or more sub-diagonals a residual
    # allocates less than half of it, which a C-ordered copy of the same
    # band, copied on every call, does not
    inst, dec = make_instance(n=n, j_sub=j_sub, halo=halo, seed=4, kind=kind,
                              length_scale=length_scale)
    locals_ = _locals(inst, dec, scheme)
    stack = _Stack(locals_)
    band = stack.band
    # the array behind the band holds nothing else
    assert band.flags.f_contiguous and band.base.nbytes == band.nbytes
    assert band.shape == (max(sys.a_band.shape[0] for sys in locals_),
                          stack.c.size)
    for sys, start in zip(locals_, stack.starts):
        block = band[:, start:start + sys.size]
        height = sys.a_band.shape[0]
        assert block[:height].tobytes() == sys.a_band.tobytes()
        assert not block[height:].any()

    w = np.random.default_rng(5).standard_normal(stack.c.size)

    def peak():
        tracemalloc.start()
        try:
            fixed_point_residual(stack, w)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    if band.shape[0] > 8:
        assert peak() < band.nbytes / 2
        stack.band = np.ascontiguousarray(band)
        assert peak() >= band.nbytes


def test_a_sweep_over_empty_systems_stops_at_once():
    # with no entries there is no row to sum for kappa, and the first
    # residual, 0.0, is already below the stop test's threshold
    empty = [LocalSystem(i, SCHEME_MPS, np.ones((1, 0)), np.zeros(0))
             for i in range(2)]
    assert _Stack(empty).kappa == 1.0
    ws, history = solve_mps(empty)
    assert [w.size for w in ws] == [0, 0] and history.converged
    assert history.records[0].residual_norms == (0.0, 0.0)


def test_fixed_point_residual_zero_at_uncoupled_solve():
    inst, dec = make_instance(n=24, j_sub=2, halo=1, seed=14)
    locals_ = _locals(inst, dec, SCHEME_DDDA)
    ws = solve_ddda(locals_)
    res = fixed_point_residual(locals_, ws)
    assert np.max(res) <= 1e-13


def test_fixed_point_residual_is_the_local_gradient_norm():
    # local_gradient multiplies its own row block of the stacked band by
    # the same BLAS dsbmv, but the kernel may sum a block's last k rows in
    # another order alone than inside the stack; so on any iterates each
    # residual entry is the sup-norm of that subdomain's gradient within
    # the row-wise bound 2 γ_{2k+4} (|a||w| + |C||w| + |c|) of
    # conftest.residual_bound, and the same float in every listing order.
    # The n = 400 instances are large enough that two separately summed
    # products differ in the last bit; at length scale 8 the bands have
    # k = 68 sub-diagonals, and at n = 40 with j_sub = 8 the blocks' bands
    # are 6 and 7 rows tall, so the stack pads the shorter ones with zeros
    cases = [(dict(n=33, j_sub=3, halo=2, seed=17), 3, {13, 15})]
    cases += [(dict(n=400, j_sub=4, halo=4, seed=seed), 1, {18})
              for seed in range(20)]
    cases += [(dict(n=400, j_sub=4, halo=4, seed=5, length_scale=8.0), 2,
               {69}),
              (dict(n=40, j_sub=8, halo=1, seed=6, length_scale=8.0), 3,
               {6, 7})]
    for kwargs, draws, heights in cases:
        inst, dec = make_instance(**kwargs)
        j_sub, seed = kwargs["j_sub"], kwargs["seed"]
        locals_ = _locals(inst, dec, SCHEME_MPS)
        assert {sys.a_band.shape[0] for sys in locals_} == heights
        rng = np.random.default_rng(seed + 1)
        for _ in range(draws):
            ws = [rng.standard_normal(sys.size) for sys in locals_]
            by_id = dict(enumerate(ws))
            bound = np.split(residual_bound(locals_, ws),
                             np.cumsum([sys.size for sys in locals_])[:-1])
            res = fixed_point_residual(locals_, ws)
            for i in range(j_sub):
                g = local_gradient(locals_[i], ws[i], by_id)
                assert abs(res[i] - float(np.max(np.abs(g)))) <= np.max(
                    bound[i])
            # the norms come back in the listed order, whatever it is
            for listing in (range(j_sub)[::-1], rng.permutation(j_sub)):
                listed = fixed_point_residual([locals_[i] for i in listing],
                                              [ws[i] for i in listing])
                assert listed.tolist() == res[list(listing)].tolist()


def test_a_non_finite_iterate_never_has_a_finite_norm():
    # a NaN anywhere in w_i makes norm i NaN; the stacked operator's
    # explicit zeros may also carry it into the norms of nearby blocks,
    # but never leave its own block's norm a plausible number
    cases = (dict(n=300, j_sub=3, halo=0, seed=3),
             dict(n=40, j_sub=8, halo=1, seed=6, length_scale=8.0))
    rng = np.random.default_rng(8)
    for kwargs in cases:
        inst, dec = make_instance(**kwargs)
        for scheme in (SCHEME_MPS, SCHEME_DDDA):
            locals_ = _locals(inst, dec, scheme)
            for i, sys in enumerate(locals_):
                for at in {0, sys.size // 2, sys.size - 1}:
                    ws = [rng.standard_normal(s.size) for s in locals_]
                    ws[i][at] = np.nan
                    assert np.isnan(fixed_point_residual(locals_, ws)[i])


def test_fixed_point_residual_of_an_empty_system_is_zero():
    # an empty block has no segment of its own in the stacked residual;
    # its norm is 0.0 and its neighbors' norms keep their places
    full = [LocalSystem(i, SCHEME_DDDA, np.ones((1, size)),
                        np.full(size, i + 1.0)) for i, size in ((0, 2), (2, 3))]
    empty = LocalSystem(1, SCHEME_DDDA, np.ones((1, 0)), np.zeros(0))
    listing = [full[1], empty, full[0]]
    res = fixed_point_residual(listing, [np.zeros(s.size) for s in listing])
    assert res.tolist() == [3.0, 0.0, 1.0]
    assert fixed_point_residual([empty], [np.zeros(0)]).tolist() == [0.0]


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
    # a bool is an Integral and a Real, so it needs its own rejection
    for name in ("max_iters", "threads"):
        for flag in (True, False):
            with pytest.raises(InvalidArgument, match=name):
                SolverOptions(**{name: flag})
    # tol is kept as the float of the value given
    tol = SolverOptions(tol=np.float32(1e-3)).tol
    assert type(tol) is float and tol == float(np.float32(1e-3))
    # a non-number tol fails with a typed error, not from the comparison
    for tol in ("1e-3", None, True, 1e-3 + 0j):
        with pytest.raises(InvalidArgument, match="tol"):
            SolverOptions(tol=tol)


def test_solvers_reject_mismatched_schemes():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    mps = _locals(inst, dec, SCHEME_MPS)
    ddda = _locals(inst, dec, SCHEME_DDDA)
    with pytest.raises(InvalidArgument):
        solve_ddda(mps)
    with pytest.raises(InvalidArgument):
        solve_mps(ddda)
    for solve in (solve_ddda, solve_mps):
        with pytest.raises(InvalidArgument, match="at least one"):
            solve([])


def test_mps_requires_every_coupled_neighbor():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    with pytest.raises(MissingNeighbor):
        solve_mps(locals_[:1])


def test_mps_rejects_a_p_j_narrower_than_its_neighbor():
    # two hand-built coupled systems of 3 points; subdomain 0's p_j is one
    # column short of neighbor 1, so its coupling has no product with w_1
    band, c, p = np.ones((1, 3)), np.ones(3), np.ones((1, 3))
    locals_ = [LocalSystem(0, SCHEME_MPS, band, c, ((1, p, p[:, :2]),)),
               LocalSystem(1, SCHEME_MPS, band, c, ((0, p, p),))]
    with pytest.raises(DimensionMismatch, match="neighbor 1 has 3 points, "
                                                "subdomain 0 couples to 2"):
        solve_mps(locals_)


def test_mps_rejects_a_repeated_subdomain_before_factorizing():
    # the second copy's diagonal is not finite, so a factorization reached
    # first would raise FactorizationFailure instead
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    sys = _locals(inst, dec, SCHEME_MPS)[0]
    nan_diagonal = sys.a_band.copy()
    nan_diagonal[0] = np.nan
    broken = dataclasses.replace(sys, a_band=nan_diagonal)
    with pytest.raises(InvalidArgument, match="appears twice"):
        solve_mps([sys, broken])


@pytest.mark.parametrize("scheme", [SCHEME_DDDA, SCHEME_MPS])
def test_factorization_failure_names_the_subdomain(scheme):
    # the systems are factored as one stack in id order; a failure names
    # the subdomain that holds the failing row, whatever the listing order
    inst, dec = make_instance(n=36, j_sub=3, halo=1, seed=2)
    locals_ = _locals(inst, dec, scheme)
    solve = solve_ddda if scheme == SCHEME_DDDA else solve_mps
    indefinite = locals_[2].a_band.copy()
    indefinite[0, 4] = -1.0
    broken = dataclasses.replace(locals_[2], a_band=indefinite)
    with pytest.raises(FactorizationFailure,
                       match="subdomain 2 matrix is not numerically SPD"):
        solve([broken, locals_[0], locals_[1]])
    infinite = locals_[1].a_band.copy()
    infinite[1, 2] = np.inf  # a[3, 2]
    broken = dataclasses.replace(locals_[1], a_band=infinite)
    with pytest.raises(FactorizationFailure,
                       match="subdomain 1 matrix has non-finite entries"):
        solve([locals_[0], broken, locals_[2]])


def test_system_rejects_a_band_that_does_not_fit_c():
    # a band of another width than c, or with an entry past the last row,
    # would couple a block of the stack to its neighbor's rows while the
    # dense a drops that entry
    a = np.diag([2.0, 3.0, 4.0]) + np.eye(3, k=1) + np.eye(3, k=-1)
    band = lower_band(a, 1)
    for a_band, c in ((band, np.ones(2)), (band[0], np.ones(3)),
                      (band[:0], np.ones(3)), (band, np.ones((3, 1)))):
        with pytest.raises(DimensionMismatch, match="a_band has shape"):
            GlobalSystem(a_band=a_band, c=c)
    for tail in ((1, 2), (2, 1), (2, 2), (3, 0)):
        tall = lower_band(a, 3)
        tall[tail] = np.nan if tail == (3, 0) else 1.0
        with pytest.raises(InvalidArgument, match="past the last row"):
            LocalSystem(subdomain=0, scheme=SCHEME_DDDA, a_band=tall,
                        c=np.ones(3))
    # zero rows past the last one are padding, as in the stack
    sys = LocalSystem(subdomain=0, scheme=SCHEME_DDDA,
                      a_band=lower_band(a, 3), c=np.ones(3))
    np.testing.assert_array_equal(dense(sys.a_band), a)
    np.testing.assert_allclose(solve_ddda([sys])[0], np.linalg.solve(a, sys.c),
                               rtol=0, atol=1e-15)


def test_local_system_rejects_mis_shaped_penalty_pairs():
    # a p_i wider than its subdomain would place its entries in the
    # neighbor's rows of the stacked coupling, and a p_j with other rows
    # than p_i has no product with it: both fail at construction, naming
    # the subdomain and the neighbor
    band, c = np.ones((1, 3)), np.ones(3)
    wide = np.zeros((1, 5))
    wide[0, 4] = 1.0
    for p_i, p_j in ((wide, np.ones((1, 3))),
                     (np.ones((1, 3)), np.ones((2, 3))),
                     (np.ones(3), np.ones((1, 3))),
                     (np.ones((1, 3)), np.ones(3))):
        with pytest.raises(DimensionMismatch,
                           match="subdomain 0, neighbor 1"):
            LocalSystem(0, SCHEME_MPS, band, c,
                        penalty_pairs=((1, p_i, p_j),))
    # a p_j of any width is the neighbor's business, checked in the stack
    pairs = ((1, np.ones((2, 3)), np.ones((2, 4))),)
    assert LocalSystem(0, SCHEME_MPS, band, c, pairs).penalty_pairs == pairs


def test_list_valued_penalty_pairs_give_the_iterates_of_arrays():
    # a pair given as nested lists is stored as float arrays, so the sweep
    # and local_gradient run on it and land on the same floats
    inst, dec = make_instance(n=30, j_sub=3, halo=2, seed=4)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    listed = [dataclasses.replace(sys, penalty_pairs=tuple(
        (j, p_i.tolist(), p_j.tolist()) for j, p_i, p_j in sys.penalty_pairs))
        for sys in locals_]
    for sys in listed:
        for _, p_i, p_j in sys.penalty_pairs:
            assert p_i.dtype == p_j.dtype == np.float64
    ws, history = solve_mps(locals_)
    ws_listed, history_listed = solve_mps(listed)
    assert len(history_listed.records) == len(history.records)
    for w, w_listed in zip(ws, ws_listed):
        assert w.tobytes() == w_listed.tobytes()
    by_id = dict(enumerate(ws))
    for sys, sys_listed, w in zip(locals_, listed, ws):
        assert (local_gradient(sys, w, by_id).tobytes()
                == local_gradient(sys_listed, w, by_id).tobytes())


def test_stacked_solve_matches_dense_solve_for_any_bandwidth():
    # a full-bandwidth system stacked with a tridiagonal one: the stack's
    # band is as tall as the tallest block's, and each block still solves
    # its own system
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 12))
    full = x @ x.T + 12.0 * np.eye(12)
    tridiagonal = (np.diag(np.full(7, 4.0)) + np.diag(np.ones(6), 1)
                   + np.diag(np.ones(6), -1))
    systems = [
        LocalSystem(subdomain=1, scheme=SCHEME_DDDA,
                    a_band=lower_band(tridiagonal, 1),
                    c=rng.standard_normal(7)),
        LocalSystem(subdomain=0, scheme=SCHEME_DDDA,
                    a_band=lower_band(full, 11),
                    c=rng.standard_normal(12)),
    ]
    for sys, a, w in zip(systems, (tridiagonal, full), solve_ddda(systems)):
        np.testing.assert_array_equal(dense(sys.a_band), a)
        np.testing.assert_allclose(w, np.linalg.solve(a, sys.c),
                                   rtol=0, atol=1e-13)
    (w,) = solve_ddda(systems[1:])
    np.testing.assert_allclose(w, np.linalg.solve(full, systems[1].c),
                               rtol=0, atol=1e-13)


def test_the_sweep_keeps_its_iterate_stacked(monkeypatch):
    # every iteration hands fixed_point_residual the stacked iterate, and
    # the sweep splits it into per-subdomain views once, on return
    inst, dec = make_instance(n=60, j_sub=4, halo=2, seed=9)
    locals_ = _locals(inst, dec, SCHEME_MPS)
    seen, splits = [], []
    residual, split = solvers.fixed_point_residual, _Stack.split

    def counted_residual(stack, ws):
        seen.append(ws)
        return residual(stack, ws)

    def counted_split(stack, w):
        splits.append(w)
        return split(stack, w)

    monkeypatch.setattr(solvers, "fixed_point_residual", counted_residual)
    monkeypatch.setattr(_Stack, "split", counted_split)
    ws, history = solve_mps(locals_)
    assert history.iterations > 1
    assert len(seen) == history.iterations and len(splits) == 1
    assert all(isinstance(w, np.ndarray) and w.ndim == 1 for w in seen)
    assert np.concatenate(ws).tobytes() == seen[-1].tobytes()


def test_fixed_point_residual_takes_the_stacked_iterate():
    # the stacked iterate, in subdomain-id order, gives the norms of the
    # per-subdomain list to the bit, in whatever order that is listed;
    # a stacked vector of another length is rejected
    rng = np.random.default_rng(10)
    for kwargs in (dict(n=120, j_sub=4, halo=3, seed=2),
                   dict(n=40, j_sub=8, halo=1, seed=6, length_scale=8.0)):
        inst, dec = make_instance(**kwargs)
        for scheme in (SCHEME_MPS, SCHEME_DDDA):
            locals_ = _locals(inst, dec, scheme)
            ws = [rng.standard_normal(sys.size) for sys in locals_]
            for listing in (range(dec.j_sub), rng.permutation(dec.j_sub)):
                listed = [locals_[i] for i in listing]
                by_list = fixed_point_residual(listed,
                                               [ws[i] for i in listing])
                stacked = fixed_point_residual(listed, np.concatenate(ws))
                assert stacked.tobytes() == by_list.tobytes()
            w = np.concatenate(ws)
            for bad in (w[:-1], np.append(w, 0.0)):
                with pytest.raises(DimensionMismatch):
                    fixed_point_residual(locals_, bad)

import numpy as np
import pytest

from ddvar import (
    DimensionMismatch,
    Grid1D,
    IndexOutOfRange,
    InvalidArgument,
    LocalSystem,
    MissingNeighbor,
    ProblemInstance,
    SCHEME_DDDA,
    SCHEME_MPS,
    assemble_global,
    assemble_local,
    cost_w,
    decompose_uniform,
    identity_covariance,
    local_gradient,
    point_observations,
)

from ddvar.covariance import v_normal
from ddvar.solvers import _Stack

from conftest import dense, interface_pair, lower_band, make_instance


def _single_point_instance():
    grid = Grid1D.uniform(1)
    obs = point_observations(grid, [0], [2.0], [1.0])
    return ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(1))


def test_global_single_point():
    sys = assemble_global(_single_point_instance())
    np.testing.assert_array_equal(dense(sys.a_band), [[2.0]])
    np.testing.assert_array_equal(sys.c, [2.0])


def test_global_without_observations_is_identity():
    grid = Grid1D.uniform(6)
    obs = point_observations(grid, [], [], [])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(6))
    sys = assemble_global(inst)
    np.testing.assert_array_equal(dense(sys.a_band), np.eye(6))
    np.testing.assert_array_equal(sys.c, np.zeros(6))


def test_global_identity_operators():
    # V = I and every point observed with unit variance gives a = 2 I, c = d
    grid = Grid1D.uniform(4)
    u_b = np.array([1.0, 0.0, -1.0, 2.0])
    v = np.array([2.0, 1.0, -1.0, 0.0])
    obs = point_observations(grid, [0, 1, 2, 3], v, np.ones(4))
    inst = ProblemInstance(grid, identity_covariance(grid), obs, u_b)
    sys = assemble_global(inst)
    np.testing.assert_array_equal(dense(sys.a_band), 2.0 * np.eye(4))
    np.testing.assert_array_equal(sys.c, v - u_b)


@pytest.mark.parametrize("seed", [0, 3])
def test_system_matrices_are_well_conditioned(seed):
    inst, dec = make_instance(n=25, j_sub=2, halo=2, seed=seed)
    sys = assemble_global(inst)
    a = dense(sys.a_band)
    np.testing.assert_allclose(a, a.T, atol=0)
    assert np.min(np.linalg.eigvalsh(a)) >= 1.0 - 1e-10
    for i in range(dec.j_sub):
        loc = assemble_local(inst, dec, i, SCHEME_MPS)
        assert np.min(np.linalg.eigvalsh(dense(loc.a_band))) >= 1.0 - 1e-10


def test_cost_matches_quadratic_form():
    inst, _ = make_instance(n=20, seed=1)
    sys = assemble_global(inst)
    d = inst.obs.values - inst.u_background[inst.obs.obs_indices]
    const = 0.5 * float(d @ (d / inst.obs.r_cov.r_diag))
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rng.standard_normal(20)
        quad = (0.5 * float(w @ (dense(sys.a_band) @ w)) - float(sys.c @ w)
                + const)
        assert abs(cost_w(inst, w) - quad) <= 1e-10 * max(1.0, abs(quad))


def test_cost_hand_values():
    inst = _single_point_instance()
    # J(w) = w^2/2 + (w - 2)^2/2
    assert cost_w(inst, np.array([0.0])) == 2.0
    assert cost_w(inst, np.array([1.0])) == 1.0
    assert cost_w(inst, np.array([2.0])) == 2.0


def test_cost_rejects_wrong_shape():
    inst = _single_point_instance()
    with pytest.raises(DimensionMismatch):
        cost_w(inst, np.zeros(2))


@pytest.mark.parametrize("scheme", [SCHEME_MPS, SCHEME_DDDA])
def test_single_subdomain_equals_global(scheme):
    inst, dec = make_instance(n=18, j_sub=1, halo=0)
    glob = assemble_global(inst)
    loc = assemble_local(inst, dec, 0, scheme)
    np.testing.assert_array_equal(dense(loc.a_band), dense(glob.a_band))
    np.testing.assert_array_equal(loc.c, glob.c)
    assert loc.penalty_pairs == ()


def test_rhs_identical_across_schemes():
    inst, dec = make_instance(n=30, j_sub=3, halo=2)
    for i in range(dec.j_sub):
        c_mps = assemble_local(inst, dec, i, SCHEME_MPS).c
        c_ddda = assemble_local(inst, dec, i, SCHEME_DDDA).c
        assert c_mps.tobytes() == c_ddda.tobytes()


def test_matrix_split_is_exact():
    # the coupled matrix equals the uncoupled one plus the penalty sum,
    # accumulated in the same ascending neighbor order
    inst, dec = make_instance(n=30, j_sub=3, halo=2)
    for i in range(dec.j_sub):
        mps = assemble_local(inst, dec, i, SCHEME_MPS)
        ddda = assemble_local(inst, dec, i, SCHEME_DDDA)
        g_sum = None
        for j in dec.neighbors(i):
            p_i, _ = interface_pair(inst.cov, dec, i, j)
            g = p_i.T @ p_i
            g_sum = g if g_sum is None else g_sum + g
        np.testing.assert_array_equal(dense(mps.a_band),
                                      dense(ddda.a_band) + g_sum)


@pytest.mark.parametrize("kind, length_scale, n, j_sub, halo", [
    ("gaussian", 0.5, 40, 3, 2),
    ("gaussian", 2.0, 40, 3, 2),
    ("gaussian", 8.0, 400, 4, 4),
    # spans of 22 to 24 points, narrower than the 60 rows of V's band
    ("gaussian", 8.0, 60, 3, 2),
    ("identity", None, 30, 3, 2),
])
def test_band_is_the_lower_band_of_the_dense_definition(kind, length_scale,
                                                        n, j_sub, halo):
    # a_band of both schemes against m_i^T R^{-1} m_i + I (+ sum p_i^T p_i)
    # rebuilt from the dense V, the observation list and the interfaces,
    # and c against m_i^T R^{-1} d_i
    inst, dec = make_instance(n=n, j_sub=j_sub, halo=halo, seed=11,
                              kind=kind, length_scale=length_scale)
    v = dense(inst.cov.v_band, symmetric=False)
    idx, d = inst.obs.obs_indices, inst.innovation
    bw = inst.cov.v_band.shape[0] - 1
    for i in range(dec.j_sub):
        cols = np.arange(*dec.subdomains[i])
        mask = (idx >= cols[0]) & (idx <= cols[-1])
        m = v[np.ix_(idx[mask], cols)]
        r_inv = 1.0 / inst.obs.r_cov.r_diag[mask]
        base = m.T @ (r_inv[:, None] * m) + np.eye(cols.size)
        ps = [v[np.ix_(dec.interface(i, j), cols)] for j in dec.neighbors(i)]
        penalty = sum((p.T @ p for p in ps), np.zeros_like(base))
        c = m.T @ (r_inv * d[mask])
        c_scale = np.max(np.abs(m.T) @ np.abs(r_inv * d[mask]), initial=0)
        k = min(bw, cols.size - 1)
        for scheme, a in ((SCHEME_DDDA, base), (SCHEME_MPS, base + penalty)):
            sys = assemble_local(inst, dec, i, scheme)
            assert sys.a_band.shape == (k + 1, cols.size)
            np.testing.assert_allclose(sys.a_band, lower_band(a, k), rtol=0,
                                       atol=1e-14 * np.max(np.abs(a)))
            np.testing.assert_allclose(sys.c, c, rtol=0,
                                       atol=1e-14 * c_scale)


def test_identity_factor_coupling_structure():
    # with V = I the interface factors are 0/1 rows: p_i picks the
    # interface point out of subdomain i, p_j the same grid point out of j
    grid = Grid1D.uniform(10)
    obs = point_observations(grid, [], [], [])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(10))
    dec = decompose_uniform(grid, 2, 1)

    loc0 = assemble_local(inst, dec, 0, SCHEME_MPS)
    expected = np.eye(6)
    expected[5, 5] += 1.0
    np.testing.assert_array_equal(dense(loc0.a_band), expected)
    (j, p_0, p_1), = loc0.penalty_pairs
    assert j == 1
    np.testing.assert_array_equal(p_0, [[0.0, 0, 0, 0, 0, 1]])
    np.testing.assert_array_equal(p_1, [[0.0, 1, 0, 0, 0, 0]])

    loc1 = assemble_local(inst, dec, 1, SCHEME_MPS)
    expected = np.eye(6)
    expected[0, 0] += 1.0
    np.testing.assert_array_equal(dense(loc1.a_band), expected)
    (j, p_1, p_0), = loc1.penalty_pairs
    assert j == 0
    np.testing.assert_array_equal(p_1, [[1.0, 0, 0, 0, 0, 0]])
    np.testing.assert_array_equal(p_0, [[0.0, 0, 0, 0, 1, 0]])


def _pull(sys, ws):
    # neighbor coupling sum_j p_i^T p_j w_j, straight from the factors
    return sum(p_i.T @ (p_j @ ws[j]) for j, p_i, p_j in sys.penalty_pairs)


def test_gradient_vanishes_at_local_solve():
    inst, dec = make_instance(n=24, j_sub=2, halo=2, seed=4)
    locals_ = [assemble_local(inst, dec, i, SCHEME_MPS) for i in range(2)]
    rng = np.random.default_rng(7)
    ws = {i: rng.standard_normal(locals_[i].size) for i in range(2)}
    for i, sys in enumerate(locals_):
        w_star = np.linalg.solve(dense(sys.a_band), sys.c + _pull(sys, ws))
        g = local_gradient(sys, w_star, ws)
        assert np.max(np.abs(g)) <= 1e-10


def test_gradient_matches_finite_differences():
    inst, dec = make_instance(n=20, j_sub=2, halo=1, seed=5)
    sys = assemble_local(inst, dec, 0, SCHEME_MPS)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(sys.size)
    ws = {j: rng.standard_normal(p_j.shape[1])
          for j, _, p_j in sys.penalty_pairs}
    pull = _pull(sys, ws)

    def f(x):
        return 0.5 * float(x @ (dense(sys.a_band) @ x)) - float(sys.c @ x) \
            - float(x @ pull)

    g = local_gradient(sys, w, ws)
    h = 1e-6
    for k in range(sys.size):
        e = np.zeros(sys.size)
        e[k] = h
        fd = (f(w + e) - f(w - e)) / (2 * h)
        assert abs(fd - g[k]) <= 1e-6 * (1.0 + abs(g[k]))


def test_gradient_single_subdomain_no_observations():
    grid = Grid1D.uniform(5)
    obs = point_observations(grid, [], [], [])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(5))
    dec = decompose_uniform(grid, 1, 0)
    sys = assemble_local(inst, dec, 0, SCHEME_MPS)
    w = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    np.testing.assert_array_equal(local_gradient(sys, w), w)


def test_gradient_requires_neighbor_iterates():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    sys = assemble_local(inst, dec, 0, SCHEME_MPS)
    with pytest.raises(MissingNeighbor):
        local_gradient(sys, np.zeros(sys.size))
    with pytest.raises(MissingNeighbor):
        local_gradient(sys, np.zeros(sys.size), {2: np.zeros(3)})


def test_gradient_rejects_uncoupled_scheme_and_shapes():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    ddda = assemble_local(inst, dec, 0, SCHEME_DDDA)
    with pytest.raises(InvalidArgument):
        local_gradient(ddda, np.zeros(ddda.size))
    mps = assemble_local(inst, dec, 0, SCHEME_MPS)
    with pytest.raises(DimensionMismatch):
        local_gradient(mps, np.zeros(mps.size + 1), {1: np.zeros(mps.size)})
    with pytest.raises(DimensionMismatch):
        local_gradient(mps, np.zeros(mps.size), {1: np.zeros(2)})
    with pytest.raises(DimensionMismatch,
                       match=r"neighbor 1 iterate has shape \(1, 11\)"):
        local_gradient(mps, np.zeros(mps.size), {1: np.zeros((1, 11))})


def test_assemble_local_rejects_unknown_scheme():
    inst, dec = make_instance(n=20, j_sub=2, halo=1)
    with pytest.raises(InvalidArgument):
        assemble_local(inst, dec, 0, "jacobi")
    # a system is checked by the same rule when it is built directly
    with pytest.raises(InvalidArgument, match="scheme must be one of"):
        LocalSystem(0, "xyz", np.ones((1, 2)), np.zeros(2))
    # a negative id must not wrap around to the last subdomain
    for bad in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            assemble_local(inst, dec, bad, SCHEME_MPS)


def test_assemble_local_takes_the_observations_in_its_span():
    # spans (0, 6) and (4, 10): the observations at 4 and 5 lie in the
    # overlap and enter both systems, those at 1 and 9 only their own
    grid = Grid1D.uniform(10)
    obs = point_observations(grid, [1, 4, 5, 9], [1.0, 2.0, 3.0, 4.0],
                             [1.0, 2.0, 4.0, 8.0])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(10))
    dec = decompose_uniform(grid, 2, 1)
    for i, local_pts, sel in ((0, [1, 4, 5], [0, 1, 2]),
                              (1, [0, 1, 5], [1, 2, 3])):
        sys = assemble_local(inst, dec, i, SCHEME_DDDA)
        r_inv = 1.0 / obs.r_cov.r_diag[sel]
        # with V = I, H_i V_i selects the local points
        a = np.eye(6)
        a[local_pts, local_pts] += r_inv
        c = np.zeros(6)
        c[local_pts] = r_inv * obs.values[sel]
        np.testing.assert_array_equal(dense(sys.a_band), a)
        np.testing.assert_array_equal(sys.c, c)


def test_assemble_local_without_observations_is_identity():
    # observations at 0 and 14 only: the middle subdomain (3, 12) sees
    # none and gets a = I, c = 0
    grid = Grid1D.uniform(15)
    obs = point_observations(grid, [0, 14], [1.0, 2.0], [1.0, 1.0])
    inst = ProblemInstance(grid, identity_covariance(grid), obs, np.zeros(15))
    dec = decompose_uniform(grid, 3, 2)
    assert dec.span(1) == slice(3, 12)
    sys = assemble_local(inst, dec, 1, SCHEME_DDDA)
    np.testing.assert_array_equal(dense(sys.a_band), np.eye(9))
    np.testing.assert_array_equal(sys.c, np.zeros(9))


def test_the_coupling_of_listed_systems_stores_its_nonzero_columns():
    # hand-built pairs on spans of 3, 4 and 3 points: subdomain 0's p_i is
    # all zero, so its rows of C are empty, and subdomain 1's p_j toward 0
    # has a zero interior column, which C does not store; C is the dense
    # sum of p_i^T p_j, each row's columns ascending
    pairs = {
        0: ((1, np.zeros((1, 3)), np.ones((1, 4))),),
        1: ((0, np.array([[1.0, 0, 2, 0], [0, 3, 0, 0]]),
             np.array([[4.0, 0, 5], [0, 0, 6]])),
            (2, np.array([[0.0, 0, 1, 7]]), np.array([[1.0, 2, 0]]))),
        2: ((1, np.array([[1.0, 1, 1]]), np.array([[0.0, 0, 1, 1]])),),
    }
    starts = {0: 0, 1: 3, 2: 7}
    stack = _Stack([LocalSystem(i, SCHEME_MPS, np.ones((1, size)),
                                np.ones(size), pairs[i])
                    for i, size in ((0, 3), (1, 4), (2, 3))])
    expected = np.zeros((10, 10))
    stored = np.zeros((10, 10), bool)
    for i, listed in pairs.items():
        for j, p_i, p_j in listed:
            rows = starts[i] + np.arange(p_i.shape[1])
            cols = starts[j] + np.arange(p_j.shape[1])
            expected[np.ix_(rows, cols)] += p_i.T @ p_j
            stored[np.ix_(rows[p_i.any(axis=0)], cols[p_j.any(axis=0)])] = True
    c = stack.coupling
    np.testing.assert_array_equal(c.toarray(), expected)
    assert not c.indptr[:4].any()
    at = np.zeros((10, 10), bool)
    at[np.repeat(np.arange(10), np.diff(c.indptr)), c.indices] = True
    assert c.nnz == stored.sum() and np.array_equal(at, stored)
    for r in range(10):
        assert np.all(np.diff(c.indices[c.indptr[r]:c.indptr[r + 1]]) > 0)


def _searchsorted_local(inst, dec, i, scheme):
    # subdomain i's a_band, c and interface pairs by the per-call formula:
    # the span's observations found by searchsorted and scattered into the
    # weights, the blocks indexed out of the dense V, and each p_i^T p_i
    # added into the band diagonal by diagonal
    span = dec.span(i)
    idx = inst.obs.obs_indices
    sel = slice(*np.searchsorted(idx, [span.start, span.stop]))
    at, r_inv = idx[sel] - span.start, 1.0 / inst.obs.r_cov.r_diag[sel]
    weights, x = np.zeros((2, span.stop - span.start))
    weights[at], x[at] = r_inv, r_inv * inst.innovation[sel]
    a_band, c = v_normal(inst.cov, weights, x, span)
    a_band[0] += 1.0
    if scheme == SCHEME_DDDA:
        return a_band, c, []
    v = dense(inst.cov.v_band, symmetric=False)
    pairs = [(j, v[dec.interface(i, j), span],
              v[dec.interface(i, j), dec.span(j)])
             for j in dec.neighbors(i)]
    penalty = np.zeros(a_band.shape)
    for _, p_i, _ in pairs:
        cols = np.flatnonzero(p_i.any(axis=0))
        if cols.size:
            lo, w = cols[0], cols[-1] + 1 - cols[0]
            q = np.ascontiguousarray(p_i[:, lo:lo + w])
            g = q.T @ q
            for d in range(min(penalty.shape[0], w)):
                penalty[d, lo:lo + w - d] += g.diagonal(-d)
    return a_band + penalty, c, pairs


@pytest.mark.parametrize("kind, length_scale, n, j_sub, halo", [
    *((kind, ell, 120, j_sub, halo)
      for kind, ell in (("identity", None), ("gaussian", 0.5),
                        ("gaussian", 2.0), ("gaussian", 8.0))
      for j_sub, halo in ((5, 0), (5, 1), (5, 4), (1, 0))),
    # spans of 6 and 7 points, shorter than the 69 rows of V's band
    ("gaussian", 8.0, 40, 8, 1),
])
def test_assemble_local_is_the_searchsorted_formula_to_the_byte(
        kind, length_scale, n, j_sub, halo):
    # the sliced instance weights, the one gather per subdomain and the
    # strided penalty add change no byte of a_band, c, p_i or p_j
    inst, dec = make_instance(n=n, j_sub=j_sub, halo=halo, seed=8, kind=kind,
                              length_scale=length_scale)
    for i in range(j_sub):
        for scheme in (SCHEME_DDDA, SCHEME_MPS):
            sys = assemble_local(inst, dec, i, scheme)
            a_band, c, pairs = _searchsorted_local(inst, dec, i, scheme)
            assert sys.a_band.tobytes() == a_band.tobytes(), (i, scheme)
            assert sys.c.tobytes() == c.tobytes(), (i, scheme)
            assert [j for j, _, _ in sys.penalty_pairs] == [
                j for j, _, _ in pairs]
            for got, want in zip(sys.penalty_pairs, pairs):
                for p, q in zip(got[1:], want[1:]):
                    assert p.shape == q.shape
                    assert p.tobytes() == q.tobytes(), (i, got[0])

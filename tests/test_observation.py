import numpy as np
import pytest

from ddvar import (
    DimensionMismatch,
    Grid1D,
    IndexOutOfRange,
    InvalidArgument,
    ObsCovariance,
    ObservationSet,
    ProblemInstance,
    build_gaussian_covariance,
    cost_w,
    identity_covariance,
    point_observations,
    synthesize,
)


def test_innovation_hand_example():
    grid = Grid1D.uniform(3)
    obs = point_observations(grid, [0, 2], [2.0, 4.0], [0.01, 0.01])
    inst = ProblemInstance(
        grid=grid,
        cov=identity_covariance(grid),
        obs=obs,
        u_background=np.array([1.0, 2.0, 3.0]),
    )
    np.testing.assert_array_equal(inst.innovation, [1.0, 1.0])


def test_innovation_vanishes_for_perfect_background():
    grid = Grid1D.uniform(5)
    u_b = np.linspace(0.0, 1.0, 5)
    obs = point_observations(grid, [1, 3], u_b[[1, 3]], [1.0, 1.0])
    inst = ProblemInstance(
        grid=grid,
        cov=identity_covariance(grid),
        obs=obs,
        u_background=u_b,
    )
    np.testing.assert_array_equal(inst.innovation, [0.0, 0.0])


def test_innovation_empty_without_observations():
    grid = Grid1D.uniform(4)
    obs = point_observations(grid, [], [], [])
    inst = ProblemInstance(
        grid=grid,
        cov=identity_covariance(grid),
        obs=obs,
        u_background=np.zeros(4),
    )
    assert inst.innovation.shape == (0,)


def test_innovation_linear_in_values():
    grid = Grid1D.uniform(6)
    u_b = np.arange(6.0)
    obs_a = point_observations(grid, [0, 4], [1.0, 2.0], [1.0, 1.0])
    obs_b = point_observations(grid, [0, 4], [3.0, -1.0], [1.0, 1.0])
    obs_sum = point_observations(grid, [0, 4], [4.0, 1.0], [1.0, 1.0])
    d_a, d_b, d_sum = (
        ProblemInstance(grid, identity_covariance(grid), obs, u_b).innovation
        for obs in (obs_a, obs_b, obs_sum)
    )
    np.testing.assert_allclose(d_sum, d_a + d_b + u_b[[0, 4]], rtol=0, atol=0)


def test_synthesize_is_deterministic():
    grid = Grid1D.uniform(30)
    cov = build_gaussian_covariance(grid, 2.0, 1.0)
    a = synthesize(grid, cov, 6, 0.1, seed=11)
    b = synthesize(grid, cov, 6, 0.1, seed=11)
    assert a.u_truth.tobytes() == b.u_truth.tobytes()
    assert a.u_background.tobytes() == b.u_background.tobytes()
    assert a.obs.values.tobytes() == b.obs.values.tobytes()
    c = synthesize(grid, cov, 6, 0.1, seed=12)
    assert a.obs.values.tobytes() != c.obs.values.tobytes()


def test_synthesize_equispaced_indices():
    grid = Grid1D.uniform(50)
    cov = identity_covariance(grid)
    inst = synthesize(grid, cov, 10, 0.1, seed=0)
    np.testing.assert_array_equal(inst.obs.obs_indices, np.arange(0, 50, 5))
    inst = synthesize(grid, cov, 3, 0.1, seed=0)
    np.testing.assert_array_equal(inst.obs.obs_indices, [0, 16, 33])


def test_synthesize_draw_order_replay():
    # replay the generator stream by hand: z, then z', then eps
    grid = Grid1D.uniform(12)
    cov = build_gaussian_covariance(grid, 2.0, 1.0)
    inst = synthesize(grid, cov, 4, 0.3, seed=99)
    rng = np.random.Generator(np.random.PCG64(99))
    z = rng.standard_normal(12)
    z_prime = rng.standard_normal(12)
    eps = rng.standard_normal(4)
    # V z is taken on the band, which sums in another order than the
    # dense product: equal within rounding
    u_truth = cov.v_factor @ z
    np.testing.assert_allclose(inst.u_truth, u_truth, rtol=0, atol=1e-14)
    np.testing.assert_allclose(inst.u_background,
                               u_truth + cov.v_factor @ z_prime,
                               rtol=0, atol=1e-14)
    idx = inst.obs.obs_indices
    np.testing.assert_array_equal(inst.obs.values,
                                  inst.u_truth[idx] + 0.3 * eps)


def test_synthesize_noiseless_observations():
    grid = Grid1D.uniform(16)
    cov = build_gaussian_covariance(grid, 2.0, 1.0)
    inst = synthesize(grid, cov, 4, 0.0, seed=5)
    np.testing.assert_array_equal(inst.obs.values,
                                  inst.u_truth[inst.obs.obs_indices])
    np.testing.assert_array_equal(inst.obs.r_cov.r_diag, np.ones(4))


def test_synthesize_without_observations():
    grid = Grid1D.uniform(8)
    inst = synthesize(grid, identity_covariance(grid), 0, 0.1, seed=1)
    assert inst.obs.nobs == 0
    assert inst.obs.values.shape == (0,)


def test_observation_indices_and_counts_must_be_integers():
    # non-integral or bool indices are rejected, not floored or read as
    # 0 / 1; integer dtypes and an empty list (float64 to numpy) pass
    grid = Grid1D.uniform(8)
    for idx in ([1.5, 3.9], [1.0, 3.0], [True, False], np.array([0.0])):
        with pytest.raises(IndexOutOfRange, match="must be integers"):
            point_observations(grid, idx, np.zeros(len(idx)),
                               np.ones(len(idx)))
        with pytest.raises(IndexOutOfRange, match="must be integers"):
            ObservationSet(idx, np.zeros(len(idx)),
                           ObsCovariance(np.ones(len(idx))))
    for idx in (np.array([1, 3], np.uint8), np.array([1, 3], np.int32)):
        obs = point_observations(grid, idx, [0.0, 0.0], [1.0, 1.0])
        assert obs.obs_indices.dtype == np.intp
        np.testing.assert_array_equal(obs.obs_indices, [1, 3])
    assert point_observations(grid, [], [], []).nobs == 0
    # a float or bool nobs or seed fails with a typed error naming it
    cov = identity_covariance(grid)
    for nobs, seed, name in ((2.0, 0, "nobs"), (True, 0, "nobs"),
                             (2, 1.5, "seed"), (2, True, "seed")):
        with pytest.raises(InvalidArgument, match=f"{name} must be an "
                                                  "integer"):
            synthesize(grid, cov, nobs, 0.1, seed)
    a = synthesize(grid, cov, np.int64(2), 0.1, np.int64(3))
    b = synthesize(grid, cov, 2, 0.1, 3)
    assert a.obs.values.tobytes() == b.obs.values.tobytes()


def test_synthesize_rejects_bad_arguments():
    grid = Grid1D.uniform(8)
    cov = identity_covariance(grid)
    with pytest.raises(InvalidArgument):
        synthesize(grid, cov, 9, 0.1, seed=0)
    with pytest.raises(InvalidArgument):
        synthesize(grid, cov, -1, 0.1, seed=0)
    with pytest.raises(InvalidArgument, match="seed"):
        synthesize(grid, cov, 4, 0.1, seed=-1)
    for sigma_o in (-0.1, np.nan, np.inf, "0.1"):
        with pytest.raises(InvalidArgument, match="sigma_o"):
            synthesize(grid, cov, 4, sigma_o, seed=0)
    with pytest.raises(DimensionMismatch):
        synthesize(Grid1D.uniform(9), cov, 4, 0.1, seed=0)


def test_synthesize_rejects_tiny_sigma_o():
    # 0 < sigma_o <= sigma_b * 2^-26 loses the unit term of the normal
    # matrix to rounding; sigma_b reads as 1 for the identity covariance
    grid = Grid1D.uniform(20)
    for cov, sigma_b in ((build_gaussian_covariance(grid, 2.0, 1.0), 1.0),
                         (build_gaussian_covariance(grid, 2.0, 4.0), 4.0),
                         (identity_covariance(grid), 1.0)):
        floor = np.ldexp(sigma_b, -26)
        for sigma_o in (1e-152, 1e-9 * sigma_b, floor):
            with pytest.raises(InvalidArgument, match="sigma_o"):
                synthesize(grid, cov, 4, sigma_o, seed=0)
        for sigma_o in (0.0, np.nextafter(floor, 1.0)):
            inst = synthesize(grid, cov, 4, sigma_o, seed=0)
            assert inst.obs.nobs == 4
    # 1e-156 lies above the floor of sigma_b = 1e-150, but the reciprocal
    # of its square overflows
    cov = build_gaussian_covariance(grid, 2.0, 1e-150)
    with pytest.raises(InvalidArgument, match="sigma_o"):
        synthesize(grid, cov, 4, 1e-156, seed=0)


def test_observation_set_validation():
    grid = Grid1D.uniform(10)
    with pytest.raises(InvalidArgument):
        point_observations(grid, [3, 3], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(InvalidArgument):
        point_observations(grid, [5, 2], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        point_observations(grid, [1, 2], [0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        point_observations(grid, [1, 2], [0.0, 0.0], [1.0])
    for bad in ([-1, 4], [4, 10]):
        with pytest.raises(IndexOutOfRange):
            point_observations(grid, bad, [0.0, 0.0], [1.0, 1.0])
    # a non-finite value fails here, not later inside a solver
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgument, match="values"):
            point_observations(grid, [1, 2], [0.0, bad], [1.0, 1.0])


def test_problem_instance_validation():
    grid = Grid1D.uniform(5)
    obs = point_observations(grid, [0], [1.0], [1.0])
    cov = identity_covariance(grid)
    with pytest.raises(DimensionMismatch):
        ProblemInstance(grid, cov, obs, np.zeros(4))
    with pytest.raises(DimensionMismatch):
        ProblemInstance(grid, identity_covariance(Grid1D.uniform(6)), obs,
                        np.zeros(5))
    with pytest.raises(DimensionMismatch):
        ProblemInstance(grid, cov, obs, np.zeros(5), u_truth=np.zeros(7))
    # observations that lie outside the grid, built on a larger grid or
    # directly with a negative index
    wide = point_observations(Grid1D.uniform(8), [2, 6], [0.0, 0.0],
                              [1.0, 1.0])
    negative = ObservationSet(np.array([-1, 2]), np.zeros(2),
                              ObsCovariance(np.ones(2)))
    for outside in (wide, negative):
        with pytest.raises(DimensionMismatch):
            ProblemInstance(grid, cov, outside, np.zeros(5))
    for bad in (np.nan, np.inf, -np.inf):
        u = np.zeros(5)
        u[2] = bad
        with pytest.raises(InvalidArgument, match="u_background"):
            ProblemInstance(grid, cov, obs, u)
        with pytest.raises(InvalidArgument, match="u_truth"):
            ProblemInstance(grid, cov, obs, np.zeros(5), u_truth=u)


@pytest.mark.parametrize("n, kind, length_scale, rows", [
    (60, "gaussian", 2.0, [0, 1, 2, 5]),  # rows above the bandwidth (17)
    (30, "identity", None, [0, 7, 29]),
    (30, "gaussian", 1e4, [0, 3, 17, 29]),  # the band is full
    (30, "gaussian", 2.0, []),
])
def test_h_rows_are_the_observed_rows_of_v(n, kind, length_scale, rows):
    # gathered from the band: the dense rows to the bit, each row's columns
    # ascending and no stored zeros, so sparse products sum as a
    # canonical CSR of the same rows would
    grid = Grid1D.uniform(n)
    cov = (identity_covariance(grid) if kind == "identity"
           else build_gaussian_covariance(grid, length_scale, 1.0))
    obs = point_observations(grid, rows, np.ones(len(rows)),
                             np.ones(len(rows)))
    m = ProblemInstance(grid, cov, obs, np.zeros(n)).h_rows
    fresh = cov.v_factor[np.asarray(rows, dtype=int)]
    assert m.shape == (len(rows), n)
    assert m.toarray().tobytes() == fresh.tobytes()
    assert np.all(m.data != 0.0)
    for r in range(len(rows)):
        assert np.all(np.diff(m.indices[m.indptr[r]:m.indptr[r + 1]]) > 0)


def test_innovation_taken_once_and_read_only():
    grid = Grid1D.uniform(40)
    inst = synthesize(grid, build_gaussian_covariance(grid, 2.0, 1.0), 8,
                      0.1, seed=2)
    d = inst.innovation
    assert inst.innovation is d
    np.testing.assert_array_equal(
        d, inst.obs.values - inst.u_background[inst.obs.obs_indices])
    with pytest.raises(ValueError):
        d[0] = 0.0


def test_h_rows_taken_once_and_read_only():
    grid = Grid1D.uniform(40)
    inst = synthesize(grid, build_gaussian_covariance(grid, 2.0, 1.0), 8,
                      0.1, seed=2)
    m = inst.h_rows
    assert inst.h_rows is m
    fresh = inst.cov.v_factor[inst.obs.obs_indices]
    assert m.shape == (8, 40) and m.toarray().tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    for a in (m.data, m.indices, m.indptr):
        with pytest.raises(ValueError):
            a[0] = a[0]
    # the cost reads the held rows; the sparse product sums in another
    # order than a dense row copy, so the two agree to rounding
    w = np.linspace(-1.0, 1.0, 40)
    misfit = fresh @ w - inst.innovation
    r_inv = 1.0 / inst.obs.r_cov.r_diag
    expected = 0.5 * float(w @ w) + 0.5 * float(misfit @ (r_inv * misfit))
    assert abs(cost_w(inst, w) - expected) <= 1e-14 * abs(expected)

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ddvar
from ddvar import (
    CovarianceModel,
    DimensionMismatch,
    FactorizationFailure,
    Grid1D,
    IndexOutOfRange,
    InvalidArgument,
    NoInterface,
    ObsCovariance,
    build_gaussian_covariance,
    decompose_uniform,
    factor_check,
    identity_covariance,
)
from ddvar.covariance import (_band_cholesky, _band_rows, _past_last_row,
                              _reach_rows, v_rows_sparse, v_times)

from conftest import block_times, dense, interface_pair, lower_band

JITTER = 1e-10


def _nonuniform_grid(n=300, seed=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Grid1D(np.cumsum(rng.uniform(0.2, 2.0, n)))


def _kernel_bandwidth(b):
    # the last sub-diagonal holding an entry above 2^-53 * max diag(b),
    # found by scanning every sub-diagonal
    threshold = math.ldexp(float(np.max(np.diagonal(b))), -53)
    return max((k for k in range(1, b.shape[0])
                if np.any(np.abs(np.diagonal(b, -k)) > threshold)),
               default=0)


def test_gaussian_entries_match_formula():
    model = build_gaussian_covariance(Grid1D.uniform(2), 1.0, 1.0)
    expected = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
    expected += JITTER * np.eye(2)
    np.testing.assert_allclose(dense(model.b_band), expected, rtol=0,
                               atol=1e-15)


def test_tiny_length_scale_decorrelates():
    model = build_gaussian_covariance(Grid1D.uniform(3), 1e-3, 1.0)
    b = dense(model.b_band)
    assert np.max(np.abs(b[~np.eye(3, dtype=bool)])) < 1e-100
    np.testing.assert_allclose(np.diag(b), 1.0 + JITTER)


def test_identity_model():
    model = identity_covariance(Grid1D.uniform(7))
    np.testing.assert_array_equal(model.b_band, np.ones((1, 7)))
    np.testing.assert_array_equal(model.v_band, np.ones((1, 7)))
    assert factor_check(model) == 0.0


@pytest.mark.parametrize("length_scale", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("n", [20, 41])
def test_factor_residual_small(n, length_scale):
    model = build_gaussian_covariance(Grid1D.uniform(n), length_scale, 0.5)
    assert factor_check(model) <= 1e-12


def _corrupted(model):
    v_bad = model.v_band.copy()
    v_bad[3, 2] += 1e-3  # V[5, 2]
    return CovarianceModel(b_band=model.b_band, v_band=v_bad)


def test_factor_check_detects_corruption():
    model = build_gaussian_covariance(Grid1D.uniform(10), 2.0, 1.0)
    assert factor_check(_corrupted(model)) > 1e-6


def _taller_v():
    # B = I against a V of two sub-diagonals, entries exact in binary so
    # that every sum is exact
    v = np.random.default_rng(2).integers(-3, 4, (3, 8)).astype(float)
    v[1, 7:] = v[2, 6:] = 0.0
    return CovarianceModel(b_band=np.ones((1, 8)), v_band=v)


def _tail_in_b():
    # the Gaussian b_band with nonzero entries past the last row
    model = build_gaussian_covariance(Grid1D.uniform(12), 2.0, 1.0)
    b = model.b_band.copy()
    for k in range(1, b.shape[0]):
        b[k, 12 - k:] = 7.0 + k
    return CovarianceModel(b_band=b, v_band=model.v_band)


@pytest.mark.parametrize("build", [
    # the grids of test_factor_residual_small and of acceptance 06
    *(lambda n=n, s=s, b=b: build_gaussian_covariance(Grid1D.uniform(n), s, b)
      for n, b in ((20, 0.5), (41, 0.5), (20, 1.0), (40, 1.0))
      for s in (0.5, 2.0, 5.0)),
    lambda: build_gaussian_covariance(Grid1D.uniform(200), 0.5, 1.0),
    lambda: build_gaussian_covariance(Grid1D.uniform(300), 2.0, 1.0),
    lambda: build_gaussian_covariance(Grid1D.uniform(300), 8.0, 1.0),
    lambda: build_gaussian_covariance(Grid1D.uniform(300), 2.0, 2.0),
    lambda: build_gaussian_covariance(_nonuniform_grid(), 2.0, 1.0),
    lambda: build_gaussian_covariance(Grid1D.uniform(200), 1e4, 1.0),
    lambda: identity_covariance(Grid1D.uniform(7)),
    lambda: _corrupted(build_gaussian_covariance(Grid1D.uniform(10), 2.0,
                                                 1.0)),
    _taller_v,
    _tail_in_b,
])
def test_factor_check_matches_the_dense_oracle(build):
    # the banded residual against max |B - V V^T| of the dense matrices
    model = build()
    v = dense(model.v_band, symmetric=False)
    oracle = float(np.max(np.abs(dense(model.b_band) - v @ v.T)))
    assert (abs(factor_check(model) - oracle)
            <= 2.0**-50 * np.max(model.b_band[0]))


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 3), (5, 2), (18, 55),
                                   (18, 258), (18, 4000)])
def test_past_last_row_is_the_mask_of_the_outer_sum(shape):
    # band[d, j] lies past the last row when d + j >= n; the mask is built
    # on the last columns only, and a band taller than n is all of them
    rows, n = shape
    expected = np.add.outer(np.arange(rows), np.arange(n)) >= n
    mask = _past_last_row(shape)
    assert mask.dtype == bool and np.array_equal(mask, expected)


def test_gaussian_rejects_bad_parameters():
    grid = Grid1D.uniform(4)
    # non-finite values, and values whose square over- or underflows,
    # are named instead of failing later in the symmetry check or as a
    # bare OverflowError
    # or whose reciprocal square overflows, or that are no number
    for bad in (0.0, np.nan, np.inf, 1e-300, 1e200, 1e-160, "2"):
        with pytest.raises(InvalidArgument, match="length_scale"):
            build_gaussian_covariance(grid, bad, 1.0)
    for bad in (-1.0, np.nan, np.inf, 1e-300, 1e200, 1e-160, "1"):
        with pytest.raises(InvalidArgument, match="sigma_b"):
            build_gaussian_covariance(grid, 2.0, bad)


@pytest.mark.parametrize("bad", ["x", -1.0, np.nan, 0.0, 1e-160])
def test_model_checks_sigma_b_as_the_builder_does(bad):
    # sigma_b sets synthesize's floor on sigma_o, so a hand-built model
    # is held to the builder's rule and fails with its message
    grid = Grid1D.uniform(4)
    with pytest.raises(InvalidArgument) as built:
        build_gaussian_covariance(grid, 2.0, bad)
    ones = np.ones((1, 4))
    with pytest.raises(InvalidArgument) as stored:
        CovarianceModel(b_band=ones, v_band=ones, sigma_b=bad)
    assert str(stored.value) == str(built.value)


def test_model_stores_sigma_b_as_a_float():
    ones = np.ones((1, 4))
    model = CovarianceModel(b_band=ones, v_band=ones, sigma_b=np.float32(0.5))
    assert type(model.sigma_b) is float and model.sigma_b == 0.5
    assert CovarianceModel(b_band=ones, v_band=ones).sigma_b is None


def test_sigma_b_scales_the_kernel():
    model = build_gaussian_covariance(Grid1D.uniform(3), 2.0, 0.3)
    base = build_gaussian_covariance(Grid1D.uniform(3), 2.0, 1.0)
    np.testing.assert_allclose(model.b_band, 0.09 * base.b_band, rtol=1e-14)


def test_restricted_covariance_psd():
    model = build_gaussian_covariance(Grid1D.uniform(15), 3.0, 1.0)
    idx = np.array([0, 3, 4, 9, 14])
    block = dense(model.b_band)[np.ix_(idx, idx)]
    np.testing.assert_array_equal(block, block.T)
    assert np.min(np.linalg.eigvalsh(block)) >= -1e-10


def test_interface_coupling_identity_factor():
    grid = Grid1D.uniform(10)
    model = identity_covariance(grid)
    dec = decompose_uniform(grid, 2, 1)
    p_0, p_1 = interface_pair(model, dec, 0, 1)
    # the interface point is global index 5: last of subdomain 0,
    # second of subdomain 1
    expected_0 = np.zeros((1, 6))
    expected_0[0, 5] = 1.0
    expected_1 = np.zeros((1, 6))
    expected_1[0, 1] = 1.0
    np.testing.assert_array_equal(p_0, expected_0)
    np.testing.assert_array_equal(p_1, expected_1)


def test_interface_coupling_gaussian_rows():
    grid = Grid1D.uniform(10)
    model = build_gaussian_covariance(grid, 2.0, 1.0)
    dec = decompose_uniform(grid, 2, 1)
    p_0, p_1 = interface_pair(model, dec, 0, 1)
    v = dense(model.v_band, symmetric=False)
    np.testing.assert_array_equal(p_0, v[[5], 0:6])
    np.testing.assert_array_equal(p_1, v[[5], 4:10])
    # three subdomains with halo 2, both directions of every interface,
    # against index-array selection
    grid = Grid1D.uniform(24)
    model = build_gaussian_covariance(grid, 2.0, 1.0)
    v = dense(model.v_band, symmetric=False)
    dec = decompose_uniform(grid, 3, 2)
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
        p_i, p_j = interface_pair(model, dec, i, j)
        gamma = dec.interface(i, j)
        assert gamma.size == 2
        assert p_i.tobytes() == v[gamma, dec.span(i)].tobytes()
        assert p_j.tobytes() == v[gamma, dec.span(j)].tobytes()


def test_interface_coupling_requires_adjacency():
    grid = Grid1D.uniform(24)
    model = build_gaussian_covariance(grid, 2.0, 1.0)
    dec = decompose_uniform(grid, 3, 2)
    with pytest.raises(NoInterface):
        interface_pair(model, dec, 0, 2)


def test_penalty_gram_is_psd_with_bounded_rank():
    grid = Grid1D.uniform(20)
    model = build_gaussian_covariance(grid, 2.0, 1.0)
    dec = decompose_uniform(grid, 2, 2)
    p_0, _ = interface_pair(model, dec, 0, 1)
    gram = p_0.T @ p_0
    np.testing.assert_allclose(gram, gram.T, atol=0)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-10
    assert np.linalg.matrix_rank(gram) <= dec.interface(0, 1).size


def test_penalty_gram_identity_eigenvalues():
    grid = Grid1D.uniform(20)
    model = identity_covariance(grid)
    dec = decompose_uniform(grid, 2, 2)
    p_0, _ = interface_pair(model, dec, 0, 1)
    eigs = np.sort(np.linalg.eigvalsh(p_0.T @ p_0))
    t = dec.interface(0, 1).size
    np.testing.assert_allclose(eigs[-t:], 1.0, atol=1e-12)
    np.testing.assert_allclose(eigs[:-t], 0.0, atol=1e-12)


def test_obs_covariance_requires_positive_variances():
    ObsCovariance(np.array([0.1, 2.0]))
    ObsCovariance(np.array([]))
    with pytest.raises(InvalidArgument):
        ObsCovariance(np.array([0.1, 0.0]))
    with pytest.raises(InvalidArgument):
        ObsCovariance(np.array([-1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(InvalidArgument,
                           match=f"variance {bad} at position 1 is not finite"):
            ObsCovariance(np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["b_band", "v_band"])
def test_model_rejects_non_finite_entries(name, bad):
    model = build_gaussian_covariance(Grid1D.uniform(6), 2.0, 1.0)
    arrays = {"b_band": model.b_band.copy(), "v_band": model.v_band.copy()}
    arrays[name][0, 2] = bad
    with pytest.raises(InvalidArgument, match=f"{name} has a non-finite "
                                              "entry"):
        CovarianceModel(**arrays)


def test_model_arrays_are_read_only():
    grid = Grid1D.uniform(6)
    for model in (build_gaussian_covariance(grid, 2.0, 1.0),
                  identity_covariance(grid)):
        for a in (model.b_band, model.v_band):
            with pytest.raises(ValueError):
                a[0, 0] = 5.0
    # the caller's arrays stay writable; the model holds read-only views
    band = np.ones((1, 3))
    model = CovarianceModel(b_band=band, v_band=band)
    band[0, 1] = 2.0
    assert not model.b_band.flags.writeable and band.flags.writeable


@pytest.mark.parametrize("length_scale, bw", [
    (0.5, 4), (2.0, 17), (8.0, 68),
    (1e4, 199),  # the length scale spans the grid: the band is full
])
def test_factor_is_exactly_banded(length_scale, bw):
    grid = Grid1D.uniform(200)
    model = build_gaussian_covariance(grid, length_scale, 1.0)
    # bw is the bandwidth of the dense kernel, computed apart from the
    # build, and both stored bands hold exactly its bw + 1 diagonals
    kernel = _dense_kernel(grid.coords, length_scale, 1.0)
    assert _kernel_bandwidth(kernel) == bw
    assert model.b_band.shape[0] == model.v_band.shape[0] == bw + 1
    # the last sub-diagonal of V holds no zero
    assert model.v_band[bw, :200 - bw].all()


@pytest.mark.parametrize("grid, length_scale, sigma_b", [
    (Grid1D.uniform(200), 0.5, 1.0),
    (Grid1D.uniform(300), 2.0, 1.0),
    (Grid1D.uniform(300), 8.0, 1.0),
    (Grid1D.uniform(300), 2.0, 2.0),
    (_nonuniform_grid(), 2.0, 1.0),
    (Grid1D.uniform(200), 1e4, 1.0),
])
def test_band_factor_residual(grid, length_scale, sigma_b):
    model = build_gaussian_covariance(grid, length_scale, sigma_b)
    assert factor_check(model) <= 1e-14 * sigma_b**2


@pytest.mark.parametrize("grid, length_scale, tol", [
    (Grid1D.uniform(300), 2.0, 1e-9),
    (Grid1D.uniform(300), 8.0, 1e-5),
    (_nonuniform_grid(), 2.0, 1e-5),
])
def test_band_factor_matches_dense_cholesky(grid, length_scale, tol):
    model = build_gaussian_covariance(grid, length_scale, 1.0)
    cholesky = np.linalg.cholesky(dense(model.b_band))
    assert (np.max(np.abs(dense(model.v_band, symmetric=False) - cholesky))
            <= tol)


def test_band_factor_rejects_indefinite_matrix():
    band = build_gaussian_covariance(Grid1D.uniform(50), 8.0, 1.0).b_band
    shifted = band.copy()
    shifted[0] -= 1e-3
    with pytest.raises(FactorizationFailure,
                       match="shifted kernel is not numerically SPD"):
        _band_cholesky(shifted, "shifted kernel")
    with pytest.raises(FactorizationFailure):
        _band_cholesky(np.array([[1.0, 1.0], [-2.0, 0.0]]), "2 x 2")


def _dense_kernel(x, length_scale, sigma_b):
    # the dense Gaussian kernel with its jitter, computed independently
    # of the band build
    b = sigma_b**2 * np.exp(-((x[:, None] - x[None, :])**2)
                            / (2.0 * length_scale**2))
    b[np.diag_indices_from(b)] += JITTER * sigma_b**2
    return b


# a unit grid of 2000 points and one more 1e-9 past its middle point: a
# band sized by the smallest spacing would hold about n^2 entries
CLOSE_POINTS = Grid1D(np.insert(np.arange(2000.0), 1001, 1000 + 1e-9))
# 300 points 0.1 apart and one far out: the reach over the mean spacing
# (about 33) is short of the 172 rows the band needs, so it has to grow
CLUSTERED = Grid1D(np.append(0.1 * np.arange(300), 1e4))


@pytest.mark.parametrize("grid, length_scale", [
    (Grid1D.uniform(200), 0.5),
    (Grid1D.uniform(300), 2.0),
    (Grid1D.uniform(300), 8.0),
    (Grid1D.uniform(200), 1e4),
    (_nonuniform_grid(), 2.0),
    (CLOSE_POINTS, 2.0),
    (CLUSTERED, 2.0),
])
def test_band_is_the_dense_kernel_diagonals(grid, length_scale):
    tracemalloc.start()
    try:
        model = build_gaussian_covariance(grid, length_scale, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kernel = _dense_kernel(grid.coords, length_scale, 1.5)
    band, n = model.b_band, grid.n_points
    # the band holds its own rows, not a view into a larger buffer
    assert band.base is None or band.base.nbytes == band.nbytes
    if grid is CLOSE_POINTS:
        assert peak < 3 * (band.nbytes + model.v_band.nbytes)
    if grid is CLUSTERED:
        spacing = (grid.coords[-1] - grid.coords[0]) / (n - 1)
        assert _reach_rows(n, length_scale, spacing) < band.shape[0]
    for k in range(band.shape[0]):
        assert band[k, :n - k].tobytes() == np.diagonal(kernel, -k).tobytes()
        assert not band[k, n - k:].any()
    # the kernel beyond the band is below the unit roundoff of the diagonal
    beyond = np.tril(kernel, -band.shape[0])
    assert np.max(np.abs(beyond)) <= math.ldexp(np.max(np.diag(kernel)), -53)


def test_dense_oracle_is_the_matrix_of_the_band():
    # conftest.dense, the tests' dense form of every band, against its
    # inverse lower_band: the band's diagonals in place, the symmetric
    # form its mirror, the entries past the last row ignored
    grid = Grid1D.uniform(30)
    for model in (build_gaussian_covariance(grid, 2.0, 1.0),
                  identity_covariance(grid)):
        for band, symmetric in ((model.b_band, True), (model.v_band, False)):
            a, k = dense(band, symmetric), band.shape[0] - 1
            np.testing.assert_array_equal(a, a.T if symmetric else np.tril(a))
            assert lower_band(a, k).tobytes() == band.tobytes()
            assert not np.tril(a, -k - 1).any()
    tail = np.ones((2, 3))
    np.testing.assert_array_equal(dense(tail), [[1, 1, 0], [1, 1, 1],
                                                [0, 1, 1]])


def test_model_rejects_bad_band_shapes():
    ones = np.ones((1, 4))
    for bad in (np.ones(4), np.ones((5, 4)), np.ones((0, 4)),
                np.ones((1, 1, 4))):
        with pytest.raises(DimensionMismatch, match="b_band has shape"):
            CovarianceModel(b_band=bad, v_band=ones)
        with pytest.raises(DimensionMismatch, match="v_band has shape"):
            CovarianceModel(b_band=ones, v_band=bad)
    with pytest.raises(DimensionMismatch, match="v_band has shape"):
        CovarianceModel(b_band=ones, v_band=np.ones((1, 5)))


@pytest.mark.parametrize("grid, length_scale", [
    (Grid1D.uniform(120), 0.5),
    (Grid1D.uniform(120), 2.0),
    (Grid1D.uniform(120), 8.0),
    (Grid1D.uniform(120), 1e4),  # the band is full: every span is narrower
    (_nonuniform_grid(), 2.0),
    (Grid1D.uniform(120), None),  # identity
])
def test_band_reads_match_the_dense_factor(grid, length_scale):
    # every row of the grid, then seven random rows per subdomain of the
    # whole grid, six spans and 24 spans of 5 to 7 points (all but the 0.5
    # kernel's narrower than bw + 1), first and last included, with the
    # products on each block and its interface pairs
    model = (identity_covariance(grid) if length_scale is None
             else build_gaussian_covariance(grid, length_scale, 1.0))
    v = dense(model.v_band, symmetric=False)
    n = grid.n_points
    rng = np.random.default_rng(5)

    def placed(rows):
        # the gathered rows placed at their columns of an n-column matrix;
        # the zeros left of the grid wrap into the dropped tail
        cols, vals = _band_rows(model, rows)
        assert not vals[cols < 0].any()
        out = np.zeros((rows.size, n + cols.shape[1]))
        np.put_along_axis(out, cols % out.shape[1], vals, axis=1)
        return out[:, :n]

    assert placed(np.arange(n)).tobytes() == v.tobytes()
    w = rng.standard_normal(n)
    assert (np.linalg.norm(v_times(model, w) - v @ w)
            <= 1e-15 * np.linalg.norm(v, 2) * np.linalg.norm(w))
    for j_sub, halo in ((1, 0), (6, 2), (24, 1)):
        dec = decompose_uniform(grid, j_sub, halo)
        for i in range(j_sub):
            span = dec.span(i)
            rows = np.sort(rng.choice(n, 7, replace=False))
            assert placed(rows).tobytes() == v[rows].tobytes()
            block = v[span, span]
            w = rng.standard_normal(span.stop - span.start)
            assert (np.linalg.norm(block_times(model, w, span) - block @ w)
                    <= 1e-15 * np.linalg.norm(block, 2) * np.linalg.norm(w))
            for k in dec.neighbors(i):
                p_i, p_k = interface_pair(model, dec, i, k)
                gamma = dec.interface(i, k)
                assert p_i.tobytes() == v[gamma, span].tobytes()
                assert p_k.tobytes() == v[gamma, dec.span(k)].tobytes()


def test_v_rows_sparse_rejects_rows_outside_the_grid():
    model = build_gaussian_covariance(Grid1D.uniform(6), 2.0, 1.0)
    for rows in ([6], [-1], [0, 2, 6]):
        with pytest.raises(IndexOutOfRange,
                           match=r"rows must lie in 0\.\.5"):
            v_rows_sparse(model, rows)
    assert v_rows_sparse(model, [0, 5]).shape == (2, 6)


def test_only_covariance_knows_the_band_layout():
    # every other module reads B and V through covariance's functions
    for path in sorted(Path(ddvar.__file__).parent.glob("*.py")):
        if path.name != "covariance.py":
            text = path.read_text()
            assert "v_band" not in text and "b_band" not in text, path.name

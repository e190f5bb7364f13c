import dataclasses

import numpy as np
import pytest

from ddvar import (
    Decomposition,
    DimensionMismatch,
    Grid1D,
    IndexOutOfRange,
    InvalidArgument,
    InvalidDecomposition,
    NoInterface,
    decompose_uniform,
    point_observations,
)


def _overlap(dec, i, j):
    return np.intersect1d(np.arange(*dec.subdomains[i]),
                          np.arange(*dec.subdomains[j]))


def test_uniform_grid_coords():
    grid = Grid1D.uniform(5)
    assert grid.n_points == 5
    np.testing.assert_array_equal(grid.coords, [0.0, 1.0, 2.0, 3.0, 4.0])
    # the coordinates are the grid's one field; n_points is their count
    assert [f.name for f in dataclasses.fields(Grid1D)] == ["coords"]
    assert Grid1D(0.5 * np.arange(3)).n_points == 3
    with pytest.raises(AttributeError):
        grid.n_points = 4


def test_grid_rejects_bad_inputs():
    one_or_more = "coords must be one or more strictly increasing values"
    with pytest.raises(InvalidArgument, match=one_or_more):
        Grid1D(np.array([]))
    with pytest.raises(DimensionMismatch, match="coords"):
        Grid1D(np.zeros((2, 2)))
    # neighbours are compared, not subtracted, so a gap past the largest
    # float raises no overflow (test_covariance builds on such a grid)
    for coords in ([0.0, 2.0, 1.0], [-1e308, 1e308, 1e308]):
        with pytest.raises(InvalidArgument, match=one_or_more):
            Grid1D(np.array(coords))
    for coords in ([np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(InvalidArgument, match="coords"):
            Grid1D(coords)
    # a ragged nesting, which numpy refuses, is an InvalidArgument too
    with pytest.raises(InvalidArgument, match="coords must be real numbers"):
        Grid1D([[0.0, 1.0], [2.0]])
    # no bare TypeError from np.arange
    with pytest.raises(InvalidArgument, match="n_points"):
        Grid1D.uniform("5")


def test_grids_and_decompositions_compare_by_value():
    grid = Grid1D.uniform(40)
    dec = decompose_uniform(grid, 2, 2)
    same = decompose_uniform(Grid1D.uniform(40), 2, 2)
    assert grid == Grid1D.uniform(40) and hash(grid) == hash(Grid1D.uniform(40))
    assert dec == same and hash(dec) == hash(same)
    assert len({dec, same, Decomposition(grid, 2, 2)}) == 1
    assert dec != decompose_uniform(grid, 2, 1)
    assert dec != decompose_uniform(grid, 4, 2)
    assert dec != decompose_uniform(Grid1D(2.0 * np.arange(40)), 2, 2)
    assert grid != Grid1D.uniform(41) and grid != "grid"
    assert Grid1D([-0.0, 1.0]) == Grid1D([0.0, 1.0])
    assert hash(Grid1D([-0.0, 1.0])) == hash(Grid1D([0.0, 1.0]))


def test_single_subdomain_covers_everything():
    dec = decompose_uniform(Grid1D.uniform(10), 1, 0)
    assert dec.subdomains == ((0, 10),)
    assert dec.neighbors(0) == ()
    with pytest.raises(NoInterface):
        dec.interface(0, 0)
    assert dec.span(0) == slice(0, 10)


def test_two_subdomain_split_with_unit_halo():
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    assert dec.subdomains == ((0, 6), (4, 10))
    np.testing.assert_array_equal(_overlap(dec, 0, 1), [4, 5])
    np.testing.assert_array_equal(dec.interface(0, 1), [5])
    np.testing.assert_array_equal(dec.interface(1, 0), [4])
    assert (dec.span(0), dec.span(1)) == (slice(0, 6), slice(4, 10))


def test_three_subdomain_split():
    dec = decompose_uniform(Grid1D.uniform(9), 3, 1)
    assert dec.subdomains == ((0, 4), (2, 7), (5, 9))
    np.testing.assert_array_equal(_overlap(dec, 0, 1), [2, 3])
    np.testing.assert_array_equal(_overlap(dec, 1, 2), [5, 6])
    assert _overlap(dec, 0, 2).size == 0
    with pytest.raises(NoInterface):
        dec.interface(0, 2)
    assert dec.neighbors(1) == (0, 2)


def test_balanced_blocks_absorb_remainder():
    # 11 points over 3 blocks: base 3 with the first two blocks one larger
    dec = decompose_uniform(Grid1D.uniform(11), 3, 1)
    assert dec.subdomains == ((0, 5), (3, 9), (7, 11))


def test_interface_is_outermost_halo_points():
    dec = decompose_uniform(Grid1D.uniform(12), 2, 2)
    assert dec.subdomains == ((0, 8), (4, 12))
    np.testing.assert_array_equal(dec.interface(0, 1), [6, 7])
    np.testing.assert_array_equal(dec.interface(1, 0), [4, 5])


def test_decomposition_rejections():
    grid = Grid1D.uniform(10)
    # decompose_uniform is a second name of the class; floor(10/3) = 3
    # cannot carry halo 2
    assert decompose_uniform is Decomposition
    for j_sub, halo, match in ((0, 1, "j_sub must be >= 1"),
                               (11, 0, "j_sub 11 exceeds the grid's"),
                               (1, -1, "halo must be >= 0"),
                               (3, 2, "halo 2 too large")):
        with pytest.raises(InvalidDecomposition, match=match):
            Decomposition(grid, j_sub, halo)


def test_counts_and_ids_must_be_integers():
    # a float or a bool count, size or id is rejected by name with the
    # module's typed error, not floored, taken as 0 / 1 or left to fail
    # deeper with a bare TypeError; numpy integers pass
    grid = Grid1D.uniform(10)
    for j_sub, halo, name in ((2, 1.5, "halo"), (2.0, 1, "j_sub"),
                              (True, 0, "j_sub"), (2, False, "halo")):
        with pytest.raises(InvalidDecomposition, match=f"{name} must be an "
                                                       "integer"):
            Decomposition(grid, j_sub, halo)
    dec = Decomposition(grid, np.int64(2), np.int32(1))
    assert dec.subdomains == ((0, 6), (4, 10))
    for i in (1.0, True, np.float64(0.0)):
        for read in (dec.span, dec.neighbors):
            with pytest.raises(IndexOutOfRange, match="subdomain id"):
                read(i)
        with pytest.raises(IndexOutOfRange, match="subdomain id"):
            dec.interface(0, i)
    assert dec.span(np.int64(1)) == slice(4, 10)
    for n in (10.0, True, np.float64(3)):
        with pytest.raises(InvalidArgument, match="n_points must be an "
                                                  "integer"):
            Grid1D.uniform(n)
    assert Grid1D.uniform(np.int64(3)) == Grid1D.uniform(3)


@pytest.mark.parametrize("n,j,h", [
    (10, 1, 0), (10, 2, 1), (9, 3, 1), (12, 2, 2), (40, 3, 2), (17, 2, 2),
])
def test_union_covers_grid_exactly(n, j, h):
    dec = decompose_uniform(Grid1D.uniform(n), j, h)
    covered = np.zeros(n, dtype=bool)
    for i in range(j):
        covered[dec.span(i)] = True
    assert covered.all()
    # the owned ranges, the points each subdomain owns in the stacked
    # layout, are the base blocks: they tile the grid in order, each inside
    # its span and cut by the halo on every side with a neighbor
    _, ends, owners = dec._stacked
    owner = np.searchsorted(ends, owners, side="right")
    owned = [slice(int(p[0]), int(p[-1]) + 1)
             for p in (np.flatnonzero(owner == i) for i in range(j))]
    assert owned[0].start == 0 and owned[-1].stop == n
    np.testing.assert_array_equal(
        np.concatenate([np.arange(n)[o] for o in owned]), np.arange(n)
    )
    base, extra = divmod(n, j)
    for i, o in enumerate(owned):
        assert o.stop - o.start == base + (i < extra)
        if i > 0:
            assert o.start == owned[i - 1].stop == dec.span(i).start + h
        if i < j - 1:
            assert o.stop == dec.span(i).stop - h


@pytest.mark.parametrize("n,j,h", [(10, 2, 1), (9, 3, 1), (40, 3, 2)])
def test_interface_nesting_and_disjointness(n, j, h):
    dec = decompose_uniform(Grid1D.uniform(n), j, h)
    pairs = [(i, k) for i in range(j) for k in dec.neighbors(i)]
    assert pairs == [(i, k) for i in range(j) for k in (i - 1, i + 1)
                     if 0 <= k < j]
    for i, k in pairs:
        gamma = dec.interface(i, k)
        assert gamma.dtype == np.intp and gamma.size == h
        assert np.all(np.diff(gamma) == 1)
        overlap = set(_overlap(dec, i, k).tolist())
        sub_i = set(range(*dec.subdomains[i]))
        g = set(gamma.tolist())
        assert g <= overlap <= sub_i
        assert not g & set(dec.interface(k, i).tolist())
        assert len(g) <= len(overlap)


def test_subdomain_restriction_examples():
    dec = decompose_uniform(Grid1D.uniform(5), 1, 0)
    np.testing.assert_array_equal(np.arange(5)[dec.span(0)], np.arange(5))
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    np.testing.assert_array_equal(np.arange(10)[dec.span(0)], np.arange(6))
    np.testing.assert_array_equal(np.arange(10)[dec.span(1)],
                                  np.arange(4, 10))
    # a negative id must not wrap around to the last subdomain
    for bad in (2, -1):
        with pytest.raises(IndexOutOfRange):
            dec.span(bad)
        with pytest.raises(IndexOutOfRange):
            dec.neighbors(bad)
        with pytest.raises(IndexOutOfRange):
            dec.interface(0, bad)
        with pytest.raises(IndexOutOfRange):
            dec.interface(bad, 0)


def test_interface_restriction_examples():
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    np.testing.assert_array_equal(dec.interface(0, 1), [5])
    np.testing.assert_array_equal(dec.interface(1, 0), [4])
    assert dec.interface(0, 1).dtype == np.intp


def test_restrict_vector_examples():
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    u = np.arange(10.0) ** 2
    np.testing.assert_array_equal(u[dec.span(0)], u[:6])
    np.testing.assert_array_equal(u[dec.span(1)], [16.0, 25, 36, 49, 64, 81])
    # a span restricts by view: nothing is copied
    assert np.shares_memory(u[dec.span(1)], u)


def test_restrict_matrix_identity_cases():
    # the single subdomain restricts a matrix to itself
    m = np.arange(25.0).reshape(5, 5)
    span = decompose_uniform(Grid1D.uniform(5), 1, 0).span(0)
    np.testing.assert_array_equal(m[span, span], m)
    assert np.shares_memory(m[span, span], m)


def test_selection_rejects_bad_indices():
    grid = Grid1D.uniform(4)
    with pytest.raises(IndexOutOfRange):
        point_observations(grid, [0, 4], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(InvalidArgument):
        point_observations(grid, [1, 1], [0.0, 0.0], [1.0, 1.0])
    dec = decompose_uniform(grid, 2, 0)
    for bad in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            dec.span(bad)


def test_restrict_matrix_block_indexing():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((10, 10))
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    block = m[dec.span(0), dec.span(1)]
    assert block.shape == (6, 6)
    for a in range(6):
        for b in range(6):
            assert block[a, b] == m[a, b + 4]
    np.testing.assert_array_equal(
        block, m[np.ix_(np.arange(*dec.subdomains[0]),
                        np.arange(*dec.subdomains[1]))]
    )


def test_symmetric_restriction_stays_symmetric():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((12, 12))
    s = s + s.T
    dec = decompose_uniform(Grid1D.uniform(12), 3, 1)
    for i in range(dec.j_sub):
        block = s[dec.span(i), dec.span(i)]
        np.testing.assert_array_equal(block, block.T)

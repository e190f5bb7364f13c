import numpy as np
import pytest

from ddvar import (
    DimensionMismatch,
    Grid1D,
    IndexOutOfRange,
    InvalidArgument,
    InvalidDecomposition,
    NoInterface,
    SelectionMap,
    decompose_uniform,
    interface_restriction,
    restrict_matrix,
    subdomain_restriction,
)


def test_uniform_grid_coords():
    grid = Grid1D.uniform(5)
    assert grid.n_points == 5
    np.testing.assert_array_equal(grid.coords, [0.0, 1.0, 2.0, 3.0, 4.0])
    grid = Grid1D.uniform(3, spacing=0.5)
    np.testing.assert_array_equal(grid.coords, [0.0, 0.5, 1.0])


def test_grid_rejects_bad_inputs():
    with pytest.raises(InvalidArgument):
        Grid1D(0, np.array([]))
    with pytest.raises(DimensionMismatch):
        Grid1D(3, np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgument):
        Grid1D(3, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(InvalidArgument):
        Grid1D.uniform(4, spacing=0.0)


def test_single_subdomain_covers_everything():
    dec = decompose_uniform(Grid1D.uniform(10), 1, 0)
    assert dec.subdomains == ((0, 10),)
    assert dec.overlaps == {}
    assert dec.interfaces == {}
    assert dec.neighbors(0) == ()
    assert dec.sizes == (10,)


def test_two_subdomain_split_with_unit_halo():
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    assert dec.subdomains == ((0, 6), (4, 10))
    np.testing.assert_array_equal(dec.overlap(0, 1), [4, 5])
    np.testing.assert_array_equal(dec.overlap(1, 0), [4, 5])
    np.testing.assert_array_equal(dec.interface(0, 1), [5])
    np.testing.assert_array_equal(dec.interface(1, 0), [4])
    assert dec.sizes == (6, 6)


def test_three_subdomain_split():
    dec = decompose_uniform(Grid1D.uniform(9), 3, 1)
    assert dec.subdomains == ((0, 4), (2, 7), (5, 9))
    np.testing.assert_array_equal(dec.overlap(0, 1), [2, 3])
    np.testing.assert_array_equal(dec.overlap(1, 2), [5, 6])
    assert dec.overlap(0, 2).size == 0
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
    with pytest.raises(InvalidDecomposition):
        decompose_uniform(grid, 0, 1)
    with pytest.raises(InvalidDecomposition):
        decompose_uniform(grid, 11, 0)
    with pytest.raises(InvalidDecomposition):
        decompose_uniform(grid, 1, -1)
    # floor(10/3) = 3 cannot carry halo 2
    with pytest.raises(InvalidDecomposition):
        decompose_uniform(grid, 3, 2)


@pytest.mark.parametrize("n,j,h", [
    (10, 1, 0), (10, 2, 1), (9, 3, 1), (12, 2, 2), (40, 3, 2), (17, 2, 2),
])
def test_union_covers_grid_exactly(n, j, h):
    dec = decompose_uniform(Grid1D.uniform(n), j, h)
    covered = np.zeros(n, dtype=bool)
    for i in range(j):
        covered[dec.indices(i)] = True
    assert covered.all()


@pytest.mark.parametrize("n,j,h", [(10, 2, 1), (9, 3, 1), (40, 3, 2)])
def test_interface_nesting_and_disjointness(n, j, h):
    dec = decompose_uniform(Grid1D.uniform(n), j, h)
    for (i, k), gamma in dec.interfaces.items():
        overlap = set(dec.overlap(i, k).tolist())
        sub_i = set(dec.indices(i).tolist())
        g = set(gamma.tolist())
        assert g <= overlap <= sub_i
        assert not g & set(dec.interface(k, i).tolist())
        assert len(g) <= len(overlap)


def test_subdomain_restriction_examples():
    dec = decompose_uniform(Grid1D.uniform(5), 1, 0)
    np.testing.assert_array_equal(
        subdomain_restriction(dec, 0).selected_indices, np.arange(5)
    )
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    np.testing.assert_array_equal(
        subdomain_restriction(dec, 0).selected_indices, np.arange(6)
    )
    np.testing.assert_array_equal(
        subdomain_restriction(dec, 1).selected_indices, np.arange(4, 10)
    )
    with pytest.raises(IndexOutOfRange):
        subdomain_restriction(dec, 2)


def test_interface_restriction_examples():
    dec = decompose_uniform(Grid1D.uniform(10), 2, 1)
    np.testing.assert_array_equal(
        interface_restriction(dec, 0, 1).selected_indices, [5]
    )
    np.testing.assert_array_equal(
        interface_restriction(dec, 1, 0).selected_indices, [4]
    )


def test_restrict_vector_examples():
    smap = SelectionMap(5, [0, 1, 2])
    np.testing.assert_array_equal(
        smap.restrict(np.array([1.0, 2, 3, 4, 5])), [1.0, 2.0, 3.0]
    )
    all_map = SelectionMap(4, np.arange(4))
    v = np.array([3.0, 1.0, 4.0, 1.0])
    np.testing.assert_array_equal(all_map.restrict(v), v)
    unit = np.zeros(10)
    unit[4] = 1.0
    np.testing.assert_array_equal(
        SelectionMap(10, [4, 5]).restrict(unit), [1.0, 0.0]
    )
    with pytest.raises(DimensionMismatch):
        smap.restrict(np.zeros(4))


def test_restrict_extend_roundtrip():
    smap = SelectionMap(8, [1, 4, 6])
    v = np.arange(8.0)
    back = smap.extend(smap.restrict(v))
    np.testing.assert_array_equal(back[[1, 4, 6]], v[[1, 4, 6]])
    np.testing.assert_array_equal(back[[0, 2, 3, 5, 7]], 0.0)
    # restrict of extend of restrict changes nothing further
    np.testing.assert_array_equal(smap.restrict(back), smap.restrict(v))
    with pytest.raises(DimensionMismatch):
        smap.extend(np.zeros(2))


def test_selection_matrix_matches_action():
    smap = SelectionMap(6, [5, 0, 3])
    v = np.array([1.0, 2, 3, 4, 5, 6])
    np.testing.assert_array_equal(smap.matrix() @ v, smap.restrict(v))
    assert smap.matrix().sum() == 3


def test_selection_rejects_bad_indices():
    with pytest.raises(IndexOutOfRange):
        SelectionMap(4, [0, 4])
    with pytest.raises(InvalidArgument):
        SelectionMap(4, [1, 1])


def test_restrict_matrix_identity_cases():
    m = np.arange(9.0).reshape(3, 3)
    all_map = SelectionMap(3, np.arange(3))
    np.testing.assert_array_equal(restrict_matrix(all_map, all_map, m), m)
    two = SelectionMap(5, [0, 1])
    np.testing.assert_array_equal(
        restrict_matrix(two, two, np.eye(5)), np.eye(2)
    )
    with pytest.raises(DimensionMismatch):
        restrict_matrix(two, two, np.eye(4))


def test_restrict_matrix_block_indexing():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((10, 10))
    rows = SelectionMap(10, np.arange(6))
    cols = SelectionMap(10, np.arange(4, 10))
    block = restrict_matrix(rows, cols, m)
    for a in range(6):
        for b in range(6):
            assert block[a, b] == m[a, b + 4]


def test_symmetric_restriction_stays_symmetric():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((8, 8))
    s = s + s.T
    smap = SelectionMap(8, [0, 2, 3, 7])
    block = restrict_matrix(smap, smap, s)
    np.testing.assert_array_equal(block, block.T)

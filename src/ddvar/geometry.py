"""1-D grid, overlapping decomposition, and index-selection operators.

Grid points are numbered 0..n_points-1 and every stored range is half-open,
so a subdomain (start, stop) covers the points start..stop-1.  A subdomain i
extended by `halo` points into neighbor j gives rise to two index sets:

* the overlap, the plain intersection of subdomains i and j, of size 2*halo;
* the interface of i toward j, the `halo` outermost points of subdomain i
  that lie inside subdomain j (the discrete boundary of i seen from j).

Restriction and extension are realized as rectangular selections instead of
square matrices with an identity block; the action on the selected
coordinates is identical and nothing is stored for the zero rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    InvalidDecomposition,
    NoInterface,
)


@dataclass(frozen=True)
class Grid1D:
    """Discretized 1-D domain: point count and monotone coordinates."""

    n_points: int
    coords: np.ndarray

    def __post_init__(self):
        if self.n_points < 1:
            raise InvalidArgument("n_points must be >= 1")
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size != self.n_points:
            raise DimensionMismatch(
                f"coords has shape {coords.shape}, expected ({self.n_points},)"
            )
        if coords.size > 1 and not np.all(np.diff(coords) > 0.0):
            raise InvalidArgument("coords must be strictly increasing")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def uniform(cls, n_points: int, spacing: float = 1.0) -> "Grid1D":
        """Evenly spaced grid at 0, spacing, 2*spacing, ..."""
        if spacing <= 0.0:
            raise InvalidArgument("spacing must be positive")
        return cls(n_points, spacing * np.arange(n_points, dtype=float))


@dataclass(frozen=True)
class SelectionMap:
    """Ordered pick of distinct indices out of a source_dim vector.

    restrict pulls the selected entries, extend scatters them back into a
    zero vector, and matrix materializes the equivalent 0/1 operator of
    shape (len(selected_indices), source_dim).
    """

    source_dim: int
    selected_indices: np.ndarray

    def __post_init__(self):
        if self.source_dim < 1:
            raise InvalidArgument("source_dim must be >= 1")
        idx = np.asarray(self.selected_indices, dtype=np.intp).reshape(-1)
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.source_dim:
                raise IndexOutOfRange(
                    f"selected indices must lie in 0..{self.source_dim - 1}"
                )
            if np.unique(idx).size != idx.size:
                raise InvalidArgument("selected indices must be distinct")
        object.__setattr__(self, "selected_indices", idx)

    @property
    def size(self) -> int:
        return int(self.selected_indices.size)

    def restrict(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != (self.source_dim,):
            raise DimensionMismatch(
                f"vector has shape {v.shape}, expected ({self.source_dim},)"
            )
        return v[self.selected_indices]

    def extend(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape != (self.size,):
            raise DimensionMismatch(
                f"vector has shape {y.shape}, expected ({self.size},)"
            )
        out = np.zeros(self.source_dim, dtype=np.result_type(y.dtype, float))
        out[self.selected_indices] = y
        return out

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.size, self.source_dim))
        m[np.arange(self.size), self.selected_indices] = 1.0
        return m


@dataclass(frozen=True)
class Decomposition:
    """Overlapping split of a Grid1D into contiguous subdomains.

    subdomains holds half-open (start, stop) ranges, one per subdomain.
    overlaps maps an ordered pair (i, j) to the index set of the
    intersection of subdomains i and j; interfaces maps (i, j) to the
    interface of i toward j.  Only nonempty sets are stored, so with
    halo 0 both maps are empty.
    """

    grid: Grid1D
    j_sub: int
    halo: int
    subdomains: tuple
    overlaps: dict
    interfaces: dict

    def _check_id(self, i: int) -> None:
        if not 0 <= i < self.j_sub:
            raise IndexOutOfRange(
                f"subdomain id {i} outside 0..{self.j_sub - 1}"
            )

    def indices(self, i: int) -> np.ndarray:
        """Global grid indices of subdomain i, ascending."""
        self._check_id(i)
        start, stop = self.subdomains[i]
        return np.arange(start, stop, dtype=np.intp)

    def size(self, i: int) -> int:
        """Point count of subdomain i."""
        self._check_id(i)
        start, stop = self.subdomains[i]
        return stop - start

    @property
    def sizes(self) -> tuple:
        return tuple(stop - start for start, stop in self.subdomains)

    def overlap(self, i: int, j: int) -> np.ndarray:
        """Indices shared by subdomains i and j; empty when disjoint."""
        self._check_id(i)
        self._check_id(j)
        return self.overlaps.get((i, j), np.empty(0, dtype=np.intp))

    def interface(self, i: int, j: int) -> np.ndarray:
        """Interface of subdomain i toward j as global indices."""
        self._check_id(i)
        self._check_id(j)
        try:
            return self.interfaces[(i, j)]
        except KeyError:
            raise NoInterface(
                f"subdomains {i} and {j} share no interface"
            ) from None

    def neighbors(self, i: int) -> tuple:
        """Ids coupled to subdomain i through an interface, ascending."""
        self._check_id(i)
        return tuple(j for (a, j) in sorted(self.interfaces) if a == i)


def decompose_uniform(grid: Grid1D, j_sub: int, halo: int) -> Decomposition:
    """Split the grid into j_sub balanced contiguous blocks plus halos.

    Base blocks have size floor(n/j_sub) with the first n mod j_sub blocks
    one point larger; each subdomain is its base block extended by `halo`
    points into each adjacent block.  The interface of i toward a neighbor
    is the `halo` outermost points of subdomain i on that side, which by
    construction lie inside the neighbor and inside the overlap.
    """
    n = grid.n_points
    if j_sub < 1:
        raise InvalidDecomposition("j_sub must be >= 1")
    if halo < 0:
        raise InvalidDecomposition("halo must be >= 0")
    if n < j_sub:
        raise InvalidDecomposition(
            f"{j_sub} subdomains need at least {j_sub} points, grid has {n}"
        )
    if j_sub > 1 and n // j_sub < 2 * halo + 1:
        raise InvalidDecomposition(
            f"base block size {n // j_sub} too small for halo {halo}; "
            f"need floor(n/j_sub) >= {2 * halo + 1}"
        )

    base, extra = divmod(n, j_sub)
    bounds = [0]
    for i in range(j_sub):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))

    subdomains = []
    for i in range(j_sub):
        start = bounds[i] - (halo if i > 0 else 0)
        stop = bounds[i + 1] + (halo if i < j_sub - 1 else 0)
        subdomains.append((start, stop))

    overlaps = {}
    interfaces = {}
    if halo > 0:
        for i in range(j_sub):
            for j in (i - 1, i + 1):
                if not 0 <= j < j_sub:
                    continue
                si, ei = subdomains[i]
                sj, ej = subdomains[j]
                overlaps[(i, j)] = np.arange(
                    max(si, sj), min(ei, ej), dtype=np.intp
                )
                if j == i + 1:
                    gamma = np.arange(ei - halo, ei, dtype=np.intp)
                else:
                    gamma = np.arange(si, si + halo, dtype=np.intp)
                interfaces[(i, j)] = gamma

    return Decomposition(
        grid=grid,
        j_sub=j_sub,
        halo=halo,
        subdomains=tuple(subdomains),
        overlaps=overlaps,
        interfaces=interfaces,
    )


def subdomain_restriction(dec: Decomposition, i: int) -> SelectionMap:
    """Selection of the points of subdomain i out of the full grid."""
    return SelectionMap(dec.grid.n_points, dec.indices(i))


def interface_restriction(dec: Decomposition, i: int, j: int) -> SelectionMap:
    """Selection of the interface of subdomain i toward j."""
    return SelectionMap(dec.grid.n_points, dec.interface(i, j))


def restrict_matrix(row_map: SelectionMap, col_map: SelectionMap,
                    m: np.ndarray) -> np.ndarray:
    """Submatrix m[rows, cols] for two selections over matching dims."""
    m = np.asarray(m)
    if m.shape != (row_map.source_dim, col_map.source_dim):
        raise DimensionMismatch(
            f"matrix has shape {m.shape}, expected "
            f"({row_map.source_dim}, {col_map.source_dim})"
        )
    return m[np.ix_(row_map.selected_indices, col_map.selected_indices)]

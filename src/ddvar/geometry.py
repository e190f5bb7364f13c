"""1-D grid and its overlapping decomposition into contiguous subdomains.

Grid points are numbered 0..n_points-1 and every range is half-open, so a
subdomain (start, stop) covers the points start..stop-1.  A decomposition
is (grid, j_sub, halo): the grid splits into j_sub balanced base blocks
that tile it, and subdomain i is base block i extended by `halo` points
into each adjacent block.  Its interface toward neighbor j is the `halo`
outermost points of subdomain i that lie inside subdomain j (the discrete
boundary of i seen from j), and subdomain i less its interfaces is its
owned range, the base block.

Restriction to a subdomain is the slice span(i), which takes blocks of
vectors and matrices as views; interfaces are short index arrays.  Work
on all subdomains at once reads one layout, Decomposition._stacked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidArgument,
    InvalidDecomposition,
    NoInterface,
    _check_count,
    _check_finite,
    _check_integer,
    _check_type,
    _vector,
)


def _check_n_points(n_points, fail) -> None:
    _check_count("n_points", n_points, fail)
    most = np.iinfo(np.intp).max // 8  # float64 entries numpy can hold
    if n_points > most:
        fail("n_points", f"must be <= {most}, the length of the largest "
                         "float64 array")


def _check_decomposition(n_points, j_sub, halo, fail) -> None:
    _check_count("j_sub", j_sub, fail)
    _check_count("halo", halo, fail, least=0)
    if n_points < j_sub:
        fail("j_sub", f"{j_sub} exceeds the grid's {n_points} points")
    if j_sub > 1 and n_points // j_sub < 2 * halo + 1:
        fail("halo", f"{halo} too large: floor(n_points/j_sub) = "
                     f"{n_points // j_sub} but must be >= {2 * halo + 1}")


@dataclass(frozen=True)
class Grid1D:
    """Discretized 1-D domain: its monotone coordinates, at least one.

    The coordinates must be finite and strictly increasing; n_points is
    their count.  Two grids are equal when their coordinates are.
    """

    coords: np.ndarray

    def __post_init__(self):
        coords = _check_finite("coords", _vector("coords", self.coords))
        if not (coords.size and np.all(coords[1:] > coords[:-1])):
            raise InvalidArgument("coords must be one or more strictly "
                                  "increasing values")
        object.__setattr__(self, "coords", coords)

    @property
    def n_points(self) -> int:
        return self.coords.size

    def __eq__(self, other):
        if not isinstance(other, Grid1D):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, so equal grids hash alike
        return hash((self.coords + 0.0).tobytes())

    @classmethod
    def uniform(cls, n_points: int) -> "Grid1D":
        """Unit grid at 0, 1, ..., n_points - 1; a grid of spacing h is
        Grid1D(h * np.arange(n_points))."""
        _check_n_points(n_points, InvalidArgument.fail)
        return cls(np.arange(n_points, dtype=float))


@dataclass(frozen=True)
class Decomposition:
    """Overlapping split of a Grid1D, derived from (grid, j_sub, halo).

    The three fields are checked on construction.  Base block i holds
    floor(n/j_sub) points, one more for the first n mod j_sub blocks, and
    the blocks tile the grid in order.  Subdomain i, span(i), is its base
    block plus `halo` points into each adjacent block, and subdomains
    lists the spans as (start, stop) pairs.  Equality and the hash
    compare (grid, j_sub, halo).
    """

    grid: Grid1D
    j_sub: int
    halo: int

    def __post_init__(self):
        _check_decomposition(_check_type("grid", self.grid, Grid1D).n_points,
                             self.j_sub, self.halo, InvalidDecomposition.fail)

    @functools.cached_property
    def _bounds(self) -> tuple:
        # base block i is bounds[i]..bounds[i + 1] - 1
        base, extra = divmod(self.grid.n_points, self.j_sub)
        return tuple(i * base + min(i, extra) for i in range(self.j_sub + 1))

    @functools.cached_property
    def subdomains(self) -> tuple:
        """Half-open (start, stop) range of each subdomain, in order."""
        b, h = self._bounds, self.halo
        return tuple((max(b[i] - h, 0), min(b[i + 1] + h, b[-1]))
                     for i in range(self.j_sub))

    @functools.cached_property
    def _stacked(self) -> tuple:
        """(points, ends, owners): the spans end to end in id order.

        The grid point of each stacked entry, where each span's entries
        end, and each grid point's entry in its owner, the subdomain whose
        base block holds it.  All three are read-only.
        """
        starts, stops = np.array(self.subdomains).T
        ends = np.cumsum(stops - starts)
        shift = ends - stops  # a span's stacked entries less their points
        points = np.arange(ends[-1]) - np.repeat(shift, stops - starts)
        owners = np.arange(stops[-1]) + np.repeat(shift, np.diff(self._bounds))
        for a in (points, ends, owners):
            a.flags.writeable = False
        return points, ends, owners

    def _check_id(self, i: int) -> None:
        _check_integer("subdomain id", i, IndexOutOfRange.fail)
        if not 0 <= i < self.j_sub:
            raise IndexOutOfRange(
                f"subdomain id {i} outside 0..{self.j_sub - 1}"
            )

    def span(self, i: int) -> slice:
        """Grid range of subdomain i as a slice."""
        self._check_id(i)
        return slice(*self.subdomains[i])

    def neighbors(self, i: int) -> tuple:
        """Ids coupled to subdomain i through an interface, ascending."""
        self._check_id(i)
        if self.halo == 0:
            return ()
        return tuple(j for j in (i - 1, i + 1) if 0 <= j < self.j_sub)

    def interface(self, i: int, j: int) -> np.ndarray:
        """Interface of subdomain i toward j as global indices, ascending."""
        neighbors = self.neighbors(i)
        self._check_id(j)
        if j not in neighbors:
            raise NoInterface(f"subdomains {i} and {j} share no interface")
        start, stop = self.subdomains[i]
        start = stop - self.halo if j > i else start
        return np.arange(start, start + self.halo, dtype=np.intp)


# a second name of the class, which bench/test_bench.py calls
decompose_uniform = Decomposition

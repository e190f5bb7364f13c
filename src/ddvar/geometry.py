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
import math
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
    _check_real,
    _vector,
)


def _check_grid_size(n_points, fail) -> None:
    _check_count("n_points", n_points, fail)


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
    """Discretized 1-D domain: point count and monotone coordinates.

    The coordinates must be finite and strictly increasing.  Two grids are
    equal when their point counts and coordinates are.
    """

    n_points: int
    coords: np.ndarray

    def __post_init__(self):
        _check_grid_size(self.n_points, InvalidArgument.fail)
        coords = _vector("coords", self.coords, self.n_points)
        _check_finite("coords", coords)
        if coords.size > 1 and not np.all(np.diff(coords) > 0.0):
            raise InvalidArgument("coords must be strictly increasing")
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if not isinstance(other, Grid1D):
            return NotImplemented
        return (self.n_points == other.n_points
                and np.array_equal(self.coords, other.coords))

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, so equal grids hash alike
        return hash((self.n_points, (self.coords + 0.0).tobytes()))

    @classmethod
    def uniform(cls, n_points: int, spacing: float = 1.0) -> "Grid1D":
        """Evenly spaced grid at 0, spacing, 2*spacing, ..."""
        _check_grid_size(n_points, InvalidArgument.fail)
        spacing = _check_real("spacing", spacing, InvalidArgument.fail)
        if not (spacing > 0.0 and spacing * (n_points - 1) < math.inf):
            raise InvalidArgument("spacing must be positive with a finite "
                                  f"last coordinate, got {spacing!r}")
        return cls(n_points, spacing * np.arange(n_points, dtype=float))


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
        _check_decomposition(self.grid.n_points, self.j_sub, self.halo,
                             InvalidDecomposition.fail)

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


def decompose_uniform(grid: Grid1D, j_sub: int, halo: int) -> Decomposition:
    """Split the grid into j_sub balanced contiguous blocks plus halos.

    The same as Decomposition(grid, j_sub, halo): each subdomain is its
    base block extended by `halo` points into each adjacent block, so the
    interface of i toward a neighbor, the `halo` outermost points of
    subdomain i on that side, lies inside the neighbor.
    """
    return Decomposition(grid, j_sub, halo)

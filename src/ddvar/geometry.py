"""1-D grid and its overlapping decomposition into contiguous subdomains.

Grid points are numbered 0..n_points-1 and every stored range is half-open,
so a subdomain (start, stop) covers the points start..stop-1.  A subdomain i
extended by `halo` points into neighbor j has an interface toward j: the
`halo` outermost points of subdomain i that lie inside subdomain j (the
discrete boundary of i seen from j).  Subdomain i less its interfaces is
its owned range, the base block.

Restriction to a subdomain is the slice span(i), which takes blocks of
vectors and matrices as views; interfaces are short index arrays.
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
class Decomposition:
    """Overlapping split of a Grid1D into contiguous subdomains.

    subdomains holds half-open (start, stop) ranges, one per subdomain;
    span(i) returns range i as a slice after checking the id, and
    indices(i) as an index array.  Neighbors (i - 1 and i + 1 when halo >
    0), interfaces and owned ranges are computed from the spans and halo.
    """

    grid: Grid1D
    j_sub: int
    halo: int
    subdomains: tuple

    def _check_id(self, i: int) -> None:
        if not 0 <= i < self.j_sub:
            raise IndexOutOfRange(
                f"subdomain id {i} outside 0..{self.j_sub - 1}"
            )

    def span(self, i: int) -> slice:
        """Grid range of subdomain i as a slice."""
        self._check_id(i)
        return slice(*self.subdomains[i])

    def indices(self, i: int) -> np.ndarray:
        """Global grid indices of subdomain i, ascending."""
        span = self.span(i)
        return np.arange(span.start, span.stop, dtype=np.intp)

    def size(self, i: int) -> int:
        """Point count of subdomain i."""
        span = self.span(i)
        return span.stop - span.start

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
        span = self.span(i)
        start = span.stop - self.halo if j > i else span.start
        return np.arange(start, start + self.halo, dtype=np.intp)

    def owned(self, i: int) -> slice:
        """Base block of subdomain i: its span less the interface points."""
        span, neighbors = self.span(i), self.neighbors(i)
        lo, hi = (self.halo if j in neighbors else 0 for j in (i - 1, i + 1))
        return slice(span.start + lo, span.stop - hi)


def decompose_uniform(grid: Grid1D, j_sub: int, halo: int) -> Decomposition:
    """Split the grid into j_sub balanced contiguous blocks plus halos.

    Base blocks have size floor(n/j_sub) with the first n mod j_sub blocks
    one point larger; each subdomain is its base block extended by `halo`
    points into each adjacent block.  The interface of i toward a neighbor
    is the `halo` outermost points of subdomain i on that side, which by
    construction lie inside the neighbor.
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
    bounds = [i * base + min(i, extra) for i in range(j_sub + 1)]
    subdomains = []
    for i in range(j_sub):
        start = bounds[i] - (halo if i > 0 else 0)
        stop = bounds[i + 1] + (halo if i < j_sub - 1 else 0)
        subdomains.append((start, stop))
    return Decomposition(grid, j_sub, halo, tuple(subdomains))

"""Point observations, the innovation vector, and synthetic instances."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .covariance import CovarianceModel, ObsCovariance, v_times
from .errors import DimensionMismatch, IndexOutOfRange, InvalidArgument
from .geometry import Grid1D


@dataclass(frozen=True)
class ObservationSet:
    """Observed values v at distinct grid points plus their error model.

    obs_indices, strictly increasing, is the observation operator H: a
    point selection, so H u is u[obs_indices] and H V the matching rows
    of V.  ProblemInstance checks that every index lies on its grid.
    """

    obs_indices: np.ndarray
    values: np.ndarray
    r_cov: ObsCovariance

    def __post_init__(self):
        idx = np.asarray(self.obs_indices, dtype=np.intp).reshape(-1)
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise InvalidArgument("obs_indices must be strictly increasing")
        if vals.size != idx.size:
            raise DimensionMismatch(
                f"{idx.size} observation points but {vals.size} values"
            )
        if self.r_cov.nobs != idx.size:
            raise DimensionMismatch(
                f"{idx.size} observation points but {self.r_cov.nobs} variances"
            )
        object.__setattr__(self, "obs_indices", idx)
        object.__setattr__(self, "values", vals)

    @property
    def nobs(self) -> int:
        return int(self.obs_indices.size)


def point_observations(grid: Grid1D, obs_indices, values,
                       r_diag) -> ObservationSet:
    """Build an ObservationSet for given points, values, and variances."""
    idx = np.asarray(obs_indices, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= grid.n_points):
        raise IndexOutOfRange(
            f"observation indices must lie in 0..{grid.n_points - 1}"
        )
    return ObservationSet(
        obs_indices=idx,
        values=values,
        r_cov=ObsCovariance(r_diag),
    )


@dataclass(frozen=True)
class ProblemInstance:
    """One assimilation problem: grid, covariances, observations, background."""

    grid: Grid1D
    cov: CovarianceModel
    obs: ObservationSet
    u_background: np.ndarray
    u_truth: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        n = self.grid.n_points
        ub = np.asarray(self.u_background, dtype=float).reshape(-1)
        if self.cov.n_points != n:
            raise DimensionMismatch(
                f"covariance is {self.cov.n_points} points, grid is {n}"
            )
        if ub.size != n:
            raise DimensionMismatch(
                f"u_background has {ub.size} entries, grid has {n}"
            )
        idx = self.obs.obs_indices
        if idx.size and (idx[0] < 0 or idx[-1] >= n):
            raise DimensionMismatch(
                f"observation indices {idx[0]}..{idx[-1]} do not fit a grid "
                f"of {n} points"
            )
        object.__setattr__(self, "u_background", ub)
        if self.u_truth is not None:
            ut = np.asarray(self.u_truth, dtype=float).reshape(-1)
            if ut.size != n:
                raise DimensionMismatch(
                    f"u_truth has {ut.size} entries, grid has {n}"
                )
            object.__setattr__(self, "u_truth", ut)

    @functools.cached_property
    def h_rows(self) -> scipy.sparse.csr_array:
        """M = H V, the observed rows of V: taken once, then read-only.

        Sparse, read from the band of V: at most bw + 1 entries per row."""
        band = self.cov.v_band
        m = scipy.sparse.dia_array(
            (band, -np.arange(band.shape[0])), shape=(band.shape[1],) * 2
        ).tocsr()[self.obs.obs_indices]
        for a in (m.data, m.indices, m.indptr):
            a.flags.writeable = False
        return m


def innovation(inst: ProblemInstance) -> np.ndarray:
    """Observation-minus-background misfit d = v - H u^b."""
    return inst.obs.values - inst.u_background[inst.obs.obs_indices]


def local_observation_positions(obs: ObservationSet, start: int, stop: int):
    """Observations falling in the half-open index window [start, stop).

    Returns (sel, local): positions into the observation list and the
    observed grid indices shifted to window coordinates.  An observation
    sitting in an overlap region is picked up by every window containing
    it.
    """
    mask = (obs.obs_indices >= start) & (obs.obs_indices < stop)
    sel = np.nonzero(mask)[0]
    return sel, obs.obs_indices[sel] - start


def _sigma_o_floor(sigma_b: float | None) -> float:
    # Largest rejected nonzero sigma_o: sigma_b * 2^-26, with sigma_b read
    # as 1 when it is None (identity covariance).  At or below it
    # (sigma_b / sigma_o)^2 >= 2^52 and the unit term of the normal matrix
    # falls below rounding.
    return math.ldexp(1.0 if sigma_b is None else sigma_b, -26)


def synthesize(grid: Grid1D, cov: CovarianceModel, nobs: int,
               sigma_o: float, seed: int) -> ProblemInstance:
    """Deterministic synthetic truth, background, and observations.

    Draws, in order, z then z' then eps from a PCG64 generator seeded with
    `seed`; the truth is V z, the background adds V z' (background errors
    then have covariance B), both products taken on the band of V, and observations add sigma_o-scaled noise to
    the truth at nobs equispaced points, obs_indices[k] = floor(k*n/nobs).
    sigma_o = 0 gives noiseless observations with unit variances standing
    in for the degenerate error model; a nonzero sigma_o must lie above
    sigma_b * 2^-26 (sigma_b = 1 for the identity covariance).
    """
    n = grid.n_points
    if not 0 <= nobs <= n:
        raise InvalidArgument(f"nobs must lie in 0..{n}, got {nobs}")
    if not 0.0 <= sigma_o < math.inf:
        raise InvalidArgument(f"sigma_o must be finite and >= 0, got {sigma_o}")
    floor = _sigma_o_floor(cov.sigma_b)
    if 0.0 < sigma_o <= floor:
        raise InvalidArgument(f"sigma_o {sigma_o} is too small: it must be 0 "
                              f"or above sigma_b * 2^-26 = {floor}")
    if cov.n_points != n:
        raise DimensionMismatch(
            f"covariance is {cov.n_points} points, grid is {n}"
        )

    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal(n)
    z_prime = rng.standard_normal(n)
    eps = rng.standard_normal(nobs)

    u_truth = v_times(cov, z)
    u_background = u_truth + v_times(cov, z_prime)
    obs_idx = np.array([(k * n) // nobs for k in range(nobs)], dtype=np.intp)
    values = u_truth[obs_idx] + sigma_o * eps
    variance = sigma_o**2 if sigma_o > 0.0 else 1.0
    obs = point_observations(grid, obs_idx, values, np.full(nobs, variance))
    return ProblemInstance(
        grid=grid,
        cov=cov,
        obs=obs,
        u_background=u_background,
        u_truth=u_truth,
        seed=seed,
    )

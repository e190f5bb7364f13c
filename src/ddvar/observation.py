"""Point observations, the innovation vector, and synthetic instances."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .covariance import (CovarianceModel, ObsCovariance, _check_scale,
                         _frozen, v_rows_sparse, v_times)
from .errors import (DimensionMismatch, InvalidArgument, _check_count,
                     _check_finite, _check_integer, _check_type, _indices,
                     _vector)
from .geometry import Grid1D


@dataclass(frozen=True)
class ObservationSet:
    """Observed values v at distinct grid points plus their error model.

    obs_indices, strictly increasing integers, is the observation operator
    H: a point selection, so H u is u[obs_indices] and H V the matching rows
    of V.  ProblemInstance checks that every index lies on its grid.
    """

    obs_indices: np.ndarray
    values: np.ndarray
    r_cov: ObsCovariance

    def __post_init__(self):
        idx = _indices("obs_indices", self.obs_indices)
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise InvalidArgument("obs_indices must be strictly increasing")
        vals = _check_finite("values",
                             _vector("values", self.values, idx.size))
        _check_type("r_cov", self.r_cov, ObsCovariance)
        _vector("r_diag", self.r_cov.r_diag, idx.size)
        object.__setattr__(self, "obs_indices", idx)
        object.__setattr__(self, "values", vals)


def point_observations(grid: Grid1D, obs_indices, values,
                       r_diag) -> ObservationSet:
    """Build an ObservationSet for given points, values, and variances."""
    return ObservationSet(
        obs_indices=_indices("obs_indices", obs_indices,
                             _check_type("grid", grid, Grid1D).n_points),
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

    def __post_init__(self):
        for name, cls in (("grid", Grid1D), ("cov", CovarianceModel),
                          ("obs", ObservationSet)):
            _check_type(name, getattr(self, name), cls)
        n = self.grid.n_points
        if self.cov.n_points != n:
            raise DimensionMismatch(
                f"covariance is {self.cov.n_points} points, grid is {n}"
            )
        for name in ("u_background", "u_truth"):
            if name == "u_background" or self.u_truth is not None:
                u = _check_finite(name, _vector(name, getattr(self, name), n))
                object.__setattr__(self, name, u)
        _indices("obs_indices", self.obs.obs_indices, n)

    @functools.cached_property
    def h_rows(self) -> scipy.sparse.csr_array:
        """M = H V, the observed rows of V: taken once, then read-only.

        Sparse, gathered from the band of V by v_rows_sparse."""
        m = v_rows_sparse(self.cov, self.obs.obs_indices)
        for a in (m.data, m.indices, m.indptr):
            a.flags.writeable = False
        return m

    @functools.cached_property
    def innovation(self) -> np.ndarray:
        """d = v - H u^b, computed once, then read-only."""
        return _frozen(self.obs.values
                       - self.u_background[self.obs.obs_indices])

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """diag(H^T R^{-1} H) over H^T R^{-1} d: once, then read-only."""
        idx, r_inv = self.obs.obs_indices, 1.0 / self.obs.r_cov.r_diag
        w = np.zeros((2, self.grid.n_points))
        w[0, idx], w[1, idx] = r_inv, r_inv * self.innovation
        return _frozen(w)


def _check_synthesis(n_points, nobs, sigma_o, seed, sigma_b, fail) -> float:
    _check_count("seed", seed, fail, least=0)
    _check_integer("nobs", nobs, fail)
    if not 0 <= nobs <= n_points:
        fail("nobs", f"must lie in 0..{n_points}, got {nobs}")
    x = _check_scale("sigma_o", sigma_o, fail, zero=True)
    # the largest rejected nonzero sigma_o, sigma_b read as 1 when it is
    # None (identity covariance): at or below it (sigma_b / sigma_o)^2 >=
    # 2^52 and the unit term of the normal matrix falls below rounding
    floor = math.ldexp(1.0 if sigma_b is None else sigma_b, -26)
    if 0.0 < x <= floor:
        fail("sigma_o", f"{sigma_o} is too small: it must be 0 or above "
                        f"sigma_b * 2^-26 = {floor}")
    return x


def synthesize(grid: Grid1D, cov: CovarianceModel, nobs: int,
               sigma_o: float, seed: int) -> ProblemInstance:
    """Deterministic synthetic truth, background, and observations.

    Draws z, z' and eps, in order, from a PCG64 generator seeded with
    `seed`: truth V z, background V z + V z' (errors of covariance B),
    both on the band of V, and observations the truth plus sigma_o eps at
    nobs equispaced points, obs_indices[k] = floor(k*n/nobs).
    sigma_o = 0 gives noiseless observations with unit variances standing
    in for the degenerate error model; a nonzero sigma_o must lie above
    sigma_b * 2^-26 (sigma_b = 1 for the identity covariance).
    """
    n = _check_type("grid", grid, Grid1D).n_points
    _check_type("cov", cov, CovarianceModel)
    sigma_o = _check_synthesis(n, nobs, sigma_o, seed, cov.sigma_b,
                               InvalidArgument.fail)
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
    obs_idx = np.arange(nobs, dtype=np.intp) * n // nobs
    values = u_truth[obs_idx] + sigma_o * eps
    variance = sigma_o**2 if sigma_o > 0.0 else 1.0
    obs = point_observations(grid, obs_idx, values, np.full(nobs, variance))
    return ProblemInstance(
        grid=grid,
        cov=cov,
        obs=obs,
        u_background=u_background,
        u_truth=u_truth,
    )

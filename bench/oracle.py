"""Exact 3D-Var analysis in observation space, independent of ddvar.

With B the Gaussian background covariance, H the point selection and R
the diagonal observation covariance, the minimiser of the 3D-Var cost and
its minimum are

    u_ref = u_b + B H^T (H B H^T + R)^{-1} d
    J_min = 1/2 d^T (H B H^T + R)^{-1} d,       d = v - H u_b.

Only the kernel formula and the observation data enter: B H^T is built
column by column from the kernel, so no n x n matrix, no factor of B and
no ddvar assembly or solver code is used.  H B H^T + R is nobs x nobs and
well conditioned whenever R is not tiny, unlike the n x n system ddvar
solves.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Diagonal jitter ddvar adds to the Gaussian kernel, relative to sigma_b^2.
KERNEL_JITTER = 1e-10


def gaussian_kernel(x: np.ndarray, y: np.ndarray, length_scale: float,
                    sigma_b: float) -> np.ndarray:
    """sigma_b^2 exp(-(x_p - y_q)^2 / (2 length_scale^2)) for all p, q."""
    diff = x[:, None] - y[None, :]
    return sigma_b**2 * np.exp(-(diff**2) / (2.0 * length_scale**2))


def exact_analysis(coords, length_scale: float, sigma_b: float, obs_indices,
                   obs_values, obs_variances, u_background):
    """Return (u_ref, j_min) for the given grid coordinates and observations."""
    coords = np.asarray(coords, dtype=float)
    obs_indices = np.asarray(obs_indices, dtype=np.intp)
    u_background = np.asarray(u_background, dtype=float)
    m = obs_indices.size
    bht = gaussian_kernel(coords, coords[obs_indices], length_scale, sigma_b)
    bht[obs_indices, np.arange(m)] += KERNEL_JITTER * sigma_b**2
    s = bht[obs_indices, :] + np.diag(np.asarray(obs_variances, dtype=float))
    d = np.asarray(obs_values, dtype=float) - u_background[obs_indices]
    z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s, lower=True), d)
    return u_background + bht @ z, 0.5 * float(d @ z)

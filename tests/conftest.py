"""Shared builders for the test suite plus acceptance reporting.

Acceptance tests register one line per criterion through
record_acceptance; a terminal-summary hook prints the collected lines
after the run so the verdict is visible even with captured output.
"""

import dataclasses

import numpy as np

from ddvar import (
    Decomposition,
    Grid1D,
    ProblemInstance,
    SolverOptions,
    assimilate,
    build_gaussian_covariance,
    decompose_uniform,
    identity_covariance,
    point_observations,
    synthesize,
)
from ddvar.cli import _KEYS, ExperimentConfig
from ddvar.covariance import _band_times, _interface_factors


def make_instance(n=30, j_sub=2, halo=1, nobs=None, seed=0, kind="gaussian",
                  length_scale=2.0, sigma_b=1.0, sigma_o=0.1):
    """Seeded random instance plus a matching decomposition."""
    grid = Grid1D.uniform(n)
    if kind == "identity":
        cov = identity_covariance(grid)
    else:
        cov = build_gaussian_covariance(grid, length_scale, sigma_b)
    if nobs is None:
        nobs = max(1, n // 5)
    inst = synthesize(grid, cov, nobs, sigma_o, seed)
    dec = decompose_uniform(grid, j_sub, halo)
    return inst, dec


def run_library(pairs):
    """The library calls a run of the config {key: value} makes.

    A key left out takes its default (nobs np // 5).  length_scale and
    sigma_b go to the Gaussian builder whatever the kind, as validation
    checks them; the global analysis checks the convention.
    """
    config = ExperimentConfig(**{_KEYS[key][0]: _KEYS[key][1](value)
                                 for key, value in pairs.items()})
    if "nobs" not in pairs:
        config = dataclasses.replace(config, nobs=config.n_points // 5)
    grid = Grid1D.uniform(config.n_points)
    cov = build_gaussian_covariance(grid, config.length_scale, config.sigma_b)
    if config.cov_kind == "identity":
        cov = identity_covariance(grid)
    inst = synthesize(grid, cov, config.nobs, config.sigma_o, config.seed)
    dec = Decomposition(grid, config.j_sub, config.halo)
    assimilate(inst, dec, "global", SolverOptions(config.tol, config.max_iters),
               config.update_convention)


def lower_band(a, k):
    """band[d, j] = a[j + d, j] for d = 0..k, zero past the last row."""
    n = a.shape[0]
    return np.array([np.concatenate([np.diagonal(a, -d), np.zeros(min(d, n))])
                     for d in range(k + 1)])


def block_times(model, w, span):
    """Oracle of V[span, span] @ w: dtbmv on the block's own band."""
    return _band_times(model.v_band[:span.stop - span.start, span], w)


def local_update(inst, dec, i, w_i):
    """Oracle of subdomain i's analysis u^b[span(i)] + V[span(i), span(i)] w_i.

    One subdomain at a time on the band of V: the stacked lift of all of
    them (analysis._Lift) is checked against it.
    """
    span = dec.span(i)
    return inst.u_background[span] + block_times(inst.cov, w_i, span)


def patch(dec, local_us):
    """Oracle of the owner patch of the local states, one per subdomain.

    Each point takes the value of the subdomain whose base block
    dec.owned(i) holds it; the base blocks tile the grid in order, so the
    patch is the owned pieces concatenated.
    """
    pieces = []
    for i, u_i in enumerate(local_us):
        owned, start = dec.owned(i), dec.span(i).start
        pieces.append(u_i[owned.start - start:owned.stop - start])
    return np.concatenate(pieces)


def interface_pair(model, dec, i, j):
    """(p_i, p_j) of subdomain i toward j: the one-pair interface factors."""
    return _interface_factors(model, dec, i, (j,))[0][1:]


def mirror_symmetric_instance():
    """Two-subdomain instance invariant under the reflection p -> 39 - p.

    Background, observation placement, and innovation values are all
    symmetric, and every observation sits at the extreme ends of the
    domain, far from the seam, so each subdomain's increment has decayed
    to nothing by the time it reaches the interface.  That makes the
    uncoupled solutions agree on the interfaces to well below 1e-10 and
    turns them into a fixed point of the coupled sweep.
    """
    n = 40
    grid = Grid1D.uniform(n)
    cov = build_gaussian_covariance(grid, 2.0, 1.0)
    t = grid.coords - (n - 1) / 2.0
    u_background = np.exp(-((t / 10.0) ** 2))
    obs_idx = np.array([0, 1, 2, 3, 36, 37, 38, 39])
    offsets = np.array([0.5, -0.3, 0.2, 0.1, 0.1, 0.2, -0.3, 0.5])
    values = u_background[obs_idx] + offsets
    obs = point_observations(grid, obs_idx, values, np.full(8, 0.01))
    inst = ProblemInstance(
        grid=grid, cov=cov, obs=obs, u_background=u_background
    )
    return inst, decompose_uniform(grid, 2, 2)


_ACCEPTANCE_LINES = []


def record_acceptance(number, title, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance {number:02d}] {tag} {title}{suffix}"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

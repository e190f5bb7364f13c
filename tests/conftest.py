"""Shared builders for the test suite plus acceptance reporting.

Acceptance tests register one line per criterion through
record_acceptance; a terminal-summary hook prints the collected lines
after the run so the verdict is visible even with captured output.
"""

import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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
from ddvar.assembly import _interface_pass
from ddvar.covariance import _band_times
from ddvar.solvers import _Stack


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


def dense(band, symmetric=True):
    """Oracle: the dense symmetric, or else lower-triangular, matrix with
    this lower band, band[d, j] = a[j + d, j]; entries past the last row
    are ignored."""
    n = band.shape[1]
    a = np.zeros((n, n))
    for d in range(min(band.shape[0], n)):
        a[np.arange(d, n), np.arange(n - d)] = band[d, :n - d]
    return a + np.tril(a, -1).T if symmetric else a


def lower_band(a, k):
    """band[d, j] = a[j + d, j] for d = 0..k, zero past the last row."""
    n = a.shape[0]
    return np.array([np.concatenate([np.diagonal(a, -d), np.zeros(min(d, n))])
                     for d in range(k + 1)])


def residual_bound(locals_, ws):
    """Row-wise bound on how far two evaluations of blockdiag(a_i) w - C w
    - c can differ, the systems and their iterates in subdomain-id order.

    A row sums at most 2k + 1 products of a, k the sub-diagonals of the
    tallest a_band, and at most m nonzero products of C, then subtracts
    twice; in any summation order, FMA or not, exact zero terms add no
    error, so it is within γ_N (|a||w| + |C||w| + |c|) of the exact row,
    N = max(2k + 2, m) + 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1), and two evaluations within twice that.
    N is 2k + 4 whenever m <= 2k + 2, as on every instance of
    test_fixed_point_residual_is_the_local_gradient_norm.
    """
    stack = _Stack(locals_)
    w = np.abs(np.concatenate(ws))
    k = stack.band.shape[0] - 1
    coupling = stack.coupling.toarray()
    m = int(np.max(np.count_nonzero(coupling, axis=1), initial=0))
    terms = max(2 * k + 2, m) + 2
    gamma = terms * 2.0**-53 / (1.0 - terms * 2.0**-53)
    a = scipy.linalg.block_diag(*(dense(sys.a_band) for sys in locals_))
    return 2.0 * gamma * (np.abs(a) @ w + np.abs(coupling) @ w
                          + np.abs(stack.c))


class FixedPoint:
    """Oracle of the exact fixed point w_fix of the coupled sweep.

    w_fix solves K w = c, K = blockdiag(a_i) - C in stacked order, for the
    mps systems listed in subdomain-id order.  C's block (i, j) is
    p_i^T p_j, formed here from system i's penalty pairs, apart from the
    solvers' coupling.  K is banded and not symmetric: one LAPACK dgbtrf
    factors it (with row pivoting) and dgbtrs solves with K or K^T, so
    w_fix carries an error of about eps cond(K) ||w_fix||.  cond_estimate
    is scipy's onenormest over those solves, not dgbcon, whose scipy
    wrapper took seconds at 10^5 rows.
    """

    def __init__(self, systems):
        blocks = [[None] * len(systems) for _ in systems]
        for i, sys in enumerate(systems):
            blocks[i][i] = scipy.sparse.csr_array(dense(sys.a_band))
            for j, p_i, p_j in sys.penalty_pairs:
                blocks[i][j] = scipy.sparse.csr_array(-(p_i.T @ p_j))
        self.k = scipy.sparse.bmat(blocks, format="csr")
        coo = self.k.tocoo()
        self.kl = max(0, int(np.max(coo.row - coo.col)))
        self.ku = max(0, int(np.max(coo.col - coo.row)))
        ab = np.zeros((2 * self.kl + self.ku + 1, self.k.shape[0]))
        ab[self.kl + self.ku + coo.row - coo.col, coo.col] = coo.data
        self.lu, self.piv, info = scipy.linalg.lapack.dgbtrf(
            ab, self.kl, self.ku)
        assert info == 0
        self.c = np.concatenate([sys.c for sys in systems])
        self.w_fix = self.solve(self.c)

    def solve(self, b, trans=0):
        """K^-1 b, or K^-T b for trans=1; b one vector or its columns."""
        x, info = scipy.linalg.lapack.dgbtrs(self.lu, self.kl, self.ku, b,
                                             self.piv, trans=trans)
        assert info == 0
        return x

    def cond_estimate(self):
        """||K||_1 times onenormest's estimate of ||K^-1||_1."""
        n = self.k.shape[0]
        inverse = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=self.solve, rmatvec=lambda b: self.solve(b, 1),
            dtype=float)
        return (float(abs(self.k).sum(axis=0).max())
                * scipy.sparse.linalg.onenormest(inverse))

    def inverse_norm_inf(self):
        """||K^-1||_inf, from every column of K^-1: for small K only."""
        return float(np.max(np.abs(self.solve(np.eye(self.k.shape[0])))
                            .sum(axis=1)))


def block_times(model, w, span):
    """Oracle of V[span, span] @ w: dtbmv on the block's own band."""
    return _band_times(model.v_band[:span.stop - span.start, span], w)


def local_update(inst, dec, i, w_i):
    """Oracle of subdomain i's analysis u^b[span(i)] + V[span(i), span(i)] w_i.

    One subdomain at a time on the band of V: the stacked lift of all of
    them (analysis._patch) is checked against it.
    """
    span = dec.span(i)
    return inst.u_background[span] + block_times(inst.cov, w_i, span)


def base_blocks(dec):
    """Oracle of the base blocks of dec, as slices in id order.

    Block i holds floor(n/j_sub) points, one more for the first
    n mod j_sub blocks, and the blocks tile the grid in order.
    """
    base, extra = divmod(dec.grid.n_points, dec.j_sub)
    bounds = [i * base + min(i, extra) for i in range(dec.j_sub + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def patch(dec, local_us):
    """Oracle of the owner patch of the local states, one per subdomain.

    Each point takes the value of the subdomain whose base block holds
    it; the base blocks tile the grid in order, so the patch is the owned
    pieces concatenated.
    """
    pieces = []
    for owned, span, u_i in zip(base_blocks(dec), dec.subdomains, local_us):
        pieces.append(u_i[owned.start - span[0]:owned.stop - span[0]])
    return np.concatenate(pieces)


def local_functional_analysis(inst, dec, factor=None):
    """Oracle of the paper's local problem: the owner patch of each
    subdomain's 3D-Var functional, minimized densely.

    Subdomain i minimizes 1/2 w^T w + 1/2 (H_i L_i w - d_i)^T R_i^{-1}
    (H_i L_i w - d_i), with H_i, R_i and d_i the observations in its
    span, and its analysis is u^b[span] + L_i w_i.  L_i = factor(span),
    by default chol(B[span, span]) of the dense B, the factor of the local
    background covariance B_i; V[span, span] is not a factor of B_i.
    """
    b = dense(inst.cov.b_band)
    idx, r_diag = inst.obs.obs_indices, inst.obs.r_cov.r_diag
    us = []
    for start, stop in dec.subdomains:
        span = slice(start, stop)
        l_i = (np.linalg.cholesky(b[span, span]) if factor is None
               else factor(span))
        seen = (idx >= start) & (idx < stop)
        m, r_inv = l_i[idx[seen] - start], 1.0 / r_diag[seen]
        a = m.T @ (r_inv[:, None] * m) + np.eye(stop - start)
        w = np.linalg.solve(a, m.T @ (r_inv * inst.innovation[seen]))
        us.append(inst.u_background[span] + l_i @ w)
    return patch(dec, us)


def interface_pair(model, dec, i, j):
    """(p_i, p_j) of subdomain i toward j, as the interface pass of
    subdomain i cuts them; NoInterface unless j is a neighbor of i."""
    dec.interface(i, j)
    start, stop = dec.subdomains[i]
    pairs = _interface_pass(model, dec, [i], np.zeros((1, stop - start)))
    return {k: (p_i, p_j) for k, p_i, p_j in pairs}[j]


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

"""The input rules shared through ddvar.errors, read through their callers."""

import numpy as np
import pytest

from ddvar import (
    Decomposition,
    Grid1D,
    InvalidArgument,
    InvalidDecomposition,
    SolverOptions,
    build_gaussian_covariance,
    identity_covariance,
    synthesize,
)

GRID = Grid1D.uniform(20)
BIG = 10**400  # an int that float() cannot hold
TOO_LARGE = "must fit in a float, got a value beyond its range"

# case -> (call, error, its whole message)
CASES = {
    # every real parameter, given an int past the float range
    "length_scale-big": (
        lambda: build_gaussian_covariance(GRID, BIG, 1.0),
        InvalidArgument, f"length_scale {TOO_LARGE}"),
    "sigma_b-big": (
        lambda: build_gaussian_covariance(GRID, 2.0, BIG),
        InvalidArgument, f"sigma_b {TOO_LARGE}"),
    "sigma_o-big": (
        lambda: synthesize(GRID, identity_covariance(GRID), 4, BIG, 0),
        InvalidArgument, f"sigma_o {TOO_LARGE}"),
    "spacing-big": (
        lambda: Grid1D.uniform(4, BIG),
        InvalidArgument, f"spacing {TOO_LARGE}"),
    "tol-big": (
        lambda: SolverOptions(tol=BIG),
        InvalidArgument, f"tol {TOO_LARGE}"),
    "tol-negative-big": (
        lambda: SolverOptions(tol=-BIG),
        InvalidArgument, f"tol {TOO_LARGE}"),
    # a count given as a numpy integer reads as the plain int everywhere
    "n_points-int64": (
        lambda: Grid1D.uniform(np.int64(0)),
        InvalidArgument, "n_points must be >= 1, got 0"),
    "j_sub-int64": (
        lambda: Decomposition(GRID, np.int64(0), 1),
        InvalidDecomposition, "j_sub must be >= 1, got 0"),
    "halo-int64": (
        lambda: Decomposition(GRID, 2, np.int64(-1)),
        InvalidDecomposition, "halo must be >= 0, got -1"),
    "seed-int64": (
        lambda: synthesize(GRID, identity_covariance(GRID), 4, 0.1,
                           np.int64(-1)),
        InvalidArgument, "seed must be >= 0, got -1"),
    "max_iters-int64": (
        lambda: SolverOptions(max_iters=np.int64(0)),
        InvalidArgument, "max_iters must be >= 1, got 0"),
    "threads-int32": (
        lambda: SolverOptions(threads=np.int32(0)),
        InvalidArgument, "threads must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", CASES)
def test_reals_and_counts_fail_by_name_with_one_text(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

"""The input rules shared through ddvar.errors, read through their callers."""

import numpy as np
import pytest

from ddvar import (
    SCHEME_DDDA,
    SCHEME_MPS,
    CovarianceModel,
    DdvarError,
    Decomposition,
    Grid1D,
    InvalidArgument,
    InvalidDecomposition,
    LocalSystem,
    ObsCovariance,
    ObservationSet,
    ProblemInstance,
    SolverOptions,
    assemble_global,
    assemble_local,
    assimilate,
    build_gaussian_covariance,
    control_equivalent,
    cost_w,
    equivalence_report,
    factor_check,
    fixed_point_residual,
    identity_covariance,
    interface_mismatch,
    local_gradient,
    point_observations,
    solve_ddda,
    solve_global,
    solve_mps,
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
    # a grid past the largest float64 array numpy can hold
    "n_points-too-large": (
        lambda: Grid1D.uniform(2**62),
        InvalidArgument, f"n_points must be <= {2**60 - 1}, the length of "
                         "the largest float64 array"),
}


@pytest.mark.parametrize("case", CASES)
def test_reals_and_counts_fail_by_name_with_one_text(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


INST = synthesize(GRID, build_gaussian_covariance(GRID, 2.0, 1.0), 4, 0.1, 0)
DEC = Decomposition(GRID, 2, 1)
OTHER_DEC = Decomposition(Grid1D.uniform(21), 2, 1)
SYSTEMS = [assemble_local(INST, DEC, i, SCHEME_MPS) for i in range(2)]
ONES, PAIR = np.ones(3), np.ones((1, 3))
W = [np.zeros(stop - start) for start, stop in DEC.subdomains]


def _observed(indices):
    return ObservationSet(indices, np.zeros(2), ObsCovariance(np.ones(2)))


# parameter -> (the name its message gives, a valid value, the call with
# the value in the parameter's place, the grid size if it is an index)
ARRAYS = {
    "Grid1D-coords": ("coords", np.arange(4.0), lambda v: Grid1D(v), None),
    "point_observations-obs_indices": (
        "obs_indices", np.array([1, 3]),
        lambda v: point_observations(GRID, v, [0.0, 0.0], [1.0, 1.0]), 20),
    "point_observations-values": (
        "values", np.zeros(2),
        lambda v: point_observations(GRID, [1, 3], v, [1.0, 1.0]), None),
    "point_observations-r_diag": (
        "r_diag", np.ones(2),
        lambda v: point_observations(GRID, [1, 3], [0.0, 0.0], v), None),
    "ObservationSet-obs_indices": (
        "obs_indices", np.array([1, 3]),
        lambda v: ProblemInstance(GRID, INST.cov, _observed(v), np.zeros(20)),
        20),
    "ObservationSet-values": (
        "values", np.zeros(2),
        lambda v: ObservationSet([1, 3], v, ObsCovariance(np.ones(2))), None),
    "ObsCovariance-r_diag": (
        "r_diag", np.ones(2), lambda v: ObsCovariance(v), None),
    "ProblemInstance-u_background": (
        "u_background", np.zeros(20),
        lambda v: ProblemInstance(GRID, INST.cov, INST.obs, v), None),
    "ProblemInstance-u_truth": (
        "u_truth", np.zeros(20),
        lambda v: ProblemInstance(GRID, INST.cov, INST.obs, np.zeros(20), v),
        None),
    "CovarianceModel-b_band": (
        "b_band", np.ones((1, 20)),
        lambda v: CovarianceModel(v, np.ones((1, 20))), None),
    "CovarianceModel-v_band": (
        "v_band", np.ones((1, 20)),
        lambda v: CovarianceModel(np.ones((1, 20)), v), None),
    "LocalSystem-a_band": (
        "a_band", PAIR, lambda v: LocalSystem(0, SCHEME_MPS, v, ONES), None),
    "LocalSystem-c": (
        "c", ONES, lambda v: LocalSystem(0, SCHEME_MPS, PAIR, v), None),
    "LocalSystem-p_i": (
        "penalty_pairs p_i", PAIR,
        lambda v: LocalSystem(0, SCHEME_MPS, PAIR, ONES, ((1, v, PAIR),)),
        None),
    "LocalSystem-p_j": (
        "penalty_pairs p_j", PAIR,
        lambda v: LocalSystem(0, SCHEME_MPS, PAIR, ONES, ((1, PAIR, v),)),
        None),
    "cost_w-w": ("w", np.zeros(20), lambda v: cost_w(INST, v), None),
    "control_equivalent-u": (
        "u", np.zeros(20), lambda v: control_equivalent(INST, v), None),
    "local_gradient-w_i": (
        "w", W[0], lambda v: local_gradient(SYSTEMS[0], v, {1: W[1]}), None),
    "local_gradient-neighbor_ws": (
        "neighbor 1 iterate", W[1],
        lambda v: local_gradient(SYSTEMS[0], W[0], {1: v}), None),
    "fixed_point_residual-ws": (
        "iterate for subdomain 0", W[0],
        lambda v: fixed_point_residual(SYSTEMS, [v, W[1]]), None),
    "interface_mismatch-ws": (
        "iterate for subdomain 1", W[1],
        lambda v: interface_mismatch(INST, DEC, [W[0], v]), None),
}
# id parameter -> (the name its message gives, the call with the id)
IDS = {
    "LocalSystem-subdomain": (
        "subdomain", lambda i: LocalSystem(i, SCHEME_MPS, PAIR, ONES)),
    "LocalSystem-neighbor": (
        "penalty_pairs neighbor id",
        lambda i: LocalSystem(0, SCHEME_MPS, PAIR, ONES, ((i, PAIR, PAIR),))),
}

# parameter that names one of a few choices -> (the name its message
# gives, a valid choice, the call with the value); an array, even one of
# a valid choice, is no choice
CHOICES = {
    "assemble_local-scheme": (
        "scheme", SCHEME_MPS, lambda v: assemble_local(INST, DEC, 0, v)),
    "LocalSystem-scheme": (
        "scheme", SCHEME_MPS, lambda v: LocalSystem(0, v, PAIR, ONES)),
    "assimilate-method": (
        "method", SCHEME_MPS, lambda v: assimilate(INST, DEC, v)),
    "assimilate-convention": (
        "convention", "v_times_w",
        lambda v: assimilate(INST, DEC, SCHEME_DDDA, None, v)),
    "equivalence_report-convention": (
        "convention", "v_times_w",
        lambda v: equivalence_report(INST, DEC, None, v)),
}

# a model object of the wrong kind: text, a number, a list
NOT_A_MODEL = {"text": "x", "int": 5, "list": [1, 2]}

# parameter that holds a collection or a model object -> (the name its
# message gives, the call with the value, {kind: a value that is none})
OBJECTS = {
    "Decomposition-grid": (
        "grid", lambda v: Decomposition(v, 2, 1), NOT_A_MODEL),
    "build_gaussian_covariance-grid": (
        "grid", lambda v: build_gaussian_covariance(v, 2.0, 1.0),
        NOT_A_MODEL),
    "identity_covariance-grid": ("grid", identity_covariance, NOT_A_MODEL),
    "point_observations-grid": (
        "grid", lambda v: point_observations(v, [1], [0.0], [1.0]),
        NOT_A_MODEL),
    "synthesize-grid": (
        "grid", lambda v: synthesize(v, INST.cov, 4, 0.1, 0), NOT_A_MODEL),
    "synthesize-cov": (
        "cov", lambda v: synthesize(GRID, v, 4, 0.1, 0), NOT_A_MODEL),
    "factor_check-model": ("model", factor_check, NOT_A_MODEL),
    "assemble_global-inst": ("inst", assemble_global, NOT_A_MODEL),
    "solve_global-sys": (
        "sys", solve_global, {**NOT_A_MODEL, "local system": SYSTEMS[0]}),
    "LocalSystem-penalty_pairs": (
        "penalty_pairs",
        lambda v: LocalSystem(0, SCHEME_MPS, PAIR, ONES, v),
        {"text": "x", "int": 5}),
    "LocalSystem-pair": (
        "penalty_pairs[0]",
        lambda v: LocalSystem(0, SCHEME_MPS, PAIR, ONES, (v,)),
        {"text": "x", "double": (1, PAIR), "quadruple": (1, PAIR, PAIR, 0)}),
    "interface_mismatch-ws-sequence": (
        "ws", lambda v: interface_mismatch(INST, DEC, v), {"int": 5}),
    "fixed_point_residual-ws-sequence": (
        "ws", lambda v: fixed_point_residual(SYSTEMS, v),
        {"int": 5, "scalar array": np.array(5.0)}),
    "local_gradient-neighbor_ws-mapping": (
        "neighbor_ws", lambda v: local_gradient(SYSTEMS[0], W[0], v),
        {"text": "x", "list": [W[1]]}),
    "local_gradient-sys": (
        "sys", lambda v: local_gradient(v, W[0], {1: W[1]}), {"text": "x"}),
    "ObservationSet-r_cov": (
        "r_cov", lambda v: ObservationSet([1], [0.0], v),
        {"text": "x", "array": np.ones(1)}),
    "ProblemInstance-grid": (
        "grid", lambda v: ProblemInstance(v, INST.cov, INST.obs, np.zeros(20)),
        {"text": "x"}),
    "ProblemInstance-cov": (
        "cov", lambda v: ProblemInstance(GRID, v, INST.obs, np.zeros(20)),
        {"text": "x"}),
    "ProblemInstance-obs": (
        "obs", lambda v: ProblemInstance(GRID, INST.cov, v, np.zeros(20)),
        {"text": "x"}),
    "solve_ddda-locals_": (
        "locals_", solve_ddda, {"text": "x", "int": 5, "texts": ["x"]}),
    "solve_mps-locals_": (
        "locals_", solve_mps, {"text": "x", "int": 5, "texts": ["x"]}),
    "fixed_point_residual-locals_": (
        "locals_", lambda v: fixed_point_residual(v, W), {"int": 5}),
    "cost_w-inst": (
        "inst", lambda v: cost_w(v, np.zeros(20)), {"text": "x", "int": 5}),
    "control_equivalent-inst": (
        "inst", lambda v: control_equivalent(v, np.zeros(20)),
        {"text": "x", "int": 5}),
    "assemble_local-inst": (
        "inst", lambda v: assemble_local(v, DEC, 0, SCHEME_MPS),
        {"text": "x", "decomposition": DEC}),
    "assemble_local-dec": (
        "dec", lambda v: assemble_local(INST, v, 0, SCHEME_MPS),
        {"text": "x", "grid": GRID}),
    "interface_mismatch-inst": (
        "inst", lambda v: interface_mismatch(v, DEC, W), {"text": "x"}),
    "interface_mismatch-dec": (
        "dec", lambda v: interface_mismatch(INST, v, W),
        {"text": "x", "grid": GRID}),
    "assimilate-inst": (
        "inst", lambda v: assimilate(v, DEC, SCHEME_MPS), {"text": "x"}),
    "assimilate-dec": (
        "dec", lambda v: assimilate(INST, v, SCHEME_MPS),
        {"text": "x", "grid": GRID}),
    "assimilate-opts": (
        "opts", lambda v: assimilate(INST, DEC, SCHEME_MPS, v),
        {"text": "x", "dict": {"tol": 1e-12}}),
    # opts is checked first, for the methods that never read it too
    "assimilate-opts-ddda": (
        "opts", lambda v: assimilate(INST, DEC, SCHEME_DDDA, v),
        {"text": "x", "dict": {"tol": 1e-12}}),
    "assimilate-opts-global": (
        "opts", lambda v: assimilate(INST, DEC, "global", v),
        {"text": "x", "dict": {"tol": 1e-12}}),
    "equivalence_report-dec": (
        "dec", lambda v: equivalence_report(INST, v), {"text": "x"}),
    "equivalence_report-opts": (
        "opts", lambda v: equivalence_report(INST, DEC, v), {"text": "x"}),
    # before the decomposition, another grid's, is read by the assembly
    "equivalence_report-opts-first": (
        "opts", lambda v: equivalence_report(INST, OTHER_DEC, v),
        {"text": "x", "dict": {"tol": 1e-12}}),
    "solve_mps-opts": (
        "opts", lambda v: solve_mps(SYSTEMS, v), {"text": "x"}),
}


def _bad_values(valid, n):
    """Text, a mapping, a complex and a bool array in the place of valid,
    and for an index a float one and one off the grid of n points."""
    bad = {"text": "x", "dict": {"a": 1}, "complex": valid + 1j,
           "bool": np.ones(valid.shape, bool)}
    if n is not None:
        bad.update(float=valid + 0.7, off_grid=valid + n)
    return bad


# case -> (the name its message gives, the call, the value, the error)
TABLE = {
    **{f"{param}-{kind}": (name, call, value, DdvarError)
       for param, (name, valid, call, n) in ARRAYS.items()
       for kind, value in _bad_values(valid, n).items()},
    **{f"{param}-{kind}": (name, call, value, DdvarError)
       for param, (name, call) in IDS.items()
       for kind, value in {"text": "x", "dict": {"a": 1}, "complex": 1j,
                           "bool": True, "float": 1.5,
                           "negative": -1}.items()},
    **{f"{param}-{kind}": (name, call, value, InvalidArgument)
       for param, (name, call, bad) in OBJECTS.items()
       for kind, value in bad.items()},
    **{f"{param}-{kind}": (name, call, value, InvalidArgument)
       for param, (name, valid, call) in CHOICES.items()
       for kind, value in {"array": np.zeros(2),
                           "choice array": np.array([valid])}.items()},
}


@pytest.mark.parametrize("case", TABLE)
def test_array_and_id_inputs_fail_typed_naming_the_parameter(case):
    # never a bare ValueError or TypeError, never the real part of a
    # complex input or a bool read as 0 and 1
    name, call, value, error = TABLE[case]
    with pytest.raises(error) as info:
        call(value)
    assert name in str(info.value)


def test_the_valid_values_of_the_table_pass():
    for _, valid, call, _ in ARRAYS.values():
        call(valid)
    for _, call in IDS.values():
        call(1)
    for _, valid, call in CHOICES.values():
        call(valid)

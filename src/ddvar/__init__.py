"""Domain-decomposed variational assimilation on a 1-D grid.

The package solves the Tikhonov-regularized assimilation problem three
ways (one global solve, independent subdomain solves, and an iterative
overlapping Schwarz sweep) and measures the equivalence between the two
subdomain schemes.
"""

from .analysis import (
    AssimilationResult,
    EquivalenceReport,
    assimilate,
    control_equivalent,
    equivalence_report,
    interface_mismatch,
)
from .assembly import (
    SCHEME_DDDA,
    SCHEME_MPS,
    GlobalSystem,
    LocalSystem,
    assemble_global,
    assemble_local,
    cost_w,
    local_gradient,
)
from .covariance import (
    CovarianceModel,
    ObsCovariance,
    build_gaussian_covariance,
    factor_check,
    identity_covariance,
)
from .errors import (
    DdvarError,
    DimensionMismatch,
    FactorizationFailure,
    IndexOutOfRange,
    InvalidArgument,
    InvalidDecomposition,
    MissingNeighbor,
    NoInterface,
    ParseError,
    ValidationError,
)
from .geometry import Decomposition, Grid1D, decompose_uniform
from .observation import (
    ObservationSet,
    ProblemInstance,
    point_observations,
    synthesize,
)
from .solvers import (
    IterationHistory,
    IterationRecord,
    SolverOptions,
    fixed_point_residual,
    solve_ddda,
    solve_global,
    solve_mps,
)

__version__ = "0.1.0"

__all__ = [
    "AssimilationResult",
    "CovarianceModel",
    "DdvarError",
    "Decomposition",
    "DimensionMismatch",
    "EquivalenceReport",
    "FactorizationFailure",
    "GlobalSystem",
    "Grid1D",
    "IndexOutOfRange",
    "InvalidArgument",
    "InvalidDecomposition",
    "IterationHistory",
    "IterationRecord",
    "LocalSystem",
    "MissingNeighbor",
    "NoInterface",
    "ObsCovariance",
    "ObservationSet",
    "ParseError",
    "ProblemInstance",
    "SCHEME_DDDA",
    "SCHEME_MPS",
    "SolverOptions",
    "ValidationError",
    "assemble_global",
    "assemble_local",
    "assimilate",
    "build_gaussian_covariance",
    "control_equivalent",
    "cost_w",
    "decompose_uniform",
    "equivalence_report",
    "factor_check",
    "fixed_point_residual",
    "identity_covariance",
    "interface_mismatch",
    "local_gradient",
    "point_observations",
    "solve_ddda",
    "solve_global",
    "solve_mps",
    "synthesize",
    "__version__",
]

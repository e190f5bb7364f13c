"""Exception types shared across the package."""


class DdvarError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDecomposition(DdvarError):
    """Grid too small for the requested subdomain count / overlap."""


class IndexOutOfRange(DdvarError):
    """Subdomain id outside [0, j_sub)."""


class NoInterface(DdvarError):
    """Requested interface between non-adjacent (or non-overlapping) subdomains."""


class DimensionMismatch(DdvarError):
    """Operand shape inconsistent with the operator it is applied to."""


class FactorizationFailure(DdvarError):
    """Cholesky factorization failed; matrix is not numerically SPD."""


class MissingNeighbor(DdvarError):
    """A coupled subdomain's iterate was not supplied."""


class InvalidArgument(DdvarError):
    """Argument outside its documented domain."""


class ParseError(DdvarError):
    """Config file is malformed or contains an unknown key."""


class ValidationError(DdvarError):
    """Config parsed but violates a precondition; message names the key."""

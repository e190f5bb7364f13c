"""Exception types shared across the package, and the one integer check."""

import numbers


class DdvarError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDecomposition(DdvarError):
    """Grid too small for the requested subdomain count / overlap."""


class IndexOutOfRange(DdvarError):
    """Subdomain id outside [0, j_sub), or an index that is no integer."""


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


def _check_integer(name: str, value, error=InvalidArgument) -> None:
    """Raise error, naming name, unless value is an int or a numpy integer."""
    # a bool is an Integral, but never a count or an index; a plain int
    # skips the slower ABC check, since ids are checked on every lookup
    if type(value) is not int and (isinstance(value, bool) or not
                                   isinstance(value, numbers.Integral)):
        raise error(f"{name} must be an integer, got {value!r}")

"""Exception types shared across the package, and the type checks.

Each rule on an input parameter is stated once, as a private check in
the module that takes the parameter.  The check reports the first rule a
value breaks through fail(name, message), name the parameter's: a
library entry point passes its own error's fail, the command line one
that raises ValidationError at the config key's file and line.
"""

import numbers


class DdvarError(Exception):
    """Base class for all errors raised by this package."""

    @classmethod
    def fail(cls, name: str, message: str):
        """Raise cls naming the parameter: the fail of a library check."""
        raise cls(f"{name} {message}")


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


def _check_integer(name: str, value, fail) -> None:
    """fail(name, ...) unless value is an int or a numpy integer."""
    # a bool is an Integral, but never a count or an index; a plain int
    # skips the slower ABC check, since ids are checked on every lookup
    if type(value) is not int and (isinstance(value, bool) or not
                                   isinstance(value, numbers.Integral)):
        fail(name, f"must be an integer, got {value!r}")


def _check_real(name: str, value, fail) -> None:
    """fail(name, ...) unless value is a real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        fail(name, f"must be a real number, got {value!r}")

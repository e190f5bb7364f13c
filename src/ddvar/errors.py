"""Exception types shared across the package, and the generic input rules.

Each rule on an input parameter is stated once, as a private check in
the module that takes the parameter.  The check reports the first rule a
value breaks through fail(name, message), name the parameter's: a
library entry point passes its own error's fail, the command line one
that raises ValidationError at the config key's file and line.  Rules
that many parameters share are stated here: _check_count (an integer >=
least), _check_choice (a str among the choices), _check_real (a real
that fits in a float) and, for arrays, _real_array (a float array: text,
objects, complex, bool or ragged input is InvalidArgument), _vector (of
a given length), _check_finite (naming the first NaN or infinity) and
_indices (integers in 0..n - 1); for collections and model objects,
_check_type.
"""

import numbers

import numpy as np


class DdvarError(Exception):
    """Base class for all errors raised by this package."""

    @classmethod
    def fail(cls, name: str, message: str):
        """Raise cls naming the parameter: the fail of a library check."""
        raise cls(f"{name} {message}")


class InvalidDecomposition(DdvarError):
    """Grid too small for the requested subdomain count / overlap."""


class IndexOutOfRange(DdvarError):
    """An id or a grid index that is no integer or lies out of range."""


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


def _check_count(name: str, value, fail, least: int = 1) -> None:
    """fail(name, ...) unless value is an integer >= least."""
    _check_integer(name, value, fail)
    if value < least:
        fail(name, f"must be >= {least}, got {value}")


def _check_choice(name: str, value, choices: tuple, fail) -> None:
    """fail(name, ...) unless value is a str among choices, not an array."""
    if not (isinstance(value, str) and value in choices):
        fail(name, f"must be one of {choices}, got {value!r}")


def _check_real(name: str, value, fail) -> float:
    """float(value); fail(name, ...) unless a non-bool real in float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        fail(name, f"must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # an int or a Fraction past the float range: its repr can be huge
        fail(name, "must fit in a float, got a value beyond its range")


def _array(value) -> np.ndarray:
    # value as an array; a ragged nesting, which numpy refuses, as an object
    try:
        return np.asarray(value)
    except ValueError:
        return np.array(None)


def _real_array(name: str, value) -> np.ndarray:
    """value as a float array, a float64 one as given; InvalidArgument
    unless it holds real numbers: not text, objects, complex or bool."""
    a = _array(value)
    if a.dtype.kind not in "iuf":
        raise InvalidArgument(
            f"{name} must be real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _vector(name: str, value, size: int | None = None) -> np.ndarray:
    """_real_array of shape (size,), any length if size is None, else
    DimensionMismatch."""
    vec = _real_array(name, value)
    if vec.ndim != 1 or size is not None and vec.size != size:
        raise DimensionMismatch(f"{name} has shape {vec.shape}, expected "
                                f"({'n' if size is None else size},)")
    return vec


def _check_finite(name: str, a: np.ndarray, entry: str = "value"):
    """a; InvalidArgument, naming the first entry that is not finite and its
    position, unless all are."""
    finite = np.isfinite(a)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist())
        raise InvalidArgument(
            f"{name} has a non-finite entry: {entry} {a[at]} at position "
            f"{at[0] if len(at) == 1 else at} is not finite")
    return a


def _check_type(name: str, value, cls: type, size: int | None = None):
    """value; InvalidArgument naming the parameter unless it is a cls (a
    Sequence, a Mapping or a model class), not text, of size entries."""
    if not isinstance(value, cls) or isinstance(value, str):
        fail = f"be a {cls.__name__}, got {type(value).__name__}"
    elif size is not None and len(value) != size:
        fail = f"hold {size} entries, got {len(value)}"
    else:
        return value
    raise InvalidArgument(f"{name} must {fail}")


def _indices(name: str, value, n: int | None = None) -> np.ndarray:
    """value as a flat intp array, else IndexOutOfRange: integers (an empty
    list, float64 to numpy, passes), in 0..n - 1 if n is given."""
    idx = _array(value).reshape(-1)
    if idx.size and idx.dtype.kind not in "iu":
        raise IndexOutOfRange(
            f"{name} must be integers, got dtype {idx.dtype}")
    if n is not None and idx.size and not 0 <= idx.min() <= idx.max() < n:
        raise IndexOutOfRange(f"{name} must lie in 0..{n - 1}")
    return idx.astype(np.intp, copy=False)

"""Configurable size guards, and the one rule for exact integer arrays.

All caps can be overridden through environment variables so that the command
line tools stay usable on small machines; library callers may also pass
explicit limits where an operation takes one.  ``int_dtype`` decides for
every integer array of the package whether it holds int64 or Python
integers.  The one exception is the Fourier kernel
(``cayley.fourier_transform_legs``), which holds its integers in float64
while its bound stays below 2^53, where float64 arithmetic on them is exact.
"""

import os

import numpy as np

from .errors import InvalidInputError, SizeGuardError

#: Largest group order accepted for dense matrix work (QSYM_MAX_N).
DEFAULT_MAX_N = 4096
#: Largest number of entries a dense enumeration may touch (QSYM_MAX_DENSE).
DEFAULT_MAX_DENSE = 10**6
#: Largest number of stored nonzeros in a sparse tensor (QSYM_MAX_SPARSE).
DEFAULT_MAX_SPARSE = 10**7


def _cap(name, default):
    """The non-negative integer in environment variable ``name``, or the default."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise InvalidInputError(f"{name} must be a non-negative integer, got {raw!r}")
    return value


def max_n():
    return _cap("QSYM_MAX_N", DEFAULT_MAX_N)


def max_dense():
    return _cap("QSYM_MAX_DENSE", DEFAULT_MAX_DENSE)


def max_sparse():
    return _cap("QSYM_MAX_SPARSE", DEFAULT_MAX_SPARSE)


def guard_dense(count, what):
    if count > max_dense():
        raise SizeGuardError(
            f"{what} needs {count} dense entries, over the cap {max_dense()} "
            f"(raise QSYM_MAX_DENSE to override)"
        )


def guard_sparse(count, what):
    if count > max_sparse():
        raise SizeGuardError(
            f"{what} needs {count} stored entries, over the cap {max_sparse()} "
            f"(raise QSYM_MAX_SPARSE to override)"
        )


def guard_n(n, what):
    if n > max_n():
        raise SizeGuardError(
            f"{what} needs a space of dimension {n}, over the cap {max_n()} "
            f"(raise QSYM_MAX_N to override)"
        )


def int_dtype(top: int):
    """int64 for integers whose absolute values stay at or below top < 2^62,
    Python integers (``dtype=object``) otherwise: below 2^62 two values can
    still be added in int64."""
    return np.int64 if top < 2**62 else object


def max_abs(num) -> int:
    """The largest absolute value in an integer array, 0 when it is empty."""
    return int(np.abs(num).max()) if num.size else 0

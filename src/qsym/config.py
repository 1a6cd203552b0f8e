"""Configurable size guards, and the one rule for exact integer arrays.

There are two caps: ``QSYM_MAX_DENSE`` on the entries a dense enumeration
or array may touch and ``QSYM_MAX_SPARSE`` on the stored nonzeros of a
sparse tensor.  Each builder checks its own count against one of them
before it allocates; no cap limits the group order by itself.  Both are
read from environment variables at each check, so the command line tools
stay usable on small machines.  ``int_dtype`` decides for
every integer array of the package whether it holds int64 or Python
integers.  The one exception is the Fourier kernel
(``cayley.fourier_transform_legs``), which holds its integers in float64
while its bound stays below 2^53, where float64 arithmetic on them is exact.
"""

import os

import numpy as np

from .errors import InvalidInputError, SizeGuardError

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


def max_dense():
    return _cap("QSYM_MAX_DENSE", DEFAULT_MAX_DENSE)


def max_sparse():
    return _cap("QSYM_MAX_SPARSE", DEFAULT_MAX_SPARSE)


def _refuse(what, needs, count, cap, var):
    """The refusal of ``count`` over ``cap``; ``needs`` places the count.  A
    count too long for Python's int-to-text limit is written as the power of
    two at or below it."""
    try:
        amount = str(count)
    except ValueError:
        amount = f"at least 2^{count.bit_length() - 1}"
    return SizeGuardError(
        f"{what} needs {needs.format(amount)}, over the cap {cap} (raise {var} to override)")


def guard_dense(count, what):
    if count > max_dense():
        raise _refuse(what, "{} dense entries", count, max_dense(), "QSYM_MAX_DENSE")


def guard_sparse(count, what):
    if count > max_sparse():
        raise _refuse(what, "{} stored entries", count, max_sparse(), "QSYM_MAX_SPARSE")


def int_dtype(top: int):
    """int64 for integers whose absolute values stay at or below top < 2^62,
    Python integers (``dtype=object``) otherwise: below 2^62 two values can
    still be added in int64."""
    return np.int64 if top < 2**62 else object


def max_abs(num) -> int:
    """The largest absolute value in an integer array, 0 when it is empty."""
    return int(np.abs(num).max()) if num.size else 0

"""Exact sparse tensors with cyclotomic entries.

A tensor maps k input legs to l output legs.  ``shape`` lists the axis
dimensions, outputs first, and ``out_axes`` records how many leading axes
are outputs, which fixes how composition contracts.  Absent indices are
zero.  All arithmetic is exact; equality is entrywise.

Storage is three arrays-and-numbers fields beside the level L:
- ``_idx``, a (legs, nnz) index array whose columns are the nonzero indices
  in lexicographic order, in the smallest unsigned dtype that holds
  max(shape) - 1;
- ``_num``, an (nnz, phi(L)) matrix of power-basis numerators in
  Q(zeta_L), int64 or Python integers by ``config.int_dtype``;
- ``den > 0``, so column j holds the entry ``_num[j] / den``.

A rational tensor is the phi = 1 case.  Every operation leaves the layout
normal: no zero rows, L = 1 whenever every entry is rational, and
gcd(den, numerators) = 1.  Power-basis coordinates are unique at a fixed
level, so two normal tensors at one level are equal exactly when their
arrays and denominators are.

``compose``, ``tensor``, ``scale`` and the leg transforms are one
sort-merge join, ``_join``.  It pairs the rows that agree on the contracted
columns, convolves their numerator rows (``_convolve``), sums equal indices
(``_sum_equal``) and reduces the sums once into Q(zeta_L).  That reduction,
lifts to a common level and conjugation are each one matrix product with
``cyclotomic.power_rows``, the package's one table of roots of unity.  These
arrays are the package's only field arithmetic: ``Cyclotomic`` has none.
Dicts, tuple keys and ``Cyclotomic`` values exist only at the boundary: the
dict constructor, ``from_json``, ``t[idx]``, ``entries``, ``numerators``,
``rational_entries``, ``trace`` and ``to_json``.  The partition calculus
``PartLin`` keeps its block assignments in this normal form through the
same convolution, sum and normaliser (``_normal_rows``).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod
from types import MappingProxyType

import numpy as np

from .config import guard_sparse, int_dtype, max_abs
from .cyclotomic import ZERO, Cyclotomic, euler_phi, power_rows
from .errors import InvalidInputError


def _index_type(shape):
    """The smallest unsigned dtype that holds every index of ``shape``."""
    return np.min_scalar_type(max((1, *shape)) - 1)


def _apply(num, level: int, step: int, factor: int = 1):
    """``factor`` times the rows of ``num`` with coefficient j moved to
    zeta_level^(step*j): one matrix product with ``power_rows``, in a dtype
    that holds it.  The step level // L lifts rows of level L to ``level``;
    the step level - 1 conjugates."""
    rows, colsum = power_rows(level, step, num.shape[1])
    dtype = int_dtype(max(1, max_abs(num)) * colsum * factor)
    return num.astype(dtype, copy=False) @ (rows.astype(dtype) * factor)


def _lift(t, level: int, factor: int = 1):
    """``factor`` times t's numerator matrix at ``level``, a multiple of t.level."""
    return _apply(t._num, level, level // t.level, factor)


def _sum_equal(idx, num):
    """The columns of ``idx`` in lexicographic order, the ``num`` rows of
    equal columns summed.  A strictly increasing ``idx`` is kept as it is:
    every neighbouring pair has risen by the last leg and fallen on no leg
    before the one where it rose."""
    if idx.shape[1] < 2:
        return idx, num
    risen = idx[:, 1:] > idx[:, :-1]
    for leg in range(1, len(risen)):
        risen[leg] |= risen[leg - 1]  # risen on this leg or an earlier one
    if len(idx) and risen[-1].all() and not ((idx[:, 1:] < idx[:, :-1]) & ~risen).any():
        return idx, num
    del risen  # freed before the sort and its copies
    if len(idx):
        order = np.lexsort(idx[::-1])
        idx, num = idx[:, order], num[order]
    starts = np.concatenate(([True], (idx[:, 1:] != idx[:, :-1]).any(axis=0))).nonzero()[0]
    return idx[:, starts], np.add.reduceat(num, starts, axis=0)


def _sum_parts(parts):
    """``_sum_equal`` across summed (idx, num) parts, num padded with zero columns."""
    if len(parts) == 1:
        return parts[0]
    width = max(num.shape[1] for _, num in parts)
    return _sum_equal(np.concatenate([idx for idx, _ in parts], axis=1), np.concatenate([
        np.concatenate((num, np.zeros((len(num), width - num.shape[1]), num.dtype)), axis=1)
        for _, num in parts]))


def _group_ids(cols):
    """One id per column of ``cols``, equal exactly where the columns are."""
    ids = np.zeros(cols.shape[1], dtype=np.intp)
    if len(cols) and cols.shape[1]:
        order = np.lexsort(cols[::-1])
        s = cols[:, order]
        new = np.concatenate(([False], (s[:, 1:] != s[:, :-1]).any(axis=0)))
        ids[order] = new.cumsum()
    return ids


def _normal_rows(idx, num, den: int):
    """(idx, num, den, used): the zero rows of ``num`` over den > 0 and their
    ``idx`` columns dropped, gcd(den, num) divided out, num int64 where it
    fits, and ``used`` marking the columns of num that hold a nonzero."""
    nonzero = num != 0
    keep = nonzero.any(axis=1)
    if not keep.all():
        idx, num, nonzero = idx[:, keep], num[keep], nonzero[keep]
    g = gcd(den, int(np.gcd.reduce(num, axis=None))) if den != 1 else 1
    if g != 1:
        den, num = den // g, num // g
    if num.dtype == object:
        num = num.astype(int_dtype(max_abs(num)))
    return idx, num, den, nonzero.any(axis=0)


def _convolve(a, b, dtype, sa: int = 1, sb: int = 1):
    """Row i of a times row i of b (or b's one row) as polynomials in
    ``dtype``, a's coefficient j at exponent sa * j and b's at sb * j."""
    pa, pb = a.shape[1], b.shape[1]
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.zeros((len(a), sa * (pa - 1) + sb * (pb - 1) + 1), dtype=dtype)
    for i in range(pa):
        out[:, sa * i: sa * i + sb * (pb - 1) + 1: sb] += a[:, i:i + 1] * b
    return out


class _Layout:
    """Normal (_idx, _num, den, level) from distinct index columns in
    lexicographic order, handed to ``SparseTensor`` without the index checks
    of public construction: ``_normal_rows``, level 1 if all are rational."""

    __slots__ = ("_idx", "_num", "den", "level")

    def __init__(self, idx, num, den: int = 1, level: int = 1):
        idx, num, den, used = _normal_rows(idx, num, den)
        if not used[1:].any():
            level, num = 1, num[:, :1]
        self._idx, self._num, self.den, self.level = idx, num, den, level

    def __len__(self):
        return len(self._num)


def _layout(shape, idx, num, den: int = 1, level: int = 1) -> _Layout:
    """The layout of index columns ``idx`` (any order, equal columns summed)
    with numerator rows ``num``."""
    idx = np.ascontiguousarray(idx, dtype=_index_type(shape))
    return _Layout(*_sum_equal(idx, num), den, level)


def _scalar_parts(x):
    """(level, coefficients) of an int, Fraction or Cyclotomic."""
    if isinstance(x, Cyclotomic):
        return x.level, x.coeffs
    if isinstance(x, (int, Fraction)):
        return 1, (x,)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")


def _layout_of_values(shape, values) -> _Layout:
    """The layout of {index: int | Fraction | Cyclotomic}, every index
    checked against ``shape``."""
    keys = [tuple(idx) for idx in values]
    for idx in keys:
        if len(idx) != len(shape) or not all(0 <= i < d for i, d in zip(idx, shape)):
            raise InvalidInputError(f"index {idx} out of bounds for shape {shape}")
    parts = [_scalar_parts(v) for v in values.values()]
    level = lcm(1, *(lv for lv, _ in parts))
    den = lcm(1, *(c.denominator for _, cs in parts for c in cs))
    num = np.zeros((len(parts), euler_phi(level)), dtype=object)
    for lv in {lv for lv, _ in parts}:
        rows = [j for j, part in enumerate(parts) if part[0] == lv]
        own = np.array([[c.numerator * (den // c.denominator) for c in parts[j][1]]
                        for j in rows], dtype=object)
        num[rows] = own if lv == level else _apply(own, level, level // lv)
    idx = np.array(keys, dtype=np.int64).reshape(len(keys), len(shape)).T
    return _layout(shape, idx, num, den, level)


# Pairs a join forms at a time.  A block's temporaries take about 80 bytes a
# pair, so a product with few outputs and many pairs stays within a few MiB;
# the certificates of ``verify antisym`` ran fastest at 2**16 among
# 2**12..2**20 (0.33 s against 0.40 s at 2**14, 2-vCPU Xeon).
_BLOCK_PAIRS = 2**16


def _join(a, b, keys_a, keys_b, order, shape, what: str) -> _Layout:
    """The products of the rows of a and b that agree on a's columns
    ``keys_a`` and b's columns ``keys_b``; with no key columns every row
    meets every row.  Output column j of a product is column ``order[j]``
    of a's columns followed by b's.  Its numerator row is the convolution of
    the two rows, each exponent scaled to the common level; the rows of
    equal indices are summed, block by block of pairs and then across the
    blocks, and reduced once through ``power_rows``.  The guard fires before
    any array of the pairs' size exists."""
    na, nb = len(a._num), len(b._num)
    ids = _group_ids(np.concatenate((a._idx[keys_a], b._idx[keys_b]), axis=1))
    ga, gb = ids[:na], ids[na:]
    per_group = np.bincount(gb, minlength=na + nb)
    reps = per_group[ga]
    ends = reps.cumsum()
    pairs = int(reps.sum())
    guard_sparse(min(pairs, prod(shape)), what)
    # pair p belongs to a's row i with ends[i - 1] <= p < ends[i] and meets
    # the b row at position p - ends[i - 1] of i's group in ``by_group``
    by_group, offset = gb.argsort(kind="stable"), per_group.cumsum()[ga] - ends

    level = lcm(a.level, b.level)
    (pa, sa), (pb, sb) = (a._num.shape[1], level // a.level), (b._num.shape[1], level // b.level)
    rows, colsum = power_rows(level, 1, sa * (pa - 1) + sb * (pb - 1) + 1)
    # a sum of one index has at most min(na, nb) pairs of min(pa, pb) products
    dtype = int_dtype(max_abs(a._num) * max_abs(b._num) * min(pa, pb) * min(na, nb) * colsum)
    parts, la = [], len(a._idx)
    for start in range(0, max(pairs, 1), _BLOCK_PAIRS):
        p = np.arange(start, min(start + _BLOCK_PAIRS, pairs))
        left = ends.searchsorted(p, "right")
        right = by_group[offset[left] + p]
        conv = _convolve(a._num[left], b._num[right], dtype, sa, sb)
        idx = np.empty((len(order), len(p)), dtype=_index_type(shape))
        for row, col in zip(idx, order):
            row[:] = a._idx[col].take(left) if col < la else b._idx[col - la].take(right)
        parts.append(_sum_equal(idx, conv))
    idx, conv = _sum_parts(parts)
    return _Layout(idx, conv @ rows.astype(dtype), a.den * b.den, level)


class _Entries(Mapping):
    """Read-only {index: Cyclotomic} view of a tensor.  Keys are index
    tuples in lexicographic order; values are boxed on access and never
    kept."""

    __slots__ = ("_t",)

    def __init__(self, t: "SparseTensor"):
        self._t = t

    def __len__(self):
        return self._t.nnz()

    def __iter__(self):
        return self._t._keys()

    def __contains__(self, idx):
        return self._t._find(idx) is not None

    def __getitem__(self, idx):
        j = self._t._find(idx)
        if j is None:
            raise KeyError(idx)
        return self._t._box(self._t._num[j])

    def __repr__(self):
        return f"<entries of {self._t!r}>"


class SparseTensor:
    __slots__ = ("shape", "out_axes", "level", "den", "_idx", "_num")

    def __init__(self, shape, out_axes: int, entries=None):
        if isinstance(entries, _Layout):
            shape = tuple(shape)
        else:
            shape = tuple(int(d) for d in shape)
            entries = _layout_of_values(shape, entries or {})
        if not 0 <= out_axes <= len(shape):
            raise InvalidInputError(f"out_axes {out_axes} out of range for {shape}")
        guard_sparse(len(entries), "tensor construction")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "out_axes", out_axes)
        object.__setattr__(self, "level", entries.level)
        object.__setattr__(self, "den", entries.den)
        object.__setattr__(self, "_idx", entries._idx)
        object.__setattr__(self, "_num", entries._num)

    @classmethod
    def _from_columns(cls, shape, out_axes: int, cols, num=1, den: int = 1, level: int = 1):
        """Trusted construction from a (legs, n) integer array of index
        columns, in any order, the numerators of equal columns summed.
        ``num`` is one int shared by every column, or an array whose row j
        is column j's numerator: an int when 1-D, the phi(level) power-basis
        coefficients when 2-D."""
        shape = tuple(shape)
        if isinstance(num, int):
            num = np.full(cols.shape[1], num, dtype=int_dtype(abs(num)))
        if num.ndim == 1:
            num = num[:, None]
        return cls(shape, out_axes, _layout(shape, cols, num, den, level))

    def __setattr__(self, *a):
        raise AttributeError("SparseTensor instances are immutable")

    # -- basic structure ---------------------------------------------------------

    @property
    def in_axes(self) -> int:
        return len(self.shape) - self.out_axes

    @property
    def out_shape(self):
        return self.shape[: self.out_axes]

    @property
    def in_shape(self):
        return self.shape[self.out_axes:]

    @property
    def numerators(self):
        """Read-only {index: int | tuple of phi(level) ints}, built on each
        call; the entry is the numerator over ``den`` in Q(zeta_level)."""
        values = self._num[:, 0].tolist() if self.level == 1 else map(tuple, self._num.tolist())
        return MappingProxyType(dict(zip(self._keys(), values)))

    @property
    def entries(self) -> Mapping:
        """Read-only {index: Cyclotomic} view of the nonzero entries."""
        return _Entries(self)

    def nnz(self) -> int:
        return len(self._num)

    def is_zero(self) -> bool:
        return not len(self._num)

    def _keys(self):
        """The index tuples of the nonzero entries, in lexicographic order."""
        return map(tuple, self._idx.T.tolist())

    def _find(self, idx):
        """The column holding index tuple ``idx``, or None: a binary search
        of each leg within the run of columns that match the legs before it."""
        idx = tuple(idx)
        if len(idx) != len(self.shape):
            return None
        lo, hi = 0, self.nnz()
        for row, i, d in zip(self._idx, idx, self.shape):
            if not 0 <= i < d:
                return None
            run = row[lo:hi]
            lo, hi = lo + int(run.searchsorted(i)), lo + int(run.searchsorted(i, "right"))
        return lo if lo < hi else None

    def _box(self, row) -> Cyclotomic:
        return Cyclotomic(self.level, [Fraction(int(c), self.den) for c in row])

    def __getitem__(self, idx):
        j = self._find(idx)
        return ZERO if j is None else self._box(self._num[j])

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def zeros(cls, shape, out_axes: int) -> "SparseTensor":
        return cls(shape, out_axes, {})

    @classmethod
    def identity(cls, dims) -> "SparseTensor":
        """Identity operator on a tensor product of legs with the given dims."""
        dims = tuple(dims)
        cols = np.indices(dims).reshape(len(dims), prod(dims))
        return cls._from_columns(dims + dims, len(dims), np.concatenate((cols, cols)))

    # -- linear operations --------------------------------------------------------------

    def _check_same_shape(self, other):
        if self.shape != other.shape or self.out_axes != other.out_axes:
            raise InvalidInputError(
                f"shape mismatch: {self.shape}/{self.out_axes} vs "
                f"{other.shape}/{other.out_axes}"
            )

    def __add__(self, other):
        """Both row sets at the common level and denominator, concatenated;
        the rows of equal indices are summed."""
        self._check_same_shape(other)
        guard_sparse(min(self.nnz() + other.nnz(), prod(self.shape)), "tensor sum")
        level, den = lcm(self.level, other.level), lcm(self.den, other.den)
        num = np.concatenate((_lift(self, level, den // self.den),
                              _lift(other, level, den // other.den)))
        idx = np.concatenate((self._idx, other._idx), axis=1)
        return SparseTensor(self.shape, self.out_axes, _layout(self.shape, idx, num, den, level))

    def __neg__(self):
        return SparseTensor(self.shape, self.out_axes,
                            _Layout(self._idx, -self._num, self.den, self.level))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "SparseTensor":
        f = _layout_of_values((), {(): factor})
        legs = range(len(self.shape))
        return SparseTensor(self.shape, self.out_axes,
                            _join(self, f, [], [], legs, self.shape, "scaling"))

    __mul__ = scale
    __rmul__ = scale

    # -- multiplicative structure -----------------------------------------------------------

    def compose(self, other: "SparseTensor") -> "SparseTensor":
        """self after other: contract self's input legs with other's outputs."""
        if self.in_shape != other.out_shape:
            raise InvalidInputError(
                f"cannot compose: input shape {self.in_shape} vs "
                f"output shape {other.out_shape}"
            )
        k, la, lb = self.out_axes, len(self.shape), len(other.shape)
        shape = self.out_shape + other.in_shape
        order = [*range(k), *range(la + other.out_axes, la + lb)]
        layout = _join(self, other, list(range(k, la)), list(range(other.out_axes)),
                       order, shape, "composition")
        return SparseTensor(shape, k, layout)

    def __matmul__(self, other):
        return self.compose(other)

    def tensor(self, other: "SparseTensor") -> "SparseTensor":
        """Horizontal juxtaposition: outputs then outputs, inputs then inputs."""
        k1, k2, la, lb = self.out_axes, other.out_axes, len(self.shape), len(other.shape)
        shape = self.out_shape + other.out_shape + self.in_shape + other.in_shape
        order = [*range(k1), *range(la, la + k2), *range(k1, la), *range(la + k2, la + lb)]
        return SparseTensor(shape, k1 + k2,
                            _join(self, other, [], [], order, shape, "tensor product"))

    def adjoint(self) -> "SparseTensor":
        """Conjugate transpose: swap leg roles and conjugate entries."""
        k, legs, level = self.out_axes, len(self.shape), self.level
        idx, num = _sum_equal(self._idx[[*range(k, legs), *range(k)]],
                              _apply(self._num, level, level - 1))
        return SparseTensor(self.in_shape + self.out_shape, self.in_axes,
                            _Layout(idx, num, self.den, level))

    def _transform_leg(self, axis: int, matrix, new_dim: int, key_pos: int):
        """new[.., x ,..] = sum_y old[.., y ,..] * m(y, x), where the matrix
        key holds x at ``key_pos`` and y at the other position."""
        m = matrix._t if isinstance(matrix, _Entries) else _matrix_tensor(matrix)
        if len(m.shape) != 2:
            raise InvalidInputError("a leg transform needs a two-index matrix")
        if m.nnz() and int(m._idx[key_pos].max()) >= new_dim:
            raise InvalidInputError(
                f"matrix index {int(m._idx[key_pos].max())} out of range for dim {new_dim}")
        legs = len(self.shape)
        shape = self.shape[:axis] + (new_dim,) + self.shape[axis + 1:]
        order = [*range(axis), legs + key_pos, *range(axis + 1, legs)]
        return SparseTensor(shape, self.out_axes, _join(
            self, m, [axis], [1 - key_pos], order, shape, "leg transform"))

    def transform_in_leg(self, leg: int, matrix, new_dim: int) -> "SparseTensor":
        """Substitute input leg ``leg`` (0-based among inputs) through
        ``matrix``: new[.., mu ,..] = sum_alpha old[.., alpha ,..] * matrix[alpha, mu]."""
        return self._transform_leg(self.out_axes + leg, matrix, new_dim, 1)

    def transform_out_leg(self, leg: int, matrix, new_dim: int) -> "SparseTensor":
        """Substitute output leg ``leg``: new[.., nu ,..] = sum_beta
        matrix[nu, beta] * old[.., beta ,..]."""
        return self._transform_leg(leg, matrix, new_dim, 0)

    def trace(self) -> Cyclotomic:
        """Sum of diagonal entries (square operator only)."""
        if self.out_shape != self.in_shape:
            raise InvalidInputError("trace needs matching input/output shapes")
        k = self.out_axes
        diag = self._num[(self._idx[:k] == self._idx[k:]).all(axis=0)]
        return self._box(diag.astype(int_dtype(max_abs(diag) * len(diag))).sum(axis=0))

    # -- comparison and export -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        if self.shape != other.shape or self.out_axes != other.out_axes:
            return False
        if self.nnz() != other.nnz() or not (self._idx == other._idx).all():
            return False
        if self.level == other.level:
            return self.den == other.den and bool((self._num == other._num).all())
        level = lcm(self.level, other.level)
        return bool((_lift(self, level, other.den) == _lift(other, level, self.den)).all())

    def __hash__(self):
        raise TypeError("SparseTensor is not hashable")

    def __repr__(self):
        return (
            f"SparseTensor(shape={self.shape}, out_axes={self.out_axes}, "
            f"nnz={self.nnz()})"
        )

    def to_json(self):
        return {
            "shape": list(self.shape),
            "out_axes": self.out_axes,
            "entries": [
                {"idx": list(idx), "value": self._box(row).to_json()}
                for idx, row in zip(self._keys(), self._num.tolist())
            ],
        }

    @classmethod
    def from_json(cls, data) -> "SparseTensor":
        return cls(
            data["shape"],
            data["out_axes"],
            {
                tuple(e["idx"]): Cyclotomic.from_json(e["value"])
                for e in data["entries"]
            },
        )

    def all_rational(self) -> bool:
        return self.level == 1

    def rational_entries(self) -> dict[tuple, Fraction]:
        if self.level != 1:
            raise InvalidInputError(f"tensor of level {self.level} is not rational")
        return {i: Fraction(v, self.den) for i, v in zip(self._keys(), self._num[:, 0].tolist())}


def _matrix_tensor(matrix) -> SparseTensor:
    """A {(x, y): scalar} dict as a two-axis tensor (negative keys rejected)."""
    keys = list(matrix)
    if not all(isinstance(key, tuple) and len(key) == 2 for key in keys):
        raise InvalidInputError("a leg transform needs a two-index matrix")
    shape = (
        1 + max((key[0] for key in keys), default=0),
        1 + max((key[1] for key in keys), default=0),
    )
    return SparseTensor(shape, 1, matrix)

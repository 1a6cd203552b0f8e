"""Exact sparse tensors with cyclotomic entries.

A tensor maps k input legs to l output legs; entries are keyed by the full
index tuple (output indices first, then input indices) and absent keys are
zero.  ``shape`` lists the axis dimensions in the same order and ``out_axes``
records how many leading axes are outputs, which fixes how composition
contracts.  All arithmetic is exact; equality is entrywise.

Storage is one layout per tensor: a level L, a denominator ``den > 0`` and
a dict of integer numerators, so the entry at ``idx`` is
``numerators[idx] / den`` in Q(zeta_L).  A numerator is a plain int when L = 1
and a tuple of phi(L) power-basis coefficients otherwise.  Every operation
leaves the layout normalised: no zero numerators, gcd(den, numerators) = 1,
and L = 1 whenever every entry is rational.  Power-basis coordinates are
unique at a fixed level, so two normalised tensors at the same level are
equal exactly when their denominators and numerator dicts are.
``Cyclotomic`` values appear only at the boundary: ``__getitem__``,
``entries``, ``trace`` and JSON.  Index arrays become keys in ``_from_columns``.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod
from types import MappingProxyType

from .config import guard_sparse
from .cyclotomic import ZERO, Cyclotomic, euler_phi, power_rows, recombine
from .errors import InvalidInputError

# Index columns turned into key tuples at a time by ``_from_columns``: the
# column lists of one chunk are all that exists beside the finished keys.
_KEY_CHUNK = 2**16


class _Layout:
    """Normalised (level, den, numerators), handed to ``SparseTensor``
    without the index checks of public construction."""

    __slots__ = ("level", "den", "num")

    def __init__(self, level: int, den: int, num: dict):
        self.level, self.den, self.num = _normalise(level, den, num)

    def __len__(self):
        return len(self.num)


def _normalise(level: int, den: int, num: dict):
    """Drop zeros, collapse all-rational numerators to level 1, and divide
    out gcd(den, numerators); ``num`` is taken over, not copied."""
    if euler_phi(level) == 1:
        level = 1
    zero = 0 if level == 1 else (0,) * euler_phi(level)
    if zero in num.values():
        num = {k: v for k, v in num.items() if v != zero}
    if level > 1 and not any(any(v[1:]) for v in num.values()):
        level, num = 1, {k: v[0] for k, v in num.items()}
    if not num:
        return 1, 1, num
    if den != 1:
        g = den
        for v in num.values():
            g = gcd(g, v) if level == 1 else gcd(g, *v)
            if g == 1:
                break
        if g != 1:
            den //= g
            if level == 1:
                num = {k: v // g for k, v in num.items()}
            else:
                num = {k: tuple(c // g for c in v) for k, v in num.items()}
    return level, den, num


def _scalar_parts(x):
    """(level, coefficients) of an int, Fraction or Cyclotomic."""
    if isinstance(x, Cyclotomic):
        return x.level, x.coeffs
    if isinstance(x, (int, Fraction)):
        return 1, (x,)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")


def _layout_of_values(values: dict) -> _Layout:
    """The layout of {key: int | Fraction | Cyclotomic}."""
    parts = {k: _scalar_parts(v) for k, v in values.items()}
    level = lcm(1, *(lv for lv, _ in parts.values()))
    den = lcm(1, *(c.denominator for _, cs in parts.values() for c in cs))
    by_level = {}
    for k, (lv, cs) in parts.items():
        ints = tuple(c.numerator * (den // c.denominator) for c in cs)
        by_level.setdefault(lv, {})[k] = ints[0] if lv == 1 else ints
    num = {}
    for lv, group in by_level.items():
        num.update(_lift(group, lv, level))
    return _Layout(level, den, num)


def _lift(num: dict, src: int, dst: int) -> dict:
    """Numerators at level ``src`` re-expressed at ``dst``, a multiple of src."""
    if src == dst:
        return num
    return recombine(num, power_rows(dst, dst // src, euler_phi(src)))


def _operands(a: "SparseTensor", b: "SparseTensor"):
    """(level, na, nb) for a product of a and b: an irrational side is lifted
    to the common level, a rational side keeps its int numerators."""
    level = lcm(a.level, b.level)
    na = a._num if a.level == 1 else _lift(a._num, a.level, level)
    nb = b._num if b.level == 1 else _lift(b._num, b.level, level)
    return level, na, nb


def _products(groups, level: int, rat_a: bool, rat_b: bool) -> dict:
    """Sum the products v * w of a grouped join into {key: numerator at
    level}: each group is (lefts, rights), lists of (key part, v) and
    (key part, w), and every left meets every right under the key
    ``left part + right part``.  ``rat_a``/``rat_b`` say whether the v/w are
    ints (rational) or power-basis tuples.  Products of two tuples are summed
    as unreduced convolutions and reduced once per key."""
    acc = {}
    get = acc.get
    if rat_a and rat_b:
        for lefts, rights in groups:
            for lk, v in lefts:
                for rk, w in rights:
                    key = lk + rk
                    acc[key] = get(key, 0) + v * w
        return acc
    if rat_a or rat_b:
        for lefts, rights in groups:
            for lk, v in lefts:
                for rk, w in rights:
                    key = lk + rk
                    cs, r = (w, v) if rat_a else (v, w)
                    s = get(key)
                    if s is None:
                        acc[key] = [c * r for c in cs]
                    else:
                        for i, c in enumerate(cs):
                            if c:
                                s[i] += c * r
        return {k: tuple(s) for k, s in acc.items()}
    phi = euler_phi(level)
    width = 2 * phi - 1
    for lefts, rights in groups:
        for lk, v in lefts:
            for rk, w in rights:
                key = lk + rk
                s = get(key)
                if s is None:
                    s = acc[key] = [0] * width
                for i, x in enumerate(v):
                    if x:
                        for j, y in enumerate(w):
                            if y:
                                s[i + j] += x * y
    return recombine(acc, power_rows(level, 1, width))


class _Entries(Mapping):
    """Read-only {index: Cyclotomic} view of a tensor.  ``len``, ``in`` and
    key iteration read the index set only; values are boxed on access and
    never kept."""

    __slots__ = ("_t",)

    def __init__(self, t: "SparseTensor"):
        self._t = t

    def __len__(self):
        return len(self._t._num)

    def __iter__(self):
        return iter(self._t._num)

    def __contains__(self, idx):
        return idx in self._t._num

    def __getitem__(self, idx):
        return self._t._box(self._t._num[idx])

    def __repr__(self):
        return f"<entries of {self._t!r}>"


class SparseTensor:
    __slots__ = ("shape", "out_axes", "level", "den", "_num")

    def __init__(self, shape, out_axes: int, entries=None):
        if isinstance(entries, _Layout):
            shape = tuple(shape)
            layout = entries
        else:
            shape = tuple(int(d) for d in shape)
            entries = entries or {}
            nd = len(shape)
            values = {}
            for idx, val in entries.items():
                idx = tuple(idx)
                if len(idx) != nd:
                    raise InvalidInputError(f"index {idx} out of bounds for shape {shape}")
                for i, d in zip(idx, shape):
                    if not 0 <= i < d:
                        raise InvalidInputError(
                            f"index {idx} out of bounds for shape {shape}"
                        )
                values[idx] = val
            layout = _layout_of_values(values)
        if not 0 <= out_axes <= len(shape):
            raise InvalidInputError(f"out_axes {out_axes} out of range for {shape}")
        guard_sparse(len(layout.num), "tensor construction")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "out_axes", out_axes)
        object.__setattr__(self, "level", layout.level)
        object.__setattr__(self, "den", layout.den)
        object.__setattr__(self, "_num", layout.num)

    @classmethod
    def _raw(cls, shape, out_axes: int, num: dict, den: int = 1, level: int = 1):
        """Trusted construction from numerators (taken over and normalised);
        indices are not checked."""
        return cls(shape, out_axes, _Layout(level, den, num))

    @classmethod
    def _from_columns(cls, shape, out_axes: int, cols, num=1, den: int = 1, level: int = 1):
        """Trusted construction from a (legs, nnz) integer array of distinct
        index columns.  ``num`` is one int shared by every entry, or an array
        whose row j is column j's numerator: an int when 1-D, the phi(level)
        power-basis coefficients when 2-D."""
        chunks = [slice(s, s + _KEY_CHUNK) for s in range(0, cols.shape[1], _KEY_CHUNK)]
        keys = itertools.chain.from_iterable(zip(*cols[:, c].tolist()) for c in chunks)
        if not len(cols):  # zip of no columns gives no key; a 0-leg tensor's is ()
            keys = [()] * cols.shape[1]
        if isinstance(num, int):
            return cls._raw(shape, out_axes, dict.fromkeys(keys, num), den, level)
        values = itertools.chain.from_iterable(num[c].tolist() for c in chunks)
        values = map(tuple, values) if num.ndim == 2 else values
        return cls._raw(shape, out_axes, dict(zip(keys, values)), den, level)

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
        """Read-only {index: int | tuple of phi(level) ints}; the entry is the
        numerator over ``den`` in Q(zeta_level)."""
        return MappingProxyType(self._num)

    @property
    def entries(self) -> Mapping:
        """Read-only {index: Cyclotomic} view of the nonzero entries."""
        return _Entries(self)

    def nnz(self) -> int:
        return len(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def _box(self, v) -> Cyclotomic:
        if self.level == 1:
            return Cyclotomic(1, (Fraction(v, self.den),))
        return Cyclotomic(self.level, [Fraction(c, self.den) for c in v])

    def __getitem__(self, idx):
        v = self._num.get(tuple(idx))
        return ZERO if v is None else self._box(v)

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def zeros(cls, shape, out_axes: int) -> "SparseTensor":
        return cls(shape, out_axes, {})

    @classmethod
    def identity(cls, dims) -> "SparseTensor":
        """Identity operator on a tensor product of legs with the given dims."""
        dims = tuple(dims)
        num = {p + p: 1 for p in itertools.product(*(range(d) for d in dims))}
        return cls._raw(dims + dims, len(dims), num)

    # -- linear operations --------------------------------------------------------------

    def _check_same_shape(self, other):
        if self.shape != other.shape or self.out_axes != other.out_axes:
            raise InvalidInputError(
                f"shape mismatch: {self.shape}/{self.out_axes} vs "
                f"{other.shape}/{other.out_axes}"
            )

    def __add__(self, other):
        self._check_same_shape(other)
        guard_sparse(min(self.nnz() + other.nnz(), prod(self.shape)), "tensor sum")
        level = lcm(self.level, other.level)
        a, b = _lift(self._num, self.level, level), _lift(other._num, other.level, level)
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        if level == 1:
            acc = {k: v * ma for k, v in a.items()}
            get = acc.get
            for k, w in b.items():
                acc[k] = get(k, 0) + w * mb
        else:
            acc = {k: tuple(c * ma for c in v) for k, v in a.items()}
            for k, w in b.items():
                s = acc.get(k)
                acc[k] = (tuple(c * mb for c in w) if s is None
                          else tuple(x + y * mb for x, y in zip(s, w)))
        return SparseTensor._raw(self.shape, self.out_axes, acc, den, level)

    def __neg__(self):
        if self.level == 1:
            num = {k: -v for k, v in self._num.items()}
        else:
            num = {k: tuple(-c for c in v) for k, v in self._num.items()}
        return SparseTensor._raw(self.shape, self.out_axes, num, self.den, self.level)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "SparseTensor":
        f = _layout_of_values({(): factor})
        if not f.num:
            return SparseTensor.zeros(self.shape, self.out_axes)
        # a rational p/q first cancels g = gcd(p, den): then a factor that
        # only changes the denominator copies the numerators
        g = gcd(f.num[()], self.den) if f.level == 1 else 1
        den = self.den // g * f.den
        if f.num[()] == g:
            return SparseTensor._raw(self.shape, self.out_axes, dict(self._num), den, self.level)
        level = lcm(self.level, f.level)
        a = self._num if self.level == 1 else _lift(self._num, self.level, level)
        w = f.num[()] // g if f.level == 1 else _lift(f.num, f.level, level)[()]
        num = _products([(list(a.items()), [((), w)])], level,
                        self.level == 1, f.level == 1)
        return SparseTensor._raw(self.shape, self.out_axes, num, den, level)

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
        level, a, b = _operands(self, other)
        k, ko = self.out_axes, other.out_axes
        left, right = {}, {}
        for idx, v in a.items():
            left.setdefault(idx[k:], []).append((idx[:k], v))
        for idx, w in b.items():
            right.setdefault(idx[:ko], []).append((idx[ko:], w))
        joined = [(outs, right[mid]) for mid, outs in left.items() if mid in right]
        shape = self.out_shape + other.in_shape
        products = sum(len(outs) * len(tails) for outs, tails in joined)
        guard_sparse(min(products, prod(shape)), "composition")
        num = _products(joined, level, self.level == 1, other.level == 1)
        return SparseTensor._raw(shape, k, num, self.den * other.den, level)

    def __matmul__(self, other):
        return self.compose(other)

    def tensor(self, other: "SparseTensor") -> "SparseTensor":
        """Horizontal juxtaposition: outputs then outputs, inputs then inputs."""
        guard_sparse(self.nnz() * other.nnz(), "tensor product")
        level, a, b = _operands(self, other)
        k1, k2 = self.out_axes, other.out_axes
        left = {}
        for i1, v in a.items():
            left.setdefault(i1[k1:], []).append((i1[:k1], v))
        right = [(i2[:k2], i2[k2:], w) for i2, w in b.items()]
        groups = (
            (outs, [(o2 + in1 + in2, w) for o2, in2, w in right])
            for in1, outs in left.items()
        )
        num = _products(groups, level, self.level == 1, other.level == 1)
        return SparseTensor._raw(
            self.out_shape + other.out_shape + self.in_shape + other.in_shape,
            k1 + k2, num, self.den * other.den, level,
        )

    def adjoint(self) -> "SparseTensor":
        """Conjugate transpose: swap leg roles and conjugate entries."""
        k, level = self.out_axes, self.level
        num = self._num
        if level > 1:
            num = recombine(num, power_rows(level, level - 1, euler_phi(level)))
        num = {idx[k:] + idx[:k]: v for idx, v in num.items()}
        return SparseTensor._raw(self.in_shape + self.out_shape, self.in_axes, num,
                                 self.den, level)

    def _transform_leg(self, axis: int, matrix, new_dim: int, key_pos: int):
        """new[.., x ,..] = sum_y old[.., y ,..] * m(y, x), where the matrix
        key holds x at ``key_pos`` and y at the other position."""
        m = matrix._t if isinstance(matrix, _Entries) else _matrix_tensor(matrix)
        if len(m.shape) != 2:
            raise InvalidInputError("a leg transform needs a two-index matrix")
        level, a, mnum = _operands(self, m)
        fan = {}
        for key, w in mnum.items():
            x, y = key[key_pos], key[1 - key_pos]
            if not 0 <= x < new_dim:
                raise InvalidInputError(f"matrix index {x} out of range for dim {new_dim}")
            fan.setdefault(y, []).append((x, w))
        shape = self.shape[:axis] + (new_dim,) + self.shape[axis + 1:]
        products = sum(len(fan.get(idx[axis], ())) for idx in a)
        guard_sparse(min(products, prod(shape)), "leg transform")
        heads = {}
        for idx, v in a.items():
            if idx[axis] in fan:
                heads.setdefault(idx[axis:], []).append((idx[:axis], v))
        groups = (
            (pres, [((x,) + rest[1:], w) for x, w in fan[rest[0]]])
            for rest, pres in heads.items()
        )
        num = _products(groups, level, self.level == 1, m.level == 1)
        return SparseTensor._raw(shape, self.out_axes, num, self.den * m.den, level)

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
        if not k:
            return self[()]
        diag = [v for idx, v in self._num.items()
                if idx[0] == idx[k] and idx[:k] == idx[k:]]
        if not diag:
            return ZERO
        if self.level == 1:
            return self._box(sum(diag))
        return self._box([sum(cs) for cs in zip(*diag)])

    # -- comparison and export -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        if self.shape != other.shape or self.out_axes != other.out_axes:
            return False
        if self.level == other.level:
            return self.den == other.den and self._num == other._num
        level = lcm(self.level, other.level)
        a, b = _lift(self._num, self.level, level), _lift(other._num, other.level, level)
        if a.keys() != b.keys():
            return False
        da, db = self.den, other.den
        return all(
            all(x * db == y * da for x, y in zip(v, b[k])) for k, v in a.items()
        )

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
                {"idx": list(idx), "value": self._box(self._num[idx]).to_json()}
                for idx in sorted(self._num)
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
        return {i: Fraction(v, self.den) for i, v in self._num.items()}


def _matrix_tensor(matrix) -> SparseTensor:
    """A {(x, y): scalar} dict as a two-axis tensor (negative keys rejected)."""
    keys = list(matrix)
    shape = (
        1 + max((key[0] for key in keys), default=0),
        1 + max((key[1] for key in keys), default=0),
    )
    return SparseTensor(shape, 1, matrix)

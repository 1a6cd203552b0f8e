"""Slow reference routes that the production code is checked against.

``Cyc`` is field arithmetic in Q(zeta_M) on ``Cyclotomic`` values, one
Fraction coefficient vector per value, against which the package's integer
power-basis arrays (``SparseTensor``, the Fourier twist kernel, the
spectrum's rows) are checked; sympy's cyclotomic polynomials check ``Cyc``.
``Cyc`` lifts and reduces by ``_combine``, a long division by the cyclotomic
polynomial on Fractions, and so shares no lift with the table
``power_rows`` that the package and ``Cyclotomic`` read.
``compose_partitions`` glues one pair of partitions by union-find over
their blocks; it shares no code with ``partitions.compose``, which glues
all term pairs of a product at once in numpy.  ``RefLin`` is the formal
calculus on a dict of ``Partition`` keys and ``PolyQ`` coefficients, one
object per term, against which the array ``PartLin`` is checked.
``peak_bytes`` is the one ``tracemalloc`` measurement of the tests that
check a size guard refuses before it allocates.
"""

import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest

from qsym.cyclotomic import Cyclotomic, cyclotomic_polynomial
from qsym.errors import InvalidInputError, SizeGuardError
from qsym.partitions import Partition, PartLin
from qsym.polyq import N_POLY, PolyQ


def _combine(coeffs, step: int, level: int) -> list:
    """sum_j coeffs[j] * zeta_level^(step*j) as a Fraction vector in the power
    basis of Q(zeta_level): the polynomial sum_j coeffs[j] x^(step*j mod level),
    reduced modulo the level-th cyclotomic polynomial by long division."""
    poly = cyclotomic_polynomial(level)
    phi = len(poly) - 1
    out = [Fraction(0)] * level
    for j, c in enumerate(coeffs):
        out[j * step % level] += c
    for top in range(len(out) - 1, phi - 1, -1):
        c = out[top]
        if c:
            for i, p in enumerate(poly):
                out[top - phi + i] -= c * p
    return out[:phi]


class Cyc(Cyclotomic):
    """A ``Cyclotomic`` with the field operations.  Results are ``Cyc``; an
    int, Fraction or plain ``Cyclotomic`` operand is taken as it is."""

    __slots__ = ()

    @classmethod
    def of(cls, x) -> "Cyc":
        if isinstance(x, Cyclotomic):
            return x if isinstance(x, Cyc) else cls(x.level, x.coeffs)
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")

    def _coeffs_at(self, level: int) -> list:
        if level % self.level:
            raise InvalidInputError(
                f"cannot lift level {self.level} into non-multiple level {level}")
        return _combine(self.coeffs, level // self.level, level)

    def lift(self, level: int) -> "Cyc":
        """Re-express in Q(zeta_level); self.level must divide level.  The
        result is canonical, so a rational stays at level 1."""
        return Cyc(level, self._coeffs_at(level))

    def __add__(self, other):
        other = Cyc.of(other)
        lvl = lcm(self.level, other.level)
        return Cyc(lvl, [x + y for x, y in zip(self._coeffs_at(lvl), other._coeffs_at(lvl))])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -Cyc.of(other)

    def __rsub__(self, other):
        return Cyc.of(other) - self

    def __mul__(self, other):
        other = Cyc.of(other)
        lvl = lcm(self.level, other.level)
        a, b = self._coeffs_at(lvl), other._coeffs_at(lvl)
        conv = [Fraction(0)] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
        return Cyc(lvl, _combine(conv, 1, lvl))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational; the tests need no field inverse."""
        other = Cyc.of(other)
        if not other.is_rational():
            raise InvalidInputError("division only supported by rational values")
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        return Cyc(self.level, [c / other.as_fraction() for c in self.coeffs])

    def galois(self, a: int) -> "Cyc":
        """Apply zeta -> zeta^a (a must be coprime to the level)."""
        m = self.level
        if gcd(a, m) != 1:
            raise InvalidInputError(f"galois exponent {a} not coprime to level {m}")
        return Cyc(m, _combine(self.coeffs, a, m))

    def conj(self) -> "Cyc":
        """Complex conjugation, zeta -> zeta^(level-1)."""
        return self.galois(self.level - 1)


def compose_partitions(q: Partition, p: Partition) -> tuple[Partition, int]:
    """q after p: glue p's lower row to q's upper row.

    Returns the composed partition in P(p.k, q.l) together with the number of
    closed middle-row loops (components meeting neither outer row).
    """
    if p.l != q.k:
        raise InvalidInputError(
            f"arity mismatch: cannot compose P({q.k},{q.l}) after P({p.k},{p.l})"
        )
    assign, loops = _glue(q.assign, p.assign, p.k, p.l, p.n_blocks)
    return Partition._raw(p.k, q.l, assign), loops


def _glue(qa, pa, k: int, l: int, offset: int) -> tuple[tuple, int]:
    """Canonical assignment and loop count of q after p, from their
    assignments, p's shape (k, l) and p's block count ``offset``.

    Union-find over blocks: p's block b is node b, q's block b is node
    offset + b, and middle point j joins p's block of lower point j to q's
    block of upper point j.  A component that reaches no outer point is a
    loop.
    """
    parent = list(range(offset + max(qa, default=-1) + 1))
    components = len(parent)
    for j in range(l):
        x, y = pa[k + j], offset + qa[j]
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[x] = y
            components -= 1
    roots = {}
    assign = []
    for node in pa[:k] + tuple(offset + b for b in qa[l:]):
        while parent[node] != node:
            node = parent[node]
        assign.append(roots.setdefault(node, len(roots)))
    return tuple(assign), components - len(roots)


def block_sizes(p: Partition) -> list[int]:
    return [p.assign.count(b) for b in range(p.n_blocks)]


def has_odd_block(p: Partition) -> bool:
    return any(s % 2 for s in block_sizes(p))


def partition_tensor(p: Partition, q: Partition) -> Partition:
    off = p.n_blocks
    upper = p.assign[: p.k] + tuple(b + off for b in q.assign[: q.k])
    lower = p.assign[p.k:] + tuple(b + off for b in q.assign[q.k:])
    return Partition(p.k + q.k, p.l + q.l, upper + lower)


def partition_adjoint(p: Partition) -> Partition:
    """Vertical reflection: upper and lower rows trade places."""
    return Partition(p.l, p.k, p.assign[p.k:] + p.assign[: p.k])


def partition_rotate(p: Partition, side: str) -> Partition:
    """Move the extreme upper point on one side to that side of the lower row."""
    up, lo = p.assign[: p.k], p.assign[p.k:]
    if not up:
        raise InvalidInputError("cannot rotate down: upper row is empty")
    if side == "left":
        up, lo = up[1:], (up[0],) + lo
    elif side == "right":
        up, lo = up[:-1], lo + (up[-1],)
    else:
        raise InvalidInputError(f"unknown side {side!r}")
    return Partition(p.k - 1, p.l + 1, up + lo)


class RefLin:
    """A formal combination as a dict {Partition: PolyQ}, nonzero
    coefficients only, in the order its terms were first reached."""

    def __init__(self, k: int, l: int, terms: dict):
        self.k, self.l = k, l
        self.terms = {p: c for p, c in terms.items() if not c.is_zero()}

    @classmethod
    def of(cls, x: PartLin) -> "RefLin":
        return cls(x.k, x.l, x.terms)

    def __add__(self, other: "RefLin") -> "RefLin":
        terms = dict(self.terms)
        for part, c in other.terms.items():
            terms[part] = terms.get(part, PolyQ()) + c
        return RefLin(self.k, self.l, terms)

    def __neg__(self) -> "RefLin":
        return RefLin(self.k, self.l, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "RefLin") -> "RefLin":
        return self + (-other)

    def scale(self, factor) -> "RefLin":
        factor = PolyQ.coerce(factor)
        return RefLin(self.k, self.l, {p: c * factor for p, c in self.terms.items()})

    def tensor(self, other: "RefLin") -> "RefLin":
        terms = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                r = partition_tensor(p, q)
                terms[r] = terms.get(r, PolyQ()) + cp * cq
        return RefLin(self.k + other.k, self.l + other.l, terms)

    def adjoint(self) -> "RefLin":
        return RefLin(self.l, self.k, {partition_adjoint(p): c for p, c in self.terms.items()})

    def rotate(self, side: str) -> "RefLin":
        if not self.k:
            raise InvalidInputError("cannot rotate down: upper row is empty")
        return RefLin(self.k - 1, self.l + 1,
                      {partition_rotate(p, side): c for p, c in self.terms.items()})

    def compose_after(self, p: "RefLin") -> "RefLin":
        """self after p: term-by-term PolyQ products with a factor n per
        loop, glued by union-find."""
        terms = {}
        for qp, qc in self.terms.items():
            for pp, pc in p.terms.items():
                r, loops = compose_partitions(qp, pp)
                terms[r] = terms.get(r, PolyQ()) + qc * pc * N_POLY**loops
        return RefLin(p.k, self.l, terms)

    def antisymmetrize(self) -> "RefLin":
        """A^(x l/2) . self . A^(x k/2), each row a tensor chain of
        1/2 (id - crossing)."""
        out = self
        if self.k:
            out = out.compose_after(ref_antisym_row(self.k // 2))
        if self.l:
            out = ref_antisym_row(self.l // 2).compose_after(out)
        return out


def ref_antisym_row(r: int) -> RefLin:
    half = RefLin(2, 2, {Partition.identity(2): PolyQ.const(Fraction(1, 2)),
                         Partition.crossing(): PolyQ.const(Fraction(-1, 2))})
    out = RefLin(0, 0, {Partition.identity(0): PolyQ.const(1)})
    for _ in range(r):
        out = out.tensor(half)
    return out


def reference_compose(q: PartLin, p: PartLin) -> PartLin:
    """q after p through ``RefLin``."""
    ref = RefLin.of(PartLin.coerce(q)).compose_after(RefLin.of(PartLin.coerce(p)))
    return PartLin(ref.k, ref.l, ref.terms)


def peak_bytes(call, refusal=None) -> int:
    """The peak bytes ``tracemalloc`` traces while ``call()`` runs.  With a
    ``refusal`` pattern the call must raise ``SizeGuardError`` with a
    message that matches it."""
    tracemalloc.start()
    try:
        if refusal is None:
            call()
        else:
            with pytest.raises(SizeGuardError, match=refusal):
                call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

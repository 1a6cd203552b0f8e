"""Univariate polynomials in the formal loop parameter n, over Q.

Closing a loop while composing diagrams multiplies the coefficient by n, so
coefficients of diagram combinations live in Q[n].  The representation is a
dense tuple of Fractions with trailing zeros stripped; arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .config import guard_dense
from .errors import InvalidInputError


class PolyQ:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("PolyQ values are immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, q) -> "PolyQ":
        return cls((Fraction(q),))

    @classmethod
    def n(cls, power: int = 1) -> "PolyQ":
        """The monomial n^power."""
        return cls((0,) * power + (1,))

    @staticmethod
    def coerce(x) -> "PolyQ":
        if isinstance(x, PolyQ):
            return x
        if isinstance(x, (int, Fraction)):
            return PolyQ.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to PolyQ")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = self.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PolyQ(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        other = self.coerce(other)
        if not self.coeffs or not other.coeffs:
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InvalidInputError("negative polynomial power")
        # k multiplications of at most len*k by len coefficients each
        guard_dense((len(self.coeffs) * k) ** 2, "polynomial power")
        out = PolyQ.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, value) -> Fraction:
        """Evaluate at a rational value of n."""
        value = Fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # A constant equals its Fraction, so it hashes as one.
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    # -- presentation --------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if not c:
                continue
            if j == 0:
                mono = str(abs(c))
            else:
                var = "n" if j == 1 else f"n^{j}"
                mono = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)

    def __repr__(self):
        return f"PolyQ({self})"


N_POLY = PolyQ.n()

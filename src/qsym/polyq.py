"""Univariate polynomials in the formal loop parameter n, over Q.

Closing a loop while composing diagrams multiplies the coefficient by n, so
coefficients of diagram combinations live in Q[n].  A ``PolyQ`` stores a
tuple of int numerators (constant term first) over one positive int
denominator, in lowest terms (gcd of the denominator and every numerator
is 1) with trailing zeros stripped, so each value has one representation
and arithmetic runs on Python ints.  ``coeffs`` is a read-only Fraction view
for printing; a constant equals and hashes as its Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .config import guard_dense
from .errors import InvalidInputError


class PolyQ:
    __slots__ = ("numerators", "den")

    def __init__(self, coeffs=()):
        fs = [Fraction(c) for c in coeffs]
        den = lcm(1, *(f.denominator for f in fs))
        nums, den = _lowest([f.numerator * (den // f.denominator) for f in fs], den)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _raw(cls, numerators: tuple, den: int) -> "PolyQ":
        """Trusted construction from numerators and a denominator already in
        lowest terms, trailing zeros stripped."""
        self = object.__new__(cls)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _from_ints(cls, numerators, den: int) -> "PolyQ":
        """sum_i numerators[i] n^i / den, for ints and den > 0."""
        return cls._raw(*_lowest(numerators, den))

    def __setattr__(self, *a):
        raise AttributeError("PolyQ values are immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, q) -> "PolyQ":
        q = Fraction(q)
        return cls._raw((q.numerator,) if q else (), q.denominator)

    @classmethod
    def n(cls, power: int = 1) -> "PolyQ":
        """The monomial n^power."""
        return cls._raw((0,) * power + (1,), 1)

    @staticmethod
    def coerce(x) -> "PolyQ":
        if isinstance(x, PolyQ):
            return x
        if isinstance(x, (int, Fraction)):
            return PolyQ.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to PolyQ")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.numerators)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = self.coerce(other)
        a, b, den = self.numerators, other.numerators, self.den
        if other.den != den:
            den = lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        return PolyQ._from_ints([x + y for x, y in zip(a, b)] + list(a[len(b):]), den)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ._raw(tuple(-c for c in self.numerators), self.den)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        other = self.coerce(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return PolyQ._raw((), 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return PolyQ._from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InvalidInputError("negative polynomial power")
        # k multiplications of at most len*k by len coefficients each
        guard_dense((len(self.numerators) * k) ** 2, "polynomial power")
        out = PolyQ.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def __call__(self, value) -> Fraction:
        """Evaluate at a rational value of n: Horner's rule on p and q for
        n = p/q, over den * q^degree."""
        value = Fraction(value)
        if not self.numerators:
            return Fraction(0)
        p, q = value.numerator, value.denominator
        acc, q_pow = 0, 1
        for c in reversed(self.numerators):
            acc = acc * p + c * q_pow
            q_pow *= q
        return Fraction(acc, self.den * q_pow // q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.den == other.den and self.numerators == other.numerators

    def __hash__(self):
        # A constant equals its Fraction, so it hashes as one.
        nums = self.numerators
        if len(nums) > 1:
            return hash((nums, self.den))
        if self.den == 1:
            return hash(nums[0] if nums else 0)
        return hash(Fraction(nums[0], self.den))

    # -- presentation --------------------------------------------------------------

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for j in range(len(coeffs) - 1, -1, -1):
            c = coeffs[j]
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


def _lowest(nums, den: int) -> tuple[tuple, int]:
    """Numerators and denominator of sum_i nums[i] n^i / den (den > 0) in
    lowest terms, trailing zeros stripped."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    nums = tuple(nums[:end])
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(c // g for c in nums), den // g
    return nums, den


N_POLY = PolyQ.n()

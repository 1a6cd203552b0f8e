"""Univariate polynomials in the formal loop parameter n, over Q.

Closing a loop while composing diagrams multiplies the coefficient by n, so
coefficients of diagram combinations live in Q[n].  A ``PolyQ`` stores a
tuple of int numerators (constant term first) over one positive int
denominator, in lowest terms (gcd of the denominator and every numerator
is 1) with trailing zeros stripped, so each value has one representation.
``coeffs`` is a read-only Fraction view for printing; a constant equals and
hashes as its Fraction.

A boundary type with no arithmetic: ``poly(...)`` literals, ``PartLin.scale``
factors and the ``PartLin.terms`` view use it, and a ``PartLin`` keeps an
integer matrix and multiplies its rows itself.  The ring operations on Q[n]
live in the test oracle ``tests/oracles.py::Poly``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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

    def __setattr__(self, *a):
        raise AttributeError("PolyQ values are immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, q) -> "PolyQ":
        q = Fraction(q)
        return cls._raw((q.numerator,) if q else (), q.denominator)

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
        return hash(Fraction(nums[0] if nums else 0, self.den))

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
    nums = _strip(nums)
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(c // g for c in nums), den // g
    return nums, den



def _strip(nums) -> tuple:
    """The coefficients ``nums`` with trailing zeros stripped, as a tuple."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return tuple(nums[:end])

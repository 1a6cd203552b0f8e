"""Exact arithmetic in cyclotomic fields Q(zeta_M).

An element is stored as a rational coefficient vector over the power basis
1, z, ..., z^(phi(M)-1) of Q(zeta_M), z = exp(2*pi*i/M), reduced modulo the
M-th cyclotomic polynomial.  The coefficient vector at a given level is
unique, so two values are equal when their vectors agree at the common level
of the two, as ``SparseTensor`` entries are compared.  A value hashes as its
normalised trace Tr(x)/phi(M), a rational that does not depend on the level
the value is written at.

``SparseTensor`` does not store ``Cyclotomic`` values: it keeps a matrix of
integer power-basis numerators over one shared denominator at one level, and
lifts, conjugates and reduces its rows by matrix products with
``power_rows`` below.

Floating point only ever appears as a display/diagnostic channel
(:meth:`Cyclotomic.to_complex`); all arithmetic is exact.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvalidInputError

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise InvalidInputError(f"euler_phi needs m >= 1, got {m}")
    result = m
    p, mm = 2, m
    while p * p <= mm:
        if mm % p == 0:
            while mm % p == 0:
                mm //= p
            result -= result // p
        p += 1
    if mm > 1:
        result -= result // mm
    return result


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_div_exact(num, den):
    # Exact division of integer polynomials, remainder must vanish.
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q[i] = c // den[-1]
        for j, dj in enumerate(den):
            num[i + j] -= q[i] * dj
    assert all(c == 0 for c in num)
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low to high."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_div_exact(num, den))


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the basis expansion of z^j in Q(zeta_m), for j < max(m, 2*phi-1)."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)  # monic of degree phi
    rows = []
    for j in range(phi):
        row = [0] * phi
        row[j] = 1
        rows.append(tuple(row))
    top = max(m, 2 * phi - 1)
    for _ in range(phi, top):
        prev = rows[-1]
        # multiply by z: shift, then reduce z^phi = -(poly[:-1])
        carry = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if carry:
            for i in range(phi):
                row[i] -= carry * poly[i]
        rows.append(tuple(row))
    return tuple(rows)


def _combine(coeffs, step: int, level: int) -> list:
    """sum_j coeffs[j] * zeta_level^(step*j) as a Fraction vector in the power
    basis of Q(zeta_level)."""
    rows = _reduction_rows(level)
    out = [_ZERO] * euler_phi(level)
    for j, c in enumerate(coeffs):
        if c:
            for i, r in enumerate(rows[(j * step) % level]):
                if r:
                    out[i] += c * r
    return out


@lru_cache(maxsize=None)
def power_rows(level: int, step: int, count: int) -> tuple:
    """Numerators of zeta_level^(step*j) at ``level``, for j < count.

    Row j is an int when phi(level) = 1 and a tuple of phi(level) ints
    otherwise.  ``power_rows(L, 1, n)`` reduces a power series of length n
    into Q(zeta_L); ``power_rows(L, L // K, phi(K))`` lifts level K into L;
    ``power_rows(L, L - 1, phi(L))`` is complex conjugation.
    """
    rows = _reduction_rows(level)
    out = tuple(rows[(step * j) % level] for j in range(count))
    return tuple(r[0] for r in out) if euler_phi(level) == 1 else out


class Cyclotomic:
    """An exact element of Q(zeta_level)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if level < 1:
            raise InvalidInputError(f"cyclotomic level must be >= 1, got {level}")
        if len(coeffs) != euler_phi(level):
            raise InvalidInputError(
                f"level {level} needs {euler_phi(level)} coefficients, got {len(coeffs)}"
            )
        # Rational values collapse to level 1 so simple scalars have one form.
        if level > 1 and not any(coeffs[1:]):
            level, coeffs = 1, (coeffs[0],)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        return cls(1, (Fraction(q),))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "Cyclotomic":
        """zeta_m^k, reduced to the canonical basis."""
        if m < 1:
            raise InvalidInputError(f"zeta level must be >= 1, got {m}")
        row = _reduction_rows(m)[k % m]
        return cls(m, row)

    # -- level handling ----------------------------------------------------

    def _coeffs_at(self, level: int) -> list:
        """Raw coefficient vector of self in the basis of Q(zeta_level)."""
        if level % self.level:
            raise InvalidInputError(
                f"cannot lift level {self.level} into non-multiple level {level}"
            )
        if level == self.level:
            return list(self.coeffs)
        return _combine(self.coeffs, level // self.level, level)

    def lift(self, level: int) -> "Cyclotomic":
        """Re-express in Q(zeta_level); self.level must divide level.

        Note the result re-canonicalizes, so a rational stays at level 1.
        """
        if level == self.level:
            return self
        return Cyclotomic(level, self._coeffs_at(level))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")

    def __add__(self, other):
        other = self._coerce(other)
        lvl = lcm(self.level, other.level)
        a, b = self._coeffs_at(lvl), other._coeffs_at(lvl)
        return Cyclotomic(lvl, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        # common fast path: rational scalar times anything
        if other.level == 1:
            q = other.coeffs[0]
            if q == 1:
                return self
            return Cyclotomic(self.level, tuple(c * q for c in self.coeffs))
        if self.level == 1:
            return other * self
        lvl = lcm(self.level, other.level)
        a, b = self._coeffs_at(lvl), other._coeffs_at(lvl)
        phi = len(a)
        conv = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return Cyclotomic(lvl, _combine(conv, 1, lvl))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # division by rationals only; full field inversion is never needed here
        if isinstance(other, Cyclotomic):
            if other.level != 1:
                raise InvalidInputError("division only supported by rational values")
            other = other.coeffs[0]
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return Cyclotomic(self.level, tuple(c / q for c in self.coeffs))

    def galois(self, a: int) -> "Cyclotomic":
        """Apply zeta -> zeta^a (a must be coprime to the level)."""
        m = self.level
        if gcd(a % m if a % m else m, m) != 1:
            raise InvalidInputError(f"galois exponent {a} not coprime to level {m}")
        return Cyclotomic(m, _combine(self.coeffs, a, m))

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(level-1)."""
        if self.level == 1:
            return self
        return self.galois(self.level - 1)

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return self.level == 1

    def as_fraction(self) -> Fraction:
        if self.level != 1:
            raise InvalidInputError(f"value of level {self.level} is not rational")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        if self.level == 1:
            return complex(self.coeffs[0])
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * j / self.level)
             for j, c in enumerate(self.coeffs) if c),
            complex(0),
        )

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        lvl = lcm(self.level, other.level)
        return self._coeffs_at(lvl) == other._coeffs_at(lvl)

    def __hash__(self):
        # Tr(x)/phi(level), the mean of x's Galois conjugates, is one rational
        # at every level x is written at, and x itself (its Fraction) if rational.
        m = self.level
        trace = sum(self.galois(a) for a in range(m) if gcd(a, m) == 1)
        return hash(trace.as_fraction() / euler_phi(m))

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"Cyclotomic({self.level}, {self.str()!r})"

    def str(self) -> str:
        """Human-readable form, e.g. '-1/2 + zeta8^3'."""
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                mono = f"zeta{self.level}" + (f"^{j}" if j > 1 else "")
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __str__ = str

    def to_json(self) -> dict:
        z = self.to_complex()
        return {
            "level": self.level,
            "coeffs": [str(c) for c in self.coeffs],
            "approx": [z.real, z.imag],
        }

    @classmethod
    def from_json(cls, data) -> "Cyclotomic":
        return cls(data["level"], [Fraction(s) for s in data["coeffs"]])


#: Convenience constants
ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)

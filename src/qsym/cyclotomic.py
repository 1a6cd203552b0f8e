"""Elements of cyclotomic fields Q(zeta_M) as exact boundary values.

An element is stored as a rational coefficient vector over the power basis
1, z, ..., z^(phi(M)-1) of Q(zeta_M), z = exp(2*pi*i/M), reduced modulo the
M-th cyclotomic polynomial.  The coefficient vector at a given level is
unique, so two values are equal when their vectors agree at the common level
of the two, as ``SparseTensor`` entries are compared.  A value hashes as its
normalised trace Tr(x)/phi(M), a rational that does not depend on the level
the value is written at.

``Cyclotomic`` has no arithmetic: it labels, compares, prints and serialises
results.  The field arithmetic of the package runs on integer power-basis
arrays, and ``power_rows`` below is their one table of roots of unity.
``SparseTensor`` keeps a matrix of numerators over one shared denominator at
one level, and lifts, conjugates and reduces its rows by matrix products
with it; the spectrum and the Fourier matrix and kernel index it by
exponent, and ``Cyclotomic`` lifts through it to compare across levels.

Floating point only ever appears as a display/diagnostic channel
(:meth:`Cyclotomic.to_complex`); all arithmetic is exact.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import InvalidInputError


@lru_cache(maxsize=None)  # one int per level or order met
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


@lru_cache(maxsize=None)  # one tuple per level met and per divisor of one
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


@lru_cache(maxsize=None)  # one table per level met: a group exponent or a value's level
def _reduction_rows(m: int) -> np.ndarray:
    """Row j is the power-basis expansion of z^j in Q(zeta_m), for j < m: a
    read-only (m, phi(m)) int64 matrix."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)  # monic of degree phi
    rows = [[int(i == j) for i in range(phi)] for j in range(phi)]
    for _ in range(phi, m):
        # multiply by z: shift, then reduce z^phi = -(poly[:-1])
        carry = rows[-1][-1]
        rows.append([r - carry * c for r, c in zip([0, *rows[-1][:-1]], poly)])
    table = np.array(rows, dtype=np.int64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)  # per level: step 1, level - 1 or level // K for a level K it divides
def power_rows(level: int, step: int, count: int) -> tuple[np.ndarray, int]:
    """(rows, colsum): row j of the read-only (count, phi(level)) int64
    matrix ``rows`` holds the numerators of zeta_level^(step*j) in the power
    basis of Q(zeta_level), and ``colsum`` is its largest absolute column sum.
    ``power_rows(L, 1, n)`` reduces a power series of length n into
    Q(zeta_L), ``power_rows(L, L // K, phi(K))`` lifts level K into L and
    ``power_rows(L, L - 1, phi(L))`` is complex conjugation.
    """
    rows = _reduction_rows(level)[np.arange(count) * step % level]
    rows.flags.writeable = False
    return rows, int(np.abs(rows).sum(axis=0).max())


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
        return cls(m, _reduction_rows(m)[k % m].tolist())

    # -- level handling ----------------------------------------------------

    def _coeffs_at(self, level: int) -> list:
        """Raw coefficient vector of self in the basis of Q(zeta_level)."""
        if level % self.level:
            raise InvalidInputError(
                f"cannot lift level {self.level} into non-multiple level {level}"
            )
        if level == self.level:
            return list(self.coeffs)
        den, num = self._numerators()
        rows, _ = power_rows(level, level // self.level, len(num))
        return [Fraction(c, den) for c in (num @ rows).tolist()]

    def _numerators(self) -> tuple[int, np.ndarray]:
        """(den, num): the coefficients as the integers ``num`` over one
        denominator, ``num`` an array of Python integers."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return den, np.array([c.numerator * (den // c.denominator) for c in self.coeffs],
                             dtype=object)

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
        # The conjugates' other coordinates cancel, so Tr(x) is the sum of
        # their constant coordinates: Tr(z^j) sums column 0 of the table at
        # the rows a*j for the units a.
        m = self.level
        den, num = self._numerators()
        units = np.array([a for a in range(m) if gcd(a, m) == 1])
        traces = _reduction_rows(m)[np.outer(np.arange(len(num)), units) % m, 0].sum(axis=1)
        return hash(Fraction(int(num @ traces), den * len(units)))

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


ZERO = Cyclotomic.from_rational(0)

"""Finite abelian groups as products of cyclic factors, and their characters.

A group Z_{m_1} x ... x Z_{m_n} owns a fixed enumeration of its N = prod m_i
elements (lexicographic, last coordinate fastest).  Elements double as
character labels: the character labelled mu evaluates as

    tau_mu(alpha) = prod_i gamma_i^(alpha_i * mu_i),   gamma_i = zeta_M^(M/m_i)

with M = lcm(m_i), so every character value is a single root of unity in
Q(zeta_M).  The primitive-root choice gamma_i = zeta_M^(M/m_i) is fixed once
and for all.

All group arithmetic runs on positions in that enumeration, vectorised over
numpy integer arrays (``index_sum``, ``index_neg``, ``char_exponents``).
``GroupElement`` is the boundary type: it labels characters in reports, JSON
and the command line, and ``index``/``element_at`` convert between the two.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from math import lcm, prod

import numpy as np

from .errors import InvalidInputError


def as_int(value, what: str) -> int:
    """``value`` as an int: an integer, or the decimal text of one.  Anything
    else (a float, a list, '1.5', 'x', '') is invalid input."""
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class GroupElement:
    """A tuple of residues; also used as a character label."""

    coords: tuple[int, ...]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    @property
    def degree(self) -> int:
        """Number of nonzero coordinates (deg mu)."""
        return sum(1 for c in self.coords if c)

    @property
    def zeros(self) -> int:
        """Number of zero coordinates (l_mu in the Hamming spectrum)."""
        return sum(1 for c in self.coords if not c)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_json(self):
        return list(self.coords)

    def __repr__(self):
        return f"({','.join(map(str, self.coords))})"


class AbelianGroup:
    """Z_{m_1} x ... x Z_{m_n} with a fixed element enumeration."""

    def __init__(self, orders):
        orders = tuple(as_int(m, "cyclic order") for m in orders)
        if not orders:
            raise InvalidInputError("group needs at least one cyclic factor")
        if any(m < 1 for m in orders):
            raise InvalidInputError(f"cyclic orders must be >= 1, got {orders}")
        self.orders = orders
        self.rank = len(orders)
        # one power per distinct order, so a rank of 10^5 costs no long product
        self.order = prod(m**c for m, c in Counter(orders).items())  # N
        self.exponent = lcm(*orders)  # M

    # -- elements ------------------------------------------------------------

    def element(self, coords) -> GroupElement:
        coords = tuple(as_int(c, "element coordinate") for c in coords)
        if len(coords) != self.rank:
            raise InvalidInputError(
                f"element needs {self.rank} coordinates, got {len(coords)}"
            )
        return GroupElement(tuple(c % m for c, m in zip(coords, self.orders)))

    def zero(self) -> GroupElement:
        return GroupElement((0,) * self.rank)

    def epsilon(self, i: int, a: int = 1) -> GroupElement:
        """a * eps_i, the scaled i-th canonical generator (i is 0-based)."""
        if not 0 <= i < self.rank:
            raise InvalidInputError(f"generator index {i} out of range 0..{self.rank - 1}")
        coords = [0] * self.rank
        coords[i] = a % self.orders[i]
        return GroupElement(tuple(coords))

    def elements(self):
        """All N elements, lexicographic with the last coordinate fastest."""
        for coords in itertools.product(*(range(m) for m in self.orders)):
            yield GroupElement(coords)

    def index(self, el: GroupElement) -> int:
        """Position of el in the fixed enumeration (mixed-radix value)."""
        if len(el.coords) != self.rank or not all(
            0 <= c < m for c, m in zip(el.coords, self.orders)
        ):
            raise InvalidInputError(f"element {el} is not valid for orders {self.orders}")
        return self.position(el.coords)

    def element_at(self, idx: int) -> GroupElement:
        if not 0 <= idx < self.order:
            raise InvalidInputError(f"element index {idx} out of range 0..{self.order - 1}")
        coords = []
        for m in reversed(self.orders):
            coords.append(idx % m)
            idx //= m
        return GroupElement(tuple(reversed(coords)))

    def degree_major_elements(self):
        """Presentation order used for displays: grouped by degree, then by
        the fixed enumeration inside each degree block."""
        return sorted(self.elements(), key=lambda e: e.degree)

    # -- arithmetic on positions ---------------------------------------------------

    def digits(self, idx) -> list:
        """Coordinates of the elements at positions ``idx`` (an integer
        array), one array per cyclic factor."""
        idx = np.asarray(idx, dtype=np.int64)
        digits = []
        for m in reversed(self.orders):
            digits.append(idx % m)
            idx = idx // m
        return digits[::-1]

    def position(self, digits):
        """Positions of the elements with coordinates ``digits`` (one integer
        or array per cyclic factor)."""
        idx = 0
        for d, m in zip(digits, self.orders):
            idx = idx * m + d
        return idx

    def index_sum(self, a, b):
        """Positions of alpha + beta for arrays of positions ``a`` and ``b``
        (broadcast together; every position must lie in 0..N-1)."""
        return self.position(
            [(x + y) % m for x, y, m in zip(self.digits(a), self.digits(b), self.orders)]
        )

    def index_neg(self, a):
        """Positions of -alpha for an array of positions ``a``."""
        return self.position([(-x) % m for x, m in zip(self.digits(a), self.orders)])

    def char_exponents(self, mu, alpha):
        """Exponents e with tau_mu(alpha) = zeta_M^e, for arrays of positions
        ``mu`` and ``alpha`` (broadcast together)."""
        M = self.exponent
        e = 0
        for m, x, y in zip(self.orders, self.digits(mu), self.digits(alpha)):
            e = e + (M // m) * x * y
        return e % M

    def to_json(self):
        return {"orders": list(self.orders)}

    def __repr__(self):
        return f"AbelianGroup{self.orders}"

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)


def make_group(orders) -> AbelianGroup:
    """Build Z_{m_1} x ... x Z_{m_n}; rejects empty or non-positive orders."""
    return AbelianGroup(orders)

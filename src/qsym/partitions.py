"""Set partitions of upper/lower points and their formal linear span.

A ``Partition`` divides k upper and l lower points into blocks; it is the
combinatorial shadow of a tensor mapping k legs to l legs.  ``PartLin`` is a
formal Q[n]-linear combination of partitions of a common shape.  Composition
glues the lower row of the first factor to the upper row of the second and
replaces each closed middle component ("loop") by a factor n, so identities
between combinations hold with polynomial coefficients in n.

Points are written 1..k for the upper row and 1'..l' for the lower row, as in
the text format ``P(2,2){1 2' | 2 1'}``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .config import guard_dense
from .errors import InvalidInputError
from .polyq import PolyQ


class Partition:
    """A partition of k upper + l lower points, in canonical form.

    The canonical form assigns block ids in first-occurrence order along the
    point sequence (upper left-to-right, then lower left-to-right); two
    partitions are equal iff their canonical assignments coincide.
    """

    __slots__ = ("k", "l", "assign")

    def __init__(self, k: int, l: int, assign):
        if k < 0 or l < 0:
            raise InvalidInputError(f"partition needs k, l >= 0, got ({k},{l})")
        assign = tuple(assign)
        if len(assign) != k + l:
            raise InvalidInputError(
                f"assignment covers {len(assign)} points, expected {k}+{l}"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "assign", _canonical(assign))

    @classmethod
    def _raw(cls, k: int, l: int, assign: tuple) -> "Partition":
        """Trusted construction from an assignment already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "assign", assign)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Partition values are immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_blocks(cls, k: int, l: int, blocks) -> "Partition":
        """Blocks list points as ints 1..k (upper) and strings "1'".."l'"
        (lower); negative ints -1..-l also denote lower points."""
        assign = [None] * (k + l)
        for b, block in enumerate(blocks):
            pts = list(block)
            if not pts:
                raise InvalidInputError("empty block")
            for p in pts:
                pos = _point_position(p, k, l)
                if assign[pos] is not None:
                    raise InvalidInputError(f"point {p} appears in two blocks")
                assign[pos] = b
        if any(a is None for a in assign):
            missing = [i for i, a in enumerate(assign) if a is None]
            raise InvalidInputError(f"blocks do not cover all points (missing {missing})")
        return cls(k, l, assign)

    @classmethod
    def identity(cls, k: int) -> "Partition":
        return cls(k, k, tuple(range(k)) + tuple(range(k)))

    @classmethod
    def crossing(cls) -> "Partition":
        """The two-strand crossing in P(2,2)."""
        return cls(2, 2, (0, 1, 1, 0))

    @classmethod
    def cap(cls) -> "Partition":
        """Two upper points joined, P(2,0)."""
        return cls(2, 0, (0, 0))

    @classmethod
    def cup(cls) -> "Partition":
        """Two lower points joined, P(0,2)."""
        return cls(0, 2, (0, 0))

    @classmethod
    def singleton(cls) -> "Partition":
        """One lower point in its own block, P(0,1)."""
        return cls(0, 1, (0,))

    @classmethod
    def merge(cls) -> "Partition":
        """P(2,1), all three points in one block."""
        return cls(2, 1, (0, 0, 0))

    @classmethod
    def fork(cls) -> "Partition":
        """P(1,2), all three points in one block."""
        return cls(1, 2, (0, 0, 0))

    @classmethod
    def block(cls, k: int, l: int) -> "Partition":
        """b_{k,l}: every point in a single block."""
        if k + l == 0:
            raise InvalidInputError("block partition needs at least one point")
        return cls(k, l, (0,) * (k + l))

    @classmethod
    def cycle(cls, k: int) -> "Partition":
        """p_k in P(0,2k): blocks {1,2k} and {2i,2i+1} - the rotation of
        cup^(x k), a single cycle through k two-points."""
        if k < 1:
            raise InvalidInputError("cycle needs k >= 1")
        assign = [0] * (2 * k)
        for i in range(1, k):
            assign[2 * i - 1] = i
            assign[2 * i] = i
        return cls(0, 2 * k, assign)

    # -- structure ---------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return max(self.assign) + 1 if self.assign else 0

    def blocks(self) -> list[list[int]]:
        """Blocks as lists of point positions 0..k+l-1 (upper first)."""
        out = [[] for _ in range(self.n_blocks)]
        for pos, b in enumerate(self.assign):
            out[b].append(pos)
        return out

    def block_sizes(self) -> list[int]:
        sizes = [0] * self.n_blocks
        for b in self.assign:
            sizes[b] += 1
        return sizes

    def has_odd_block(self) -> bool:
        return any(s % 2 for s in self.block_sizes())

    # -- category operations --------------------------------------------------------

    def tensor(self, other: "Partition") -> "Partition":
        off = self.n_blocks
        upper = self.assign[: self.k] + tuple(b + off for b in other.assign[: other.k])
        lower = self.assign[self.k:] + tuple(b + off for b in other.assign[other.k:])
        return Partition(self.k + other.k, self.l + other.l, upper + lower)

    def adjoint(self) -> "Partition":
        """Vertical reflection: upper and lower rows trade places."""
        return Partition(self.l, self.k, self.assign[self.k:] + self.assign[: self.k])

    def rotate(self, side: str) -> "Partition":
        """Move the extreme upper point on one side to that side of the lower row."""
        up = self.assign[: self.k]
        lo = self.assign[self.k:]
        if not up:
            raise InvalidInputError("cannot rotate down: upper row is empty")
        if side == "left":
            up, lo = up[1:], (up[0],) + lo
        elif side == "right":
            up, lo = up[:-1], lo + (up[-1],)
        else:
            raise InvalidInputError(f"unknown side {side!r}")
        return Partition(self.k - 1, self.l + 1, up + lo)

    # -- text format --------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Partition":
        m = re.fullmatch(r"\s*P\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*\{(.*)\}\s*", text, re.S)
        if not m:
            raise InvalidInputError(f"bad partition literal: {text!r}")
        k, l = int(m.group(1)), int(m.group(2))
        body = m.group(3).strip()
        blocks = []
        if body:
            for chunk in body.split("|"):
                pts = chunk.split()
                if not pts:
                    raise InvalidInputError(f"empty block in {text!r}")
                blocks.append(pts)
        return cls.from_blocks(k, l, blocks)

    def __str__(self):
        labels = [str(i + 1) for i in range(self.k)] + [
            f"{i + 1}'" for i in range(self.l)
        ]
        parts = [" ".join(labels[p] for p in block) for block in self.blocks()]
        return f"P({self.k},{self.l}){{{' | '.join(parts)}}}"

    __repr__ = __str__

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.k == other.k
            and self.l == other.l
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((self.k, self.l, self.assign))


def _canonical(assign):
    remap = {}
    out = []
    for b in assign:
        if b not in remap:
            remap[b] = len(remap)
        out.append(remap[b])
    return tuple(out)


def _point_position(p, k, l):
    if isinstance(p, str):
        p = p.strip()
        try:
            j = int(p.removesuffix("'"))
        except ValueError:  # not an integer, or more digits than int() reads
            raise InvalidInputError(f"bad point label {p!r}") from None
        if p.endswith("'"):
            if not 1 <= j <= l:
                raise InvalidInputError(f"lower point {p} out of range 1'..{l}'")
            return k + j - 1
        p = j
    if isinstance(p, int):
        if 1 <= p <= k:
            return p - 1
        if -l <= p <= -1:
            return k - p - 1  # -j -> position k + j - 1
        raise InvalidInputError(f"point {p} out of range for P({k},{l})")
    raise InvalidInputError(f"bad point label {p!r}")


def compose_partitions(q: Partition, p: Partition) -> tuple[Partition, int]:
    """q after p: glue p's lower row to q's upper row.

    Returns the composed partition in P(p.k, q.l) together with the number of
    closed middle-row loops (components meeting neither outer row).  This is
    the general route; ``compose`` relabels instead when a factor is a
    permutation partition.
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


def permutation_of(part: Partition):
    """For a permutation partition (one upper and one lower point in every
    block) the tuple sigma that joins lower point j to upper point sigma[j];
    None for every other partition."""
    k = part.k
    sigma = part.assign[k:]
    if part.l != k or part.assign[:k] != tuple(range(k)) or set(sigma) != set(range(k)):
        return None
    return sigma


def _take_after(sigma, m: int) -> tuple:
    """Points of q (shape (len(sigma), m)) that q after sigma reads: upper
    point i is q's upper point j with sigma[j] = i, the lower row is q's."""
    inverse = [0] * len(sigma)
    for j, i in enumerate(sigma):
        inverse[i] = j
    return tuple(inverse) + tuple(range(len(sigma), len(sigma) + m))


def _take_before(k: int, sigma) -> tuple:
    """Points of p (shape (k, len(sigma))) that sigma after p reads: the
    upper row is p's, lower point j is p's lower point sigma[j]."""
    return tuple(range(k)) + tuple(k + i for i in sigma)


def _relabel(assign, take) -> tuple:
    """Canonical form of the assignment whose point i is ``assign[take[i]]``."""
    remap = {}
    return tuple([remap.setdefault(assign[t], len(remap)) for t in take])


class PartLin:
    """A formal Q[n]-linear combination of partitions of one shape (k,l)."""

    __slots__ = ("k", "l", "terms")

    def __init__(self, k: int, l: int, terms=None):
        tmap = {}
        for part, coeff in (terms or {}).items():
            coeff = PolyQ.coerce(coeff)
            if part.k != k or part.l != l:
                raise InvalidInputError(
                    f"term {part} has shape ({part.k},{part.l}), expected ({k},{l})"
                )
            if not coeff.is_zero():
                tmap[part] = coeff
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "terms", tmap)

    def __setattr__(self, *a):
        raise AttributeError("PartLin instances are immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def of(cls, part: Partition, coeff=1) -> "PartLin":
        return cls(part.k, part.l, {part: PolyQ.coerce(coeff)})

    @classmethod
    def zero(cls, k: int, l: int) -> "PartLin":
        return cls(k, l, {})

    @staticmethod
    def coerce(x) -> "PartLin":
        if isinstance(x, PartLin):
            return x
        if isinstance(x, Partition):
            return PartLin.of(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to PartLin")

    # -- linear structure ----------------------------------------------------------

    def __add__(self, other):
        other = self.coerce(other)
        self._check_shape(other)
        terms = dict(self.terms)
        for part, c in other.terms.items():
            terms[part] = terms.get(part, PolyQ()) + c
        return PartLin(self.k, self.l, terms)

    def __neg__(self):
        return PartLin(self.k, self.l, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def scale(self, factor) -> "PartLin":
        factor = PolyQ.coerce(factor)
        return PartLin(self.k, self.l, {p: c * factor for p, c in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def _check_shape(self, other):
        if (self.k, self.l) != (other.k, other.l):
            raise InvalidInputError(
                f"shape mismatch: ({self.k},{self.l}) vs ({other.k},{other.l})"
            )

    # -- category operations ----------------------------------------------------------

    def tensor(self, other) -> "PartLin":
        other = self.coerce(other)
        guard_dense(len(self.terms) * len(other.terms), "partition tensor product")
        terms = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                r = p.tensor(q)
                c = cp * cq
                terms[r] = terms.get(r, PolyQ()) + c
        return PartLin(self.k + other.k, self.l + other.l, terms)

    def adjoint(self) -> "PartLin":
        return PartLin(
            self.l, self.k, {p.adjoint(): c for p, c in self.terms.items()}
        )

    def rotate(self, side: str) -> "PartLin":
        terms = {}
        for p, c in self.terms.items():
            r = p.rotate(side)
            terms[r] = terms.get(r, PolyQ()) + c
        return PartLin(self.k - 1, self.l + 1, terms)

    # -- queries -------------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Partition):
            other = PartLin.of(other)
        if not isinstance(other, PartLin):
            return NotImplemented
        return (self.k, self.l) == (other.k, other.l) and self.terms == other.terms

    def __hash__(self):
        return hash((self.k, self.l, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: str(kv[0]))

    def __str__(self):
        if not self.terms:
            return f"0 [shape ({self.k},{self.l})]"
        bits = []
        for part, coeff in self.sorted_terms():
            cs = str(coeff)
            if cs == "1":
                bits.append(str(part))
            elif cs == "-1":
                bits.append(f"-{part}")
            else:
                cs = f"({cs})" if (" " in cs) else cs
                bits.append(f"{cs} * {part}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    __repr__ = __str__

    def to_json(self):
        return {
            "k": self.k,
            "l": self.l,
            "terms": [
                {"partition": str(p), "coeff": str(c)} for p, c in self.sorted_terms()
            ],
        }


def compose(q, p) -> PartLin:
    """q after p, bilinearly, with a factor n per closed loop.

    Each factor's coefficients are cleared to integers over one denominator,
    and the products are summed per output partition and power of n before
    one PolyQ per output is built.  A pair with a permutation factor is
    composed by relabelling (decided once per term), any other by gluing.
    """
    q, p = PartLin.coerce(q), PartLin.coerce(p)
    if p.l != q.k:
        raise InvalidInputError(
            f"arity mismatch: cannot compose shapes ({q.k},{q.l}) after ({p.k},{p.l})"
        )
    guard_dense(len(q.terms) * len(p.terms), "partition composition")
    k, l, m = p.k, p.l, q.l
    q_den, q_terms = _integer_terms(q)
    p_den, p_terms = _integer_terms(p)
    p_rows = []
    for part, coeff in p_terms:
        sigma = permutation_of(part)
        take = None if sigma is None else _take_after(sigma, m)
        p_rows.append((part.assign, part.n_blocks, take, coeff))
    acc = {}
    for part, q_coeff in q_terms:
        qa = part.assign
        sigma = permutation_of(part)
        q_take = None if sigma is None else _take_before(k, sigma)
        for pa, offset, p_take, p_coeff in p_rows:
            if p_take is not None:
                r, loops = _relabel(qa, p_take), 0
            elif q_take is not None:
                r, loops = _relabel(pa, q_take), 0
            else:
                r, loops = _glue(qa, pa, k, l, offset)
            sums = acc.get(r)
            if sums is None:
                sums = acc[r] = {}
            for dq, x in q_coeff:
                for dp, y in p_coeff:
                    d = dq + dp + loops
                    sums[d] = sums.get(d, 0) + x * y
    den = q_den * p_den
    return PartLin(k, m, {
        Partition._raw(k, m, r): PolyQ(
            [Fraction(sums.get(d, 0), den) for d in range(max(sums) + 1)])
        for r, sums in acc.items()
    })


def _integer_terms(x: PartLin):
    """(D, [(partition, [(power of n, integer coefficient)])]) with every
    coefficient of x equal to its integers over D."""
    den = lcm(1, *(c.denominator for coeff in x.terms.values() for c in coeff.coeffs))
    return den, [
        (part, [(d, c.numerator * (den // c.denominator))
                for d, c in enumerate(coeff.coeffs) if c])
        for part, coeff in x.terms.items()
    ]


@lru_cache(maxsize=None)
def antisym2() -> PartLin:
    """The two-point antisymmetrizer 1/2 (id - crossing) in P(2,2)."""
    return PartLin(
        2,
        2,
        {
            Partition.identity(2): PolyQ.const(Fraction(1, 2)),
            Partition.crossing(): PolyQ.const(Fraction(-1, 2)),
        },
    )


@lru_cache(maxsize=None)
def antisym_row(r: int) -> PartLin:
    """antisym2^(x r), acting on a row of r two-points (2r actual points)."""
    out = PartLin.of(Partition.identity(0)) if r == 0 else antisym2()
    for _ in range(r - 1):
        out = out.tensor(antisym2())
    return out


def antisymmetrize(x) -> PartLin:
    """Two-point antisymmetrization A^(x l/2) . x . A^(x k/2).

    Both rows must have an even number of points; each adjacent pair
    (2i-1, 2i) is treated as one two-point.
    """
    x = PartLin.coerce(x)
    if x.k % 2 or x.l % 2:
        raise InvalidInputError(
            f"antisymmetrize needs even rows, got shape ({x.k},{x.l})"
        )
    out = x
    if x.k:
        out = compose(out, antisym_row(x.k // 2))
    if x.l:
        out = compose(antisym_row(x.l // 2), out)
    return out


@lru_cache(maxsize=None)
def _twopoint_swap_element(r: int, i: int) -> PartLin:
    """Antisymmetrized crossing of adjacent two-points i, i+1 (1-based) in a
    row of r two-points."""
    if not 1 <= i < r:
        raise InvalidInputError(f"two-point position {i} out of range 1..{r - 1}")
    swap = Partition.from_blocks(4, 4, [[1, "3'"], [2, "4'"], [3, "1'"], [4, "2'"]])
    factors = []
    for j in range(1, r + 1):
        if j == i:
            factors.append(PartLin.of(swap))
        elif j == i + 1:
            continue
        else:
            factors.append(PartLin.of(Partition.identity(2)))
    out = factors[0]
    for f in factors[1:]:
        out = out.tensor(f)
    return antisymmetrize(out)


def two_point_swap(e: PartLin, i: int, row: str = "lower") -> PartLin:
    """Compose e with the antisymmetrized crossing of two-points i and i+1.

    ``row='lower'`` acts on the output row (e must have l = 2r points there);
    ``row='upper'`` acts on the input row.
    """
    e = PartLin.coerce(e)
    if row == "lower":
        if e.l % 2:
            raise InvalidInputError("lower row is not two-point structured")
        return compose(_twopoint_swap_element(e.l // 2, i), e)
    if row == "upper":
        if e.k % 2:
            raise InvalidInputError("upper row is not two-point structured")
        return compose(e, _twopoint_swap_element(e.k // 2, i))
    raise InvalidInputError(f"unknown row {row!r}")

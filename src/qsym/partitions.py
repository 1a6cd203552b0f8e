"""Set partitions of upper/lower points and their formal linear span.

A ``Partition`` divides k upper and l lower points into blocks; it is the
combinatorial shadow of a tensor mapping k legs to l legs.  ``PartLin`` is a
formal Q[n]-linear combination of partitions of a common shape.  Composition
glues the lower row of the first factor to the upper row of the second and
replaces each closed middle component ("loop") by a factor n, so identities
between combinations hold with polynomial coefficients in n.  ``compose``
glues all term pairs of a product at once in numpy; ``compose_partitions``
is the one-pair union-find it is checked against.

Points are written 1..k for the upper row and 1'..l' for the lower row, as in
the text format ``P(2,2){1 2' | 2 1'}``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

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
    the union-find oracle for the vectorised ``compose``.
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

    One vectorised route: ``_glue_pairs`` glues all term pairs at once in
    numpy blocks, and ``compose_partitions``, one pair by union-find, is the
    oracle it is tested against.  Each factor's coefficients are cleared to
    integers over one denominator, and the products are summed per output
    partition and power of n before one PolyQ per output is built.  Output
    terms keep the order in which the pairs (q's terms outer, p's inner)
    first reach them.
    """
    q, p = PartLin.coerce(q), PartLin.coerce(p)
    if p.l != q.k:
        raise InvalidInputError(
            f"arity mismatch: cannot compose shapes ({q.k},{q.l}) after ({p.k},{p.l})"
        )
    pairs = len(q.terms) * len(p.terms)
    guard_dense(pairs, "partition composition")
    k, l, m = p.k, p.l, q.l
    if not pairs:
        return PartLin.zero(k, m)
    q_den, q_rows = _integer_terms(q)
    p_den, p_rows = _integer_terms(p)
    rows, loops = _glue_pairs(list(q.terms), list(p.terms), k, l, m)
    gid, firsts = _group_rows(rows)
    sums = _sum_products(gid, len(firsts), loops, q_rows, p_rows)
    den = q_den * p_den
    return PartLin(k, m, {
        Partition._raw(k, m, tuple(r)): PolyQ([Fraction(c, den) for c in cs])
        for r, cs in zip(rows[firsts].tolist(), sums.tolist())
    })


def _integer_terms(x: PartLin):
    """(D, rows) with row t holding the integers over D of the coefficients
    of x's term t, from the constant up, padded with zeros to one length."""
    den = lcm(1, *(c.denominator for coeff in x.terms.values() for c in coeff.coeffs))
    width = max(len(coeff.coeffs) for coeff in x.terms.values())
    return den, [
        [c.numerator * (den // c.denominator) for c in coeff.coeffs]
        + [0] * (width - len(coeff.coeffs))
        for coeff in x.terms.values()
    ]


# Label nodes per block of pairs glued together.  It bounds the temporaries
# whatever the pair count; the lemma products ran fastest at 2**13 among
# 2**12..2**17 (2-vCPU Xeon), where a block's node arrays take 64 KiB.
_BLOCK_ENTRIES = 2**13


def _glue_pairs(q_parts, p_parts, k: int, l: int, m: int):
    """Canonical outer rows (pairs x (k+m)) and loop counts of q after p for
    every pair of partitions q in q_parts (shape (l, m)) and p in p_parts
    (shape (k, l)); pair a * len(p_parts) + b glues q_parts[a] after
    p_parts[b].

    A pair has V = k + 2l + m label nodes: p's block b is node b and q's
    block b is node k + l + b, so unused labels are isolated nodes.  Pairs
    are glued a block of rows at a time.
    """
    V = k + 2 * l + m
    # the smallest integer type that holds every label, 0..V-1
    dtype = np.int8 if V <= 2**7 else np.int16 if V <= 2**15 else np.int32
    n_p = len(p_parts)
    qa = np.array([part.assign for part in q_parts], dtype=dtype).reshape(len(q_parts), l + m)
    pa = np.array([part.assign for part in p_parts], dtype=dtype).reshape(n_p, k + l)
    q_blocks = np.array([part.n_blocks for part in q_parts])
    p_blocks = np.array([part.n_blocks for part in p_parts])
    pairs = len(q_parts) * n_p
    rows = np.empty((pairs, k + m), dtype=dtype)
    loops = np.empty(pairs, dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // max(V, 1))
    nodes = np.arange(min(step, pairs) * V)
    for start in range(0, pairs, step):
        a, b = np.divmod(np.arange(start, min(start + step, pairs)), n_p)
        block = slice(start, start + len(a))
        rows[block], loops[block] = _glue_block(
            qa[a], pa[b], q_blocks[a] + p_blocks[b], k, l, V, nodes[:len(a) * V])
    return rows, loops


def _glue_block(qa, pa, used, k: int, l: int, V: int, nodes):
    """Canonical outer rows and loop counts of the pairs q = qa[i] after
    p = pa[i], where ``used`` counts the labels each pair's blocks take and
    ``nodes`` numbers every pair's V label nodes flat, row i's node x being
    i * V + x.

    Components come from hooking and pointer jumping: each round hooks every
    root that a still-unjoined middle point touches onto the smaller root
    across it, then jumps pointers until every node points at its root.
    """
    R = len(qa)
    base = np.arange(R)[:, None] * V
    lower = base + (k + l)
    parent = nodes.copy()
    u = (pa[:, k:] + base).ravel()
    v = (qa[:, :l] + lower).ravel()
    hi, lo = v, u  # every node starts as its own root, p's before q's
    while hi.size:
        np.minimum.at(parent, hi, lo)
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        hi, lo = np.maximum(ru, rv), np.minimum(ru, rv)
    outer = np.concatenate((pa[:, :k] + base, qa[:, l:] + lower), axis=1)
    roots = parent[outer.ravel()]
    # the first outer entry of each root; ufunc.at is given values of the
    # full index shape, as it may misread broadcast ones
    entries = np.arange(roots.size)
    first = np.full(len(nodes), roots.size)
    np.minimum.at(first, roots, entries)
    at = first[roots]
    opens = at == entries
    # a label is the rank of its first entry among the row's first entries
    rank = np.empty(roots.size, dtype=np.intp)
    starts = opens.nonzero()[0]
    rank[starts] = np.arange(len(starts))
    label = rank[at].reshape(outer.shape)
    hooked = (parent != nodes).reshape(R, V).sum(axis=1)
    distinct = opens.reshape(outer.shape).sum(axis=1)
    return label - label[:, :1], used - hooked - distinct


def _group_rows(rows):
    """(group of each row, first row of each group), groups numbered in the
    order of their first rows."""
    pairs = len(rows)
    keys = rows[:, (rows != rows[0]).any(axis=0)]  # a column all rows share orders nothing
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(pairs)
    ranked = keys[order]
    opens = np.ones(pairs, dtype=bool)
    opens[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = opens.nonzero()[0]
    firsts = order[starts]  # lexsort is stable: a run's first row is its least
    is_first = np.zeros(pairs, dtype=bool)
    is_first[firsts] = True
    ordered = is_first.nonzero()[0]  # the first rows in row order; group g starts at ordered[g]
    rank = np.empty(pairs, dtype=np.intp)
    rank[ordered] = np.arange(len(ordered))
    gid = np.empty(pairs, dtype=np.intp)
    gid[order] = rank[firsts][opens.cumsum() - 1]
    return gid, ordered


def _sum_products(gid, groups: int, loops, q_rows, p_rows):
    """Per group and power of n, the sum over its pairs (a, b) of
    q_rows[a][i] * p_rows[b][j] at power i + j + loops; int64 when no sum
    can reach 2^62, Python integers otherwise."""
    Dq, Dp = len(q_rows[0]), len(p_rows[0])
    top = max(abs(c) for row in q_rows for c in row) * max(
        abs(c) for row in p_rows for c in row)
    dtype = np.int64 if top * len(gid) * Dq * Dp < 2**62 else object
    Cq, Cp = np.array(q_rows, dtype=dtype), np.array(p_rows, dtype=dtype)
    sums = np.zeros((groups, Dq + Dp - 1 + int(loops.max())), dtype=dtype)
    for i in range(Dq):
        for j in range(Dp):
            np.add.at(sums, (gid, loops + (i + j)), np.multiply.outer(Cq[:, i], Cp[:, j]).ravel())
    return sums


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

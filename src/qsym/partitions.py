"""Set partitions of upper/lower points and their formal linear span.

A ``Partition`` divides k upper and l lower points into blocks; it is the
combinatorial shadow of a tensor mapping k legs to l legs.  ``PartLin`` is a
formal Q[n]-linear combination of partitions of a common shape.  Composition
glues the lower row of the first factor to the upper row of the second and
replaces each closed middle component ("loop") by a factor n, so identities
between combinations hold with polynomial coefficients in n.  ``compose``
is the one composition route: it glues all term pairs of a product at once
in numpy, and ``verify functoriality`` checks it against the tensor functor.
Two-point antisymmetrizer rows are written down term by term.

Points are written 1..k for the upper row and 1'..l' for the lower row, as in
the text format ``P(2,2){1 2' | 2 1'}``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import lcm

import numpy as np

from .config import guard_dense, max_dense
from .errors import InvalidInputError, SizeGuardError
from .polyq import PolyQ


class Partition:
    """A partition of k upper + l lower points, in canonical form.

    The canonical form assigns block ids in first-occurrence order along the
    point sequence (upper left-to-right, then lower left-to-right); two
    partitions are equal iff their canonical assignments coincide.
    """

    __slots__ = ("k", "l", "assign", "_hash")

    def __init__(self, k: int, l: int, assign):
        if k < 0 or l < 0:
            raise InvalidInputError(f"partition needs k, l >= 0, got ({k},{l})")
        assign = tuple(assign)
        if len(assign) != k + l:
            raise InvalidInputError(
                f"assignment covers {len(assign)} points, expected {k}+{l}"
            )
        assign = _canonical(assign)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "_hash", hash((k, l, assign)))

    @classmethod
    def _raw(cls, k: int, l: int, assign: tuple) -> "Partition":
        """Trusted construction from an assignment already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "_hash", hash((k, l, assign)))
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
        return self._hash


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

    @classmethod
    def _raw(cls, k: int, l: int, terms: dict) -> "PartLin":
        """Trusted construction from a dict of partitions of shape (k,l) to
        nonzero PolyQ coefficients, which it keeps without a copy."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "terms", terms)
        return self

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
        cancelled = False
        for part, c in other.terms.items():
            mine = terms.get(part)
            if mine is not None:
                c = mine + c
                cancelled = cancelled or c.is_zero()
            terms[part] = c
        if cancelled:
            terms = {p: c for p, c in terms.items() if not c.is_zero()}
        return PartLin._raw(self.k, self.l, terms)

    def __neg__(self):
        return PartLin._raw(self.k, self.l, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def scale(self, factor) -> "PartLin":
        factor = PolyQ.coerce(factor)
        if factor.is_zero():
            return PartLin.zero(self.k, self.l)
        return PartLin._raw(self.k, self.l, {p: c * factor for p, c in self.terms.items()})

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

    The only composition route: ``_glue_pairs`` glues all term pairs at
    once in numpy blocks, and ``verify functoriality`` checks its partition
    and loop count through T_q T_p = N^loops T_(q after p).  Each factor's
    coefficients are cleared to integers over one denominator, the products
    are summed per output partition and power of n, and each output's
    integer row becomes its PolyQ with one gcd.  Output terms keep the
    order in which the pairs (q's terms outer, p's inner) first reach them.
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
    terms = {}
    for r, cs in zip(rows[firsts].tolist(), sums.tolist()):
        coeff = PolyQ._from_ints(cs, den)
        if not coeff.is_zero():
            terms[Partition._raw(k, m, tuple(r))] = coeff
    return PartLin._raw(k, m, terms)


def _integer_terms(x: PartLin):
    """(D, rows) with row t holding the integers over D of the coefficients
    of x's term t, from the constant up, padded with zeros to one length."""
    coeffs = x.terms.values()
    den = lcm(*(c.den for c in coeffs))
    width = max(len(c.numerators) for c in coeffs)
    return den, [
        [v * (den // c.den) for v in c.numerators] + [0] * (width - len(c.numerators))
        for c in coeffs
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
def antisym_row(r: int) -> PartLin:
    """The two-point antisymmetrizer 1/2 (id - crossing) tensored r times,
    acting on a row of r two-points (2r actual points).

    Written down directly: the term of a subset S of the two-points crosses
    each two-point in S and has coefficient (-1)^|S| / 2^r.  Terms come in
    the tensor product's order, the last two-point varying fastest.
    """
    # term t crosses two-point j when bit r-1-j of t is set
    crossed = (np.arange(2**r)[:, None] >> np.arange(r - 1, -1, -1)) & 1
    # crossing two-point j joins lower point 2j to upper 2j+1 and back
    lower = np.arange(2 * r).reshape(r, 2) + crossed[:, :, None] * [1, -1]
    upper = tuple(range(2 * r))
    signs = tuple(PolyQ._raw((s,), 2**r) for s in (1, -1))
    odd = (crossed.sum(axis=1) % 2).tolist()
    return PartLin._raw(2 * r, 2 * r, {
        Partition._raw(2 * r, 2 * r, upper + tuple(row)): signs[o]
        for row, o in zip(lower.reshape(2**r, 2 * r).tolist(), odd)})


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
    if x.is_zero():
        return x
    # Guard before a row of 2^(k/2) or 2^(l/2) terms is built: the larger
    # row, counted as the tensor product of two-point antisymmetrizers it
    # equals, then both compositions, the second pairing at most
    # len(x.terms) * 2^(k/2) terms of the first result with 2^(l/2).
    if max(x.k, x.l) > 2:
        _guard_power_of_two(max(x.k, x.l) // 2, "partition tensor product")
    if x.k or x.l:
        _guard_power_of_two((x.k + x.l) // 2, "partition composition", len(x.terms))
    out = x
    if x.k:
        out = compose(out, antisym_row(x.k // 2))
    if x.l:
        out = compose(antisym_row(x.l // 2), out)
    return out


def _guard_power_of_two(e: int, what: str, factor: int = 1):
    """guard_dense(factor * 2^e, what) for factor >= 1, without forming 2^e
    when it alone is over the cap: it may have too many digits to print."""
    if e >= max_dense().bit_length():
        raise SizeGuardError(
            f"{what} needs at least 2^{e} dense entries, over the cap {max_dense()} "
            f"(raise QSYM_MAX_DENSE to override)")
    guard_dense(factor << e, what)


@lru_cache(maxsize=None)
def _twopoint_swap_element(r: int, i: int) -> PartLin:
    """Antisymmetrized crossing of adjacent two-points i, i+1 (1-based) in a
    row of r two-points: the permutation partition that trades the two
    two-points and fixes every other point, antisymmetrized."""
    if not 1 <= i < r:
        raise InvalidInputError(f"two-point position {i} out of range 1..{r - 1}")
    lower = list(range(2 * r))
    j = 2 * i - 2
    lower[j:j + 4] = lower[j + 2:j + 4] + lower[j:j + 2]
    return antisymmetrize(Partition._raw(2 * r, 2 * r, tuple(range(2 * r)) + tuple(lower)))


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

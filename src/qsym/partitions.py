"""Set partitions of upper/lower points and their formal linear span.

A ``Partition`` divides k upper and l lower points into blocks; it is the
combinatorial shadow of a tensor mapping k legs to l legs.  ``PartLin`` is a
formal Q[n]-linear combination of partitions of a common shape, held as
arrays in the normal form of ``SparseTensor``: one canonical block
assignment per term in lexicographic order, and an integer coefficient
matrix over one denominator.  Every operation reads and writes the arrays
in numpy and ends in the tensors' kernel (``sparse._convolve``,
``_sum_equal`` and ``_normal_rows``), so equal combinations hold equal
arrays.  Composition glues the lower row of the first factor to the upper
row of the second, in numpy blocks of term pairs (one term of the first
per orbit of the middle crossings when both factors are antisymmetric on
that row), and replaces each closed middle component ("loop") by a factor
n, so identities between combinations hold with polynomial coefficients in
n; ``verify functoriality`` checks it
against the tensor functor.  ``Partition`` and ``PolyQ`` are boundary
types with no algebra of their own, built for parsing, printing, JSON and
the ``terms`` view, and a ``PartLin`` equals only a ``PartLin``.  Two-point
antisymmetrization composes with nothing: a crossing only swaps two points,
so each two-point's A in turn halves x minus x with two columns swapped.

Points are written 1..k for the upper row and 1'..l' for the lower row, as in
the text format ``P(2,2){1 2' | 2 1'}``.
"""

from __future__ import annotations

import re
from math import lcm

import numpy as np

from .config import guard_dense, int_dtype, max_abs
from .errors import InvalidInputError
from .polyq import PolyQ, _lowest
from .sparse import _BLOCK_PAIRS, _convolve, _group_ids, _normal_rows, _sum_equal, _sum_parts


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
        self._fill(k, l, _canonical(assign))

    def _fill(self, k: int, l: int, assign: tuple):
        for name, value in zip(Partition.__slots__, (k, l, assign, hash((k, l, assign)))):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, k: int, l: int, assign: tuple) -> "Partition":
        """Trusted construction from an assignment already in canonical form."""
        self = object.__new__(cls)
        self._fill(k, l, assign)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Partition values are immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_blocks(cls, k: int, l: int, blocks) -> "Partition":
        """Blocks list points as ints 1..k (upper) and strings "1'".."l'"
        (lower)."""
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
        return cls(0, 2 * k, [(j + 1) // 2 % k for j in range(2 * k)])

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
    return tuple(remap.setdefault(b, len(remap)) for b in assign)


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
        raise InvalidInputError(f"point {p} out of range for P({k},{l})")
    raise InvalidInputError(f"bad point label {p!r}")


class PartLin:
    """A formal Q[n]-linear combination of partitions of one shape (k,l).

    Term t is the partition with canonical assignment ``assign[t]`` (first
    occurrence order, int8/int16/int32 by k + l) and the coefficient
    sum_i num[t, i] n^i / den.  ``num`` is int64 when its entries stay below
    2^62 and Python integers (``dtype=object``) otherwise.  The arrays are
    normal: the rows of ``assign`` strictly increase in lexicographic order,
    no coefficient row is zero, the last column of ``num`` is not all zero
    and gcd(den, num) = 1, so equal combinations hold equal arrays.
    """

    __slots__ = ("k", "l", "assign", "num", "den")

    def __init__(self, k: int, l: int, terms=None):
        terms = {part: PolyQ.coerce(coeff) for part, coeff in (terms or {}).items()}
        for part in terms:
            if part.k != k or part.l != l:
                raise InvalidInputError(
                    f"term {part} has shape ({part.k},{part.l}), expected ({k},{l})")
        den = lcm(1, *(c.den for c in terms.values()))
        num = np.zeros((len(terms), max((len(c.numerators) for c in terms.values()), default=0)),
                       dtype=object)
        for row, c in zip(num, terms.values()):
            row[:len(c.numerators)] = [v * (den // c.den) for v in c.numerators]
        assign = np.array([part.assign for part in terms], dtype=_label_type(k + l))
        self._fill(k, l, *_normal(assign.reshape(len(terms), k + l), num, den))

    def _fill(self, k: int, l: int, assign, num, den: int):
        assign.flags.writeable = num.flags.writeable = False
        for name, value in zip(PartLin.__slots__, (k, l, assign, num, den)):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, k: int, l: int, assign, num, den: int) -> "PartLin":
        """Trusted construction from normal arrays, kept without a copy."""
        self = object.__new__(cls)
        self._fill(k, l, assign, num, den)
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

    @property
    def terms(self) -> dict:
        """{Partition: PolyQ} in row order, built on each call."""
        k, l, den = self.k, self.l, self.den
        return {Partition._raw(k, l, tuple(row)): PolyQ._raw(*_lowest(c, den))
                for row, c in zip(self.assign.tolist(), self.num.tolist())}

    def block_counts(self) -> np.ndarray:
        """The number of blocks of each term's partition."""
        return np.add(self.assign.max(axis=1, initial=-1), 1, dtype=np.intp)

    # -- linear structure ----------------------------------------------------------

    def __add__(self, other):
        other = self.coerce(other)
        if (self.k, self.l) != (other.k, other.l):
            raise InvalidInputError(
                f"shape mismatch: ({self.k},{self.l}) vs ({other.k},{other.l})")
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        den = lcm(self.den, other.den)
        dtype = int_dtype(2 * max(max_abs(x.num) * (den // x.den) for x in (self, other)))
        idx, num = _sum_parts([(x.assign.T, x.num.astype(dtype) * (den // x.den))
                               for x in (self, other)])
        return PartLin._raw(self.k, self.l, *_normal(idx.T, num, den))

    def __neg__(self):
        return PartLin._raw(self.k, self.l, self.assign, -self.num, self.den)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def scale(self, factor) -> "PartLin":
        factor = PolyQ.coerce(factor)
        if factor.is_zero() or self.is_zero():
            return PartLin.zero(self.k, self.l)
        # a nonzero row times a nonzero polynomial is nonzero and of exact
        # degree, so the rows keep their order and only the gcd is divided out
        f = np.array([factor.numerators], dtype=object)
        scaled = _convolve(self.num, f, _product_type(self.num, f))
        _, num, den, _ = _normal_rows(self.assign.T, scaled, self.den * factor.den)
        return PartLin._raw(self.k, self.l, self.assign, num, den)

    # -- category operations ----------------------------------------------------------

    def tensor(self, other) -> "PartLin":
        """Side by side, self's points left of other's."""
        other = self.coerce(other)
        pairs = len(self.assign) * len(other.assign)
        guard_dense(pairs, "partition tensor product")
        k, l = self.k + other.k, self.l + other.l
        if not pairs:
            return PartLin.zero(k, l)
        a, b = np.divmod(np.arange(pairs), len(other.assign))
        x = self.assign[a]
        y = other.assign[b].astype(np.intp) + self.block_counts()[a, None]
        rows = np.concatenate(
            (x[:, :self.k], y[:, :other.k], x[:, self.k:], y[:, other.k:]), axis=1)
        num = _convolve(self.num[a], other.num[b], _product_type(self.num, other.num))
        return PartLin._raw(k, l, *_normal(_canonical_rows(rows), num, self.den * other.den))

    def adjoint(self) -> "PartLin":
        """Vertical reflection: upper and lower rows trade places."""
        rows = np.concatenate((self.assign[:, self.k:], self.assign[:, :self.k]), axis=1)
        return PartLin._raw(self.l, self.k, *_normal(_canonical_rows(rows), self.num, self.den))

    def rotate(self, side: str) -> "PartLin":
        """Move the extreme upper point on one side to that side of the lower row."""
        if not self.k:
            raise InvalidInputError("cannot rotate down: upper row is empty")
        up, lo = self.assign[:, :self.k], self.assign[:, self.k:]
        if side == "left":
            rows = np.concatenate((up[:, 1:], up[:, :1], lo), axis=1)
        elif side == "right":
            rows = np.concatenate((up[:, :-1], lo, up[:, -1:]), axis=1)
        else:
            raise InvalidInputError(f"unknown side {side!r}")
        return PartLin._raw(self.k - 1, self.l + 1,
                            *_normal(_canonical_rows(rows), self.num, self.den))

    # -- queries -------------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not len(self.assign)

    def __eq__(self, other):
        if not isinstance(other, PartLin):
            return NotImplemented
        return ((self.k, self.l, self.den) == (other.k, other.l, other.den)
                and np.array_equal(self.assign, other.assign)
                and np.array_equal(self.num, other.num))

    def __hash__(self):
        return hash((self.k, self.l, self.den, self.assign.tobytes(), *self.num.ravel().tolist()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: str(kv[0]))

    def __str__(self):
        if self.is_zero():
            return f"0 [shape ({self.k},{self.l})]"
        bits = []
        for part, coeff in self.sorted_terms():
            cs = str(coeff)
            cs = f"({cs})" if " " in cs else cs
            bits.append(str(part) if cs == "1" else f"-{part}" if cs == "-1" else f"{cs} * {part}")
        return bits[0] + "".join(f" - {b[1:]}" if b[0] == "-" else f" + {b}" for b in bits[1:])

    __repr__ = __str__

    def to_json(self):
        return {"k": self.k, "l": self.l, "terms": [
            {"partition": str(p), "coeff": str(c)} for p, c in self.sorted_terms()]}


def _label_type(labels: int):
    """The smallest integer type that holds every label 0..labels-1."""
    return np.int8 if labels <= 2**7 else np.int16 if labels <= 2**15 else np.int32


def _normal(assign, num, den: int):
    """(assign, num, den) made normal from canonical rows in any order and
    integer coefficient rows over den > 0: ``sparse._sum_equal``, then
    ``sparse._normal_rows``, then trailing zero columns dropped."""
    idx, num, den, used = _normal_rows(*_sum_equal(assign.T, num), den)
    return (np.ascontiguousarray(idx.T, dtype=_label_type(len(idx))),
            num[:, :used.nonzero()[0].max(initial=-1) + 1], den)


def _product_type(a, b, sums: int = 1):
    """The dtype of the products of a's and b's coefficient rows, sums of
    ``sums`` of them included."""
    return int_dtype(max_abs(a) * max_abs(b) * min(a.shape[1], b.shape[1]) * sums)


def compose(q, p) -> PartLin:
    """q after p, bilinearly, with a factor n per closed loop.

    The only composition route, on the stored arrays: ``_glue_pairs`` glues
    the term pairs, and ``verify functoriality`` checks its partition and
    loop count through T_q T_p = N^loops T_(q after p).  A pair's coefficient
    row is the product of its factors' rows and n^loops; equal outputs are
    summed as ``sparse._join`` sums them, per block of pairs and then across
    the blocks.

    Fewer pairs are glued when both factors are antisymmetric on the middle
    row of l = 2r points: with sigma ranging over the group G = (Z/2)^r that
    the crossings of its r two-points generate, sigma.p = sgn(sigma) p and
    q.sigma = sgn(sigma) q.  Then p's term sigma.p_b has coefficient
    sgn(sigma) c_b and q after it is (q.sigma).p_b = sgn(sigma) q.p_b, so each
    G-orbit of p's terms adds |orbit| c_b (q.p_b), and only one term per orbit
    is glued, its row times the orbit's size (``_glued_terms``).  Otherwise
    every pair is glued.
    """
    q, p = PartLin.coerce(q), PartLin.coerce(p)
    if p.l != q.k:
        raise InvalidInputError(
            f"arity mismatch: cannot compose shapes ({q.k},{q.l}) after ({p.k},{p.l})")
    pairs = len(q.assign) * len(p.assign)
    guard_dense(pairs, "partition composition")
    if not pairs:
        return PartLin.zero(p.k, q.l)
    terms, pn = _glued_terms(q, p)
    pairs = len(q.assign) * len(terms)
    dtype = _product_type(q.num, pn, pairs)
    qn, pn, parts = q.num.astype(dtype), pn.astype(dtype), []
    for start in range(0, pairs, _BLOCK_PAIRS):
        a, j = np.divmod(np.arange(start, min(start + _BLOCK_PAIRS, pairs)), len(terms))
        rows, loops = _glue_pairs(q, p, a, terms[j])
        n_loops = loops[:, None] == np.arange(loops.max() + 1)  # n^loops, a row per pair
        num = _convolve(_convolve(qn[a], pn[j], dtype), n_loops, dtype)
        # one block is left to the sum in _normal, which would check it again
        parts.append(_sum_equal(rows.T, num) if pairs > _BLOCK_PAIRS else (rows.T, num))
    idx, num = _sum_parts(parts)
    return PartLin._raw(p.k, q.l, *_normal(idx.T, num, q.den * p.den))


def _glued_terms(q: PartLin, p: PartLin):
    """(terms, num): the indices of the terms of p that ``compose`` glues
    to every term of q, and their coefficient rows.

    When q is antisymmetric on its input row and p on its output row under
    the crossing of each of the r middle two-points, that is one term per
    orbit of the crossings on p's terms, the orbit's smallest index, with
    its row times the orbit's size; otherwise every term with its own row.
    The check forms r (len(q) + len(p)) rows, so it is only made when that
    is below the len(q) len(p) pairs it would save.
    """
    n, r = len(p.assign), p.l // 2
    every = np.arange(n), p.num
    if p.l % 2 or not r or len(q.assign) * n <= (r + 1) * (len(q.assign) + n):
        return every
    images = _crossing_images(p, p.k, r)
    if images is None or _crossing_images(q, 0, r) is None:
        return every
    # the crossings are commuting involutions, so one sweep over them gives
    # each term the smallest index in its orbit
    label = np.arange(n)
    for image in images:
        label = np.minimum(label, label[image])
    terms = (label == np.arange(n)).nonzero()[0]
    size = np.bincount(label)[terms]
    weighted = p.num[terms].astype(int_dtype(max_abs(p.num) * int(size.max())))
    return terms, weighted * size[:, None]


def _crossing_images(x: PartLin, first: int, r: int):
    """An (r, len(x)) array whose row i holds, for each term of x, the term
    with its two columns of two-point i from column ``first`` on swapped;
    None unless every such term exists with the negated coefficient row.
    A term that a crossing fixes fails, as its row would equal its negation."""
    n = len(x.assign)
    rows = [x.assign] + [_swapped(x.assign, first + 2 * i) for i in range(r)]
    ids = _group_ids(np.concatenate(rows).T)
    term = np.full(ids.max() + 1, -1)
    term[ids[:n]] = np.arange(n)
    images = term[ids[n:]].reshape(r, n)
    if (images < 0).any() or not (x.num[images] == -x.num).all():
        return None
    return images


# Label nodes per block of pairs glued together.  It bounds the temporaries
# whatever the pair count; the lemma products ran fastest at 2**13 among
# 2**12..2**17 (2-vCPU Xeon), where a block's node arrays take 64 KiB.
_BLOCK_ENTRIES = 2**13


def _glue_pairs(q: PartLin, p: PartLin, a, b):
    """Canonical outer rows (len(a) x (k+m)) and loop counts of q's term a[i]
    after p's term b[i], where p has shape (k, l) and q shape (l, m).

    A pair has V = k + 2l + m label nodes: p's block b is node b and q's
    block b is node k + l + b, so unused labels are isolated nodes.  Pairs
    are glued a block of rows at a time.
    """
    k, l, m = p.k, p.l, q.l
    V = k + 2 * l + m
    dtype = _label_type(V)
    qa, pa = q.assign.astype(dtype, copy=False), p.assign.astype(dtype, copy=False)
    used = q.block_counts()[a] + p.block_counts()[b]
    rows = np.empty((len(a), k + m), dtype=dtype)
    loops = np.empty(len(a), dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // max(V, 1))
    nodes = np.arange(min(step, len(a)) * V)
    for start in range(0, len(a), step):
        block = slice(start, start + step)
        rows[block], loops[block] = _glue_block(
            qa[a[block]], pa[b[block]], used[block], k, l, V, nodes[:len(used[block]) * V])
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
    label, distinct = _first_reach(parent[outer], len(nodes))
    hooked = (parent != nodes).reshape(R, V).sum(axis=1)
    return label, used - hooked - distinct


def _first_reach(ids, size: int):
    """(labels, counts) for an (R, C) array of ids below ``size``, no id in
    two rows: each row's ids numbered 0, 1, ... in the order the row first
    reaches them, and the number of distinct ids in each row."""
    flat = ids.ravel()
    entries = np.arange(flat.size)
    # the first entry of each id; ufunc.at is given values of the full index
    # shape, as it may misread broadcast ones
    first = np.full(size, flat.size)
    np.minimum.at(first, flat, entries)
    at = first[flat]
    opens = at == entries
    label = (opens.cumsum() - 1)[at].reshape(ids.shape)
    return label - label[:, :1], opens.reshape(ids.shape).sum(axis=1)


def _canonical_rows(rows):
    """Each row of block labels (each below the row length) relabelled in
    first-occurrence order."""
    R, C = rows.shape
    label, _ = _first_reach(rows + np.arange(R)[:, None] * C, R * C)
    return label.astype(_label_type(C))


def _swapped(rows, c: int):
    """Canonical rows: the canonical ``rows`` with columns c and c+1
    exchanged.  The labels before column c keep their order, and the two
    columns change the order of first occurrences only where both open new
    blocks, labels j and j+1, which then trade places in the rest of the row."""
    out = rows.copy()
    out[:, [c, c + 1]] = rows[:, [c + 1, c]]
    j = rows[:, :c].max(axis=1, initial=-1) + 1
    both = (rows[:, c] == j) & (rows[:, c + 1] == j + 1)
    if both.any():
        tail, j = out[both, c:], j[both, None]
        out[both, c:] = np.where(tail == j, j + 1, np.where(tail == j + 1, j, tail))
    return out


def antisymmetrize(x) -> PartLin:
    """Two-point antisymmetrization A^(x l/2) . x . A^(x k/2), where A is
    1/2 (id - crossing) on one two-point.

    Both rows must have an even number of points; each adjacent pair
    (2i-1, 2i) is treated as one two-point, so with k even the two-points
    of both rows are the (k+l)/2 consecutive column pairs.
    """
    x = PartLin.coerce(x)
    if x.k % 2 or x.l % 2:
        raise InvalidInputError(
            f"antisymmetrize needs even rows, got shape ({x.k},{x.l})")
    # each two-point at most doubles the terms, so none forms over len(x) * 2^((k+l)/2) rows
    guard_dense(len(x.assign) << (x.k + x.l) // 2, "antisymmetrization")
    return _antisymmetrize_row(x, 0, (x.k + x.l) // 2)


def _antisymmetrize_row(x: PartLin, first: int, r: int) -> PartLin:
    """x with A on each of the r two-points from column ``first`` on, on
    either row.  A crossing closes no loop and only swaps two points, and
    the r antisymmetrizers commute, so they are applied one at a time:
    x <- 1/2 (x - x.sigma), where x.sigma swaps the two-point's columns in
    every term (``_swapped``).  A term whose two columns share a block is
    fixed by sigma and dropped; any other term sigma fixes (two singletons)
    cancels in the sum of equal rows made after each two-point."""
    assign, num, den = x.assign, x.num, x.den
    for c in range(first, first + 2 * r, 2):
        moved = assign[:, c] != assign[:, c + 1]
        assign, num = assign[moved], num[moved].astype(int_dtype(2 * max_abs(num)))
        assign, num, den = _normal(np.concatenate((assign, _swapped(assign, c))),
                                   np.concatenate((num, -num)), den * 2)
    return PartLin._raw(x.k, x.l, assign, num, den)


def two_point_swap(e: PartLin, i: int, row: str = "lower") -> PartLin:
    """Compose e with the antisymmetrized crossing of two-points i and i+1.

    ``row='lower'`` acts on the output row (e must have l = 2r points there);
    ``row='upper'`` acts on the input row.  The crossing moves two-points
    whole, so it commutes with A^(x r): the result is e with the two
    two-points traded on that row, then antisymmetrized on it.
    """
    e = PartLin.coerce(e)
    if row not in ("lower", "upper"):
        raise InvalidInputError(f"unknown row {row!r}")
    width, first = (e.l, e.k) if row == "lower" else (e.k, 0)
    if width % 2:
        raise InvalidInputError(f"{row} row is not two-point structured")
    r = width // 2
    if not 1 <= i < r:
        raise InvalidInputError(f"two-point position {i} out of range 1..{r - 1}")
    guard_dense(len(e.assign) << r, "antisymmetrization")
    j, rows = first + 2 * i - 2, e.assign
    for c in (j + 1, j, j + 2, j + 1):  # abcd -> acbd -> cabd -> cadb -> cdab
        rows = _swapped(rows, c)
    return _antisymmetrize_row(PartLin._raw(e.k, e.l, rows, e.num, e.den), first, r)

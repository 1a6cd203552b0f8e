"""Concrete tensor realizations of partition diagrams.

``functor_T`` sends a partition p with k upper and l lower points to the
blockwise Kronecker delta acting (C^N)^(x k) -> (C^N)^(x l): an entry is 1
exactly when the indices inside every block agree.  Composition then matches
diagram composition with a factor N per closed loop, which is the master
oracle used throughout the test-suite.

The signed functor attaches the sign sigma_i * sigma_j that counts index
inversions on either row; it is defined for partitions whose blocks all have
even size.  ``evaluate_partlin`` evaluates a whole combination of partitions,
plain or signed, and the signed functor of p is its one-term case
``evaluate_partlin(PartLin.of(p), N, deformed=True)``, so the sign has one
implementation: a comparison of block values per odd block pair.

The antisymmetrizer projections (signed, and the sign-free variant that kills
repeated indices) are built here together with their coisometry
factorizations, which certify their rank exactly.

Indices are gathered from one array of all block values: per partition in
``functor_T``, per block count in ``evaluate_partlin``, which reads the
combination's assignment array and evaluates its coefficient rows at N
without building a Partition or PolyQ per term.  The antisymmetrizers index
one array of the arrangements of every increasing k-tuple and take their
signs from a table of the k! permutation signs.  Every builder hands its
index columns to ``SparseTensor._from_columns``, which sums equal indices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np

from .config import guard_sparse, int_dtype, max_abs
from .errors import InvalidInputError
from .partitions import Partition, PartLin
from .sparse import SparseTensor


def functor_T(p: Partition, N: int) -> SparseTensor:
    """Blockwise Kronecker delta of p on index set {0..N-1}."""
    if N < 1:
        raise InvalidInputError(f"functor needs N >= 1, got {N}")
    guard_sparse(N**p.n_blocks, f"functor tensor for P({p.k},{p.l}) at N={N}")
    values = _block_values(p.n_blocks, N)
    cols = values[np.array(p.assign[p.k:] + p.assign[: p.k], dtype=np.intp)]
    return SparseTensor._from_columns((N,) * (p.l + p.k), p.l, cols)


def _block_values(nb: int, N: int) -> np.ndarray:
    """(nb, N**nb) array whose columns are all assignments of values in
    0..N-1 to nb blocks, in lexicographic order."""
    return np.indices((N,) * nb, dtype=np.min_scalar_type(N)).reshape(nb, N**nb)


def sign_sigma(indices) -> int:
    """-1 when the number of strict inversions is odd, else +1 (ties ignored)."""
    inv = sum(a > b for a, b in itertools.combinations(indices, 2))
    return -1 if inv % 2 else 1


def _odd_block_pairs(legs: list, l: int) -> list[tuple[int, int]]:
    """The ordered block pairs (B, C) that have an odd number of point pairs
    in one row with B's point left of C's, for the blocks ``legs`` of a
    term's legs, its l lower points first.

    Points of one block carry one value and ties are no inversions, so the
    sign sigma_i sigma_j of an index of T_p is -1 to the number of these
    pairs whose block values have B > C: the O(points^2) count is done once
    per partition.
    """
    parity = {}
    for row in (legs[:l], legs[l:]):
        for i, b in enumerate(row):
            for c in row[i + 1:]:
                if c != b:
                    parity[b, c] = parity.get((b, c), 0) ^ 1
    return [pair for pair, odd in parity.items() if odd]


def evaluate_partlin(e: PartLin, N: int, deformed: bool = False) -> SparseTensor:
    """Evaluate a formal combination at loop parameter n := N.

    One numpy pass over the stored arrays: the terms of each block count
    gather their index columns from one array of block values, ``deformed``
    flips the sign of a row once per odd block pair (``_odd_block_pairs``)
    whose values are inverted, and every row carries its term's coefficient
    row at N over ``e.den``.  Equal indices are summed after a ``lexsort``.
    """
    e = PartLin.coerce(e)
    if N < 1:
        raise InvalidInputError(f"functor needs N >= 1, got {N}")
    terms, legs = len(e.assign), e.k + e.l
    if deformed:
        flat = (e.assign + np.arange(terms)[:, None] * legs).ravel()
        odd = (np.bincount(flat, minlength=terms * legs).reshape(terms, legs) % 2).any(axis=1)
        if odd.any():
            bad = Partition._raw(e.k, e.l, tuple(e.assign[odd.argmax()].tolist()))
            raise InvalidInputError(f"deformed functor needs even block sizes, got {bad}")
    blocks = e.block_counts()
    guard_sparse(sum(N**int(b) for b in blocks),
                 f"evaluation of {terms} partition terms at N={N}")
    powers = [N**i for i in range(e.num.shape[1])]
    weights = [sum(c * x for c, x in zip(row, powers)) for row in e.num.tolist()]
    leg_blocks = np.concatenate((e.assign[:, e.k:], e.assign[:, :e.k]), axis=1)
    cols, vals = _term_rows(leg_blocks, blocks, weights, e.l, N, deformed)
    return SparseTensor._from_columns((N,) * legs, e.l, cols, vals, e.den)


def _term_rows(leg_blocks, blocks, weights, l: int, N: int, deformed: bool):
    """(cols, vals): the (legs, rows) index columns of every term's T_p from
    the block of each of its legs (``leg_blocks``, lower row first) and its
    block count, and each row's weight, negated when ``deformed`` and the
    row's sign is -1.  Weights are int64 when no sum of one weight per term
    can overflow, Python integers otherwise."""
    terms, legs = leg_blocks.shape
    wtype = int_dtype(max(map(abs, weights), default=0) * terms)
    weights = np.array(weights, dtype=wtype)
    cols = np.empty((legs, sum(N**int(b) for b in blocks)), dtype=np.min_scalar_type(N))
    vals = np.empty(cols.shape[1], dtype=wtype)
    start = 0
    for nb in np.unique(blocks).tolist():
        group = np.flatnonzero(blocks == nb)
        values = _block_values(nb, N)
        size = values.shape[1]
        stop = start + len(group) * size
        for x in range(legs):  # gathered in place, one leg at a time
            np.take(values, leg_blocks[group, x], axis=0,
                    out=cols[x, start:stop].reshape(len(group), size))
        rows = vals[start:stop].reshape(len(group), size)
        rows[...] = weights[group][:, None]
        if deformed:  # one comparison per odd block pair, for all terms with it
            with_pair = {}
            for i, t in enumerate(leg_blocks[group].tolist()):
                for pair in _odd_block_pairs(t, l):
                    with_pair.setdefault(pair, []).append(i)
            odd = np.zeros(rows.shape, dtype=bool)
            for (b, c), ts in with_pair.items():
                odd[ts] ^= values[b] > values[c]
            np.negative(rows, out=rows, where=odd)
        start = stop
    return cols, vals


# -- fast exact zero test for (undeformed) evaluations -------------------------

def _coarsenings(blocks):
    """All ways to merge a list of blocks (set partitions of the block list)."""
    if not blocks:
        yield []
        return
    first, rest = blocks[0], blocks[1:]
    for sub in _coarsenings(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | first] + sub[i + 1:]
        yield [set(first)] + sub


def _refines(p: Partition, kernel_assign) -> bool:
    seen = {}
    return all(seen.setdefault(b, kb) == kb for b, kb in zip(p.assign, kernel_assign))


def partlin_evaluates_to_zero(e: PartLin, N: int) -> bool:
    """Exact test that the undeformed evaluation of e at N is the zero tensor.

    The entry of T_p at an index tuple x depends only on the kernel of x (the
    set partition of positions by equal values): it is 1 iff p refines that
    kernel.  It therefore suffices to check, for every kernel K with at most N
    parts that coarsens some term of e, that the coefficients of the refining
    terms sum to zero.  This avoids materializing N^points entries.
    """
    terms = PartLin.coerce(e).terms
    kernels = {}
    for part in terms:
        for merged in _coarsenings([set(b) for b in part.blocks()]):
            assign = [0] * (part.k + part.l)
            for bid, blk in enumerate(merged):
                for pos in blk:
                    assign[pos] = bid
            kernels[Partition(part.k, part.l, assign)] = None
    return not any(
        sum(coeff(N) for part, coeff in terms.items() if _refines(part, kernel.assign))
        for kernel in kernels if kernel.n_blocks <= N)


# -- antisymmetrizers -----------------------------------------------------------

def _arrangements(k: int, n: int):
    """(arr, signs): arr[c, j] is the j-th arrangement, in lexicographic
    order, of the c-th increasing k-tuple of range(n), and signs[j] is the
    sign of the permutation that arranges it."""
    perms = list(itertools.permutations(range(k)))
    subsets = np.array(list(itertools.combinations(range(n), k)),
                       dtype=np.min_scalar_type(n)).reshape(-1, k)
    return subsets[:, np.array(perms, dtype=np.intp)], np.array([sign_sigma(p) for p in perms])


def antisymmetrizer(k: int, n: int, deformed: bool = False) -> SparseTensor:
    """The projection of (C^n)^(x k) onto the k-th (anticommutative) exterior
    power: signed symmetrization, or sign-free symmetrization supported on
    distinct-index tuples when ``deformed``.

    The signed entry at (sigma.S, pi.S), for S an increasing k-tuple, is the
    sign of the permutation taking pi.S to sigma.S: sign(sigma) sign(pi).
    The output tuples are sorted once; the input tuples of each are the
    arrangements of its S, already in order, so the columns come out in
    lexicographic order."""
    if k < 0 or n < 1:
        raise InvalidInputError("antisymmetrizer needs k >= 0, n >= 1")
    if k == 0:
        return SparseTensor._from_columns((), 0, np.zeros((0, 1), dtype=np.intp))
    guard_sparse(comb(n, k) * factorial(k) ** 2, f"antisymmetrizer k={k}, n={n}")
    arr, signs = _arrangements(k, n)
    outs = arr.reshape(-1, k)
    order = np.lexsort(outs.T[::-1])
    subset, sigma = np.divmod(order, len(signs))
    cols = np.empty((2 * k, len(order) * len(signs)), dtype=arr.dtype)
    cols[:k] = np.repeat(outs[order].T, len(signs), axis=1)
    cols[k:] = arr[subset].reshape(-1, k).T
    num = 1 if deformed else np.multiply.outer(signs[sigma], signs).ravel()
    return SparseTensor._from_columns((n,) * (2 * k), k, cols, num, factorial(k))


def antisym_coisometry(k: int, n: int, deformed: bool = False) -> SparseTensor:
    """W with one output leg indexed by increasing k-tuples: A = k! W* W and
    W W* = (1/k!) I, which together certify rank(A) = C(n, k)."""
    if k == 0:
        return SparseTensor._from_columns((1,), 1, np.zeros((1, 1), dtype=np.intp))
    guard_sparse(comb(n, k) * factorial(k), f"coisometry k={k}, n={n}")
    arr, signs = _arrangements(k, n)
    rows = np.repeat(np.arange(len(arr)), len(signs))
    cols = np.concatenate((rows[None], arr.reshape(-1, k).T))
    num = 1 if deformed else np.tile(signs, len(arr))
    return SparseTensor._from_columns((comb(n, k),) + (n,) * k, 1, cols, num, factorial(k))


def permanent_direct(rows) -> Fraction:
    """Reference permanent via the defining sum over permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        prod = Fraction(1)
        for a in range(n):
            prod *= Fraction(rows[a][perm[a]])
            if not prod:
                break
        total += prod
    return total


def permanent_via_wedge(rows) -> Fraction:
    """Permanent through the top anticommutative exterior power.

    W M^(x n) W* is 1x1 since the n-th power is one-dimensional; with the
    normalization W W* = (1/n!) I the permanent equals n! squared times that
    single entry divided by n!, i.e. n! * (W M^(x n) W*)[0,0].  The entries
    of the deformed coisometry W are contracted against products of M's
    entries on integer numerators, without building M^(x n): the product
    over the n legs of M at every (out, in) pair of W's index tuples,
    weighted by the pair's two numerators.
    """
    n = len(rows)
    if n > 6:
        raise InvalidInputError("permanent_via_wedge is guarded to n <= 6")
    if any(len(r) != n for r in rows):
        raise InvalidInputError("matrix must be square")
    M = [Fraction(v) for r in rows for v in r]
    d = lcm(1, *(v.denominator for v in M))
    M = np.array([v.numerator * (d // v.denominator) for v in M], dtype=object).reshape(n, n)
    w = antisym_coisometry(n, n, deformed=True)
    c = w._num[:, 0]
    dtype = int_dtype(max_abs(M) ** n * max_abs(c) ** 2 * len(c) ** 2)
    M, c = M.astype(dtype), c.astype(dtype)
    prods = np.ones((len(c), len(c)), dtype=dtype)
    for leg in w._idx[1:].astype(np.intp):
        prods *= M[leg[:, None], leg[None, :]]
    return Fraction(factorial(n) * int(c @ prods @ c), w.den**2 * d**n)


def random_partition(rng, k: int, l: int) -> Partition:
    """Uniformly random block structure via sequential block assignment."""
    assign = [0]
    for _ in range(k + l - 1):
        assign.append(rng.randint(0, max(assign) + 1))
    return Partition(k, l, assign)

"""Concrete tensor realizations of partition diagrams.

``functor_T`` sends a partition p with k upper and l lower points to the
blockwise Kronecker delta acting (C^N)^(x k) -> (C^N)^(x l): an entry is 1
exactly when the indices inside every block agree.  Composition then matches
diagram composition with a factor N per closed loop, which is the master
oracle used throughout the test-suite.

``functor_T_deformed`` attaches the sign sigma_i * sigma_j that counts index
inversions on either row; it is defined for partitions whose blocks all have
even size.

The antisymmetrizer projections (signed, and the sign-free variant that kills
repeated indices) are built here together with their coisometry
factorizations, which certify their rank exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, lcm

from .config import guard_sparse
from .errors import InvalidInputError
from .partitions import Partition, PartLin
from .sparse import SparseTensor


def functor_T(p: Partition, N: int) -> SparseTensor:
    """Blockwise Kronecker delta of p on index set {0..N-1}."""
    if N < 1:
        raise InvalidInputError(f"functor needs N >= 1, got {N}")
    nb = p.n_blocks
    guard_sparse(N**nb, f"functor tensor for {p} at N={N}")
    k, l = p.k, p.l
    assign = p.assign
    num = {}
    for values in itertools.product(range(N), repeat=nb):
        point_vals = tuple(values[b] for b in assign)
        num[point_vals[k:] + point_vals[:k]] = 1  # outputs (lower) first
    return SparseTensor._raw((N,) * (l + k), l, num)


def sign_sigma(indices) -> int:
    """-1 when the number of strict inversions is odd, else +1 (ties ignored)."""
    indices = tuple(indices)
    inv = 0
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            if indices[a] > indices[b]:
                inv += 1
    return -1 if inv % 2 else 1


def functor_T_deformed(p: Partition, N: int) -> SparseTensor:
    """Signed functor sigma_i sigma_j [T_p]; needs all blocks of even size."""
    if p.has_odd_block():
        raise InvalidInputError(
            f"deformed functor needs even block sizes, got {p}"
        )
    base = functor_T(p, N)
    pairs = _odd_block_pairs(p)
    num = {}
    for idx in base.numerators:
        s = 1
        for x, y in pairs:
            if idx[x] > idx[y]:
                s = -s
        num[idx] = s
    return SparseTensor._raw(base.shape, p.l, num)


def _odd_block_pairs(p: Partition) -> list[tuple[int, int]]:
    """Index positions (x, y) of the ordered block pairs (B, C) that have an
    odd number of point pairs in one row with B's point left of C's.

    Points of one block carry one value and ties are no inversions, so the
    sign sigma_i sigma_j of an index of T_p is -1 to the number of these
    pairs with idx[x] > idx[y]: the O(points^2) count is done once per call.
    """
    position, parity, start = {}, {}, 0
    for row in (p.assign[p.k:], p.assign[: p.k]):  # index order: lower row first
        for i, b in enumerate(row):
            position.setdefault(b, start + i)
            for c in row[i + 1:]:
                if c != b:
                    parity[b, c] = parity.get((b, c), 0) ^ 1
        start += len(row)
    return [(position[b], position[c]) for (b, c), odd in parity.items() if odd]


def evaluate_partlin(e: PartLin, N: int, deformed: bool = False) -> SparseTensor:
    """Evaluate a formal combination at loop parameter n := N.

    Every term is summed into one numerator dict over the common
    denominator of the coefficients."""
    e = PartLin.coerce(e)
    coeffs = [(part, Fraction(coeff(N))) for part, coeff in e.terms.items()]
    den = lcm(1, *(c.denominator for _, c in coeffs))
    acc = {}
    get = acc.get
    for part, c in coeffs:
        t = functor_T_deformed(part, N) if deformed else functor_T(part, N)
        weight = c.numerator * (den // c.denominator)
        for idx, v in t.numerators.items():
            acc[idx] = get(idx, 0) + v * weight
    return SparseTensor._raw((N,) * (e.l + e.k), e.l, acc, den)


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
    for pos, b in enumerate(p.assign):
        kb = kernel_assign[pos]
        if b in seen:
            if seen[b] != kb:
                return False
        else:
            seen[b] = kb
    return True


def partlin_evaluates_to_zero(e: PartLin, N: int) -> bool:
    """Exact test that the undeformed evaluation of e at N is the zero tensor.

    The entry of T_p at an index tuple x depends only on the kernel of x (the
    set partition of positions by equal values): it is 1 iff p refines that
    kernel.  It therefore suffices to check, for every kernel K with at most N
    parts that coarsens some term of e, that the coefficients of the refining
    terms sum to zero.  This avoids materializing N^points entries.
    """
    e = PartLin.coerce(e)
    npts = e.k + e.l
    kernels = {}
    for part in e.terms:
        blocks = [set(b) for b in part.blocks()]
        for merged in _coarsenings(blocks):
            assign = [0] * npts
            for bid, blk in enumerate(merged):
                for pos in blk:
                    assign[pos] = bid
            key = Partition(e.k, e.l, assign)
            kernels[key] = None
    for kernel in kernels:
        if kernel.n_blocks > N:
            continue
        total = Fraction(0)
        for part, coeff in e.terms.items():
            if _refines(part, kernel.assign):
                total += coeff(N)
        if total:
            return False
    return True


def partlin_tensors_equal(lhs: PartLin, rhs: PartLin, N: int) -> bool:
    """Exact equality of the (undeformed) tensor evaluations at N."""
    lhs, rhs = PartLin.coerce(lhs), PartLin.coerce(rhs)
    lhs._check_shape(rhs)
    return partlin_evaluates_to_zero(lhs - rhs, N)


# -- antisymmetrizers -----------------------------------------------------------

def _perm_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def antisymmetrizer(k: int, n: int, deformed: bool = False) -> SparseTensor:
    """The projection of (C^n)^(x k) onto the k-th (anticommutative) exterior
    power: signed symmetrization, or sign-free symmetrization supported on
    distinct-index tuples when ``deformed``."""
    if k < 0 or n < 1:
        raise InvalidInputError(f"antisymmetrizer needs k >= 0, n >= 1")
    if k == 0:
        return SparseTensor._raw((), 0, {(): 1})
    guard_sparse(comb(n, k) * factorial(k) ** 2, f"antisymmetrizer k={k}, n={n}")
    num = {}
    for subset in itertools.combinations(range(n), k):
        arrangements = list(itertools.permutations(subset))
        for out in arrangements:
            for inn in arrangements:
                num[out + inn] = 1 if deformed else _relative_sign(inn, out)
    return SparseTensor._raw((n,) * (2 * k), k, num, factorial(k))


def _relative_sign(src, dst) -> int:
    """Sign of the permutation mapping the distinct tuple src onto dst."""
    pos = {v: i for i, v in enumerate(src)}
    return _perm_sign([pos[v] for v in dst])


def antisym_coisometry(k: int, n: int, deformed: bool = False) -> SparseTensor:
    """W with one output leg indexed by increasing k-tuples: A = k! W* W and
    W W* = (1/k!) I, which together certify rank(A) = C(n, k)."""
    if k == 0:
        return SparseTensor._raw((1,), 1, {(0,): 1})
    subsets = list(itertools.combinations(range(n), k))
    num = {}
    for r, subset in enumerate(subsets):
        for arr in itertools.permutations(subset):
            num[(r,) + arr] = 1 if deformed else _relative_sign(arr, subset)
    return SparseTensor._raw((len(subsets),) + (n,) * k, 1, num, factorial(k))


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
    entries on integer numerators, without building M^(x n).
    """
    n = len(rows)
    if n > 6:
        raise InvalidInputError("permanent_via_wedge is guarded to n <= 6")
    if any(len(r) != n for r in rows):
        raise InvalidInputError("matrix must be square")
    M = [[Fraction(v) for v in r] for r in rows]
    d = lcm(1, *(v.denominator for r in M for v in r))
    M = [[v.numerator * (d // v.denominator) for v in r] for r in M]
    w = antisym_coisometry(n, n, deformed=True)
    legs = [(idx[1:], c) for idx, c in w.numerators.items()]
    total = 0
    for out, c_out in legs:
        for inn, c_in in legs:
            prod = c_out * c_in
            for a in range(n):
                prod *= M[out[a]][inn[a]]
                if not prod:
                    break
            total += prod
    return Fraction(factorial(n) * total, w.den**2 * d**n)


def random_partition(rng, k: int, l: int) -> Partition:
    """Uniformly random block structure via sequential block assignment."""
    assign = [0]
    for _ in range(k + l - 1):
        assign.append(rng.randint(0, max(assign) + 1))
    return Partition(k, l, assign)

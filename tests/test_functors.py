import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.functors import (
    antisym_coisometry,
    antisymmetrizer,
    evaluate_partlin,
    functor_T,
    partlin_evaluates_to_zero,
    permanent_direct,
    permanent_via_wedge,
    random_partition,
    sign_sigma,
)
from qsym.dsl import eval_text
from qsym.errors import InvalidInputError, SizeGuardError
from qsym.partitions import Partition, PartLin, compose
from qsym.polyq import PolyQ
from qsym.sparse import SparseTensor
from qsym.verify import suite_functoriality

from oracles import N_POLY, has_odd_block, peak_bytes


def test_functor_identity_strand():
    t = functor_T(Partition.identity(1), 3)
    assert t == SparseTensor.identity((3,))


def test_functor_merge_delta():
    t = functor_T(Partition.merge(), 2)
    # [T]^k_{ij} = delta_{ijk}: output leg first
    assert t.entries == {(0, 0, 0): t.entries[(0, 0, 0)], (1, 1, 1): t.entries[(1, 1, 1)]}
    assert t[(0, 0, 0)] == 1 and t[(1, 1, 1)] == 1


def test_functor_worked_example():
    # q in P(4,4) with blocks {2,3',4'}, {3,2'}, singletons 1, 4, 1'
    q = Partition.from_blocks(4, 4, [[1], [2, "3'", "4'"], [3, "2'"], [4], ["1'"]])
    t = functor_T(q, 2)
    for i in itertools.product(range(2), repeat=4):
        for j in itertools.product(range(2), repeat=4):
            expected = 1 if (i[1] == j[2] == j[3] and i[2] == j[1]) else 0
            assert t[j + i] == expected


def test_functor_does_not_print_its_partition(monkeypatch):
    """The guard text names the shape only: no call formats the partition,
    and a refused call still says which tensor it refused."""
    p = Partition.parse("P(3,3){1 2' | 2 3 1' | 3'}")
    expected = functor_T(p, 3)

    def refuse(self):
        raise AssertionError("Partition.__str__ called")

    monkeypatch.setattr(Partition, "__str__", refuse)
    assert functor_T(p, 3) == expected
    monkeypatch.setenv("QSYM_MAX_SPARSE", "26")
    with pytest.raises(SizeGuardError, match=r"functor tensor for P\(3,3\) at N=3"):
        functor_T(p, 3)


def test_sign_sigma():
    assert sign_sigma((1, 2)) == 1
    assert sign_sigma((2, 1)) == -1
    assert sign_sigma((1, 1)) == 1
    assert sign_sigma((3, 1, 2)) == 1  # two inversions


def test_deformed_crossing_signs():
    t = evaluate_partlin(PartLin.of(Partition.crossing()), 3, deformed=True)
    for i in range(3):
        for j in range(3):
            # entry at out=(j,i), in=(i,j)
            v = t[(j, i, i, j)]
            assert v == (1 if i == j else -1)


def test_deformed_cup_ties():
    t = evaluate_partlin(PartLin.of(Partition.cup()), 3, deformed=True)
    for j in range(3):
        assert t[(j, j)] == 1


# -- plain-enumeration oracles for the functor builders --------------------------

def _functor_oracle(p, N):
    """{index: 1} of T_p, from every tuple of point values whose values agree
    inside each block; the key lists the lower points first."""
    num = {}
    for vals in itertools.product(range(N), repeat=p.k + p.l):
        if all(vals[i] == vals[j] for blk in p.blocks() for i in blk for j in blk):
            num[vals[p.k:] + vals[: p.k]] = 1
    return num


def _as_tensor(p, N, num, den=1):
    return SparseTensor((N,) * (p.l + p.k), p.l,
                        {idx: Fraction(v, den) for idx, v in num.items()})


def _shape(draw, even):
    """(k, l) with at most 3 points per row; k + l is even when ``even``."""
    k, l = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if even and (k + l) % 2:
        l = l - 1 if l else l + 1
    return k, l


@st.composite
def partitions(draw, even=False, shape=None):
    """Random partitions with at most 3 upper and 3 lower points (or of the
    given shape); with ``even`` the points are paired up and some pairs
    merged, so every block has even size."""
    k, l = shape or _shape(draw, even)
    if not even:
        assign = []
        for _ in range(k + l):
            assign.append(draw(st.integers(0, max(assign, default=-1) + 1)))
        return Partition(k, l, assign)
    points = draw(st.permutations(range(k + l)))
    assign = [0] * (k + l)
    for i in range(0, k + l, 2):
        assign[points[i]] = assign[points[i + 1]] = draw(st.integers(0, i // 2))
    return Partition(k, l, assign)


@given(partitions(), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_functor_matches_enumeration(p, N):
    assert functor_T(p, N) == _as_tensor(p, N, _functor_oracle(p, N))


@given(partitions(even=True), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_deformed_signs_match_sign_sigma(p, N):
    """The block-pair sign equals sigma of each row, on random even-block
    partitions."""
    expected = {idx: sign_sigma(idx[p.l:]) * sign_sigma(idx[: p.l])
                for idx in _functor_oracle(p, N)}
    assert evaluate_partlin(PartLin.of(p), N, deformed=True) == _as_tensor(p, N, expected)


@pytest.mark.parametrize("text", [
    "P(0,0){}", "P(2,0){1 2}", "P(3,0){1 3 | 2}", "P(0,2){1' 2'}",
    "P(0,4){1' 3' | 2' 4'}",
])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_functor_on_one_sided_partitions(text, N):
    p = Partition.parse(text)
    t = functor_T(p, N)
    assert t == _as_tensor(p, N, _functor_oracle(p, N))
    if p.k + p.l == 0:
        assert dict(t.numerators) == {(): 1}
    if not has_odd_block(p):
        expected = {idx: sign_sigma(idx[p.l:]) * sign_sigma(idx[: p.l])
                    for idx in _functor_oracle(p, N)}
        assert evaluate_partlin(PartLin.of(p), N, deformed=True) == _as_tensor(p, N, expected)


@pytest.mark.parametrize("deformed", [False, True])
def test_evaluate_partlin_coefficients_beyond_int64(deformed):
    ident, crossing = Partition.identity(2), Partition.parse("P(2,2){1 2' | 2 1'}")
    big, bigger = Fraction(2**70 + 1, 3), -(2**65)
    e = PartLin.of(ident, big) + PartLin.of(crossing, bigger)
    N = 3
    expected = {}
    for part, c in ((ident, big), (crossing, bigger)):
        for idx in _functor_oracle(part, N):
            sign = sign_sigma(idx[2:]) * sign_sigma(idx[:2]) if deformed else 1
            expected[idx] = expected.get(idx, 0) + sign * c
    t = evaluate_partlin(e, N, deformed)
    assert t == SparseTensor((N,) * 4, 2, expected)
    assert t[(0, 1, 0, 1)] == big and t[(1, 0, 0, 1)] == (-1 if deformed else 1) * bigger


def _evaluation_oracle(e, N, deformed):
    """evaluate_partlin term by term: the entries of each functor_T, signed
    by sign_sigma of each row when ``deformed``, summed in a dict."""
    acc = {}
    for part, coeff in e.terms.items():
        c = Fraction(coeff(N))
        for idx in functor_T(part, N).numerators:
            sign = sign_sigma(idx[part.l:]) * sign_sigma(idx[: part.l]) if deformed else 1
            acc[idx] = acc.get(idx, 0) + sign * c
    return SparseTensor((N,) * (e.l + e.k), e.l, acc)


@st.composite
def combinations(draw, even=False):
    """Combinations of up to 4 partitions of one shape (0-leg ones included),
    with coefficients (a + b n + c n^2) / d; a partition may come back with
    the negated coefficient of an earlier one, which cancels it formally."""
    shape = _shape(draw, even)
    e = PartLin.zero(*shape)
    for _ in range(draw(st.integers(0, 4))):
        part = draw(partitions(even, shape))
        a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
        d = draw(st.integers(1, 4))
        term = PartLin.of(part, PolyQ([Fraction(a, d), Fraction(b, d), Fraction(c, d)]))
        e = e + term
        if draw(st.booleans()):
            e = e - term
    return e


@given(st.booleans().flatmap(lambda even: st.tuples(st.just(even), combinations(even))),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_evaluate_partlin_matches_per_term_oracle(deformed_e, N):
    deformed, e = deformed_e
    assert evaluate_partlin(e, N, deformed) == _evaluation_oracle(e, N, deformed)


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize("text,N,zero", [
    ("compose(cap, cup)", 3, False),  # 0 legs, loop polynomial n
    ("scale(poly(n^2 - 3*n), P(0,0){}) + cap * cup", 2, True),  # n^2 - 2n at 2
    # 2, 1 and 2 blocks, all of even size
    ("id(2) + block(2,2) - scale(poly(2), P(2,2){1 2 | 1' 2'})", 3, False),
    ("id(2) - block(2,2)", 1, True),  # every T_p is one entry at N = 1
    ("id(2) - id(2)", 3, True),  # the empty combination
    ("scale(poly(n - 3), id(2)) + block(2,2)", 3, False),  # a zero weight
    ("P(2,2){1 | 2 1' 2'} + id(2)", 2, False),  # odd blocks: undeformed only
])
def test_evaluate_partlin_edge_cases(text, N, zero, deformed):
    e = eval_text(text)
    if deformed and any(has_odd_block(p) for p in e.terms):
        with pytest.raises(InvalidInputError, match="even block sizes"):
            evaluate_partlin(e, N, deformed)
        return
    t = evaluate_partlin(e, N, deformed)
    assert t == _evaluation_oracle(e, N, deformed)
    assert t.is_zero() == zero
    assert t.shape == (N,) * (e.k + e.l) and t.out_axes == e.l


def test_evaluate_partlin_large_index_space():
    # 40 legs of size 1000: a flat index code would need 10**120
    block = Partition.block(20, 20)
    assert evaluate_partlin(PartLin.of(block), 1000) == _evaluation_oracle(
        PartLin.of(block), 1000, False)


def test_evaluate_partlin_is_guarded_before_it_allocates(monkeypatch):
    e = eval_text("asym(pk(6))")  # 64 terms of 6 blocks
    count = sum(5**p.n_blocks for p in e.terms)
    assert count == 10**6
    monkeypatch.setenv("QSYM_MAX_SPARSE", str(count - 1))
    peak = peak_bytes(lambda: evaluate_partlin(e, 5, deformed=True),
                      "evaluation of 64 partition terms")
    assert peak < 2**16  # the index columns alone would take 12 MB


def test_evaluate_partlin_guard_counts_every_term(monkeypatch):
    e = eval_text("id(2) + block(2,2) - P(2,2){1 2 | 1' 2'}")  # 9 + 3 + 9 rows at N = 3
    monkeypatch.setenv("QSYM_MAX_SPARSE", "20")
    with pytest.raises(SizeGuardError):
        evaluate_partlin(e, 3)
    monkeypatch.setenv("QSYM_MAX_SPARSE", "21")
    assert evaluate_partlin(e, 3) == _evaluation_oracle(e, 3, False)


def _perm_sign(perm) -> int:
    """Sign of a permutation from its cycle lengths."""
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen and clen % 2 == 0:
            sign = -sign
    return sign


def _relative_sign(src, dst) -> int:
    """Sign of the permutation mapping the distinct tuple src onto dst."""
    pos = {v: i for i, v in enumerate(src)}
    return _perm_sign([pos[v] for v in dst])


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(n + 1)])
def test_antisymmetrizers_match_relative_sign(n, k, deformed):
    a_num, w_num = {}, {}
    for r, subset in enumerate(itertools.combinations(range(n), k)):
        arrangements = list(itertools.permutations(subset))
        for out in arrangements:
            w_num[(r,) + out] = Fraction(
                1 if deformed else _relative_sign(out, subset), factorial(k))
            for inn in arrangements:
                a_num[out + inn] = Fraction(
                    1 if deformed else _relative_sign(inn, out), factorial(k))
    assert antisymmetrizer(k, n, deformed) == SparseTensor((n,) * (2 * k), k, a_num)
    w = antisym_coisometry(k, n, deformed)
    assert w == SparseTensor((comb(n, k),) + (n,) * k, 1, w_num)


def test_deformed_rejects_odd_blocks():
    with pytest.raises(InvalidInputError):
        evaluate_partlin(PartLin.of(Partition.merge()), 2, deformed=True)


@pytest.mark.parametrize("N", [3, 4])
def test_block_compose_oracle(N):
    # T_{b22} . T_{b22} = T_{b22}: confirms compose(b22, b22) has no loops
    b = functor_T(Partition.block(2, 2), N)
    assert b @ b == b


def test_functoriality_random_pairs():
    rep = suite_functoriality(60)
    assert rep.passed, rep.render()


def test_partlin_evaluate_matches_terms():
    e = PartLin.of(Partition.cup(), N_POLY) - PartLin.of(Partition.cup(), 2)
    t = evaluate_partlin(e, 5)
    expected = functor_T(Partition.cup(), 5).scale(Fraction(3))
    assert t == expected


def test_kernel_zero_test_agrees_with_materialization():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(0, 2)
        l = rng.randint(1, 3)
        N = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            p = random_partition(rng, k, l)
            terms[p] = terms.get(p, 0) + rng.randint(-2, 2)
        e = PartLin(k, l, {p: c for p, c in terms.items() if c})
        fast = partlin_evaluates_to_zero(e, N)
        slow = evaluate_partlin(e, N).is_zero()
        assert fast == slow


def test_kernel_equality_on_known_identity():
    # compose(cap, cup) = n * empty, evaluated at N
    lhs = compose(Partition.cap(), Partition.cup())
    rhs = PartLin.of(Partition.identity(0), N_POLY)
    for N in (2, 5, 9):
        assert partlin_evaluates_to_zero(lhs - rhs, N)


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (4, 3), (5, 2)])
def test_antisymmetrizer_idempotent_selfadjoint(n, k, deformed):
    a = antisymmetrizer(k, n, deformed)
    assert a @ a == a
    assert a.adjoint() == a


def test_antisymmetrizer_action_example():
    a = antisymmetrizer(2, 3)
    # A(e_0 ox e_1) = 1/2 (e_0 ox e_1 - e_1 ox e_0)
    assert a[(0, 1, 0, 1)] == Fraction(1, 2)
    assert a[(1, 0, 0, 1)] == Fraction(-1, 2)
    d = antisymmetrizer(2, 3, deformed=True)
    assert d[(0, 1, 0, 1)] == Fraction(1, 2)
    assert d[(1, 0, 0, 1)] == Fraction(1, 2)
    # deformed kills repeated indices
    assert all(idx[2] != idx[3] for idx in d.entries)


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_certificate(n, deformed):
    for k in range(0, n + 1):
        a = antisymmetrizer(k, n, deformed)
        w = antisym_coisometry(k, n, deformed)
        kf = factorial(k)
        assert (w.adjoint() @ w).scale(Fraction(kf)) == a
        eye = SparseTensor.identity((comb(n, k),)).scale(Fraction(1, kf))
        assert w @ w.adjoint() == eye
        assert a.trace() == comb(n, k)


def test_certificate_scale_in_bounded_memory():
    """A = 6! W*W at n = k = 6, the largest certificate of ``verify antisym``
    (518,400 entries).  Scaling keeps the index columns and convolves only
    the numerator rows, so its ``tracemalloc`` peak stays within twice the
    arrays of W*W (about 19.8 MiB); pairing every entry with a one-entry
    tensor and summing again traced 58.7 MiB."""
    w = antisym_coisometry(6, 6)
    p = w.adjoint() @ w
    assert p.nnz() == 518_400
    scaled = []
    peak = peak_bytes(lambda: scaled.append(p.scale(Fraction(720))))
    assert peak <= 2 * (p._idx.nbytes + p._num.nbytes), peak
    assert scaled[0] == antisymmetrizer(6, 6)


def test_rank_matches_sympy_for_small_cases():
    sympy = pytest.importorskip("sympy")
    for n, k, deformed in [(3, 2, False), (3, 2, True), (4, 2, False), (4, 2, True)]:
        a = antisymmetrizer(k, n, deformed)
        dim = n**k
        m = sympy.zeros(dim, dim)
        for idx, v in a.entries.items():
            out = sum(idx[i] * n ** (k - 1 - i) for i in range(k))
            inn = sum(idx[k + i] * n ** (k - 1 - i) for i in range(k))
            m[out, inn] = sympy.Rational(v.as_fraction())
        assert m.rank() == comb(n, k)


def test_permanent_examples():
    assert permanent_via_wedge([[1, 0], [0, 1]]) == 1
    assert permanent_via_wedge([[1, 2], [3, 4]]) == 10
    assert permanent_via_wedge([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_permanent_random_matches_direct():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.choice([3, 4])
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert permanent_via_wedge(m) == permanent_direct(m)


def test_permanent_contracts_the_wedge(monkeypatch):
    # scaling W by c scales n! (W M^(x n) W*)[0,0] by c^2: the permanent is read
    # off the coisometry, not recomputed beside it.  W's entries are 1/2 at
    # n = 2, so c = 2 leaves numerators 1 over 1, and c = 3, coprime to 2!,
    # leaves numerators 3 over 2 that the contraction must weight each pair by
    import qsym.functors

    m = [[1, 2], [3, 4]]
    for c in (2, 3):
        monkeypatch.setattr(qsym.functors, "antisym_coisometry",
                            lambda k, n, deformed, c=c:
                            antisym_coisometry(k, n, deformed).scale(c))
        assert permanent_via_wedge(m) == c * c * permanent_direct(m)


def test_permanent_guard():
    with pytest.raises(InvalidInputError):
        permanent_via_wedge([[0] * 7 for _ in range(7)])


def test_deformed_equals_plain_on_nested_pairing():
    # nested noncrossing pairing: indices come in mirrored pairs, so the
    # inversion count is even and the sign vanishes entrywise
    nested = Partition.parse("P(0,4){1' 4' | 2' 3'}")
    assert evaluate_partlin(PartLin.of(nested), 4, deformed=True) == functor_T(nested, 4)
    crossing = Partition.crossing()
    base = functor_T(crossing, 3)
    signed = evaluate_partlin(PartLin.of(crossing), 3, deformed=True)
    assert {idx for idx in base.entries} == {idx for idx in signed.entries}

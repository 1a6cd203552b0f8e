import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from qsym.functors import (
    antisym_coisometry,
    antisymmetrizer,
    evaluate_partlin,
    functor_T,
    functor_T_deformed,
    partlin_evaluates_to_zero,
    partlin_tensors_equal,
    permanent_direct,
    permanent_via_wedge,
    random_partition,
    sign_sigma,
)
from qsym.errors import InvalidInputError
from qsym.partitions import Partition, PartLin, compose
from qsym.polyq import N_POLY
from qsym.sparse import SparseTensor


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


def test_sign_sigma():
    assert sign_sigma((1, 2)) == 1
    assert sign_sigma((2, 1)) == -1
    assert sign_sigma((1, 1)) == 1
    assert sign_sigma((3, 1, 2)) == 1  # two inversions


def test_deformed_crossing_signs():
    t = functor_T_deformed(Partition.crossing(), 3)
    for i in range(3):
        for j in range(3):
            # entry at out=(j,i), in=(i,j)
            v = t[(j, i, i, j)]
            assert v == (1 if i == j else -1)


def test_deformed_cup_ties():
    t = functor_T_deformed(Partition.cup(), 3)
    for j in range(3):
        assert t[(j, j)] == 1


def test_deformed_signs_match_sign_sigma():
    """The block-pair sign equals sigma of each row, on random even-block
    partitions."""
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(0, 4)
        l = rng.choice([x for x in range(5) if (k + x) % 2 == 0 and k + x])
        points = list(range(k + l))
        rng.shuffle(points)
        assign = [0] * (k + l)
        for i in range(0, k + l, 2):  # pairs, some merged into blocks of 4 or 6
            b = rng.randint(0, i // 2)
            assign[points[i]] = assign[points[i + 1]] = b
        p = Partition(k, l, assign)
        t = functor_T_deformed(p, 3)
        expected = {idx: sign_sigma(idx[l:]) * sign_sigma(idx[:l])
                    for idx in functor_T(p, 3).numerators}
        assert dict(t.numerators) == expected, p


def test_deformed_rejects_odd_blocks():
    with pytest.raises(InvalidInputError):
        functor_T_deformed(Partition.merge(), 2)


@pytest.mark.parametrize("N", [3, 4])
def test_block_compose_oracle(N):
    # T_{b22} . T_{b22} = T_{b22}: confirms compose(b22, b22) has no loops
    b = functor_T(Partition.block(2, 2), N)
    assert b @ b == b


def test_functoriality_random_pairs():
    rng = random.Random(20240817)
    checked = 0
    while checked < 60:
        k = rng.randint(0, 3)
        l = rng.randint(1, 3)
        m = rng.randint(0, 3)
        if k + l + m > 8 or (k + l == 0) or (l + m == 0):
            continue
        N = rng.randint(4, 7)
        p = random_partition(rng, k, l)
        q = random_partition(rng, l, m)
        if N ** p.n_blocks > 2 * 10**5 or N ** q.n_blocks > 2 * 10**5:
            continue
        r, loops = __import__("qsym.partitions", fromlist=["compose_partitions"]).compose_partitions(q, p)
        lhs = functor_T(q, N) @ functor_T(p, N)
        rhs = functor_T(r, N).scale(Fraction(N**loops))
        assert lhs == rhs, (p, q, N)
        checked += 1


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
        assert partlin_tensors_equal(lhs, rhs, N)


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
    # scaling W by 2 scales n! (W M^(x n) W*)[0,0] by 4: the permanent is read
    # off the coisometry, not recomputed beside it
    import qsym.functors

    m = [[1, 2], [3, 4]]
    monkeypatch.setattr(qsym.functors, "antisym_coisometry",
                        lambda k, n, deformed: antisym_coisometry(k, n, deformed).scale(2))
    assert permanent_via_wedge(m) == 4 * permanent_direct(m)


def test_permanent_guard():
    with pytest.raises(InvalidInputError):
        permanent_via_wedge([[0] * 7 for _ in range(7)])


def test_deformed_equals_plain_on_nested_pairing():
    # nested noncrossing pairing: indices come in mirrored pairs, so the
    # inversion count is even and the sign vanishes entrywise
    nested = Partition.parse("P(0,4){1' 4' | 2' 3'}")
    assert functor_T_deformed(nested, 4) == functor_T(nested, 4)
    crossing = Partition.crossing()
    base = functor_T(crossing, 3)
    signed = functor_T_deformed(crossing, 3)
    assert {idx for idx in base.entries} == {idx for idx in signed.entries}

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.errors import InvalidInputError
from qsym.functors import evaluate_partlin, partlin_evaluates_to_zero
from qsym.partitions import (
    Partition,
    PartLin,
    antisym2,
    antisym_row,
    antisymmetrize,
    compose,
    compose_partitions,
    permutation_of,
    two_point_swap,
)
from qsym.polyq import N_POLY, PolyQ


def test_make_partition_examples():
    cap = Partition.from_blocks(2, 0, [[1, 2]])
    assert cap == Partition.cap()
    strand = Partition.from_blocks(1, 1, [[1, "1'"]])
    assert strand == Partition.identity(1)
    b22 = Partition.from_blocks(2, 2, [[1, 2, "1'", "2'"]])
    assert b22 == Partition.block(2, 2)


def test_make_partition_rejects_bad_blocks():
    with pytest.raises(InvalidInputError):
        Partition.from_blocks(2, 0, [[1], [1, 2]])  # overlapping
    with pytest.raises(InvalidInputError):
        Partition.from_blocks(2, 1, [[1, 2]])  # missing lower point
    with pytest.raises(InvalidInputError):
        Partition.from_blocks(1, 0, [[1, "1'"]])  # out of range


def test_partition_rejects_negative_point_counts():
    # k + l = 1 would otherwise pass the length check with k = -1
    with pytest.raises(InvalidInputError, match="k, l >= 0"):
        Partition.block(-1, 2)
    with pytest.raises(InvalidInputError, match="k, l >= 0"):
        Partition(2, -1, [0])


def test_parse_print_roundtrip():
    text = "P(2,2){1 2' | 2 1'}"
    p = Partition.parse(text)
    assert p == Partition.crossing()
    assert Partition.parse(str(p)) == p
    assert Partition.parse("P(0,0){}") == Partition.identity(0)


def test_compose_cap_cup_loop():
    r, loops = compose_partitions(Partition.cap(), Partition.cup())
    assert r == Partition.identity(0)
    assert loops == 1


def test_compose_identity_neutral():
    p = Partition.parse("P(2,3){1 2' | 2 1' 3'}")
    r, loops = compose_partitions(Partition.identity(3), p)
    assert (r, loops) == (p, 0)
    r, loops = compose_partitions(p, Partition.identity(2))
    assert (r, loops) == (p, 0)


def test_compose_block_idempotent():
    b = Partition.block(2, 2)
    r, loops = compose_partitions(b, b)
    assert r == b and loops == 0


def test_compose_arity_mismatch():
    with pytest.raises(InvalidInputError):
        compose_partitions(Partition.cap(), Partition.cap())


def test_tensor_adjoint_rotate():
    idp = Partition.identity(1)
    assert idp.tensor(idp) == Partition.identity(2)
    assert Partition.cap().adjoint() == Partition.cup()
    # rotating the one-block P(2,1) down on the right gives P(1,2)
    b21 = Partition.block(2, 1)
    assert b21.rotate("right") == Partition.block(1, 2)
    with pytest.raises(InvalidInputError):
        Partition.cup().rotate("left")


def test_cycle_partition():
    p2 = Partition.cycle(2)
    assert p2 == Partition.parse("P(0,4){1' 4' | 2' 3'}")
    p3 = Partition.cycle(3)
    assert p3 == Partition.parse("P(0,6){1' 6' | 2' 3' | 4' 5'}")


def test_partlin_compose_loop_factor():
    out = compose(Partition.cap(), Partition.cup())
    assert out == PartLin.of(Partition.identity(0), N_POLY)


def test_partlin_scale_cancellation():
    p = PartLin.of(Partition.identity(2))
    combo = p.scale(N_POLY - 4) + p.scale(4 - N_POLY)
    assert combo.is_zero()


def test_compose_distributes():
    a = PartLin.of(Partition.identity(2)) + PartLin.of(Partition.crossing())
    b = PartLin.of(Partition.block(2, 2), 3)
    lhs = compose(b, a)
    rhs = compose(b, Partition.identity(2)) + compose(b, Partition.crossing())
    assert lhs == rhs


def test_antisym2_form():
    a = antisym2()
    expected = PartLin(
        2,
        2,
        {
            Partition.identity(2): Fraction(1, 2),
            Partition.crossing(): Fraction(-1, 2),
        },
    )
    assert a == expected


def test_antisym2_idempotent_selfadjoint():
    a = antisym2()
    assert compose(a, a) == a
    assert a.adjoint() == a


def test_antisymmetrize_identity_and_crossing():
    assert antisymmetrize(Partition.identity(2)) == antisym2()
    assert antisymmetrize(Partition.crossing()) == -antisym2()


def test_antisymmetrize_idempotent():
    p = Partition.parse("P(2,2){1 1' | 2 2'}")
    once = antisymmetrize(p)
    again_terms = PartLin.zero(2, 2)
    for part, c in once.terms.items():
        again_terms = again_terms + antisymmetrize(part).scale(c)
    assert again_terms == once


def test_antisymmetrize_rejects_odd():
    with pytest.raises(InvalidInputError):
        antisymmetrize(Partition.block(1, 2))


def test_two_point_swap_on_pair_cycle():
    # p2 with its two two-points swapped is p2 read backwards = p2 itself
    e = antisymmetrize(Partition.cycle(2))
    swapped = two_point_swap(e, 1)
    assert swapped == e or swapped == -e


def test_two_point_swap_involution():
    e = antisymmetrize(Partition.cycle(3))
    assert two_point_swap(two_point_swap(e, 1), 1) == e


def test_two_point_swap_exchanges_tensor_factors():
    a = antisymmetrize(Partition.cycle(2))  # on two-points 1,2
    b = antisymmetrize(PartLin.of(Partition.cup()).tensor(Partition.cup()).terms.popitem()[0])
    # a ox b vs swap of b ox a across the middle boundary needs 4 two-points;
    # here check the simplest factor exchange on a ox a
    e = a.tensor(a)
    assert two_point_swap(two_point_swap(e, 2), 2) == e


def test_identity_difference_is_exact():
    half = Fraction(1, 2)
    lhs = PartLin.of(Partition.identity(2), half) - PartLin.of(Partition.crossing(), half)
    rhs = PartLin.of(Partition.identity(2), half) + PartLin.of(Partition.crossing(), half)
    assert lhs != rhs
    assert lhs - rhs == PartLin.of(Partition.crossing(), -1)
    assert lhs == lhs and (lhs - lhs).is_zero()


def test_partlin_json():
    e = PartLin.of(Partition.cup(), N_POLY)
    data = e.to_json()
    assert data == {
        "k": 0,
        "l": 2,
        "terms": [{"partition": "P(0,2){1' 2'}", "coeff": "n"}],
    }


# -- property tests ------------------------------------------------------------

def random_partition(draw, k, l):
    npts = k + l
    assign = [0] if npts else []
    for _ in range(npts - 1):
        assign.append(draw(st.integers(0, max(assign) + 1)))
    return Partition(k, l, assign)


@st.composite
def partitions_kl(draw, k, l):
    return random_partition(draw, k, l)


@given(partitions_kl(3, 1), partitions_kl(2, 3), partitions_kl(2, 2))
@settings(max_examples=80, deadline=None)
def test_compose_associative_with_loops(r, q, p):
    lhs = compose(compose(r, q), p)
    rhs = compose(r, compose(q, p))
    assert lhs == rhs


@given(partitions_kl(3, 2))
@settings(max_examples=60, deadline=None)
def test_adjoint_involution(p):
    assert p.adjoint().adjoint() == p


@given(partitions_kl(2, 2), partitions_kl(1, 3))
@settings(max_examples=60, deadline=None)
def test_tensor_associative(p, q):
    assert p.tensor(q).tensor(p) == p.tensor(q.tensor(p))


# -- fast composition routes against their oracles -------------------------------
#
# ``compose`` relabels when a factor is a permutation partition and sums
# integer coefficients; the oracles are the union-find ``compose_partitions``
# and a term-by-term sum of PolyQ products.


@st.composite
def permutation_partitions(draw, k):
    """Permutation partitions of P(k,k), which ``partitions_kl`` almost never
    draws: lower point j is joined to upper point sigma[j]."""
    sigma = draw(st.permutations(range(k)))
    return Partition(k, k, tuple(range(k)) + tuple(sigma))


def _is_permutation(p):
    return p.k == p.l and all(
        sum(pos < p.k for pos in b) == 1 and sum(pos >= p.k for pos in b) == 1
        for b in p.blocks()
    )


def test_permutation_of_examples():
    assert permutation_of(Partition.identity(3)) == (0, 1, 2)
    assert permutation_of(Partition.crossing()) == (1, 0)
    assert permutation_of(Partition.identity(0)) == ()
    for p in (Partition.block(2, 2), Partition.cap(), Partition.parse("P(2,2){1 2 | 1' 2'}")):
        assert permutation_of(p) is None


@given(st.integers(0, 3).flatmap(lambda k: st.one_of(
    partitions_kl(k, k), permutation_partitions(k))))
@settings(max_examples=80, deadline=None)
def test_permutation_of_detects_permutations(p):
    sigma = permutation_of(p)
    assert (sigma is not None) == _is_permutation(p)
    if sigma is not None:
        assert Partition(p.k, p.k, tuple(range(p.k)) + sigma) == p


@st.composite
def permutation_then_any(draw):
    k, m = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    return draw(partitions_kl(k, m)), draw(permutation_partitions(k))


@st.composite
def any_then_permutation(draw):
    k, l = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    return draw(permutation_partitions(l)), draw(partitions_kl(k, l))


@given(st.one_of(permutation_then_any(), any_then_permutation()))
@settings(max_examples=200, deadline=None)
def test_relabelled_composition_matches_union_find(pair):
    """With a permutation factor ``compose`` relabels; the partition and the
    loop count (the power of n) match the union-find route."""
    q, p = pair
    r, loops = compose_partitions(q, p)
    assert compose(q, p) == PartLin.of(r, N_POLY**loops)


@st.composite
def polys(draw, max_degree=2):
    """Small PolyQ values with fractional coefficients; zero is likely, so
    sums cancel."""
    coeffs = draw(st.lists(
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6])),
        max_size=max_degree + 1))
    return PolyQ(coeffs)


@st.composite
def partlins(draw, k, l, max_terms=4):
    """PartLins of shape (k,l) whose terms mix random and (when k == l)
    permutation partitions."""
    kinds = [partitions_kl(k, l)]
    if k == l:
        kinds.append(permutation_partitions(k))
    terms = draw(st.lists(st.tuples(st.one_of(*kinds), polys()), max_size=max_terms))
    out = PartLin.zero(k, l)
    for part, coeff in terms:
        out = out + PartLin.of(part, coeff)
    return out


def reference_compose(q: PartLin, p: PartLin) -> PartLin:
    """Term-by-term PolyQ products with a factor n per loop, glued by
    union-find."""
    terms = {}
    for qp, qc in q.terms.items():
        for pp, pc in p.terms.items():
            r, loops = compose_partitions(qp, pp)
            terms[r] = terms.get(r, PolyQ()) + qc * pc * N_POLY**loops
    return PartLin(p.k, q.l, terms)


@st.composite
def composable_partlins(draw):
    k, l, m = draw(st.integers(0, 3)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    if draw(st.booleans()):  # square factors make permutation terms likely
        k = m = l
    return draw(partlins(l, m)), draw(partlins(k, l))


@given(composable_partlins())
@settings(max_examples=200, deadline=None)
def test_integer_compose_matches_polyq_reference(pair):
    q, p = pair
    fast, slow = compose(q, p), reference_compose(q, p)
    assert fast == slow
    assert fast.to_json() == slow.to_json()
    assert all(type(c) is Fraction for coeff in fast.terms.values() for c in coeff.coeffs)


def test_compose_with_loops_and_permutations_matches_reference():
    # two loops, a crossing on either side, and fractional weights
    cup_cup = PartLin.of(Partition.parse("P(0,4){1' 2' | 3' 4'}"), Fraction(1, 3))
    cap_cap = PartLin.of(Partition.parse("P(4,0){1 4 | 2 3}"), N_POLY + Fraction(1, 2))
    swaps = antisym_row(2)
    for q, p in [(cap_cap, cup_cup), (cap_cap, compose(swaps, cup_cup)),
                 (compose(cap_cap, swaps), cup_cup)]:
        assert compose(q, p) == reference_compose(q, p)
    assert compose(cap_cap, cup_cup) == PartLin.of(
        Partition.identity(0), (N_POLY + Fraction(1, 2)) * N_POLY * Fraction(1, 3))


@st.composite
def small_composable_partlins(draw):
    k, l, m = draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    return draw(partlins(l, m, max_terms=3)), draw(partlins(k, l, max_terms=3))


@given(small_composable_partlins(), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_formal_tensor_and_kernel_routes_agree(pair, N, data):
    """Formal ``compose``, composition of the functor tensors and the kernel
    zero test give one answer at small N."""
    q, p = pair
    c = compose(q, p)
    tensor = evaluate_partlin(q, N) @ evaluate_partlin(p, N)
    assert evaluate_partlin(c, N) == tensor
    # c with its coefficients fixed at N: formally different when c has
    # powers of n, yet equal at N; or any other combination of the shape
    at_N = PartLin(c.k, c.l, {part: coeff(N) for part, coeff in c.terms.items()})
    d = data.draw(st.one_of(st.just(at_N), partlins(c.k, c.l, max_terms=3)))
    assert partlin_evaluates_to_zero(c - d, N) == (evaluate_partlin(d, N) == tensor)

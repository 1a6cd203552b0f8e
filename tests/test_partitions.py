from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym import partitions
from qsym.dsl import eval_text
from qsym.errors import InvalidInputError
from qsym.functors import evaluate_partlin, partlin_evaluates_to_zero
from qsym.lemmas import lemma_suite
from qsym.partitions import (
    Partition,
    PartLin,
    antisymmetrize,
    compose,
    two_point_swap,
)
from qsym.polyq import PolyQ

from oracles import (
    N_POLY,
    RefLin,
    compose_partitions,
    partition_adjoint,
    peak_bytes,
    ref_antisym_row,
    reference_compose,
)


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
    idp = PartLin.of(Partition.identity(1))
    assert idp.tensor(idp) == PartLin.of(Partition.identity(2))
    assert PartLin.of(Partition.cap()).adjoint() == PartLin.of(Partition.cup())
    # rotating the one-block P(2,1) down on the right gives P(1,2)
    b21 = PartLin.of(Partition.block(2, 1))
    assert b21.rotate("right") == PartLin.of(Partition.block(1, 2))
    with pytest.raises(InvalidInputError, match="upper row is empty"):
        PartLin.of(Partition.cup()).rotate("left")
    with pytest.raises(InvalidInputError, match="upper row is empty"):
        PartLin.zero(0, 2).rotate("left")
    with pytest.raises(InvalidInputError, match="unknown side"):
        b21.rotate("down")


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
    a = antisymmetrize(Partition.identity(2))
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
    a = antisymmetrize(Partition.identity(2))
    assert compose(a, a) == a
    assert a.adjoint() == a


def tensor_chain(factors) -> PartLin:
    """The tensor product of the factors through ``PartLin.tensor``, left to
    right, starting from the empty partition."""
    out = PartLin.of(Partition.identity(0))
    for f in factors:
        out = out.tensor(f)
    return out


@pytest.mark.parametrize("r", range(9))
def test_closed_form_rows_match_tensor_chain(r):
    """The antisymmetrized identity on r two-points is 1/2 (id - crossing)
    tensored r times, term order and all, and swapping two of its two-points
    antisymmetrizes the tensor product of identities with one four-point
    swap."""
    half = PartLin(2, 2, {Partition.identity(2): Fraction(1, 2),
                          Partition.crossing(): Fraction(-1, 2)})
    row, chain = antisymmetrize(Partition.identity(2 * r)), tensor_chain([half] * r)
    assert row == chain
    assert list(row.terms) == list(chain.terms)
    assert row.to_json() == chain.to_json()
    swap = PartLin.of(Partition.parse("P(4,4){1 3' | 2 4' | 3 1' | 4 2'}"))
    for i in range(1, r):
        factors = [PartLin.of(Partition.identity(2))] * (r - 1)
        factors[i - 1] = swap
        assert two_point_swap(row, i) == antisymmetrize(tensor_chain(factors))


def ref_row(r: int) -> PartLin:
    """The oracle's 1/2 (id - crossing) tensored r times."""
    return PartLin(2 * r, 2 * r, ref_antisym_row(r).terms)


def test_antisymmetrize_identity_and_crossing():
    assert antisymmetrize(Partition.identity(2)) == ref_row(1)
    assert antisymmetrize(Partition.crossing()) == -ref_row(1)


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
    """On an antisymmetrized e the swap is the plain exchange of two
    two-points, so swaps 2, 1, 3, 2 carry a's two-points past b's: a ox b
    becomes b ox a.  The factors differ, and so do the two products."""
    a = antisymmetrize(Partition.cycle(2))
    b = antisymmetrize(Partition.parse("P(0,4){1' 3' | 2' | 4'}"))
    assert a != b and a.tensor(b) != b.tensor(a)
    e = a.tensor(b)
    for i in (2, 1, 3, 2):
        e = two_point_swap(e, i)
    assert e == b.tensor(a)


@pytest.mark.parametrize("text", [
    "asym(id(4))",
    "asym(P(4,2){1 2 1' | 3 4 2'})",
    "asym(id(6))",
    "asym(P(6,0){1 4 | 2 6 | 3 5})",
])
def test_two_point_swap_upper_is_the_adjoint_of_lower(text):
    # the crossing element is self-adjoint, so swapping on the upper row is
    # swapping on the lower row of the adjoint
    e = eval_text(text)
    for i in range(1, e.k // 2):
        expected = two_point_swap(e.adjoint(), i, "lower").adjoint()
        assert two_point_swap(e, i, "upper") == expected, i


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
    twice = PartLin.of(p).adjoint().adjoint()
    assert twice == PartLin.of(p) and hash(twice) == hash(PartLin.of(p))
    # a combination equals only a combination, as their hashes differ
    assert twice != p and p != twice


@given(partitions_kl(2, 2), partitions_kl(1, 3))
@settings(max_examples=60, deadline=None)
def test_tensor_associative(p, q):
    p, q = PartLin.of(p), PartLin.of(q)
    assert p.tensor(q).tensor(p) == p.tensor(q.tensor(p))


# -- the vectorised composition against its oracles -------------------------------
#
# ``compose`` glues every term pair in numpy blocks and sums integer
# coefficients; the oracles are the union-find ``compose_partitions`` (in
# ``oracles.py``) and a term-by-term sum of PolyQ products.


@st.composite
def permutation_partitions(draw, k):
    """Permutation partitions of P(k,k), which ``partitions_kl`` almost never
    draws: lower point j is joined to upper point sigma[j]."""
    sigma = draw(st.permutations(range(k)))
    return Partition(k, k, tuple(range(k)) + tuple(sigma))


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
    """With a permutation factor the partition and the loop count (the power
    of n) match the union-find route."""
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
    swaps = antisymmetrize(Partition.identity(4))
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


# -- the kernel at its edges: blocks, empty rows, label widths, big integers ------

def distinct_partitions(k, l, count):
    """The first ``count`` partitions of P(k,l) (all, if it has fewer) in
    restricted-growth order."""
    out, assign = [], [0] * (k + l)
    while len(out) < count:
        out.append(Partition(k, l, assign))
        j = len(assign) - 1  # next restricted-growth string
        while j > 0 and assign[j] > max(assign[:j]):
            assign[j] = 0
            j -= 1
        if j <= 0:
            break
        assign[j] += 1
    return out


def spread(parts, coeffs=(1, -2, Fraction(1, 3), N_POLY)):
    """A PartLin on ``parts`` with a cycle of coefficients."""
    parts = list(parts)
    return sum((PartLin.of(part, coeffs[i % len(coeffs)]) for i, part in enumerate(parts)),
               PartLin.zero(parts[0].k, parts[0].l))


# the chain insertion of five_cycle_chain.pcalc after the ring difference, and
# after a two-point swap: asym'd P(10,10) products of 8,192 and 4,096 pairs
CHAIN_INSERT = "asym(id(2) ox P(4,4){1 3 | 2 1' | 4 3' | 2' 4'} ox id(2) ox id(2))"


def glued_pairs(call):
    """(call(), the number of term pairs ``_glue_pairs`` glued meanwhile)."""
    seen, glue = [], partitions._glue_pairs

    def spy(q, p, a, b):
        seen.append(len(a))
        return glue(q, p, a, b)

    with mock.patch.object(partitions, "_glue_pairs", spy):
        out = call()
    return out, sum(seen)


@pytest.mark.parametrize("after", [
    "asym(pk(5)) - asym(P(0,10){2' 3' | 6' 7' | 5' 9' | 4' 8' | 1' 10'})",
    "asym(P(4,4){1 3' | 2 4' | 3 1' | 4 2'} ox id(6))",
])
def test_fixture_products_span_several_blocks(after):
    """Both factors are antisymmetric on the middle row, so the product
    glues one term of p per orbit; with that reduction patched out it
    glues every pair, more than ten blocks of label nodes."""
    q, p = eval_text(CHAIN_INSERT), eval_text(after)
    V = p.k + 2 * p.l + q.l
    expected = reference_compose(q, p)
    out, pairs = glued_pairs(lambda: compose(q, p))
    assert out == expected and pairs < len(q.assign) * len(p.assign)
    with mock.patch.object(partitions, "_crossing_images", return_value=None):
        out, pairs = glued_pairs(lambda: compose(q, p))
    assert out == expected
    assert pairs == len(q.assign) * len(p.assign)
    assert pairs * V > 10 * partitions._BLOCK_ENTRIES


@given(composable_partlins(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_compose_is_blind_to_block_boundaries(pair, rows):
    """Blocks of one to three rows cut the pairs at every boundary."""
    q, p = pair
    V = p.k + 2 * p.l + q.l
    with mock.patch.object(partitions, "_BLOCK_ENTRIES", rows * V):
        assert compose(q, p) == reference_compose(q, p)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_products_without_outer_points(r):
    """Only loops survive: every output is P(0,0) with a power of n."""
    ring = Partition.cycle(r)
    out = eval_text(f"adj(pk({r})) * pk({r})")
    assert out == compose(partition_adjoint(ring), ring) == reference_compose(
        partition_adjoint(ring), ring)
    assert set(out.terms) == {Partition.identity(0)}
    mixed = spread(distinct_partitions(0, 2 * r, 7))
    assert compose(mixed.adjoint(), mixed) == reference_compose(mixed.adjoint(), mixed)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_products_without_middle_points(k, m, data):
    q, p = data.draw(partlins(0, m)), data.draw(partlins(k, 0))
    assert compose(q, p) == reference_compose(q, p)


@pytest.mark.parametrize("width", [130, 33_000])
def test_labels_past_int8_and_int16(width):
    """Singleton blocks put labels past 127 (int16) and past 32,767 (int32)
    in the factors and in the composed rows."""
    singletons = Partition(width, 2, range(width + 2))
    joined = Partition(width, 2, tuple(range(width)) + (0, width - 1))
    p = PartLin.of(singletons, 2) + PartLin.of(joined, -1)
    q = PartLin.of(Partition.crossing()) + PartLin.of(Partition.block(2, 2), 3)
    assert compose(q, p) == reference_compose(q, p)
    assert compose(p.adjoint(), q) == reference_compose(p.adjoint(), q)


@pytest.mark.parametrize("size", [2**29, 2**31 + 1, 2**40, 10**30])
def test_large_coefficients_stay_exact(size):
    """Two products of size^2 meet in each output of twist * twist: inside
    int64 at 2^29, past 2^63 from 2^31 + 1 on, where the sums must move to
    Python integers."""
    twist = PartLin.of(Partition.identity(2), size) + PartLin.of(Partition.crossing(), size)
    square = PartLin.of(Partition.identity(2), 2 * size**2) + PartLin.of(
        Partition.crossing(), 2 * size**2)
    assert compose(twist, twist) == square == reference_compose(twist, twist)
    big = spread(distinct_partitions(2, 2, 15), (size, -size + 1, Fraction(size, 7), N_POLY * size))
    cup = PartLin.of(Partition.cup(), size) + PartLin.of(Partition.parse("P(0,2){1' | 2'}"), -size)
    assert compose(big, cup) == reference_compose(big, cup)
    assert compose(big, big) == reference_compose(big, big)


# -- the orbit route: factors antisymmetric on the middle row -------------------------
#
# When p is antisymmetric on its output row and q on its input row under the
# crossing of each middle two-point, ``compose`` glues one term of p per
# orbit of the crossings, weighted by the orbit's size.

# the generators s1 and s4 of five_cycle_chain.pcalc, 32 terms each
S1 = "asym(P(4,4){1 3' | 2 4' | 3 1' | 4 2'} ox id(6))"
S4 = "asym(id(6) ox P(4,4){1 3' | 2 4' | 3 1' | 4 2'})"


def crossing_orbits(x: PartLin) -> int:
    """The number of orbits of the crossings of x's lower two-points on
    x's terms, by a search over ``Partition`` values."""
    seen, orbits = set(), 0
    for part in x.terms:
        if part in seen:
            continue
        orbits, todo = orbits + 1, [part]
        seen.add(part)
        while todo:
            assign = todo.pop().assign
            for c in range(x.k, x.k + x.l, 2):
                swapped = list(assign)
                swapped[c:c + 2] = assign[c + 1], assign[c]
                image = Partition(x.k, x.l, swapped)
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
    return orbits


def test_s1_s4_glues_one_term_per_orbit():
    q, p = eval_text(S1), eval_text(S4)
    out, pairs = glued_pairs(lambda: compose(q, p))
    assert pairs == len(q.assign) * crossing_orbits(p) == 32
    assert out == reference_compose(q, p)


def test_orbit_with_a_stabilizer_weighs_its_own_size():
    """Crossing both two-points fixes {1' 3' | 2' 4'}, so its orbit has two
    terms, not four; the other orbit has four."""
    p = eval_text("asym(P(0,4){1' 3' | 2' 4'}) + asym(P(0,4){1' 3' | 2' | 4'})")
    q = eval_text("asym(P(4,2){1 1' | 2 | 3 2' | 4})")
    assert (len(q.assign), len(p.assign), crossing_orbits(p)) == (8, 6, 2)
    out, pairs = glued_pairs(lambda: compose(q, p))
    assert pairs == 8 * 2
    assert out == reference_compose(q, p)


def test_lemma_suite_glues_few_pairs():
    """Every product of the fixtures has factors antisymmetric on the
    middle row; gluing all pairs took 39,485."""
    report, pairs = glued_pairs(lemma_suite)
    assert report.passed and report.counts["fail"] == 0
    assert pairs <= 2000


def test_orbit_weight_past_int64():
    """The orbit weight 32 times a numerator near 2^61 passes 2^62, so the
    weighted rows and the result are Python integers."""
    q, p = eval_text(S1).scale(160), eval_text(S4).scale(32 * (2**61 + 1))
    assert p.num.dtype == np.int64 and max(abs(v) for v in p.num.ravel().tolist()) > 2**61
    out, pairs = glued_pairs(lambda: compose(q, p))
    expected = reference_compose(q, p)
    assert pairs == 32 and out == expected
    assert out.num.dtype == expected.num.dtype == object


@st.composite
def two_point_free_partitions(draw, k, l):
    """Partitions of P(k,l), k and l even, that keep the two points of each
    two-point in different blocks, so that their asym is rarely zero."""
    assign = []
    for pos in range(k + l):
        labels = range(max(assign, default=-1) + 2)
        assign.append(draw(st.sampled_from([b for b in labels if not pos % 2 or b != assign[-1]])))
    return Partition(k, l, assign)


@st.composite
def antisymmetric_partlins(draw, k, l, depth=1):
    """Combinations of shape (k,l), both rows even, antisymmetric on both:
    asym of random partitions, their sums, differences and scales, and
    products of these, whose terms may be fixed by some crossings."""
    def one():
        if depth and draw(st.integers(0, 3)) == 0:
            j = draw(st.sampled_from([2, 4]))
            return compose(draw(antisymmetric_partlins(j, l, depth - 1)),
                           draw(antisymmetric_partlins(k, j, depth - 1)))
        kind = draw(st.sampled_from([two_point_free_partitions, partitions_kl]))
        return antisymmetrize(draw(kind(k, l)))
    x = one()
    for _ in range(draw(st.integers(0, 3))):
        x = x + one() if draw(st.booleans()) else x - one()
    return x.scale(draw(st.sampled_from([1, -3, Fraction(2, 5), N_POLY - 1])))


@st.composite
def nudged(draw, x):
    """x with one coefficient changed or one term added, so that some
    crossing's image of a term is missing or not negated."""
    parts = sorted(x.terms, key=str)
    part = draw(st.sampled_from(parts) if parts and draw(st.booleans())
                else partitions_kl(x.k, x.l))
    return x + PartLin.of(part, draw(st.sampled_from([1, -1, Fraction(1, 7), N_POLY])))


@st.composite
def middle_antisymmetric_pairs(draw):
    """(q, p, exact): q of shape (l, m) and p of shape (k, l), each
    antisymmetric or, unless ``exact``, one of them nudged off it."""
    k, l, m = (draw(st.sampled_from(sizes)) for sizes in ([4, 2, 0], [2, 4], [4, 2, 0]))
    q, p = draw(antisymmetric_partlins(l, m)), draw(antisymmetric_partlins(k, l))
    nudge = draw(st.sampled_from(["none", "q", "p"]))
    if nudge == "q":
        q = draw(nudged(q))
    elif nudge == "p":
        p = draw(nudged(p))
    return q, p, nudge == "none"


@given(middle_antisymmetric_pairs())
@settings(max_examples=200, deadline=None)
def test_orbit_route_matches_reference(pair):
    """Antisymmetric factors glue at most half of p's terms whenever their
    check (r (|q| + |p|) rows) costs less than the pairs it saves; a nudged
    factor falls back to every term.  Either way the product is exact."""
    q, p, exact = pair
    terms, _ = partitions._glued_terms(q, p)
    nq, n_p, r = len(q.assign), len(p.assign), p.l // 2
    if exact and nq * n_p > (r + 1) * (nq + n_p):
        assert len(terms) <= n_p // 2
    else:
        assert len(terms) == n_p
    assert compose(q, p) == reference_compose(q, p)


class _FullShapeAt:
    """A ufunc whose ``at`` insists on values of the full index shape: numpy
    2.4 misreads broadcast values there and writes garbage."""

    def __init__(self, ufunc, seen):
        self.ufunc, self.seen = ufunc, seen

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def at(self, target, index, values):
        for part in index if isinstance(index, tuple) else (index,):
            assert np.shape(part) == np.shape(values), "ufunc.at with broadcast values"
        self.seen.add(self.ufunc.__name__)
        return self.ufunc.at(target, index, values)


def test_compose_gives_ufunc_at_full_shape_values(monkeypatch):
    """The gluing's ``np.minimum.at`` is the only ``ufunc.at`` of compose:
    equal rows are summed by sorting, not scattered."""
    seen = set()
    monkeypatch.setattr(np, "minimum", _FullShapeAt(np.minimum, seen))
    q = spread(distinct_partitions(3, 3, 12))
    p = spread(distinct_partitions(2, 3, 9), (Fraction(1, 2), N_POLY - 1, 3))
    assert compose(q, p) == reference_compose(q, p)
    assert seen == {"minimum"}


def test_compose_guard_fires_before_allocating(monkeypatch):
    """One pair over the cap raises before anything of the pairs' size is
    allocated; the same product at the cap allocates far more."""
    q = spread(distinct_partitions(6, 6, 120))
    p = spread(distinct_partitions(6, 6, 100))

    monkeypatch.setenv("QSYM_MAX_DENSE", str(120 * 100 - 1))
    below = peak_bytes(lambda: compose(q, p), "partition composition")
    monkeypatch.setenv("QSYM_MAX_DENSE", str(120 * 100))
    at_cap = peak_bytes(lambda: compose(q, p))
    assert below < 16 * 1024 and 50 * below < at_cap


@pytest.mark.parametrize("count, what, build", [
    (20 * 15, "partition tensor product needs 300 ",
     lambda a, b: a.tensor(b)),
    # a row of 2^6 terms on each side: at most 2^6 x 2^6 rows in all
    (2**12, "antisymmetrization needs 4096 ",
     lambda a, b: antisymmetrize(PartLin.of(Partition.identity(12)))),
], ids=["tensor", "antisymmetrize"])
def test_products_guard_before_they_allocate(monkeypatch, count, what, build):
    """One below its guard's count a product refuses with a small peak; at
    the count it builds at most that many terms."""
    a = spread(distinct_partitions(3, 3, 20))
    b = spread(distinct_partitions(2, 2, 15))
    monkeypatch.setenv("QSYM_MAX_DENSE", str(count - 1))
    assert peak_bytes(lambda: build(a, b), what) < 16 * 1024
    monkeypatch.setenv("QSYM_MAX_DENSE", str(count))
    assert 0 < len(build(a, b).terms) <= count


# -- the array PartLin against the dict-of-objects reference -----------------------
#
# ``RefLin`` (in ``oracles.py``) keeps one Partition and one PolyQ per term,
# in lexicographic order of the assignments; every operation of the array
# ``PartLin`` must give its terms in that order, in the normal form the class
# promises, and equal values hold equal arrays.

BIG = 2**64 + 7  # past int64, so coefficients fall back to Python integers


def assert_normal(x: PartLin):
    """Canonical rows of the smallest label type in strictly increasing
    lexicographic order, no zero row, no trailing zero column, gcd(den, num)
    = 1, num int64 where it fits."""
    rows, num = [tuple(r) for r in x.assign.tolist()], x.num.tolist()
    assert x.assign.shape == (len(rows), x.k + x.l)
    assert x.assign.dtype == partitions._label_type(x.k + x.l)
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert all(Partition(x.k, x.l, r).assign == r for r in rows)
    assert len(num) == len(rows) and all(any(row) for row in num)
    assert not rows or any(row[-1] for row in num)
    assert x.den > 0 and gcd(x.den, *(c for row in num for c in row)) == 1
    top = max((abs(c) for row in num for c in row), default=0)
    assert x.num.dtype == (np.int64 if top < 2**62 else object)


@st.composite
def coefficients(draw):
    """Fractional, non-constant, zero, and past 2^63."""
    return draw(st.one_of(polys(), st.sampled_from(
        [PolyQ.const(BIG), PolyQ([Fraction(-BIG, 3), 0, 1]), PolyQ()])))


# scale factors at the edges: zero as an int, a Fraction and a PolyQ, and
# past 2^63 as an int, a Fraction's numerator or denominator, or a coefficient
scale_factors = st.one_of(coefficients(), st.sampled_from(
    [0, Fraction(0), PolyQ(), BIG, -BIG, Fraction(-BIG, 3), Fraction(2, BIG),
     PolyQ([1, Fraction(1, BIG), -BIG])]))


@st.composite
def combos(draw, k, l, max_terms=3):
    """Combinations of shape (k,l), the zero one and k + l = 0 included."""
    kinds = [partitions_kl(k, l)] + ([permutation_partitions(k)] if k == l else [])
    terms = draw(st.lists(st.tuples(st.one_of(*kinds), coefficients()), max_size=max_terms))
    return PartLin(k, l, dict(terms))


CALCULUS = {
    "add": (lambda a, b: a + b, lambda a, b: a + b),
    "sub": (lambda a, b: a - b, lambda a, b: a - b),
    "scale": (PartLin.scale, RefLin.scale),
    "compose": (compose, RefLin.compose_after),
    "tensor": (PartLin.tensor, RefLin.tensor),
    "adjoint": (PartLin.adjoint, RefLin.adjoint),
    "rotate": (PartLin.rotate, RefLin.rotate),
    "antisymmetrize": (antisymmetrize, RefLin.antisymmetrize),
}


@st.composite
def calculus_args(draw, op):
    k, l = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if op in ("add", "sub"):
        return draw(combos(k, l)), draw(combos(k, l))
    if op == "scale":
        return draw(combos(k, l)), draw(scale_factors)
    if op == "compose":
        return draw(combos(l, draw(st.integers(0, 3)))), draw(combos(k, l))
    if op == "tensor":
        return draw(combos(k, l)), draw(combos(draw(st.integers(0, 2)), draw(st.integers(0, 2))))
    if op == "rotate":
        return draw(combos(k + 1, l)), draw(st.sampled_from(["left", "right"]))
    if op == "antisymmetrize":
        return (draw(combos(2 * draw(st.integers(0, 2)), 2 * draw(st.integers(0, 2)))),)
    return (draw(combos(k, l)),)


def check_against_reference(op, *args):
    fast, slow = CALCULUS[op]
    out = fast(*args)
    ref = slow(*(RefLin.of(a) if isinstance(a, PartLin) else a for a in args))
    assert_normal(out)
    assert (out.k, out.l) == (ref.k, ref.l)
    assert list(out.terms.items()) == list(ref.terms.items())
    assert out == PartLin(ref.k, ref.l, ref.terms)
    if op == "scale":  # a nonzero result keeps the rows, neither summed nor sorted again
        assert (out.assign is args[0].assign) == (not out.is_zero())


@pytest.mark.parametrize("op", CALCULUS)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_array_calculus_matches_dict_reference(op, data):
    check_against_reference(op, *data.draw(calculus_args(op)))


def test_array_calculus_edge_inputs():
    """Empty shapes, the zero combination, fractional and non-constant
    coefficients, one past 2^63, and int64 numerators over a denominator
    past 2^63 that all cancel, through every operation."""
    id0 = PartLin.of(Partition.identity(0), 3)
    empty = PartLin.of(Partition.parse("P(0,0){}"), N_POLY - Fraction(1, 2))
    zero = PartLin.zero(2, 2)
    big = PartLin.of(Partition.crossing(), BIG) + PartLin.of(
        Partition.identity(2), N_POLY * Fraction(1, 3))
    frac = ref_row(1).scale(N_POLY**2 - Fraction(2, 3))
    tiny = PartLin.of(Partition.cap(), Fraction(1, BIG))
    assert big.num.dtype == object and id0 == empty.scale(0) + id0
    assert tiny.num.dtype == np.int64 and tiny.den == BIG
    for op, *args in [
        ("add", id0, empty), ("sub", empty, empty), ("add", zero, big), ("sub", big, big),
        ("sub", tiny, tiny), ("scale", tiny, 0),
        ("scale", big, PolyQ()), ("scale", frac, PolyQ.const(BIG)), ("scale", zero, N_POLY),
        ("scale", PartLin.of(Partition.cap(), BIG), PolyQ.const(Fraction(1, BIG))),
        ("compose", big, frac), ("compose", id0, empty), ("compose", zero, big),
        ("compose", PartLin.of(Partition.cap()), big),
        ("tensor", id0, big), ("tensor", big, empty), ("tensor", zero, big), ("tensor", big, frac),
        ("adjoint", zero), ("adjoint", big), ("adjoint", empty),
        ("rotate", big, "left"), ("rotate", frac, "right"),
        ("antisymmetrize", big), ("antisymmetrize", id0), ("antisymmetrize", zero),
        ("antisymmetrize", big.tensor(frac)),
    ]:
        check_against_reference(op, *args)


def ref_two_point_swap(e: PartLin, i: int, row: str) -> PartLin:
    """``two_point_swap`` through ``RefLin``: the antisymmetrized partition
    that trades two-points i and i+1, composed with e on that row."""
    r = (e.l if row == "lower" else e.k) // 2
    assign = list(range(2 * r)) * 2
    j = 2 * r + 2 * i - 2
    assign[j:j + 4] = assign[j + 2:j + 4] + assign[j:j + 2]
    swap = RefLin.of(PartLin.of(Partition(2 * r, 2 * r, assign))).antisymmetrize()
    ref = swap.compose_after(RefLin.of(e)) if row == "lower" else RefLin.of(e).compose_after(swap)
    return PartLin(ref.k, ref.l, ref.terms)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_two_point_swap_matches_reference(data):
    """The column-swap route against the oracle's.  Both are normal, so
    their arrays agree exactly."""
    row = data.draw(st.sampled_from(["lower", "upper"]))
    r, other = data.draw(st.integers(2, 3)), data.draw(st.integers(0, 3))
    e = data.draw(combos(2 * r, other) if row == "upper" else combos(other, 2 * r))
    i = data.draw(st.integers(1, r - 1))
    out, expected = two_point_swap(e, i, row), ref_two_point_swap(e, i, row)
    assert_normal(out)
    assert (out.k, out.l, out.den) == (expected.k, expected.l, expected.den)
    assert out.assign.tolist() == expected.assign.tolist()
    assert out.num.tolist() == expected.num.tolist()
    assert out.to_json() == expected.to_json()


@st.composite
def canonical_rows(draw):
    """Canonical rows of one width in 2..12, none included, and sometimes
    the identity row, where every pair of columns opens two blocks."""
    width = draw(st.integers(2, 12))
    rows = [p.assign for p in draw(st.lists(partitions_kl(width, 0), max_size=6))]
    if draw(st.booleans()):
        rows.append(tuple(range(width)))
    return np.array(rows, dtype=partitions._label_type(width)).reshape(len(rows), width)


@given(canonical_rows())
@settings(max_examples=100, deadline=None)
def test_swapped_is_the_canonical_swap(rows):
    """The adjacent-swap kernel against relabelling the swapped columns
    from scratch, at every column."""
    for c in range(rows.shape[1] - 1):
        order = np.arange(rows.shape[1])
        order[[c, c + 1]] = c + 1, c
        out = partitions._swapped(rows, c)
        assert out.dtype == rows.dtype
        assert out.tolist() == partitions._canonical_rows(rows[:, order]).tolist()


def crossed(x: PartLin, c: int) -> PartLin:
    """x with columns c and c+1 of every term swapped."""
    return PartLin(x.k, x.l, {
        Partition(x.k, x.l, p.assign[:c] + p.assign[c:c + 2][::-1] + p.assign[c + 2:]): coeff
        for p, coeff in x.terms.items()})


@st.composite
def crossing_edge_combos(draw):
    """Combinations with both rows even, k = 0 or l = 0 among them: drawn
    ones plus a term that the crossing of one two-point fixes (its two
    points in one block, or two singletons), x + x.sigma, which
    antisymmetrizes to zero across rows, and the zero one."""
    k, l = 2 * draw(st.integers(0, 2)), 2 * draw(st.integers(0, 2))
    x = draw(combos(k, l))
    if not k + l:
        return x
    c = 2 * draw(st.integers(0, (k + l) // 2 - 1))
    kind = draw(st.sampled_from(["fixed", "cancelling", "zero"]))
    if kind == "zero":
        return PartLin.zero(k, l)
    if kind == "cancelling":
        return x + crossed(x, c)
    a = draw(partitions_kl(k, l)).assign
    a = a[:c] + ((a[c], a[c]) if draw(st.booleans()) else (-1, -2)) + a[c + 2:]
    return x + PartLin.of(Partition(k, l, a), draw(coefficients()))


@given(crossing_edge_combos(), st.data())
@settings(max_examples=80, deadline=None)
def test_antisymmetrize_and_swap_match_reference_at_crossing_edges(x, data):
    """One two-point at a time, a term that its crossing fixes is dropped or
    cancels, and terms cancel across rows: both routes against ``RefLin``."""
    ref = RefLin.of(x).antisymmetrize()
    out = antisymmetrize(x)
    assert_normal(out)
    assert out == PartLin(ref.k, ref.l, ref.terms)
    for row, width in (("lower", x.l), ("upper", x.k)):
        if width >= 4:
            i = data.draw(st.integers(1, width // 2 - 1))
            out = two_point_swap(x, i, row)
            assert_normal(out)
            assert out == ref_two_point_swap(x, i, row)


@pytest.mark.parametrize("part", [Partition.block(38, 0), Partition.identity(18)],
                         ids=["block(38,0)", "id(18)"])
def test_antisymmetrize_forms_only_surviving_terms(part):
    """asym(block(38,0)) is zero after its first two-point, whose crossing
    fixes the one term; asym(id(18)) never holds more than twice its 512
    terms.  Forming every one of their 2^19 and 2^18 signed swaps first
    traces about 10 MiB."""
    x = PartLin.of(part)
    assert peak_bytes(lambda: antisymmetrize(x)) < 2**20


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_equality_compares_the_normal_arrays(data):
    """``==`` reads the normal arrays and subtracts nothing: it agrees with
    (x - y).is_zero(), and equal values hash equal.  y is drawn apart from x
    or built to equal it by another route."""
    k, l = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    x, z = data.draw(combos(k, l)), data.draw(combos(k, l))
    y = data.draw(st.sampled_from([
        z, x + z - z, PartLin(k, l, dict(reversed(x.terms.items()))),
        x.scale(PolyQ.const(BIG)).scale(PolyQ.const(Fraction(1, BIG))), x + z]))
    expected = (x - y).is_zero()
    with mock.patch.object(PartLin, "__add__", side_effect=AssertionError("== added")):
        assert (x == y) is expected
    if expected:
        assert hash(x) == hash(y)


def test_two_point_swap_guard_counts_its_rows(monkeypatch):
    """A swap on a row of r two-points forms len(e) * 2^r rows: refused with
    a small peak one below that count, built at it.  Here that is 2^10
    rows; antisymmetrizing the swap partition of 10 two-points on both of
    its rows would count 2^20, past the default cap."""
    e = PartLin.of(Partition.cycle(10))
    monkeypatch.setenv("QSYM_MAX_DENSE", str(2**10 - 1))
    refusal = "antisymmetrization needs 1024 dense entries"
    assert peak_bytes(lambda: two_point_swap(e, 1), refusal) < 16 * 1024
    assert peak_bytes(lambda: two_point_swap(e.adjoint(), 1, "upper"), refusal) < 16 * 1024
    monkeypatch.setenv("QSYM_MAX_DENSE", str(2**10))
    out = two_point_swap(e, 1)
    assert 0 < len(out.assign) <= 2**10
    assert two_point_swap(e.adjoint(), 1, "upper") == out.adjoint()


def test_calculus_builds_no_partition_objects(monkeypatch):
    """Partition is a boundary type: the operations read and write arrays."""
    x = eval_text("scale(poly(n - 2), merge) + P(2,1){1 | 2 1'} - scale(poly(3), merge * cross)")
    y = eval_text("scale(poly(n^2), fork) + P(1,2){1 1' | 2'}")
    ring = eval_text("pk(2) + P(0,4){1' 2' | 3' 4'}")
    ident = eval_text("id(6)")
    big = x.scale(BIG)

    def refuse(*args, **kwargs):
        raise AssertionError("a Partition was built")

    monkeypatch.setattr(Partition, "__init__", refuse)
    monkeypatch.setattr(Partition, "_raw", refuse)
    for value in (compose(y, x), compose(x, y), x + big, x - x, x.scale(N_POLY - 1),
                  x.tensor(y), x.adjoint(), x.rotate("left"), y.rotate("right"),
                  antisymmetrize(ident), antisymmetrize(ring), antisymmetrize(x.tensor(x)),
                  two_point_swap(ring, 1), two_point_swap(ident, 2, "upper")):
        assert isinstance(value, PartLin)
    with pytest.raises(AssertionError, match="a Partition was built"):
        x.terms

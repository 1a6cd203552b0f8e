"""Differential tests of SparseTensor against an entrywise reference.

The reference stores a tensor as {index: Cyclotomic} and does every
operation entry by entry with Cyclotomic arithmetic; the tensor under test
stores integer numerators over one denominator at one level.  Values are
drawn at levels 1, 3, 4, 8 and 12, mixed within one tensor.
"""

import itertools
import json
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.cyclotomic import ZERO, Cyclotomic, euler_phi
from qsym.errors import InvalidInputError, SizeGuardError
from qsym.sparse import SparseTensor

LEVELS = (1, 3, 4, 8, 12)

small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalars(draw, levels=LEVELS):
    level = draw(st.sampled_from(levels))
    phi = euler_phi(level)
    return Cyclotomic(level, draw(st.lists(small_rats, min_size=phi, max_size=phi)))


@st.composite
def references(draw, shape, levels=LEVELS):
    """{index: Cyclotomic} on a random subset of the index tuples of shape."""
    cells = list(itertools.product(*(range(d) for d in shape)))
    keys = draw(st.lists(st.sampled_from(cells), unique=True, max_size=min(len(cells), 8)))
    return {k: draw(scalars(levels)) for k in keys}


dims = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


def nonzero(ref):
    return {k: v for k, v in ref.items() if not v.is_zero()}


def accumulate(pairs):
    out = {}
    for key, value in pairs:
        out[key] = out.get(key, ZERO) + value
    return nonzero(out)


def assert_matches(t, ref):
    """t holds exactly the nonzero reference entries, in a normalised layout."""
    ref = nonzero(ref)
    assert len(t.entries) == len(ref) == t.nnz()
    assert set(t.entries) == set(ref)
    for k, v in ref.items():
        assert k in t.entries
        assert t.entries[k] == v
        assert t[k] == v
    assert dict(t.entries.items()) == ref
    assert t.den > 0
    coeffs = [c for v in t.numerators.values() for c in (v if t.level > 1 else (v,))]
    assert gcd(t.den, *coeffs) == 1
    assert t.level > 1 or all(isinstance(v, int) for v in t.numerators.values())
    assert (t.level == 1) == all(v.is_rational() for v in ref.values())
    assert t.all_rational() == (t.level == 1)


@st.composite
def operand_pair(draw):
    """Two tensors of one shape with their references."""
    out_d, in_d = draw(dims), draw(dims)
    shape = out_d + in_d
    a, b = draw(references(shape)), draw(references(shape))
    return (SparseTensor(shape, len(out_d), a), a,
            SparseTensor(shape, len(out_d), b), b)


@settings(max_examples=60, deadline=None)
@given(operand_pair())
def test_construction_add_sub_neg(pair):
    ta, a, tb, b = pair
    assert_matches(ta, a)
    keys = set(a) | set(b)
    assert_matches(ta + tb, {k: a.get(k, ZERO) + b.get(k, ZERO) for k in keys})
    assert_matches(ta - tb, {k: a.get(k, ZERO) - b.get(k, ZERO) for k in keys})
    assert_matches(-ta, {k: -v for k, v in a.items()})
    assert (ta - ta).is_zero()
    assert (ta + tb == tb + ta) and (ta - tb == -(tb - ta))


@settings(max_examples=60, deadline=None)
@given(operand_pair(), scalars())
def test_scale(pair, c):
    ta, a, _, _ = pair
    assert_matches(ta.scale(c), {k: v * c for k, v in a.items()})
    if c.is_rational():
        assert_matches(ta.scale(c.as_fraction()), {k: v * c for k, v in a.items()})


# -- the rational routes: level-1 operands, factors sharing primes with den ----------

RATIONAL = (1,)


@st.composite
def rational_operand(draw):
    """A level-1 tensor and its reference; a common factor 1, 2, 3 or 6
    gives the numerators a gcd for p/q factors to cancel against."""
    out_d, in_d = draw(dims), draw(dims)
    shape = out_d + in_d
    common = draw(st.sampled_from((1, 2, 3, 6)))
    ref = {k: v * common for k, v in draw(references(shape, RATIONAL)).items()}
    return SparseTensor(shape, len(out_d), ref), ref


@st.composite
def den_sharing_factor(draw, t):
    """+-k!, +-1/k!, +-den, 0, or p/q with q dividing the gcd of t's
    numerators."""
    kf = factorial(draw(st.integers(1, 4)))
    sign = draw(st.sampled_from((1, -1)))
    g = gcd(*t.numerators.values()) or 1
    q = draw(st.sampled_from([d for d in range(1, g + 1) if g % d == 0]))
    p = draw(st.integers(-12, 12))
    return draw(st.sampled_from((Fraction(sign * kf), Fraction(sign, kf),
                                 Fraction(sign * t.den), Fraction(0), Fraction(p, q))))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rational_scale(data):
    ta, a = data.draw(rational_operand())
    c = data.draw(den_sharing_factor(ta))
    expected = {k: v * c for k, v in a.items()}
    assert_matches(ta.scale(c), expected)
    if c.denominator == 1:
        assert_matches(ta.scale(int(c)), expected)
    # a rational factor on a level-4 tensor takes the same denominator route
    i = Cyclotomic.zeta(4)
    assert_matches(ta.scale(i).scale(c), {k: v * i * c for k, v in a.items()})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rational_compose_cancels_and_scales(data):
    """a' @ b' sums a @ b over a doubled middle axis with weights 1 and x*y,
    so every product is nonzero and x*y = -1 cancels each output to zero.
    The product, and its left operand before composing, are then scaled by
    a factor sharing primes with den, as the certificate scales W*W by k!."""
    out_d, mid, in_d = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(references(out_d + mid, RATIONAL))
    b = data.draw(references(mid + in_d, RATIONAL))
    x = data.draw(small_rats.filter(bool))
    y = data.draw(st.sampled_from((-1 / x, x, Fraction(1, 2))))
    k, kb = len(out_d), len(mid)
    a2 = {i + (s,): v * (x if s else 1) for i, v in a.items() for s in (0, 1)}
    b2 = {i[:kb] + (s,) + i[kb:]: v * (y if s else 1) for i, v in b.items() for s in (0, 1)}
    ta = SparseTensor(out_d + mid + (2,), k, a2)
    tb = SparseTensor(mid + (2,) + in_d, kb + 1, b2)
    expected = accumulate(
        (ia[:k] + ib[kb + 1:], va * vb)
        for ia, va in a2.items()
        for ib, vb in b2.items()
        if ia[k:] == ib[:kb + 1]
    )
    got = ta @ tb
    assert_matches(got, expected)
    if x * y == -1:
        assert got.is_zero() and (got.level, got.den) == (1, 1)
    c = data.draw(den_sharing_factor(got))
    scaled = {key: v * c for key, v in expected.items()}
    assert_matches(got.scale(c), scaled)
    assert_matches(ta.scale(c) @ tb, scaled)


@st.composite
def composable(draw):
    out_d, mid, in_d = draw(dims), draw(dims), draw(dims)
    a, b = draw(references(out_d + mid)), draw(references(mid + in_d))
    return (SparseTensor(out_d + mid, len(out_d), a), a,
            SparseTensor(mid + in_d, len(mid), b), b)


@settings(max_examples=60, deadline=None)
@given(composable())
def test_compose(pair):
    ta, a, tb, b = pair
    k, kb = ta.out_axes, tb.out_axes
    expected = accumulate(
        (ia[:k] + ib[kb:], va * vb)
        for ia, va in a.items()
        for ib, vb in b.items()
        if ia[k:] == ib[:kb]
    )
    assert_matches(ta @ tb, expected)


@settings(max_examples=60, deadline=None)
@given(operand_pair(), operand_pair())
def test_tensor_and_adjoint(p1, p2):
    ta, a, tb, b = p1[0], p1[1], p2[0], p2[1]
    k1, k2 = ta.out_axes, tb.out_axes
    expected = {
        i1[:k1] + i2[:k2] + i1[k1:] + i2[k2:]: v1 * v2
        for i1, v1 in a.items()
        for i2, v2 in b.items()
    }
    assert_matches(ta.tensor(tb), expected)
    assert_matches(ta.adjoint(), {i[k1:] + i[:k1]: v.conj() for i, v in a.items()})
    assert ta.adjoint().adjoint() == ta


@st.composite
def leg_case(draw):
    out_d = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
    in_d = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
    shape = out_d + in_d
    ref = draw(references(shape))
    inward = draw(st.booleans())
    leg = draw(st.integers(0, (len(in_d) if inward else len(out_d)) - 1))
    old = shape[len(out_d) + leg] if inward else shape[leg]
    new_dim = draw(st.integers(1, 3))
    mshape = (old, new_dim) if inward else (new_dim, old)
    matrix = draw(references(mshape))
    return SparseTensor(shape, len(out_d), ref), ref, inward, leg, matrix, new_dim


@settings(max_examples=60, deadline=None)
@given(leg_case())
def test_transform_legs(case):
    t, ref, inward, leg, matrix, new_dim = case
    axis = t.out_axes + leg if inward else leg
    if inward:
        got = t.transform_in_leg(leg, matrix, new_dim)
        pairs = ((idx, v, a, x, w) for idx, v in ref.items() for (a, x), w in matrix.items())
    else:
        got = t.transform_out_leg(leg, matrix, new_dim)
        pairs = ((idx, v, a, x, w) for idx, v in ref.items() for (x, a), w in matrix.items())
    expected = accumulate(
        (idx[:axis] + (x,) + idx[axis + 1:], v * w)
        for idx, v, a, x, w in pairs
        if a == idx[axis]
    )
    assert got.shape[axis] == new_dim
    assert_matches(got, expected)
    # a tensor's entries view is accepted as the matrix too
    mshape = (t.shape[axis], new_dim) if inward else (new_dim, t.shape[axis])
    as_view = SparseTensor(mshape, 1, matrix).entries
    again = (t.transform_in_leg(leg, as_view, new_dim) if inward
             else t.transform_out_leg(leg, as_view, new_dim))
    assert again == got


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: references((d, d)).map(lambda ref: (d, ref))))
def test_trace(case):
    d, ref = case
    t = SparseTensor((d, d), 1, ref)
    expected = ZERO
    for (i, j), v in ref.items():
        if i == j:
            expected = expected + v
    assert t.trace() == expected


@settings(max_examples=60, deadline=None)
@given(operand_pair())
def test_equality_across_levels_and_json(pair):
    ta, a, tb, b = pair
    # every level in LEVELS divides 24: the same values written at level 24
    lifted = SparseTensor(ta.shape, ta.out_axes, {k: v.lift(24) for k, v in a.items()})
    assert lifted == ta and ta == lifted
    assert (ta == tb) == (nonzero(a) == nonzero(b))
    assert (lifted == tb) == (ta == tb)
    data = json.loads(json.dumps(ta.to_json()))
    back = SparseTensor.from_json(data)
    assert back == ta
    assert back.to_json() == ta.to_json()
    if ta.all_rational():
        assert ta.rational_entries() == {k: v.as_fraction() for k, v in nonzero(a).items()}


def test_zeta4_at_level_8_equals_zeta4():
    z8 = Cyclotomic(8, (0, 0, 1, 0))  # zeta8^2, written at level 8
    at8 = SparseTensor((2,), 1, {(0,): z8, (1,): 1})
    at4 = SparseTensor((2,), 1, {(0,): Cyclotomic.zeta(4), (1,): 1})
    assert (at8.level, at4.level) == (8, 4)
    assert at8 == at4 and at4 == at8
    assert at8 != SparseTensor((2,), 1, {(0,): Cyclotomic.zeta(4).conj(), (1,): 1})
    assert at8 != at4.scale(Fraction(1, 2))
    assert (at8 - at4).is_zero()


def test_layout_is_normalised():
    t = SparseTensor((3,), 1, {(0,): Fraction(2, 6), (1,): Fraction(1, 2), (2,): 0})
    assert (t.level, t.den, dict(t.numerators)) == (1, 6, {(0,): 2, (1,): 3})
    assert t.scale(6).den == 1 and t.scale(6).nnz() == 2
    i = Cyclotomic.zeta(4)
    squared = SparseTensor((1,), 1, {(0,): i}).scale(i)
    assert (squared.level, dict(squared.numerators)) == (1, {(0,): -1})


def test_entries_view_is_read_only_and_boxes_on_access():
    t = SparseTensor((2, 2), 1, {(0, 1): Fraction(1, 3)})
    view = t.entries
    assert len(view) == 1 and (0, 1) in view and (1, 0) not in view
    assert list(view) == [(0, 1)]
    assert view[(0, 1)] == Fraction(1, 3)
    with pytest.raises(KeyError):
        view[(1, 0)]
    with pytest.raises(TypeError):
        view[(1, 0)] = 1
    assert t[(1, 0)] == 0


def test_public_construction_checks_indices():
    with pytest.raises(InvalidInputError):
        SparseTensor((2, 2), 1, {(0, 2): 1})
    with pytest.raises(InvalidInputError):
        SparseTensor((2, 2), 1, {(0,): 1})
    with pytest.raises(InvalidInputError):
        SparseTensor((2, 2), 1, {(-1, 0): 1})
    with pytest.raises(InvalidInputError):
        SparseTensor((2,), 1, {}).transform_out_leg(0, {(3, 0): 1}, 2)
    with pytest.raises(TypeError):
        SparseTensor((2,), 1, {(0,): 0.5})


def test_irrational_tensor_has_no_rational_entries():
    t = SparseTensor((1,), 1, {(0,): Cyclotomic.zeta(3)})
    with pytest.raises(InvalidInputError):
        t.rational_entries()


# -- size guards fire inside each operation, before its result is built ---------------

def test_size_guards_fire_before_allocation(monkeypatch):
    ones = SparseTensor((4, 4), 1, {(i, j): 1 for i in range(4) for j in range(4)})
    matrix = {(i, j): 1 for i in range(4) for j in range(2)}  # 8 stored entries
    monkeypatch.setenv("QSYM_MAX_SPARSE", "15")
    cases = {
        "composition": lambda: ones @ ones,
        "tensor sum": lambda: ones + ones,
        "leg transform": lambda: ones.transform_in_leg(0, matrix, 4),
        "tensor product": lambda: ones.tensor(ones),
    }
    for what, op in cases.items():
        with pytest.raises(SizeGuardError, match=what):
            op()
    with pytest.raises(SizeGuardError, match="leg transform"):
        ones.transform_out_leg(0, matrix, 4)
    # the result size, not the product count, is what a cap of 16 must admit
    monkeypatch.setenv("QSYM_MAX_SPARSE", "16")
    assert (ones @ ones) == ones.scale(4)

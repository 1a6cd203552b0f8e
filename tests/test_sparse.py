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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsym.cyclotomic import ZERO, Cyclotomic, euler_phi
from qsym.errors import InvalidInputError
from qsym.sparse import SparseTensor

from oracles import peak_bytes

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


def _past_int64_pair():
    """Numerators past 2^63 (Python integers): negation and subtraction
    act on the object matrix, and one entry cancels in the sum."""
    big = Cyclotomic(1, [2**64 + 1])
    a = {(0,): big, (1,): Cyclotomic(1, [-(2**63)]), (2,): Cyclotomic(4, [3, -(2**70)])}
    b = {(1,): Cyclotomic(1, [2**63]), (2,): big}
    return SparseTensor((3,), 1, a), a, SparseTensor((3,), 1, b), b


@settings(max_examples=60, deadline=None)
@given(operand_pair())
@example(_past_int64_pair())
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


# -- edges of the array layout: index dtypes, numerators past int64, no legs -------------

# legs of 256 and 257 hold their last index in uint8 and uint16
WIDE = (1, 2, 256, 257)
big_rats = st.builds(Fraction, st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63)),
                     st.integers(1, 5))


@st.composite
def wide_references(draw, shape):
    """{index: Cyclotomic} at up to 5 indices of ``shape``, each index near
    a leg's ends or anywhere; coefficients are small or past int64."""
    leg = [st.sampled_from(sorted({0, d // 2, d - 1})) | st.integers(0, d - 1) for d in shape]
    keys = draw(st.lists(st.tuples(*leg), unique=True, max_size=5))
    coeffs = small_rats | big_rats
    out = {}
    for key in keys:
        level = draw(st.sampled_from((1, 4, 8)))
        phi = euler_phi(level)
        out[key] = Cyclotomic(level, draw(st.lists(coeffs, min_size=phi, max_size=phi)))
    return out


wide_dims = st.lists(st.sampled_from(WIDE), max_size=2).map(tuple)


def assert_index_width(t):
    assert t._idx.dtype.itemsize == (1 if max(t.shape, default=1) <= 256 else 2), t.shape


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wide_legs_big_numerators_and_no_legs(data):
    out_d, mid, in_d = data.draw(wide_dims), data.draw(wide_dims), data.draw(wide_dims)
    a = data.draw(wide_references(out_d + mid))
    a2 = data.draw(wide_references(out_d + mid))
    b = data.draw(wide_references(mid + in_d))
    ta, ta2 = SparseTensor(out_d + mid, len(out_d), a), SparseTensor(out_d + mid, len(out_d), a2)
    tb = SparseTensor(mid + in_d, len(mid), b)
    k, kb = len(out_d), len(mid)
    for t, ref in ((ta, a), (tb, b)):
        assert_matches(t, ref)
        assert_index_width(t)
        assert SparseTensor.from_json(json.loads(json.dumps(t.to_json()))) == t
    got = ta @ tb
    assert_matches(got, accumulate((ia[:k] + ib[kb:], va * vb) for ia, va in a.items()
                                   for ib, vb in b.items() if ia[k:] == ib[:kb]))
    assert_index_width(got)
    total = ta + ta2
    assert_matches(total, {key: a.get(key, ZERO) + a2.get(key, ZERO) for key in set(a) | set(a2)})
    assert (total == ta) == (not nonzero(a2))
    product = ta.tensor(tb)
    assert_matches(product, {i1[:k] + i2[:kb] + i1[k:] + i2[kb:]: v1 * v2
                             for i1, v1 in a.items() for i2, v2 in b.items()})
    assert_index_width(product)
    new_dim = data.draw(st.sampled_from(WIDE))
    if mid:  # a's first input leg y becomes x through matrix[y, x]
        matrix = data.draw(wide_references((mid[0], new_dim)))
        moved = ta.transform_in_leg(0, matrix, new_dim)
        assert_matches(moved, accumulate(
            (idx[:k] + (x,) + idx[k + 1:], v * w)
            for idx, v in a.items() for (y, x), w in matrix.items() if idx[k] == y))
        assert_index_width(moved)
    if out_d:  # a's first output leg y becomes x through matrix[x, y]
        matrix = data.draw(wide_references((new_dim, out_d[0])))
        moved = ta.transform_out_leg(0, SparseTensor((new_dim, out_d[0]), 1, matrix).entries,
                                     new_dim)
        assert_matches(moved, accumulate(
            ((x,) + idx[1:], w * v)
            for idx, v in a.items() for (x, y), w in matrix.items() if idx[0] == y))
        assert_index_width(moved)
    square = SparseTensor(mid + mid, len(mid), data.draw(wide_references(mid + mid)))
    expected = ZERO
    for key, v in square.entries.items():
        if key[:kb] == key[kb:]:
            expected = expected + v
    assert square.trace() == expected


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


# -- construction from index columns --------------------------------------------------

@st.composite
def column_cases(draw):
    """(shape, out_axes, cols, num, den, level) for ``_from_columns``: distinct
    index columns in random order, and a numerator that is one shared int, a
    1-D int64 or object array, or 2-D power-basis rows at level 8."""
    legs = draw(st.integers(0, 3))
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=legs, max_size=legs)))
    cells = list(itertools.product(*(range(d) for d in shape)))
    count = draw(st.sampled_from([0, 1, 3, 4, 5, 9])
                 .filter(lambda c: c <= len(cells)))
    keys = draw(st.permutations(cells))[:count]
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    cols = np.array(keys, dtype=dtype).reshape(count, legs).T
    kind = draw(st.sampled_from(["shared", "int64", "object", "rows", "level 2"]))
    big = st.integers(-(2**70), 2**70)
    small = st.integers(-3, 3)
    level = {"rows": 8, "level 2": 2}.get(kind, 1)
    if kind == "shared":
        num = draw(small)
    elif kind == "rows":
        width = euler_phi(level)
        num = np.array(draw(st.lists(st.lists(small, min_size=width, max_size=width),
                                     min_size=count, max_size=count)),
                       dtype=np.int64).reshape(count, width)
    else:
        values = draw(st.lists(big if kind == "object" else small,
                               min_size=count, max_size=count))
        num = np.array(values, dtype=object if kind == "object" else np.int64)
    return shape, draw(st.integers(0, legs)), cols, num, draw(st.integers(1, 6)), level


@settings(max_examples=150, deadline=None)
@given(column_cases())
@example(((), 0, np.zeros((0, 1), dtype=np.int64), 5, 2, 1))  # the one key ()
@example(((), 0, np.zeros((0, 0), dtype=np.int64), 1, 1, 1))
def test_from_columns_matches_entrywise_construction(case):
    """``_from_columns`` builds the tensor that the dict of its columns,
    made entry by entry, builds through the public constructor: keys, key
    order, Python int values, den and level."""
    shape, out_axes, cols, num, den, level = case
    reference = {}
    for j in range(cols.shape[1]):
        key = tuple(int(i) for i in cols[:, j])
        if isinstance(num, int):
            row = (num,)
        elif num.ndim == 2:
            row = tuple(int(c) for c in num[j])
        else:
            row = (int(num[j]),)
        reference[key] = Cyclotomic(level, [Fraction(c, den) for c in row])
    expected = SparseTensor(shape, out_axes, reference)
    t = SparseTensor._from_columns(shape, out_axes, cols, num, den, level)
    assert (t.shape, t.out_axes, t.level, t.den) == (
        expected.shape, expected.out_axes, expected.level, expected.den)
    assert list(t.numerators.items()) == list(expected.numerators.items())
    for key, v in t.numerators.items():
        assert all(type(i) is int for i in key)
        assert all(type(c) is int for c in (v if t.level > 1 else (v,)))


# -- size guards fire inside each operation, before its result is built ---------------

def test_size_guards_fire_before_allocation(monkeypatch):
    """One below its count each guard refuses with a small ``tracemalloc``
    peak: the composition and leg transforms would pair 262,144 entries
    (about 5 MB admitted), the tensor product 16.7 M, and the sum would
    concatenate 8,192 rows (about 300 KB admitted)."""
    ones = SparseTensor((64, 64), 1, {(i, j): 1 for i in range(64) for j in range(64)})
    matrix = ones.entries  # a view, so no matrix is converted before the guard
    monkeypatch.setenv("QSYM_MAX_SPARSE", str(64 * 64 - 1))
    cases = {
        "composition": (lambda: ones @ ones, 2**19),
        "tensor sum": (lambda: ones + ones, 2**14),
        "leg transform": (lambda: ones.transform_in_leg(0, matrix, 64), 2**19),
        "tensor product": (lambda: ones.tensor(ones), 2**19),
    }
    for what, (op, bound) in cases.items():
        assert peak_bytes(op, what) < bound, what
    assert peak_bytes(lambda: ones.transform_out_leg(0, matrix, 64), "leg transform") < 2**19
    # the result size, not the product count, is what a cap of 64^2 must admit
    monkeypatch.setenv("QSYM_MAX_SPARSE", str(64 * 64))
    assert (ones @ ones) == ones.scale(64)

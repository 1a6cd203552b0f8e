"""PolyQ's integer representation against a tuple-of-Fractions oracle.

PolyQ keeps int numerators over one positive denominator; the reference
below is the plain dense tuple of Fractions with trailing zeros stripped,
which is what ``PolyQ.coeffs`` must read back as.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.polyq import N_POLY, PolyQ


def ref(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    width = max(len(a), len(b))
    a, b = a + (0,) * (width - len(a)), b + (0,) * (width - len(b))
    return ref(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_eval(a, x):
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def assert_canonical(p: PolyQ, expected: tuple):
    """Ints only, den > 0, lowest terms, no trailing zero, and the Fraction
    view equal to the reference."""
    assert type(p.numerators) is tuple
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.numerators)
    assert gcd(p.den, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0
    assert p.coeffs == expected


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
# trailing zeros and zero polynomials are likely, so stripping is exercised
coeff_lists = st.lists(st.one_of(rationals, st.just(Fraction(0))), max_size=4)
constants = st.one_of(st.integers(-6, 6), rationals)


@given(coeff_lists, coeff_lists, constants)
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_fraction_reference(xs, ys, c):
    a, b = PolyQ(xs), PolyQ(ys)
    ra, rb, rc = ref(xs), ref(ys), ref([c])
    assert_canonical(a, ra)
    assert_canonical(b, rb)
    assert_canonical(a + b, ref_add(ra, rb))
    assert_canonical(a - b, ref_add(ra, ref(-x for x in rb)))
    assert_canonical(-a, ref(-x for x in ra))
    assert_canonical(a * b, ref_mul(ra, rb))
    for result in (a + c, c + a):
        assert_canonical(result, ref_add(ra, rc))
    assert_canonical(a - c, ref_add(ra, ref([-c])))
    assert_canonical(c - a, ref_add(rc, ref(-x for x in ra)))
    for result in (a * c, c * a):
        assert_canonical(result, ref_mul(ra, rc))
    assert_canonical(PolyQ.const(c), rc)


@given(coeff_lists, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_powers_match_fraction_reference(xs, k):
    expected = (Fraction(1),)
    for _ in range(k):
        expected = ref_mul(expected, ref(xs))
    assert_canonical(PolyQ(xs) ** k, expected)


@given(coeff_lists, st.one_of(st.integers(-5, 5), rationals))
@settings(max_examples=300, deadline=None)
def test_evaluation_matches_fraction_reference(xs, x):
    value = PolyQ(xs)(x)
    assert type(value) is Fraction
    assert value == ref_eval(ref(xs), Fraction(x))


@given(coeff_lists, coeff_lists, constants)
@settings(max_examples=300, deadline=None)
def test_equality_and_hash_match_fraction_reference(xs, ys, c):
    a, b = PolyQ(xs), PolyQ(ys)
    assert (a == b) == (ref(xs) == ref(ys))
    if a == b:
        assert hash(a) == hash(b)
    # against plain constants, on either side, and their hashes
    assert (a == c) == (c == a) == (ref(xs) == ref([c]))
    if a == c:
        assert hash(a) == hash(c)
    if len(ref(xs)) <= 1:
        value = ref(xs)[0] if ref(xs) else Fraction(0)
        assert a == value and hash(a) == hash(value)


def test_monomials_and_zero():
    assert_canonical(PolyQ(), ())
    assert_canonical(PolyQ.n(3), (0, 0, 0, 1))
    assert_canonical(N_POLY * Fraction(2, 4) - Fraction(1, 2), (Fraction(-1, 2), Fraction(1, 2)))
    assert_canonical(PolyQ([Fraction(2, 6), 0, 0]), (Fraction(1, 3),))
    assert PolyQ()(Fraction(1, 3)) == 0
    assert str(PolyQ([Fraction(-1, 2), 0, 3])) == "3*n^2 - 1/2"

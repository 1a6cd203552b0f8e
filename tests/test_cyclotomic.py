import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsym.cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi, power_rows
from qsym.errors import InvalidInputError
from qsym.polyq import PolyQ

from oracles import Cyc, _combine


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in range(1, 31):
        ours = cyclotomic_polynomial(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_i_squared_is_minus_one():
    i = Cyc.zeta(4)
    assert i * i == -1
    assert (i * i).as_fraction() == Fraction(-1)


def test_phi3_relation():
    z = Cyc.zeta(3)
    assert (1 + z + z * z).is_zero()


def test_conj_of_zeta5():
    z = Cyc.zeta(5)
    assert z.conj() == Cyclotomic.zeta(5, 4)


def test_rational_collapse_and_equality_across_levels():
    z = Cyc.zeta(6)
    w = z * z * z  # zeta_6^3 = -1
    assert w.level == 1 and w.as_fraction() == -1
    # zeta_3 expressed at level 6 equals zeta_3 at level 3
    z3_at6 = Cyclotomic.zeta(6, 2)
    z3 = Cyclotomic.zeta(3)
    assert z3_at6 == z3
    assert hash(z3_at6) == hash(z3)


def test_lift_roundtrip():
    z = Cyc.zeta(3) + Fraction(1, 2)
    lifted = z.lift(12)
    assert lifted == z
    assert lifted.to_complex() == pytest.approx(z.to_complex())


def test_division_by_rational():
    z = Cyc.zeta(8)
    assert (z / 2) * 2 == z
    with pytest.raises(InvalidInputError):
        z / Cyclotomic.zeta(8)


def test_invalid_levels():
    with pytest.raises(InvalidInputError):
        Cyclotomic.zeta(0)
    with pytest.raises(InvalidInputError):
        Cyclotomic(3, (1,))


small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyclotomics(draw, levels=(1, 2, 3, 4, 5, 6, 8, 9, 12)):
    m = draw(st.sampled_from(levels))
    coeffs = draw(
        st.lists(small_rats, min_size=euler_phi(m), max_size=euler_phi(m))
    )
    return Cyc(m, coeffs)


@given(cyclotomics(), cyclotomics())
@settings(max_examples=150, deadline=None)
def test_float_consistency_of_product(a, b):
    exact = (a * b).to_complex()
    approx = a.to_complex() * b.to_complex()
    assert abs(exact - approx) < 1e-9


@given(cyclotomics())
@settings(max_examples=150, deadline=None)
def test_canonical_form_idempotent(a):
    again = Cyclotomic(a.level, a.coeffs)
    assert again.level == a.level and again.coeffs == a.coeffs
    assert a + 0 == a
    assert a * 1 == a


@given(cyclotomics())
@settings(max_examples=100, deadline=None)
def test_conj_matches_complex_conjugation(a):
    assert a.conj().to_complex() == pytest.approx(a.to_complex().conjugate(), abs=1e-9)


@st.composite
def lifted_elements(draw):
    """A level d <= 30, an element of Q(zeta_d) with small rational
    coordinates, and a level L <= 30 that d divides."""
    d = draw(st.integers(1, 30))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeffs = draw(st.lists(small, min_size=euler_phi(d), max_size=euler_phi(d)))
    return d, Cyc(d, coeffs), d * draw(st.integers(1, 30 // d))


def _in_zeta(level, coeffs, big):
    """Coefficients, lowest degree first, of sum c_j zeta_level^j written as a
    polynomial in zeta_big (level divides big), without any reduction."""
    poly = [Fraction(0)] * big
    for j, c in enumerate(coeffs):
        poly[j * (big // level)] += c
    return poly


@given(lifted_elements(), small_rats, st.integers(0, 29))
@settings(max_examples=40, deadline=None)
def test_equality_across_levels_matches_sympy(case, q, j):
    """x == y exactly when sympy's cyclotomic polynomial divides x - y written
    as a polynomial in zeta_L, for x = a lifted to L and y = a or a + q zeta_d^j."""
    sympy = pytest.importorskip("sympy")
    d, a, big = case
    x = a.lift(big)
    z = sympy.Symbol("z")
    phi_big = sympy.Poly(sympy.cyclotomic_poly(big, z), z)
    for y in (a, a + q * Cyc.zeta(d, j)):
        diff = [u - v for u, v in zip(_in_zeta(x.level, x.coeffs, big),
                                      _in_zeta(y.level, y.coeffs, big))]
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(diff)], z)
        expected = poly.rem(phi_big).is_zero
        assert (x == y) == (y == x) == expected
        # plain values compare through the package's table, not the oracle's lift
        px, py = Cyclotomic(x.level, x.coeffs), Cyclotomic(y.level, y.coeffs)
        assert (px == py) == (py == px) == expected
        if x == y:
            assert hash(x) == hash(y)


def test_power_rows_match_the_oracle_lift():
    # every level <= 60, the phi = 1 levels 1 and 2 among them; row j is
    # zeta_L^(step*j) reduced by the oracle's long division
    rng = random.Random(28)
    for level in range(1, 61):
        phi = euler_phi(level)
        for step in (1, level - 1, rng.randrange(3 * level)):
            count = rng.randint(1, 2 * phi)
            rows, colsum = power_rows(level, step, count)
            assert rows.dtype == np.int64 and rows.shape == (count, phi)
            assert not rows.flags.writeable
            expected = [_combine([0] * j + [1], step, level) for j in range(count)]
            assert rows.tolist() == expected, (level, step, count)
            assert colsum == max(sum(abs(r[i]) for r in expected) for i in range(phi))


def test_one_table_of_roots_of_unity():
    # the Fraction lift lives in the test oracle only, and sparse keeps no
    # second cache of the table
    import qsym.cyclotomic
    import qsym.sparse

    assert not hasattr(qsym.cyclotomic, "_combine")
    assert not hasattr(qsym.sparse, "_powers")


def test_zeta_float_value():
    for m in (1, 2, 3, 5, 8, 12):
        z = Cyclotomic.zeta(m)
        assert abs(z.to_complex() - cmath.exp(2j * cmath.pi / m)) < 1e-12


def test_json_roundtrip():
    x = Cyc.zeta(8, 3) - Fraction(1, 2)
    data = x.to_json()
    assert data["level"] == 8
    assert Cyclotomic.from_json(data) == x


def test_str_forms():
    assert Cyclotomic.from_rational(3).str() == "3"
    assert (Cyc.zeta(8) - 1).str() == "-1 + zeta8"


@given(cyclotomics(), st.sampled_from([1, 2, 3, 4]), small_rats,
       st.lists(small_rats, max_size=3))
@settings(max_examples=100, deadline=None)
def test_equal_values_hash_equal(a, factor, q, poly_coeffs):
    """a == b implies hash(a) == hash(b), across levels and against plain
    rationals: a value, its lift, rationals as Fraction, int, Cyclotomic and
    constant PolyQ, and polynomials that may reduce to constants."""
    pool = [a, a.lift(a.level * factor), q, Cyclotomic.from_rational(q),
            Cyc.from_rational(q).lift(factor * 4), PolyQ.const(q),
            PolyQ(poly_coeffs), PolyQ()]
    if a.is_rational():
        pool.append(a.as_fraction())
    if q.denominator == 1:
        pool.append(int(q))
    for x in pool:
        for y in pool:
            if x == y:
                assert hash(x) == hash(y), (x, y)


def test_rational_values_share_a_set_slot_with_their_fraction():
    assert len({Cyclotomic.from_rational(1), 1}) == 1
    assert len({PolyQ.const(3), 3, Fraction(3)}) == 1
    assert len({PolyQ(), 0}) == 1


def test_cyclotomic_is_a_value_without_arithmetic():
    # the field arithmetic lives in the test oracle ``Cyc`` only
    import qsym.cyclotomic
    gone = {"lift", "_coerce", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "galois", "conj"}
    assert not gone & set(dir(Cyclotomic))
    assert not hasattr(qsym.cyclotomic, "ONE")

import itertools
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsym.cyclotomic import Cyclotomic
from qsym.errors import InvalidInputError
from qsym.groups import make_group

from oracles import Cyc


# -- the element-wise reference: plain arithmetic on coordinate tuples ---------------

def ref_add(orders, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, orders))


def ref_neg(orders, a):
    return tuple((-x) % m for x, m in zip(a, orders))


def ref_char_exponent(orders, mu, alpha):
    """k with tau_mu(alpha) = zeta_M^k, M = lcm of the orders."""
    M = lcm(*orders)
    return sum((M // m) * x * y for m, x, y in zip(orders, mu, alpha)) % M


def char_value(g, mu, alpha):
    """tau_mu(alpha) through the position route."""
    return Cyc.zeta(g.exponent, int(g.char_exponents(g.index(mu), g.index(alpha))))


def test_make_group_basic():
    g = make_group([2, 2, 2])
    assert g.order == 8 and g.exponent == 2
    g = make_group([4, 2])
    assert g.order == 8 and g.exponent == 4
    g = make_group([1])
    assert g.order == 1 and g.exponent == 1


def test_make_group_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        make_group([])
    with pytest.raises(InvalidInputError):
        make_group([2, 0])
    with pytest.raises(InvalidInputError):
        make_group([-3])


def test_orders_and_coordinates_are_not_truncated():
    # truncated, these would build Z_2 x Z_4 and read the element (1,0)
    with pytest.raises(InvalidInputError, match="cyclic order must be an integer"):
        make_group([2.5, 4.9])
    with pytest.raises(InvalidInputError, match="element coordinate must be an integer"):
        make_group([2, 2]).element([1.5, 0.7])
    g = make_group(np.array([2, 4]))
    assert g.orders == (2, 4) and all(type(m) is int for m in g.orders)
    assert g.element([np.int64(3), np.int64(-1)]).coords == (1, 3)


def test_element_reduction_and_arithmetic():
    g = make_group([2, 2, 2])
    a = g.element([1, 1, 0])
    b = g.element([0, 1, 1])
    assert g.element_at(int(g.index_sum(g.index(a), g.index(b)))) == g.element([1, 0, 1])
    z4 = make_group([4])
    assert z4.element_at(int(z4.index_neg(z4.index(z4.element([3]))))) == z4.element([1])
    assert g.element([3, -1, 2]) == g.element([1, 1, 0])


def test_enumeration_order_and_index():
    g = make_group([2, 3])
    elems = list(g.elements())
    assert len(elems) == 6
    assert len(set(elems)) == 6
    # last coordinate fastest
    assert [e.coords for e in elems[:3]] == [(0, 0), (0, 1), (0, 2)]
    for i, e in enumerate(elems):
        assert g.index(e) == i
        assert g.element_at(i) == e


def test_char_values():
    g = make_group([2, 2, 2])
    mu = g.element([1, 0, 0])
    alpha = g.element([1, 1, 0])
    assert char_value(g, mu, alpha) == -1
    # trivial character
    for a in g.elements():
        assert char_value(g, g.zero(), a) == 1
    z3 = make_group([3])
    assert char_value(z3, z3.element([1]), z3.element([1])) == Cyclotomic.zeta(3)


def test_char_multiplicative_in_argument():
    g = make_group([4, 3])
    mu = g.element([3, 2])
    for a, b in itertools.product(list(g.elements())[:6], repeat=2):
        lhs = char_value(g, mu, g.element(ref_add(g.orders, a, b)))
        rhs = char_value(g, mu, a) * char_value(g, mu, b)
        assert lhs == rhs


@pytest.mark.parametrize("orders", [[2, 2], [3], [4, 2], [2, 3], [8], [3, 3]])
def test_character_orthogonality(orders):
    g = make_group(orders)
    assert g.order <= 64
    elems = list(g.elements())
    for mu, nu in itertools.product(elems, repeat=2):
        s = Cyc.from_rational(0)
        for a in elems:
            s = s + char_value(g, mu, a).conj() * char_value(g, nu, a)
        assert s == (g.order if mu == nu else 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_character_sum_lemma_z2n(n):
    g = make_group([2] * n)
    for beta in itertools.islice(g.elements(), 6):
        s = sum(
            (-1) ** (sum(x * y for x, y in zip(alpha, beta)) % 2)
            for alpha in g.elements()
        )
        assert s == (2**n if beta.is_zero() else 0)


def test_degree_major_order():
    g = make_group([2, 2, 2])
    degs = [e.degree for e in g.degree_major_elements()]
    assert degs == [0, 1, 1, 1, 2, 2, 2, 3]


def test_epsilon_rejects_out_of_range_index():
    g = make_group([2, 3])
    assert g.epsilon(1).coords == (0, 1)
    for i in (-1, 2):
        with pytest.raises(InvalidInputError, match="out of range"):
            g.epsilon(i)


def test_char_value_checks_membership():
    # a label enters the position route through index, which checks it
    g = make_group([2, 2])
    bad = make_group([3, 3]).element([2, 2])
    with pytest.raises(InvalidInputError):
        char_value(g, bad, g.zero())
    with pytest.raises(InvalidInputError):
        g.index(make_group([2]).element([1]))


@st.composite
def small_orders(draw, max_order=12):
    """Cyclic orders of a group of order <= max_order, one to three factors."""
    orders = [draw(st.integers(1, max_order))]
    while len(orders) < 3 and draw(st.booleans()):
        orders.append(draw(st.integers(1, max_order // prod(orders))))
    return orders


@given(small_orders())
def test_position_arithmetic_matches_element_arithmetic(orders):
    g = make_group(orders)
    pos = np.arange(g.order)
    sums = g.index_sum(pos[:, None], pos[None, :])
    exps = g.char_exponents(pos[:, None], pos[None, :])
    negs = g.index_neg(pos)
    assert sums.shape == exps.shape == (g.order, g.order)
    for a in g.elements():
        ia = g.index(a)
        assert negs[ia] == g.index(g.element(ref_neg(orders, a)))
        for b in g.elements():
            ib = g.index(b)
            assert sums[ia, ib] == g.index(g.element(ref_add(orders, a, b)))
            assert exps[ia, ib] == ref_char_exponent(orders, a, b)

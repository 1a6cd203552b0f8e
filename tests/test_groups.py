import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsym.cyclotomic import Cyclotomic
from qsym.errors import InvalidInputError
from qsym.groups import make_group


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


def test_element_reduction_and_arithmetic():
    g = make_group([2, 2, 2])
    a = g.element([1, 1, 0])
    b = g.element([0, 1, 1])
    assert g.add(a, b) == g.element([1, 0, 1])
    z4 = make_group([4])
    assert z4.neg(z4.element([3])) == z4.element([1])
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
    assert g.char_value(mu, alpha) == -1
    # trivial character
    for a in g.elements():
        assert g.char_value(g.zero(), a) == 1
    z3 = make_group([3])
    assert z3.char_value(z3.element([1]), z3.element([1])) == Cyclotomic.zeta(3)


def test_char_multiplicative_in_argument():
    g = make_group([4, 3])
    mu = g.element([3, 2])
    for a, b in itertools.product(list(g.elements())[:6], repeat=2):
        lhs = g.char_value(mu, g.add(a, b))
        rhs = g.char_value(mu, a) * g.char_value(mu, b)
        assert lhs == rhs


@pytest.mark.parametrize("orders", [[2, 2], [3], [4, 2], [2, 3], [8], [3, 3]])
def test_character_orthogonality(orders):
    g = make_group(orders)
    assert g.order <= 64
    elems = list(g.elements())
    for mu, nu in itertools.product(elems, repeat=2):
        s = Cyclotomic.from_rational(0)
        for a in elems:
            s = s + g.char_value(mu, a).conj() * g.char_value(nu, a)
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


def test_char_value_checks_membership():
    g = make_group([2, 2])
    bad = make_group([3, 3]).element([2, 2])
    with pytest.raises(InvalidInputError):
        g.char_value(bad, g.zero())


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
        assert negs[ia] == g.index(g.neg(a))
        for b in g.elements():
            ib = g.index(b)
            assert sums[ia, ib] == g.index(g.add(a, b))
            assert exps[ia, ib] == g.char_exponent(a, b)

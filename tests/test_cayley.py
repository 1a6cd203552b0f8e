import itertools
import warnings
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsym.cayley import (
    CayleyGraph,
    SpectralDecomposition,
    conjugate_by_fourier,
    coordinate_perm,
    family_graph,
    fourier_matrix,
    make_generating_set,
    perm_matrix,
    product_action_perm,
    translation_perm,
    wreath_rep,
)
from qsym.cyclotomic import ZERO, Cyclotomic
from qsym.errors import InvalidInputError, SizeGuardError
from qsym.groups import make_group
from qsym.sparse import SparseTensor


# -- the element-wise reference: plain arithmetic on coordinate tuples ---------------

def ref_add(orders, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, orders))


def ref_neg(orders, a):
    return tuple((-x) % m for x, m in zip(a, orders))


def ref_char_value(orders, mu, alpha):
    """tau_mu(alpha) = zeta_M^(sum_i (M/m_i) mu_i alpha_i), M = lcm of the orders."""
    M = lcm(*orders)
    return Cyclotomic.zeta(M, sum((M // m) * x * y for m, x, y in zip(orders, mu, alpha)))


def eigenvalues(gr):
    """Each label's eigenvalue, read from the graph's spectral decomposition."""
    return {mu: lam for lam, labels in SpectralDecomposition(gr).items for mu in labels}


def ref_eigenvalue(orders, gens, mu):
    """lambda_mu = sum_{theta in S} tau_mu(-theta), one Cyclotomic per term."""
    total = ZERO
    for theta in gens:
        total = total + ref_char_value(orders, mu, ref_neg(orders, theta))
    return total


def test_hypercube_edges():
    gr = family_graph("hypercube", 3)
    a = gr.adjacency()
    assert a.nnz() == 2 * 12  # each of the 12 edges in both directions
    assert all(a[(i, i)].is_zero() for i in range(8))
    # 3-regular
    for i in range(8):
        assert sum(1 for (r, c) in a.entries if c == i) == 3


def test_complete_graph_from_cyclic():
    gr = family_graph("complete", 4)
    a = gr.adjacency()
    assert a.nnz() == 12  # K_4


def test_halved_cube_generator_count():
    assert len(family_graph("halved:4").gens) == 10
    gr = family_graph("halved", 3)
    assert sum(1 for (r, c) in gr.adjacency().entries if c == 0) == 6


def test_hamming_family():
    gr = family_graph("hamming:2,3")
    assert gr.group.orders == (3, 3)
    assert len(gr.gens) == 4
    assert family_graph(" Hamming : 2", 3).adjacency() == gr.adjacency()


def test_family_errors():
    with pytest.raises(InvalidInputError):
        family_graph("unknown:3")
    with pytest.raises(InvalidInputError):
        family_graph("hypercube:0")


@pytest.mark.parametrize("params", [("hypercube", 2.5), ("circulant", 8, [1.5]),
                                    ("circulant", 8.7, [1, 7]), ("circulant", 8, 3)])
def test_family_parameters_are_not_truncated(params):
    # truncated, these would build the 2-cube, and Z_8 with the shifts {1, 7}
    with pytest.raises(InvalidInputError, match="must be an integer|as a list"):
        family_graph(*params)


def test_generating_set_rejects_zero_and_empty():
    g = make_group([2, 2])
    with pytest.raises(InvalidInputError):
        make_generating_set(g, [g.zero()])
    with pytest.raises(InvalidInputError):
        make_generating_set(g, [])


def test_warnings_on_nonsymmetric_or_nongenerating():
    z4 = make_group([4])
    with pytest.warns(UserWarning):
        CayleyGraph(z4, make_generating_set(z4, [z4.element([1])]))  # not symmetric
    z = make_group([2, 2])
    with pytest.warns(UserWarning):
        CayleyGraph(z, make_generating_set(z, [z.element([1, 0])]))  # does not generate


def test_eigenvalue_examples():
    # Q_3 at mu=(1,1,0)
    gr = family_graph("hypercube", 3)
    g = gr.group
    assert eigenvalues(gr)[g.element([1, 1, 0])] == 1 - 1 - 1
    # K_4 trivial character
    gr = family_graph("complete", 4)
    assert eigenvalues(gr)[gr.group.zero()] == 3
    # folded cube FQ_5 on Z_2^4 at a degree-1 label
    gr = family_graph("folded", 4)
    g = gr.group
    assert eigenvalues(gr)[g.element([1, 0, 0, 0])] == 1


def test_spectrum_q3():
    spec = SpectralDecomposition(family_graph("hypercube", 3))
    assert [lam.as_fraction() for lam in spec.eigenvalues] == [3, 1, -1, -3]
    assert spec.multiplicities == [1, 3, 3, 1]
    assert all(lam.conj() == lam for lam in spec.eigenvalues)


def test_spectrum_k4():
    spec = SpectralDecomposition(family_graph("complete", 4))
    assert [lam.as_fraction() for lam in spec.eigenvalues] == [3, -1]
    assert spec.multiplicities == [1, 3]


def test_spectrum_hamming_2_3():
    spec = SpectralDecomposition(family_graph("hamming", 2, 3))
    assert [lam.as_fraction() for lam in spec.eigenvalues] == [4, 1, -2]
    assert spec.multiplicities == [1, 4, 4]


def test_spectrum_directed_circulant_is_complex_but_total():
    with pytest.warns(UserWarning):
        gr = family_graph("circulant", 5, [1])
    spec = SpectralDecomposition(gr)
    assert sum(spec.multiplicities) == 5
    assert len(spec.eigenvalues) == 5


def test_spectrum_guards_its_exponent_array(monkeypatch):
    gr = family_graph("complete", 5)  # N * |S| = 5 * 4 character exponents
    monkeypatch.setenv("QSYM_MAX_DENSE", "19")
    with pytest.raises(SizeGuardError, match="character sums"):
        SpectralDecomposition(gr)
    monkeypatch.setenv("QSYM_MAX_DENSE", "20")
    assert SpectralDecomposition(gr).multiplicities == [1, 4]


def test_eigenbasis_property_families():
    for name, args in [("hypercube", (3,)), ("halved", (3,)), ("folded", (3,)),
                       ("hamming", (2, 3)), ("complete", (5,))]:
        gr = family_graph(name, *args)
        g = gr.group
        a = gr.adjacency()
        for mu, lam in eigenvalues(gr).items():
            col = SparseTensor(
                (g.order,), 1,
                {(g.index(al),): ref_char_value(g.orders, mu, al) for al in g.elements()},
            )
            assert a @ col == col.scale(lam)


def test_fourier_matrix_z2():
    f = fourier_matrix(make_group([2]))
    assert f[(0, 0)] == 1 and f[(0, 1)] == 1 and f[(1, 0)] == 1
    assert f[(1, 1)] == -1


def test_fourier_entry_z2_cubed():
    g = make_group([2, 2, 2])
    f = fourier_matrix(g)
    mu = g.element([1, 0, 0])
    assert f[(g.index(mu), g.index(mu))] == -1


@pytest.mark.parametrize("orders", [[2], [3], [2, 2], [4], [2, 3], [3, 3], [8]])
def test_fourier_unitarity(orders):
    g = make_group(orders)
    f = fourier_matrix(g)
    eye = SparseTensor.identity((g.order,)).scale(Fraction(g.order))
    assert f @ f.adjoint() == eye
    assert f.adjoint() @ f == eye


def test_conjugate_identity():
    g = make_group([2, 2])
    eye = SparseTensor.identity((4,))
    assert conjugate_by_fourier(g, eye) == eye


@pytest.mark.parametrize("orders,name,args", [
    ([2] * 3, "hypercube", (3,)),
    ([3] * 2, "hamming", (2, 3)),
])
def test_conjugation_diagonalizes(orders, name, args):
    gr = family_graph(name, *args)
    g = gr.group
    d = conjugate_by_fourier(g, gr.adjacency())
    lam = eigenvalues(gr)
    for (r, c), v in d.entries.items():
        assert r == c
        assert v == lam[g.element_at(r)]


def test_fast_and_generic_conjugation_agree():
    # exponent 2 takes the +-1 integer path, the others the power-basis twist kernel
    z42 = make_group([4, 2])
    graphs = [
        family_graph("hypercube", 3),
        family_graph("hamming", 2, 3),
        family_graph("hamming", 2, 4),
        CayleyGraph(z42, make_generating_set(z42, [[1, 0], [3, 0], [0, 1]])),
    ]
    for gr in graphs:
        g = gr.group
        a = gr.adjacency()
        fast = conjugate_by_fourier(g, a)
        F = fourier_matrix(g)
        generic = (F.adjoint() @ a @ F).scale(Fraction(1, g.order))
        assert fast == generic
        assert fast.to_json() == generic.to_json()


def test_q3_degree_major_diagonal():
    gr = family_graph("hypercube", 3)
    g = gr.group
    d = conjugate_by_fourier(g, gr.adjacency())
    order = g.degree_major_elements()
    diag = [d[(g.index(mu), g.index(mu))].as_fraction() for mu in order]
    assert diag == [3, 1, 1, 1, -1, -1, -1, -3]


def _commutes(gr, perm):
    """An automorphism's permutation matrix commutes with the adjacency."""
    a, p = gr.adjacency(), perm_matrix(perm)
    return p @ a == a @ p


def test_translations_and_coordinate_swaps_are_automorphisms():
    gr = family_graph("hypercube", 3)
    g = gr.group
    for beta in g.elements():
        assert _commutes(gr, translation_perm(g, beta))
    assert _commutes(gr, coordinate_perm(g, [1, 0, 2]))
    assert _commutes(gr, coordinate_perm(g, [2, 0, 1]))


def test_non_automorphism_detected():
    gr = family_graph("hypercube", 3)
    # swap vertex 0 with vertex 3 = (0,1,1) only: breaks adjacency
    perm = list(range(8))
    perm[0], perm[3] = perm[3], perm[0]
    assert not _commutes(gr, perm)
    assert not _commutes(gr, [1, 0] + list(range(2, 8)))


def test_perm_matrix_requires_bijection():
    with pytest.raises(InvalidInputError):
        perm_matrix([0, 0, 1])


def test_wreath_identity():
    eye = perm_matrix([0, 1])
    u = wreath_rep([eye, eye], [0, 1])
    assert u == SparseTensor.identity((4,))


def test_wreath_matches_product_action():
    swap = perm_matrix([1, 0])
    u = wreath_rep([swap, swap], [1, 0])
    expected = perm_matrix(product_action_perm([[1, 0], [1, 0]], [1, 0], 2))
    assert u == expected


def test_wreath_commutes_with_hamming_adjacency():
    adj = family_graph("hamming", 2, 3).adjacency()
    u = wreath_rep([perm_matrix([1, 2, 0]), perm_matrix([0, 1, 2])], [1, 0])
    assert u @ adj == adj @ u


def test_wreath_rejects_list_factors():
    with pytest.raises(InvalidInputError):
        wreath_rep([[[0, 1], [1, 0]], perm_matrix([0, 1])], [0, 1])


# -- the position routes against their element-wise definitions ------------------------

@st.composite
def small_orders(draw, max_order=12):
    """Cyclic orders of a group of order <= max_order, one to three factors."""
    orders = [draw(st.integers(1, max_order))]
    while len(orders) < 3 and draw(st.booleans()):
        orders.append(draw(st.integers(1, max_order // prod(orders))))
    return orders


@st.composite
def cayley_graphs(draw):
    """A group of order 2..12 and a generating set of nonzero elements: a
    random subset, closed under negation or not (directed graphs have
    complex eigenvalues)."""
    orders = draw(small_orders().filter(lambda o: prod(o) > 1))
    g = make_group(orders)
    nonzero = [e.coords for e in g.elements()][1:]
    gens = draw(st.lists(st.sampled_from(nonzero), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        gens = sorted(set(gens) | {ref_neg(orders, e) for e in gens})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CayleyGraph(g, make_generating_set(g, gens)), gens


def ref_closure(orders, gens):
    """The subgroup generated by gens: breadth-first over ref_add."""
    seen = {(0,) * len(orders)}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for theta in gens:
            nxt = ref_add(orders, cur, theta)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@given(cayley_graphs())
def test_spectrum_matches_per_label_character_sums(case):
    gr, gens = case
    g = gr.group
    spec = SpectralDecomposition(gr)
    seen = [mu for _, labels in spec.items for mu in labels]
    assert sorted(seen, key=g.index) == list(g.elements())
    for lam, labels in spec.items:
        for mu in labels:
            assert lam == ref_eigenvalue(g.orders, gens, mu)
    lams = spec.eigenvalues
    assert all(a != b for a, b in itertools.combinations(lams, 2))


@given(cayley_graphs())
def test_graph_routes_match_element_definitions(case):
    gr, gens = case
    g = gr.group
    orders = g.orders
    elems = [e.coords for e in g.elements()]
    pos = {e: i for i, e in enumerate(elems)}
    assert gr.gens.symmetric == all(ref_neg(orders, e) in set(gens) for e in gens)
    assert gr.gens.generates == (len(ref_closure(orders, gens)) == g.order)
    adj = {(pos[ref_add(orders, a, t)], pos[a]): 1 for a in elems for t in gens}
    assert gr.adjacency().to_json() == SparseTensor((g.order,) * 2, 1, adj).to_json()
    for beta in g.elements():
        assert translation_perm(g, beta) == [pos[ref_add(orders, a, beta.coords)] for a in elems]
    for pi in itertools.permutations(range(g.rank)):
        if all(orders[p] == m for p, m in zip(pi, orders)):
            moved = [pos[tuple(a[p] for p in pi)] for a in elems]
            assert coordinate_perm(g, pi) == moved

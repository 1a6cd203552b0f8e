from fractions import Fraction

import pytest

from qsym.cayley import (
    CayleyGraph,
    SpectralDecomposition,
    cartesian_adjacency,
    conjugate_by_fourier,
    coordinate_perm,
    eigenvalue,
    family_graph,
    fourier_matrix,
    is_automorphism,
    make_generating_set,
    perm_matrix,
    product_action_perm,
    translation_perm,
    wreath_rep,
)
from qsym.errors import InvalidInputError
from qsym.groups import make_group
from qsym.sparse import SparseTensor


def test_hypercube_edges():
    gr = family_graph("hypercube", 3)
    assert gr.edge_count() == 12
    a = gr.adjacency()
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
    assert eigenvalue(g, gr.gens, g.element([1, 1, 0])) == 1 - 1 - 1
    # K_4 trivial character
    gr = family_graph("complete", 4)
    assert eigenvalue(gr.group, gr.gens, gr.group.zero()) == 3
    # folded cube FQ_5 on Z_2^4 at a degree-1 label
    gr = family_graph("folded", 4)
    g = gr.group
    assert eigenvalue(g, gr.gens, g.element([1, 0, 0, 0])) == 1


def test_spectrum_q3():
    spec = SpectralDecomposition(family_graph("hypercube", 3))
    assert [lam.as_fraction() for lam in spec.eigenvalues] == [3, 1, -1, -3]
    assert spec.multiplicities == [1, 3, 3, 1]
    assert spec.all_real()


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


def test_eigenbasis_property_families():
    for name, args in [("hypercube", (3,)), ("halved", (3,)), ("folded", (3,)),
                       ("hamming", (2, 3)), ("complete", (5,))]:
        gr = family_graph(name, *args)
        g = gr.group
        a = gr.adjacency()
        for mu in g.elements():
            lam = eigenvalue(g, gr.gens, mu)
            col = SparseTensor(
                (g.order,), 1,
                {(g.index(al),): g.char_value(mu, al) for al in g.elements()},
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
    for (r, c), v in d.entries.items():
        assert r == c
        mu = g.element_at(r)
        assert v == eigenvalue(g, gr.gens, mu)


def test_fast_and_generic_conjugation_agree():
    # exponent 2 takes the +-1 integer path, the others the group-algebra kernel
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


def test_cartesian_product_matches_hamming():
    k3 = family_graph("complete", 3)
    prod = cartesian_adjacency([k3, k3])
    h23 = family_graph("hamming", 2, 3).adjacency()
    assert prod == h23


def test_cartesian_single_and_k2_square():
    k2 = family_graph("complete", 2)
    assert cartesian_adjacency([k2]) == k2.adjacency()
    q2 = family_graph("hypercube", 2).adjacency()
    assert cartesian_adjacency([k2, k2]) == q2


def test_translations_and_coordinate_swaps_are_automorphisms():
    gr = family_graph("hypercube", 3)
    g = gr.group
    for beta in g.elements():
        assert is_automorphism(gr, translation_perm(g, beta))
    assert is_automorphism(gr, coordinate_perm(g, [1, 0, 2]))


def test_non_automorphism_detected():
    gr = family_graph("hypercube", 3)
    # swap vertex 0 with vertex 3 = (0,1,1) only: breaks adjacency
    perm = list(range(8))
    perm[0], perm[3] = perm[3], perm[0]
    assert not is_automorphism(gr, perm)


def test_perm_matrix_requires_bijection():
    with pytest.raises(InvalidInputError):
        perm_matrix([0, 0, 1])


def test_wreath_identity():
    eye = [[1, 0], [0, 1]]
    u = wreath_rep([eye, eye], [0, 1])
    assert u == SparseTensor.identity((4,))


def test_wreath_matches_product_action():
    swap = [[0, 1], [1, 0]]
    u = wreath_rep([swap, swap], [1, 0])
    expected = perm_matrix(product_action_perm([[1, 0], [1, 0]], [1, 0], 2))
    assert u == expected


def test_wreath_commutes_with_cartesian_power():
    k3 = family_graph("complete", 3)
    adj = cartesian_adjacency([k3, k3])
    cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]  # 3-cycle permutation matrix
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    u = wreath_rep([cyc, eye3], [1, 0])
    assert u @ adj == adj @ u

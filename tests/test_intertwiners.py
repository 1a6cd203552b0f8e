import itertools
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsym.cayley import (
    SpectralDecomposition,
    conjugate_by_fourier,
    coordinate_perm,
    family_graph,
    fourier_matrix,
    fourier_transform_legs,
    perm_matrix,
)
from qsym.errors import InvalidInputError, SizeGuardError
from qsym.functors import functor_T
from qsym.groups import make_group
from qsym.intertwiners import (
    EigenprojectionBasis,
    brute_hat_intertwiner,
    check_intertwiner,
    HammingOperators,
    hat_block_intertwiner,
    project,
)
from qsym.partitions import Partition
from qsym.sparse import SparseTensor
from qsym.verify import suite_hamming

ALL_GROUPS_UP_TO_9 = [
    [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [4, 2], [2, 2, 2], [9], [3, 3],
]


def test_hat_block_identity_strand():
    g = make_group([2, 2])
    assert hat_block_intertwiner(g, 1, 1) == SparseTensor.identity((4,))


def test_hat_block_merge_scale_is_one():
    # [hat T]^{nu}_{mu1 mu2} = delta_{mu1+mu2, nu}: the l=1 scale N^(1-l) = 1
    g = make_group([2, 2])
    hb = hat_block_intertwiner(g, 2, 1)
    for mu1 in g.elements():
        for mu2 in g.elements():
            nu = g.element([x + y for x, y in zip(mu1, mu2)])
            v = hb[(g.index(nu), g.index(mu1), g.index(mu2))]
            assert v == 1


def test_hat_block_fork_scale():
    g = make_group([3])
    hb = hat_block_intertwiner(g, 1, 2)
    assert all(v == Fraction(1, 3) for v in hb.entries.values())


@pytest.mark.parametrize("orders", [[2, 2], [3], [5], [2, 3]])
@pytest.mark.parametrize("kl", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 0), (0, 3)])
def test_hat_block_matches_brute_conjugation(orders, kl):
    g = make_group(orders)
    k, l = kl
    t = functor_T(Partition.block(k, l), g.order)
    assert hat_block_intertwiner(g, k, l) == brute_hat_intertwiner(g, t)


@st.composite
def small_orders(draw, max_order=9):
    """Cyclic orders of a group of order <= max_order, one to three factors."""
    orders = [draw(st.integers(1, max_order))]
    while len(orders) < 3 and draw(st.booleans()):
        orders.append(draw(st.integers(1, max_order // prod(orders))))
    return orders


# (k, l) leg counts of the blocks the random-group properties draw
BLOCKS_UP_TO_3 = [(k, l) for k in range(4) for l in range(4) if 1 <= k + l <= 3]


@given(small_orders(), st.sampled_from(BLOCKS_UP_TO_3))
def test_hat_block_matches_brute_on_random_groups(orders, kl):
    g = make_group(orders)
    k, l = kl
    t = functor_T(Partition.block(k, l), g.order)
    assert hat_block_intertwiner(g, k, l) == brute_hat_intertwiner(g, t)


@st.composite
def label_bases(draw):
    """A group of order <= 9 and two bases of its characters, each a random
    nonempty subset of the labels in random order."""
    g = make_group(draw(small_orders()))

    def basis():
        labels = draw(st.permutations(list(g.elements())))
        return EigenprojectionBasis(g, labels[:draw(st.integers(1, g.order))])

    return g, basis(), basis()


@given(label_bases(), st.sampled_from(BLOCKS_UP_TO_3))
def test_restricted_hat_block_matches_legwise_projection(case, kl):
    g, basis_out, basis_in = case
    k, l = kl
    t = functor_T(Partition.block(k, l), g.order)
    expected = project(t, basis_out if l else None, basis_in if k else None)
    got = hat_block_intertwiner(g, k, l, basis_out, basis_in)
    assert got.shape == expected.shape
    assert got == expected


def test_restricted_hat_block_defaults_to_every_character():
    g = make_group([3, 2])
    every = EigenprojectionBasis(g, list(g.elements()))
    for k, l in [(2, 1), (1, 2), (3, 0), (0, 3)]:
        full = hat_block_intertwiner(g, k, l)
        assert hat_block_intertwiner(g, k, l, every, every).to_json() == full.to_json()
        assert hat_block_intertwiner(g, k, l, every, None) == full


def test_restricted_hat_block_checks_its_bases(monkeypatch):
    g = make_group([9])
    with pytest.raises(InvalidInputError, match="is not on"):
        hat_block_intertwiner(g, 1, 1, EigenprojectionBasis(make_group([3, 3]), [(0, 1)]))
    basis = EigenprojectionBasis(g, [(2,), (0,), (1,)])
    # the two free legs run over 3 x 3 label rows; the solved leg lands on a
    # label for the 6 pairs with sum <= 2
    monkeypatch.setenv("QSYM_MAX_SPARSE", "8")
    with pytest.raises(SizeGuardError, match="hat block intertwiner"):
        hat_block_intertwiner(g, 2, 1, basis, basis)
    monkeypatch.setenv("QSYM_MAX_SPARSE", "9")
    assert hat_block_intertwiner(g, 2, 1, basis, basis).nnz() == 6


@st.composite
def rational_tensors(draw):
    """A group of order <= 9 and a rational tensor with 0-3 legs of dimension
    N, possibly empty; numerators are small or far past the int64 range."""
    g = make_group(draw(small_orders()))
    legs = draw(st.integers(0, 3))
    cells = list(itertools.product(range(g.order), repeat=legs))
    keys = draw(st.lists(st.sampled_from(cells), unique=True, max_size=6))
    size = draw(st.sampled_from([5, 2**70]))
    entries = {
        idx: Fraction(draw(st.integers(-size, size)), draw(st.integers(1, 4)))
        for idx in keys
    }
    return g, SparseTensor((g.order,) * legs, draw(st.integers(0, legs)), entries)


def _legwise_fourier(g, t):
    """The SparseTensor route: input legs through F, output legs through F*/N."""
    F = fourier_matrix(g)
    f_inv = F.adjoint().scale(Fraction(1, g.order))
    for leg in range(t.in_axes):
        t = t.transform_in_leg(leg, F.entries, g.order)
    for leg in range(t.out_axes):
        t = t.transform_out_leg(leg, f_inv.entries, g.order)
    return t


@given(rational_tensors())
def test_fourier_kernel_matches_leg_transforms(case):
    g, t = case
    expected = _legwise_fourier(g, t)
    got = fourier_transform_legs(g, t)
    assert got == expected
    assert got.to_json() == expected.to_json()
    if t.shape == (g.order, g.order) and t.out_axes == 1:
        assert conjugate_by_fourier(g, t) == expected


def test_fourier_kernel_sums_past_int64():
    # each numerator fits in int64, their sum 2^63 does not
    g = make_group([2])
    t = SparseTensor((2,), 0, {(0,): 2**62, (1,): 2**62})
    assert fourier_transform_legs(g, t).entries == {(0,): 2**63}


def test_brute_hat_guards_its_dense_array(monkeypatch):
    g = make_group([3, 3])
    t = functor_T(Partition.block(2, 1), g.order)
    # N^(k+l) * M = 9^3 * 3 entries in Z[x]/(x^3 - 1)
    monkeypatch.setenv("QSYM_MAX_DENSE", str(9**3 * 3 - 1))
    with pytest.raises(SizeGuardError, match="group-algebra Fourier transform"):
        brute_hat_intertwiner(g, t)
    monkeypatch.setenv("QSYM_MAX_DENSE", str(9**3 * 3))
    assert brute_hat_intertwiner(g, t) == hat_block_intertwiner(g, 2, 1)


def test_brute_hat_rejects_irrational_and_misshaped_tensors():
    g = make_group([3])
    with pytest.raises(InvalidInputError, match="rational"):
        brute_hat_intertwiner(g, fourier_matrix(g))
    with pytest.raises(InvalidInputError, match="group order"):
        brute_hat_intertwiner(g, SparseTensor.identity((2,)))


def test_projection_full_space_is_conjugation():
    gr = family_graph("hypercube", 2)
    g = gr.group
    spec = SpectralDecomposition(gr)
    full = EigenprojectionBasis.from_spectrum(spec, range(len(spec.items)))
    t = functor_T(Partition.block(2, 2), g.order)
    proj = project(t, full, full)
    brute = brute_hat_intertwiner(g, t)
    # same entries up to the label reordering of the basis
    reindex = [g.index(mu) for mu in full.labels]
    remapped = {
        tuple(reindex[x] for x in idx): v for idx, v in proj.entries.items()
    }
    assert remapped == brute.entries


def test_project_needs_basis_for_each_side():
    g = make_group([2, 2])
    t = functor_T(Partition.block(2, 1), 4)
    with pytest.raises(InvalidInputError):
        project(t, None, EigenprojectionBasis(g, list(g.elements())[:2]))


def test_check_intertwiner_automorphism_commutes():
    gr = family_graph("hypercube", 3)
    g = gr.group
    a = gr.adjacency()
    p = perm_matrix(coordinate_perm(g, [2, 0, 1]))
    assert check_intertwiner(a, [p], [p])
    bad = perm_matrix([1, 0] + list(range(2, 8)))
    assert not check_intertwiner(a, [bad], [bad])


def test_conjugated_automorphism_block_structure():
    # F^-1 u F has no entries between labels of distinct eigenvalues
    from qsym.cayley import conjugate_by_fourier

    gr = family_graph("hypercube", 3)
    g = gr.group
    spec = SpectralDecomposition(gr)
    group_of = {}
    for i, (_, labs) in enumerate(spec.items):
        for mu in labs:
            group_of[g.index(mu)] = i
    u = perm_matrix(coordinate_perm(g, [1, 2, 0]))
    hat_u = conjugate_by_fourier(g, u)
    sizes = Counter()
    for (r, c) in hat_u.entries:
        assert group_of[r] == group_of[c]
        sizes[group_of[r]] = None
    # blocks of sizes 1,3,3,1 are all present
    assert spec.multiplicities == [1, 3, 3, 1]


# -- Hamming operators -----------------------------------------------------------

def test_r_merge_spot_entry():
    ops = HammingOperators(3, 2)
    r = ops.merge()
    assert r[(ops.idx(2, 0), ops.idx(1, 0), ops.idx(1, 0))] == 1


def test_connecter_decomposition_of_projected_block():
    # N * (restriction of hat T_{b_{2,2}} to V_1) splits into the four named
    # pieces, which pins down every delta formula at once; the zero products
    # hold and the two stated shortcuts are refuted at every size.
    for m, n in [(3, 2), (4, 2), (3, 3)]:
        rep = suite_hamming(n, m)
        assert {r.check_id: r.verdict for r in rep.results} == {
            "eigenvalue-formula": "pass", "distinct-count": "pass",
            "zero-products": "pass", "connecter-split": "pass",
            "square-display": "finding", "cube-display": "fail",
        }, (m, n)


def test_hamming_operators_guard_input():
    with pytest.raises(InvalidInputError):
        HammingOperators(1, 2)


def test_projected_fork_intertwines_restricted_automorphism():
    # restrict a classical automorphism of the folded cube to the joined
    # degree-(1,2) eigenspace and check it intertwines the projected fork
    from qsym.cayley import family_graph, coordinate_perm, perm_matrix

    gr = family_graph("folded", 4)
    g = gr.group
    spec = SpectralDecomposition(gr)
    labs = next(ls for _, ls in spec.items if any(mu.degree == 1 for mu in ls))
    basis = EigenprojectionBasis(g, sorted(labs, key=g.index))
    fork = project(functor_T(Partition.block(1, 2), g.order), basis, basis)
    u = perm_matrix(coordinate_perm(g, [1, 2, 3, 0]))
    v = project(u, basis, basis)
    assert check_intertwiner(fork, [v, v], [v])

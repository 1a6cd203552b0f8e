import itertools
import re
from collections import Counter
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qsym.cayley import (
    SpectralDecomposition,
    _twist_kernel,
    conjugate_by_fourier,
    coordinate_perm,
    family_graph,
    fourier_matrix,
    fourier_transform_legs,
    perm_matrix,
)
from qsym.cyclotomic import Cyclotomic, euler_phi
from qsym.errors import InvalidInputError, SizeGuardError
from qsym.functors import antisym_coisometry, antisymmetrizer, functor_T
from qsym.groups import make_group
from qsym.intertwiners import (
    EigenprojectionBasis,
    brute_hat_intertwiner,
    HammingOperators,
    hat_block_intertwiner,
    project,
)
from qsym.partitions import Partition
from qsym.sparse import SparseTensor
from qsym.verify import suite_hamming

from oracles import peak_bytes

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
    """A group of order <= 9 and two bases of its characters, each a random,
    possibly empty subset of the labels in random order."""
    g = make_group(draw(small_orders()))

    def basis():
        labels = draw(st.permutations(list(g.elements())))
        return EigenprojectionBasis(g, labels[:draw(st.integers(0, g.order))])

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


@given(label_bases())
def test_fourier_matrix_columns_follow_the_labels(case):
    g, basis, _ = case
    full = fourier_matrix(g)
    columns = {
        (alpha, j): full[(alpha, mu)]
        for alpha in range(g.order) for j, mu in enumerate(basis.positions.tolist())
    }
    expected = SparseTensor((g.order, len(basis)), 1, columns)
    got = fourier_matrix(g, basis.positions)
    assert got == expected
    assert got.to_json() == expected.to_json()
    assert dict(basis.u_star_matrix()) == columns


def test_fourier_matrix_checks_its_labels(monkeypatch):
    g = make_group([9])
    for labels in ([9], [0, -1]):
        with pytest.raises(InvalidInputError, match="0..8"):
            fourier_matrix(g, labels)
    # N * len(labels) entries, not N^2
    monkeypatch.setenv("QSYM_MAX_DENSE", "17")
    with pytest.raises(SizeGuardError, match="Fourier matrix"):
        fourier_matrix(g, [4, 1])
    monkeypatch.setenv("QSYM_MAX_DENSE", "18")
    assert fourier_matrix(g, [4, 1]).shape == (9, 2)


def test_project_rejects_bases_on_two_groups():
    z4 = make_group([4])
    t = functor_T(Partition.block(1, 1), z4.order)
    basis_in = EigenprojectionBasis(z4, list(z4.elements()))
    for g in (make_group([2]), make_group([2, 2])):
        basis_out = EigenprojectionBasis(g, list(g.elements()))
        with pytest.raises(InvalidInputError, match="is not on"):
            project(t, basis_out, basis_in)
    assert project(t, basis_in, basis_in) == brute_hat_intertwiner(z4, t)


def test_project_on_an_empty_basis():
    g = make_group([3])
    empty = EigenprojectionBasis(g, [])
    t = functor_T(Partition.block(1, 0), g.order)
    got = project(t, None, empty)
    assert got.shape == (0,) and got.nnz() == 0
    assert got == hat_block_intertwiner(g, 1, 0, None, empty)
    with pytest.raises(InvalidInputError, match="needs an input or an output basis"):
        project(t, None, None)


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


def test_conjugation_rejects_irrational_matrices():
    z3 = make_group([3])
    with pytest.raises(InvalidInputError, match="rational"):
        conjugate_by_fourier(z3, fourier_matrix(z3))
    # exponent 2 as well: the +-1 fast path is for rational matrices only
    z22 = make_group([2, 2])
    with pytest.raises(InvalidInputError, match="rational"):
        conjugate_by_fourier(z22, SparseTensor((4, 4), 1, {(0, 1): Cyclotomic.zeta(4, 1)}))


def test_hadamard_conjugation_past_its_int64_bound():
    # 16 * 2^62 is past the fast path's bound, so the twist kernel takes over
    g = make_group([2, 2])
    t = SparseTensor((4, 4), 1, {(0, 0): 2**62, (1, 2): 2**62, (3, 1): -(2**62)})
    got = conjugate_by_fourier(g, t)
    expected = _legwise_fourier(g, t)
    assert got == expected
    assert got.to_json() == expected.to_json()


def test_hadamard_conjugation_guards_before_it_allocates(monkeypatch):
    # N = 64: the fast path would build 64 x 64 int64 arrays (32 KiB each)
    gr = family_graph("hypercube", 6)
    a = gr.adjacency()
    expected = conjugate_by_fourier(gr.group, a)
    monkeypatch.setenv("QSYM_MAX_DENSE", str(64 * 64 - 1))
    peak = peak_bytes(lambda: conjugate_by_fourier(gr.group, a),
                      "exponent-2 Fourier conjugation needs 4096 ")
    assert peak < 16 * 1024
    monkeypatch.setenv("QSYM_MAX_DENSE", str(64 * 64))
    assert conjugate_by_fourier(gr.group, a) == expected


def _legs_of_block(orders, k, l):
    g = make_group(orders)
    return fourier_transform_legs(g, functor_T(Partition.block(k, l), g.order))


@pytest.mark.parametrize("cap, count, what, build", [
    ("QSYM_MAX_SPARSE", 200**2, "functor tensor",
     lambda: functor_T(Partition.crossing(), 200)),
    ("QSYM_MAX_SPARSE", 100**2, "hat block intertwiner",
     lambda: hat_block_intertwiner(make_group([100]), 2, 1)),
    ("QSYM_MAX_DENSE", 64**2, "Fourier matrix", lambda: fourier_matrix(make_group([64]))),
    # N^legs * phi(M) power-basis coordinates
    ("QSYM_MAX_DENSE", 25**3 * 4, "group-algebra Fourier transform",
     lambda: _legs_of_block([5, 5], 2, 1)),
    # one leg of Z_16: the (m, m, phi, phi) twist kernel is the largest array
    ("QSYM_MAX_DENSE", 16**2 * 8**2, "Fourier twist kernel",
     lambda: _legs_of_block([16], 1, 0)),
    # C(n, k) increasing tuples, each with k! x k! (or k!) arrangements
    ("QSYM_MAX_SPARSE", 20 * 6**2, "antisymmetrizer k=3, n=6",
     lambda: antisymmetrizer(3, 6)),
    ("QSYM_MAX_SPARSE", 120 * 6, "coisometry k=3, n=10",
     lambda: antisym_coisometry(3, 10, deformed=True)),
], ids=["functor_T", "hat_block_intertwiner", "fourier_matrix", "fourier_transform_legs",
        "twist_kernel", "antisymmetrizer", "antisym_coisometry"])
def test_builders_guard_before_they_allocate(monkeypatch, cap, count, what, build):
    """One below its guard's count a builder refuses with a small peak and
    caches no kernel; at the count it builds at most that many entries."""
    _twist_kernel.cache_clear()
    monkeypatch.setenv(cap, str(count - 1))
    assert peak_bytes(build, f"{what}.* needs {count} ") < 16 * 1024
    assert _twist_kernel.cache_info().currsize == 0
    monkeypatch.setenv(cap, str(count))
    assert 0 < build().nnz() <= count


def test_fourier_kernel_sums_past_int64():
    # each numerator fits in int64, their sum 2^63 does not
    g = make_group([2])
    t = SparseTensor((2,), 0, {(0,): 2**62, (1,): 2**62})
    assert fourier_transform_legs(g, t).entries == {(0,): 2**63}


@pytest.mark.parametrize("M", range(1, 13))
def test_twist_kernel_multiplies_by_roots_of_unity(M):
    phi = euler_phi(M)
    for m in [m for m in range(1, M + 1) if M % m == 0]:
        for step in (M // m, -(M // m)):
            stored, col_sum = _twist_kernel(m, step, M)
            assert stored.flags.c_contiguous and not stored.flags.writeable
            kernel = stored.transpose(0, 2, 1, 3)  # K[a, b, i, i']
            assert kernel.shape == (m, m, phi, phi)
            assert col_sum == int(np.abs(kernel).sum(axis=(0, 2)).max())
            for a, b in itertools.product(range(m), repeat=2):
                root = Cyclotomic.zeta(M, step * a * b)
                # row i is zeta_M^i * root in the power basis
                expected = [(Cyclotomic.zeta(M, i) * root)._coeffs_at(M) for i in range(phi)]
                assert kernel[a, b].tolist() == expected


# the kernel's tier edges: its bound below 2^53 multiplies in float64,
# below 2^62 in int64, and past that in Python integers
@pytest.mark.parametrize("edge, dtype_below, dtype_above", [
    (53, np.float64, np.int64),
    (62, np.int64, object),
], ids=["float64-int64", "int64-python"])
@pytest.mark.parametrize("orders", [[7], [9]])
def test_fourier_kernel_at_its_tier_edges(monkeypatch, orders, edge, dtype_below, dtype_above):
    # zeta_7^6 and zeta_9^6..8 reduce to rows with several nonzero entries,
    # so the kernels' column sums exceed m; the trivial characters sum all
    # N^2 numerators, so results pass 2^53 in the int64 tier
    g = make_group(orders)
    N, M = g.order, g.exponent
    col_sum = _twist_kernel(N, -1, M)[1] * _twist_kernel(N, 1, M)[1]
    below = (2**edge - 1) // col_sum  # the largest top whose bound stays below the edge
    matmul, seen = np.matmul, []

    def spy(a, *rest, **kwargs):  # the dtype the kernel multiplies in
        seen.append(a.dtype)
        return matmul(a, *rest, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for top, dtype in ((below, dtype_below), (below + 1, dtype_above)):
        cells = itertools.product(range(N), repeat=2)
        t = SparseTensor((N, N), 1, {(i, j): top - (i * j) % 3 for i, j in cells})
        expected = _legwise_fourier(g, t)
        seen.clear()
        got = fourier_transform_legs(g, t)
        assert seen and set(seen) == {np.dtype(dtype)}, (top, seen)
        assert got == expected
        assert got.to_json() == expected.to_json()


# the kernel's tiers, float64, int64 and Python integers, by the power of 2
# that its bound stays below
BOUND_TIERS = [53, 62, 72]


def _kernel_bound(g, t):
    """The largest numerator of t times each cyclic factor's largest twist
    kernel column sum, over every leg."""
    M = g.exponent
    bound = max((abs(v) for v in t.numerators.values()), default=0)
    for leg in range(len(t.shape)):
        for m in g.orders:
            bound *= _twist_kernel(m, (-1 if leg < t.out_axes else 1) * (M // m), M)[1]
    return bound


@st.composite
def integer_tensors_and_factors(draw):
    """A group of order <= 9, a tensor with 0-3 legs of dimension N and small
    integer entries, and an integer c that puts the kernel's bound for
    t.scale(c) in the top half of a drawn tier, where the transform's
    values of up to two legs pass 2^53 in the int64 tier."""
    g = make_group(draw(small_orders()))
    legs = draw(st.integers(0, 3))
    cells = list(itertools.product(range(g.order), repeat=legs))
    keys = draw(st.lists(st.sampled_from(cells), unique=True, max_size=6))
    t = SparseTensor((g.order,) * legs, draw(st.integers(0, legs)),
                     {idx: draw(st.integers(-5, 5)) for idx in keys})
    high = draw(st.sampled_from(BOUND_TIERS))
    base = max(_kernel_bound(g, t), 1)
    c = draw(st.integers(-(-2**(high - 1) // base), (2**high - 1) // base))
    return g, t, c * draw(st.sampled_from([1, -1]))


def _crossing_case(c):
    g = make_group([7])
    return g, functor_T(Partition.crossing(), g.order), c


@given(integer_tensors_and_factors())
@example(_crossing_case(2**10))  # bounds 2^24.3, 2^54.3, 2^61.3 and 2^84.3
@example(_crossing_case(2**40 + 1))
@example(_crossing_case(-(2**47) - 1))
@example(_crossing_case(2**70 + 3))
def test_fourier_kernel_is_linear_in_every_tier(case):
    g, t, c = case
    assert fourier_transform_legs(g, t.scale(c)) == fourier_transform_legs(g, t).scale(c)


def test_fourier_kernel_peak_is_two_arrays():
    # Z_7 with the block of 3 + 3 points: 7^6 * 6 power-basis coordinates,
    # one array and one copy of it at 8 bytes each
    g = make_group([7])
    t = functor_T(Partition.block(3, 3), g.order)
    fourier_transform_legs(g, t)  # the twist kernels are cached
    assert peak_bytes(lambda: fourier_transform_legs(g, t)) <= 2.25 * 7**6 * 6 * 8


def test_brute_hat_guards_its_dense_array(monkeypatch):
    g = make_group([3, 3])
    t = functor_T(Partition.block(2, 1), g.order)
    # N^(k+l) * phi(M) = 9^3 * 2 power-basis coordinates in Q(zeta_3)
    monkeypatch.setenv("QSYM_MAX_DENSE", str(9**3 * 2 - 1))
    with pytest.raises(SizeGuardError, match="group-algebra Fourier transform"):
        brute_hat_intertwiner(g, t)
    monkeypatch.setenv("QSYM_MAX_DENSE", str(9**3 * 2))
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


def _oracle_predicates(m):
    """The operators' defining deltas on labels (a1, i1), (a2, i2) in and
    (b1, j1), (b2, j2) out; the oracle tests them on every label quadruple."""
    return {
        "connecter": lambda a1, i1, a2, i2, b1, j1, b2, j2: i1 == i2 == j1 == j2
        and (a1 + a2) % m == (b1 + b2) % m,
        "AAbb": lambda a1, i1, a2, i2, b1, j1, b2, j2: (a1 + a2) % m == 0
        and (b1 + b2) % m == 0
        and i1 == i2 != j1 == j2,
        "aBaB": lambda a1, i1, a2, i2, b1, j1, b2, j2: a1 == b2
        and a2 == b1
        and i1 == j2 != i2 == j1,
        "aBBa": lambda a1, i1, a2, i2, b1, j1, b2, j2: a1 == b1
        and a2 == b2
        and i1 == j1 != i2 == j2,
        "AABB": lambda a1, i1, a2, i2, b1, j1, b2, j2: a1 == a2 == b1 == b2
        and (a1 + a2) % m == 0
        and (b1 + b2) % m == 0
        and i1 == i2 != j1 == j2,
    }


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamming_operators_match_predicates_on_all_quadruples(m, n):
    ops = HammingOperators(m, n)
    labels = ops.labels()
    named = ops.all_named()
    for name, pred in _oracle_predicates(m).items():
        entries = {}
        for (a1, i1), (a2, i2) in itertools.product(labels, repeat=2):
            for (b1, j1), (b2, j2) in itertools.product(labels, repeat=2):
                if pred(a1, i1, a2, i2, b1, j1, b2, j2):
                    entries[
                        (ops.idx(b1, j1), ops.idx(b2, j2), ops.idx(a1, i1), ops.idx(a2, i2))
                    ] = 1
        assert named[name] == SparseTensor((ops.dim,) * 4, 2, entries), (name, m, n)
    merge = {}
    for (a1, i1), (a2, i2), (b, j) in itertools.product(labels, repeat=3):
        if i1 == i2 == j and (a1 + a2) % m == b:
            merge[(ops.idx(b, j), ops.idx(a1, i1), ops.idx(a2, i2))] = 1
    assert named["merge"] == SparseTensor((ops.dim,) * 3, 1, merge), (m, n)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamming_labels_follow_the_v1_basis_rows(m, n):
    spec = SpectralDecomposition(family_graph("hamming", n, m))
    v1 = EigenprojectionBasis.from_spectrum(spec, [1])
    rows = []
    for mu in v1.labels:
        ((i, a),) = [(i, c) for i, c in enumerate(mu.coords) if c]
        rows.append((a, i))
    assert HammingOperators(m, n).labels() == rows


@pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 3), (7, 1)])
def test_hamming_operators_guard_counts_what_they_build(monkeypatch, m, n):
    monkeypatch.setenv("QSYM_MAX_SPARSE", "0")
    with pytest.raises(SizeGuardError, match="Hamming operators") as err:
        HammingOperators(m, n)
    count = int(re.search(r"needs (\d+) stored", str(err.value)).group(1))
    # at the cap, the label pairs and every operator are built
    monkeypatch.setenv("QSYM_MAX_SPARSE", str(count))
    ops = HammingOperators(m, n)
    largest = max(t.nnz() for t in ops.all_named().values())
    assert max(ops.dim**2, largest) <= count <= ops.dim**2 + largest
    # one below it, the guard fires before the pair lists are built
    monkeypatch.setenv("QSYM_MAX_SPARSE", str(count - 1))
    assert peak_bytes(lambda: HammingOperators(m, n), "Hamming operators") < 16 * 1024


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
    assert fork @ v == v.tensor(v) @ fork


def test_twist_kernel_cache_is_bounded():
    # 40 distinct (m, step, M) keys, more than the cache keeps
    _twist_kernel.cache_clear()
    for M in range(1, 41):
        _twist_kernel(1, 1, M)
    assert _twist_kernel.cache_info().currsize <= 32
    _twist_kernel.cache_clear()

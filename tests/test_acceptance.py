"""Acceptance criteria, one test per criterion (exact arithmetic throughout).

Each test prints a single PASS line when it holds.  Most tests sweep their
parameters over the ``qsym.verify`` suites and assert the suites' verdicts,
so each check has one implementation.  Two stated identities are false as
written, and their tests assert the exact refutation instead, each against
an independent route kept in this file:

* 09b: the halved-cube top-block projection equals the permutation
  indicator only for even n.  At n = 5 it is N x [labels sum to zero], on
  2976 = 720 + 1800 + 450 + 6 tuples instead of the 720 permutations, checked
  against a plain enumeration of the label coordinates;
* 12b: the Hamming shortcut S^3 - 4S = 4m(m-2) AAbb.  Its exact value is
  asserted for the strict AAbb (i1 = i2 != j1 = j2) and for the relaxed
  AAbb + Rdiag (i1 = i2, j1 = j2), through SparseTensor composition and
  through dense integer matrices split from the projected block.  The
  shortcut fails at n = 3 under both readings; at n = 2 it holds for the
  relaxed reading and fails only for the strict one.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from qsym.cayley import SpectralDecomposition, family_graph
from qsym.functors import functor_T
from qsym.intertwiners import EigenprojectionBasis, HammingOperators, project
from qsym.lemmas import lemma_suite, load_all_fixtures
from qsym.partitions import Partition, PartLin, antisymmetrize
from qsym.polyq import N_POLY
from qsym.sparse import SparseTensor
from qsym.verify import (
    halved_top_block,
    suite_antisymmetrizers,
    suite_complete,
    suite_eigenspace_invariance,
    suite_eqthat,
    suite_folded,
    suite_functoriality,
    suite_halved,
    suite_hamming,
    suite_hypercube,
    suite_wreath,
)


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def verdicts(rep):
    return {r.check_id: r.verdict for r in rep.results}


HYPERCUBE_CHECKS = ("diagonal", "diagonal-values", "eigenbasis")


# -- 1: Q3 diagonalization ------------------------------------------------------

def test_acceptance_01_q3_diagonalization():
    start = time.monotonic()
    v = verdicts(suite_hypercube(3))
    assert v == dict.fromkeys(HYPERCUBE_CHECKS + ("degree-major-display",), "pass"), v
    elapsed = time.monotonic() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    ok("01 cube diagonalization in degree-major order")


# -- 2: general hypercube diagonal ------------------------------------------------

def test_acceptance_02_hypercube_diagonal_general():
    start = time.monotonic()
    for n in range(1, 9):
        v = verdicts(suite_hypercube(n))
        v.pop("degree-major-display", None)
        assert v == dict.fromkeys(HYPERCUBE_CHECKS, "pass"), (n, v)
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"took {elapsed:.3f}s"
    ok("02 hypercube diagonal n-2k with binomial multiplicities, n <= 8")


# -- 3: halved cube ---------------------------------------------------------------

def test_acceptance_03_halved_cube_spectrum():
    # the top-block check runs at n = 4, 5; it is false as stated at odd n (09b)
    top_block = {4: {"top-block": "pass"}, 5: {"top-block": "fail"}}
    for n in range(2, 9):
        v = verdicts(suite_halved(n))
        assert v == {"eigenvalue-formula": "pass", "degeneracy": "pass",
                     **top_block.get(n, {})}, (n, v)
    ok("03 halved-cube eigenvalues ((2d-n-1)^2-n-1)/2 with d <-> n+1-d")


# -- 4: folded cube ----------------------------------------------------------------

def test_acceptance_04_folded_cube_spectrum():
    for n in range(2, 9):
        rep = suite_folded(n)
        # the one-line simplification differs from the direct sum by exactly 1;
        # the fork and pairing checks run at n = 4, 6 (10)
        pairing = dict.fromkeys(("fork-projection", "pairing-tensor"), "pass")
        assert verdicts(rep) == {
            "eigenvalue-formula": "pass", "degeneracy": "pass",
            "eigenspace-pattern": "pass", "closed-form": "finding",
            **(pairing if n in (4, 6) else {}),
        }, (n, verdicts(rep))
    print(f"ACCEPTANCE 04 finding: {rep.results[-1].detail}")
    ok("04 folded-cube eigenvalues, pairing, and eigenspace label pattern")


# -- 5: Hamming and complete --------------------------------------------------------

def test_acceptance_05_hamming_and_complete():
    # both stated operator shortcuts hold at n = 1 and fail from n = 2 (12a, 12b)
    for n in range(1, 5):
        for m in range(2, 6):
            v = verdicts(suite_hamming(n, m))
            assert v == {
                "eigenvalue-formula": "pass", "distinct-count": "pass",
                "zero-products": "pass", "connecter-split": "pass",
                "square-display": "pass" if n == 1 else "finding",
                "cube-display": "pass" if n == 1 else "fail",
            }, (n, m, v)
    for m in range(2, 6):
        assert verdicts(suite_complete(m)) == {"spectrum": "pass"}, m
    ok("05 Hamming m*l-n spectra and complete-graph spectra")


# -- 6: block intertwiner closed form vs brute conjugation ----------------------------

def test_acceptance_06_block_intertwiner_oracle():
    start = time.monotonic()
    rep = suite_eqthat()
    assert verdicts(rep) == {"closed-form": "pass"}, rep.results
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"took {elapsed:.3f}s"
    ok("06 closed-form transformed block intertwiner == brute conjugation")


# -- 7: functoriality ------------------------------------------------------------------

def test_acceptance_07_functoriality():
    rep = suite_functoriality()
    assert verdicts(rep) == {"compose": "pass"}, rep.results
    ok("07 functoriality on 200 random composable pairs")


# -- 8: projected four-point intertwiner -----------------------------------------------

def _degree_one_basis(gr):
    g = gr.group
    spec = SpectralDecomposition(gr)
    labs = spec.items[1][1]
    # the second eigenspace holds exactly the degree-one labels
    assert all(mu.degree == 1 for mu in labs), labs
    return EigenprojectionBasis(g, sorted(labs, key=g.index))


def test_acceptance_08_projected_intertwiner():
    for n in (4, 5, 6):
        gr = family_graph("hypercube", n)
        basis = _degree_one_basis(gr)
        proj = project(functor_T(Partition.block(2, 2), gr.group.order), basis, basis)
        aabb = Partition.from_blocks(2, 2, [[1, 2], ["1'", "2'"]])
        abba = Partition.from_blocks(2, 2, [[1, "2'"], [2, "1'"]])
        abab = Partition.from_blocks(2, 2, [[1, "1'"], [2, "2'"]])
        combo = (
            functor_T(aabb, n)
            + functor_T(abba, n)
            + functor_T(abab, n)
            - functor_T(Partition.block(2, 2), n).scale(2)
        )
        assert proj.scale(Fraction(2**n)) == combo, f"n={n}"
    ok("08 2^n x projected four-point block = paired-indices combination")


# -- 9: halved-cube top block -----------------------------------------------------------

def _permutation_indicator(n, order):
    return SparseTensor(
        (n + 1,) * (n + 1),
        0,
        {perm: order for perm in itertools.permutations(range(n + 1))},
    )


def _zero_sum_tuples(coords):
    """Label tuples of length n+1 whose coordinate vectors sum to zero in
    Z_2^n, by plain enumeration (no Fourier code)."""
    n = len(coords[0])
    return [
        t
        for t in itertools.product(range(n + 1), repeat=n + 1)
        if not any(sum(coords[x][c] for x in t) % 2 for c in range(n))
    ]


def test_acceptance_09a_halved_block_check_n4():
    proj, coords, order = halved_top_block(4)
    assert len(_zero_sum_tuples(coords)) == 120
    assert proj == _permutation_indicator(4, order)
    v = verdicts(suite_halved(4))
    assert v == {"eigenvalue-formula": "pass", "degeneracy": "pass", "top-block": "pass"}, v
    ok("09a halved-cube top block = N x permutation indicator at n=4")


def test_acceptance_09b_halved_block_check_n5():
    # The stated identity (N x permutation indicator) is false at odd n: the
    # projection is N x [labels sum to zero].  The labels e_1..e_5 and the
    # all-ones vector of Z_2^5 have the total sum as their only relation, so
    # a tuple sums to zero exactly when its multiplicity vector mod 2 is
    # all-even or all-ones.
    n = 5
    proj, coords, order = halved_top_block(n)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert sorted(coords) == sorted(units + [(1,) * n])
    zero_sum = _zero_sum_tuples(coords)
    assert proj == SparseTensor((n + 1,) * (n + 1), 0, {t: order for t in zero_sum})

    # By counting arrangements: 6! = 720 permutations, C(6,3) * 6!/2^3 = 1800
    # with three doubled labels, 6 * 5 * C(6,4) = 450 with one label x4 and
    # one x2, and 6 with one label x6; 2976 in all.
    patterns = Counter(
        tuple(sorted(Counter(t).values(), reverse=True)) for t in zero_sum
    )
    assert patterns == {
        (1, 1, 1, 1, 1, 1): 720, (2, 2, 2): 1800, (4, 2): 450, (6,): 6
    }, (
        f"zero-sum multiplicity patterns {dict(patterns)}; expected "
        "2976 = 720 permutations + 1800 with three doubled labels such as "
        "(0, 0, 1, 1, 2, 2) + 450 with one label x4 and one x2 + 6 with one "
        "label x6"
    )

    perms = _permutation_indicator(n, order)
    assert proj != perms
    assert set(perms.entries) <= set(proj.entries)
    extra = set(proj.entries) - set(perms.entries)
    assert extra == {t for t in zero_sum if len(set(t)) < n + 1}
    assert len(extra) == 2256 and (0, 0, 1, 1, 2, 2) in extra
    v = verdicts(suite_halved(n))
    assert v == {"eigenvalue-formula": "pass", "degeneracy": "pass", "top-block": "fail"}, v
    ok("09b refutation confirmed at n=5: top block = N x [labels sum to zero] "
       "on 2976 = 720 + 1800 + 450 + 6 tuples, not N x permutation indicator "
       "(e.g. (0, 0, 1, 1, 2, 2) has three doubled labels)")


# -- 10: folded-cube pairing identities ---------------------------------------------------

def test_acceptance_10_folded_pairing_identities():
    # suite_folded at n = 4, 6 checks the fork projection there and the
    # signed six-pairing combination at sizes n + 1 = 5, 7
    for n in (4, 6):
        rep = suite_folded(n)
        v = verdicts(rep)
        assert v["fork-projection"] == v["pairing-tensor"] == "pass", (n, v)
        assert rep.results[-1].subject.endswith(f"size {n + 1}")
        assert rep.passed, (n, v)
    ok("10 pairing-indicator tensors: signed six-pairing combination and fork")


# -- 11: lemma fixtures ---------------------------------------------------------------------

def test_acceptance_11_lemma_suite():
    start = time.monotonic()
    rep = lemma_suite()
    failures = [r for r in rep.results if r.verdict == "fail"]
    assert not failures, failures
    findings = [r for r in rep.results if r.verdict == "finding"]
    assert [r.check_id for r in findings] == ["five_cycle_chain/chain-insert-as-drawn"]
    fixtures = load_all_fixtures()
    by_name = {c.name: c for c in fixtures["square_expansion.pcalc"]}
    alpha = (N_POLY - 4) * (N_POLY - 6) * (N_POLY - 8)
    iso = by_name["scalar-isolation"]
    assert iso.rhs == antisymmetrize(
        Partition.parse("P(4,4){1 3 | 2 1' | 4 3' | 2' 4'}")
    ).scale(alpha)
    chain = {c.name: c for c in fixtures["five_cycle_chain.pcalc"]}
    ring5 = antisymmetrize(PartLin.of(Partition.cycle(5)))
    assert chain["five-ring-isolation"].rhs == ring5.scale(N_POLY - 4)
    # the as-drawn insert display misses exactly the two double-bond diagrams
    flagged = chain["chain-insert-as-drawn"]
    corr = antisymmetrize(
        Partition.parse("P(0,10){1' 9' | 2' 10' | 3' 5' | 4' 7' | 6' 8'}")
    ) + antisymmetrize(
        Partition.parse("P(0,10){1' 7' | 2' 9' | 3' 5' | 4' 6' | 8' 10'}")
    )
    assert flagged.lhs - flagged.rhs == -corr
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.3f}s"
    ok("11 lemma fixtures: formal + tensor oracle at sizes 8, 9, 10; "
       "scalar (n-4)(n-6)(n-8); chain ends at (n-4) x five-ring")


# -- 12: Hamming operator algebra --------------------------------------------------------------

def _rdiag(ops):
    entries = {}
    for (a1, i1), (a2, i2) in itertools.product(ops.labels(), repeat=2):
        if i1 != i2 or (a1 + a2) % ops.m:
            continue
        for (b1, j1), (b2, j2) in itertools.product(ops.labels(), repeat=2):
            if j1 != j2 or j1 != i1 or (b1 + b2) % ops.m:
                continue
            entries[(ops.idx(b1, j1), ops.idx(b2, j2), ops.idx(a1, i1), ops.idx(a2, i2))] = 1
    return SparseTensor((ops.dim,) * 4, 2, entries)


def test_acceptance_12a_hamming_zero_products_and_square_residual():
    for m in (3, 4, 5):
        for n in (2, 3):
            ops = HammingOperators(m, n)
            d = ops.all_named()
            rdiag = _rdiag(ops)
            assert (d["AAbb"] @ d["aBaB"]).is_zero()
            assert (d["AAbb"] @ d["aBBa"]).is_zero()
            assert d["AAbb"] @ d["AAbb"] == (
                d["AAbb"].scale(Fraction((m - 1) * (n - 2)))
                + rdiag.scale(Fraction((m - 1) * (n - 1)))
            ), (m, n)
            s = d["AAbb"] + d["aBaB"] + d["aBBa"]
            sq = s @ s
            stated = d["AABB"].scale(2 * (m - 1)) + d["aBBa"].scale(2) + d["aBaB"].scale(2)
            residual = sq - stated
            # report the residual exactly: the square actually closes as
            # AAbb^2 = (m-1)(n-2) AAbb + (m-1)(n-1) Rdiag
            exact = (
                d["AAbb"].scale(Fraction((m - 1) * (n - 2)))
                + rdiag.scale(Fraction((m - 1) * (n - 1)))
                + d["aBBa"].scale(2)
                + d["aBaB"].scale(2)
            )
            assert sq == exact, (m, n)
            print(f"ACCEPTANCE 12a residual (m={m}, n={n}): "
                  f"{residual.nnz()} entries = (m-1)(n-2) AAbb + (m-1)(n-1) Rdiag "
                  f"- 2(m-1) AABB")
    ok("12a Hamming zero products; squared-sum residual reported exactly")


def _dense_hamming_split(ops):
    """Dense int64 matrices of AAbb, aBaB, aBBa and Rdiag, split from the
    label-sum form of the projected block instead of the operators' own
    predicates.  With the label (a, i) read as a e_i in Z_m^n, N times
    hat T(b_{2,2}) on the degree-one labels is [a1 e_i1 + a2 e_i2 = b1 e_j1 +
    b2 e_j2] (the block closed form); each operator is its part on one
    pattern of the positions (i1, i2, j1, j2), and Rdiag is the all-equal
    part with vanishing pair sums.  Rows are output pairs, columns input
    pairs, each pair flattened as x1 * dim + x2 in label order."""
    m, n = ops.m, ops.n
    pairs = list(itertools.product(ops.labels(), repeat=2))
    sums = np.array([
        sum(((a1 * (k == i1) + a2 * (k == i2)) % m) * m**k for k in range(n))
        for (a1, i1), (a2, i2) in pairs
    ])
    block = sums[:, None] == sums[None, :]
    p1 = np.array([i1 for (_, i1), _ in pairs])
    p2 = np.array([i2 for _, (_, i2) in pairs])
    j1, j2, i1, i2 = p1[:, None], p2[:, None], p1[None, :], p2[None, :]
    patterns = {
        "AAbb": (i1 == i2) & (j1 == j2) & (i1 != j1),
        "aBaB": (i1 == j2) & (i2 == j1) & (i1 != i2),
        "aBBa": (i1 == j1) & (i2 == j2) & (i1 != i2),
        "connecter": (i1 == i2) & (j1 == j2) & (i1 == j1),
    }
    covered = np.logical_or.reduce(list(patterns.values()))
    assert not (block & ~covered).any()
    mats = {name: (block & mask).astype(np.int64) for name, mask in patterns.items()}
    mats["Rdiag"] = mats.pop("connecter") * (sums == 0)[:, None]
    return mats


def _as_dense(t, dim):
    mat = np.zeros((dim**2,) * 2, dtype=np.int64)
    for (b1, b2, a1, a2), v in t.rational_entries().items():
        assert v.denominator == 1
        mat[b1 * dim + b2, a1 * dim + a2] = v.numerator
    return mat


def test_acceptance_12b_hamming_cube_identity():
    # The stated shortcut S^3 - 4S = 4m(m-2) AAbb, S = AAbb + aBaB + aBBa,
    # depends on how AAbb reads its positions.  The program's strict AAbb
    # (i1 = i2 != j1 = j2) gives ((m-1)^2((n-2)^2+n-1) - 4) AAbb +
    # (m-1)^2(n-2)(n-1) Rdiag.  The relaxed A' = AAbb + Rdiag (i1 = i2,
    # j1 = j2, the pattern where both pair sums vanish) gives
    # (n^2(m-1)^2 - 4) A', which is 4m(m-2) A' exactly when n = 2.  So the
    # shortcut is refuted at n = 3 under either reading; at n = 2 only the
    # strict reading refutes it.  Both forms are checked through
    # SparseTensor composition and through dense matrices split from the
    # projected block.
    for m in (3, 4, 5):
        for n in (2, 3):
            ops = HammingOperators(m, n)
            d = ops.all_named()
            d["Rdiag"] = _rdiag(ops)
            dense = _dense_hamming_split(ops)
            for name, mat in dense.items():
                assert np.array_equal(_as_dense(d[name], ops.dim), mat), (name, m, n)
            zero_pairs = (dense["AAbb"] + dense["Rdiag"]).any(axis=1)
            assert np.array_equal(
                dense["AAbb"] + dense["Rdiag"], np.outer(zero_pairs, zero_pairs)
            )
            shortcut = 4 * m * (m - 2)
            alpha = (m - 1) ** 2 * ((n - 2) ** 2 + n - 1) - 4
            beta = (m - 1) ** 2 * (n - 2) * (n - 1)
            gamma = n**2 * (m - 1) ** 2 - 4

            a, a_rel = d["AAbb"], d["AAbb"] + d["Rdiag"]
            s = a + d["aBaB"] + d["aBBa"]
            s_rel = a_rel + d["aBaB"] + d["aBBa"]
            cube = (s @ s @ s) - s.scale(4)
            cube_rel = (s_rel @ s_rel @ s_rel) - s_rel.scale(4)
            assert cube == a.scale(alpha) + d["Rdiag"].scale(beta), (m, n)
            assert cube_rel == a_rel.scale(gamma), (m, n)
            assert cube != a.scale(shortcut), (m, n)
            assert (cube_rel == a_rel.scale(shortcut)) == (n == 2), (m, n)

            a_d = dense["AAbb"]
            a_rel_d = a_d + dense["Rdiag"]
            s_d = a_d + dense["aBaB"] + dense["aBBa"]
            s_rel_d = a_rel_d + dense["aBaB"] + dense["aBBa"]
            cube_d = s_d @ s_d @ s_d - 4 * s_d
            cube_rel_d = s_rel_d @ s_rel_d @ s_rel_d - 4 * s_rel_d
            assert np.array_equal(cube_d, alpha * a_d + beta * dense["Rdiag"]), (m, n)
            assert np.array_equal(cube_rel_d, gamma * a_rel_d), (m, n)
            assert not np.array_equal(cube_d, shortcut * a_d), (m, n)
            assert np.array_equal(cube_rel_d, shortcut * a_rel_d) == (n == 2), (m, n)

            if (m, n) == (3, 2):
                # the strict left side vanishes; the relaxed one is 12 A',
                # the shortcut's value
                assert cube.is_zero() and shortcut == gamma == 12
    ok("12b refutation confirmed at n=3 under both readings of AAbb: "
       "S^3 - 4S = ((m-1)^2((n-2)^2+n-1) - 4) AAbb + (m-1)^2(n-2)(n-1) Rdiag "
       "(strict) and (n^2(m-1)^2 - 4)(AAbb + Rdiag) (relaxed), not 4m(m-2) "
       "AAbb; at n=2 the shortcut holds with AAbb + Rdiag and fails only "
       "for the strict AAbb")


# -- 13: wreath representations ------------------------------------------------------------------

def test_acceptance_13_wreath_product_action():
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        v = verdicts(suite_wreath(n, m, seed=5))
        assert v == {"product-action": "pass", "commutes": "pass"}, (n, m, v)
    ok("13 wreath matrices realize the product action and commute with it")


# -- 14: eigenspace invariance ---------------------------------------------------------------------

def test_acceptance_14_eigenspace_invariance():
    # each seed draws one translation and one coordinate permutation per graph
    graphs = ("hypercube:3", "hypercube:4", "halved:4", "folded:4",
              "hamming:2,3", "hamming:2,4")
    for seed in (11, 12, 13):
        v = verdicts(suite_eigenspace_invariance(seed))
        assert v == dict.fromkeys(graphs, "pass"), (seed, v)
    ok("14 conjugated automorphisms vanish between distinct-eigenvalue labels")


# -- 15: antisymmetrizers and permanents ---------------------------------------------------------------

def test_acceptance_15_antisymmetrizers_and_permanent():
    rep = suite_antisymmetrizers(6)
    assert verdicts(rep) == {"rank": "pass", "permanent": "pass"}, rep.results
    ok("15 rank certificates C(n,k) for both antisymmetrizers; permanents agree")

"""Verification suites: each re-derives a family's spectral or operator
identities with exact arithmetic and reports per-check verdicts.

Verdicts are ``pass``/``fail``/``finding``; a finding records an exact,
reproducible discrepancy between a stated identity and the computed truth
(the statement's own simplification being off), and never fails a run by
itself.  Two stated identities are genuinely false and are reported as
failures with their exact residuals: the permutation-indicator form of the
projected top block on the halved cube at odd n, and the cube-minus-four-sums
closed form of the degree-one Hamming operators.  See the README for the
derivations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .cayley import (
    CayleyGraph,
    SpectralDecomposition,
    conjugate_by_fourier,
    coordinate_perm,
    family_graph,
    fourier_matrix,
    parse_spec,
    perm_matrix,
    product_action_perm,
    translation_perm,
    wreath_rep,
)
from .errors import InvalidInputError
from .functors import (
    antisym_coisometry,
    antisymmetrizer,
    evaluate_partlin,
    functor_T,
    permanent_direct,
    permanent_via_wedge,
    random_partition,
)
from .groups import as_int, make_group
from .intertwiners import (
    EigenprojectionBasis,
    brute_hat_intertwiner,
    HammingOperators,
    hat_block_intertwiner,
    project,  # noqa: F401  (perfbench/test_bench.py asserts the tracer rebinds it here)
)
from .lemmas import lemma_suite
from .partitions import Partition, PartLin, antisymmetrize, compose
from .report import VerificationReport
from .sparse import SparseTensor

GROUPS_UP_TO_9 = (
    (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,),
    (8,), (4, 2), (2, 2, 2), (9,), (3, 3),
)


# -- hypercube ---------------------------------------------------------------------

def suite_hypercube(n: int) -> VerificationReport:
    rep = VerificationReport(f"hypercube:{n}")
    gr = family_graph("hypercube", n)
    g = gr.group
    d = _fourier_diagonal(rep, gr, "Fourier conjugation is exactly diagonal")
    ok = True
    counts = {}
    for i, mu in enumerate(g.elements()):
        counts[mu.degree] = counts.get(mu.degree, 0) + 1
        if d[(i, i)] != n - 2 * mu.degree:
            ok = False
    rep.add("diagonal-values", "entries are n - 2 deg with binomial multiplicities",
            "pass" if ok and counts == {k: comb(n, k) for k in range(n + 1)} else "fail")
    if n == 3:
        order = g.degree_major_elements()
        diag = [d[(g.index(mu), g.index(mu))].as_fraction() for mu in order]
        rep.add("degree-major-display", "diag(3,1,1,1,-1,-1,-1,-3)",
                "pass" if diag == [3, 1, 1, 1, -1, -1, -1, -3] else "fail", str(diag))
    _check_eigenbasis(rep, gr)
    return rep


def _fourier_diagonal(rep: VerificationReport, gr: CayleyGraph, subject: str) -> SparseTensor:
    """Conjugate the adjacency by F, check that the result is diagonal and
    return it."""
    d = conjugate_by_fourier(gr.group, gr.adjacency())
    off = [idx for idx in d.entries if idx[0] != idx[1]]
    rep.add("diagonal", subject, "pass" if not off else "fail",
            "" if not off else f"nonzero off-diagonal at {off[:3]}")
    return d


def _check_eigenbasis(rep: VerificationReport, gr: CayleyGraph, sample=32):
    g = gr.group
    a = gr.adjacency()
    spec = SpectralDecomposition(gr)
    eigenvalue = {mu: lam for lam, labels in spec.items for mu in labels}
    labels = list(g.elements())
    if g.order > 64:
        rng = random.Random(1729)
        labels = rng.sample(labels, sample)
        subject = f"A tau_mu = lambda_mu tau_mu on {sample} sampled labels"
    else:
        subject = "A tau_mu = lambda_mu tau_mu for every label"
    # A F_S = F_S Lambda: one column tau_mu per checked label
    f_s = fourier_matrix(g, [g.index(mu) for mu in labels])
    lam = SparseTensor((len(labels),) * 2, 1,
                       {(j, j): eigenvalue[mu] for j, mu in enumerate(labels)})
    ok = a @ f_s == f_s @ lam
    rep.add("eigenbasis", subject, "pass" if ok else "fail")


# -- halved cube --------------------------------------------------------------------

def halved_eigenvalue_formula(n: int, d: int) -> Fraction:
    return Fraction((2 * d - n - 1) ** 2 - n - 1, 2)


def suite_halved(n: int) -> VerificationReport:
    rep = VerificationReport(f"halved:{n}")
    spec = SpectralDecomposition(family_graph("halved", n))
    ok = all(
        lam == halved_eigenvalue_formula(n, mu.degree)
        for lam, labels in spec.items for mu in labels
    )
    rep.add("eigenvalue-formula", "lambda_d = ((2d-n-1)^2 - n - 1)/2",
            "pass" if ok else "fail")
    paired = all(
        halved_eigenvalue_formula(n, d) == halved_eigenvalue_formula(n, n + 1 - d)
        for d in range(1, n + 1)
    )
    rep.add("degeneracy", "lambda_d = lambda_{n+1-d}", "pass" if paired else "fail")
    if n in (4, 5):
        _halved_top_block_check(rep, n)
    return rep


def halved_top_block(n: int) -> tuple[SparseTensor, list[tuple[int, ...]], int]:
    """Project the one-block tensor b_{n+1} onto the joined degree-(1, n)
    eigenspace of the halved cube; return the projection, the label
    coordinates in basis order and the group order N."""
    gr = family_graph("halved", n)
    g = gr.group
    spec = SpectralDecomposition(gr)
    labs = next(ls for _, ls in spec.items if any(m.degree == 1 for m in ls))
    labels = sorted(labs, key=lambda m: (m.degree, g.index(m)))
    proj = hat_block_intertwiner(g, n + 1, 0, basis_in=EigenprojectionBasis(g, labels))
    return proj, [mu.coords for mu in labels], g.order


def _halved_top_block_check(rep: VerificationReport, n: int):
    """Projected top block vs the permutation indicator on the joined
    degree-(1, n) eigenspace.  True at even n; at odd n the index sums also
    vanish on non-permutation tuples, so the stated form cannot hold."""
    proj, _, order = halved_top_block(n)
    expected = SparseTensor(
        (n + 1,) * (n + 1),
        0,
        {perm: order for perm in itertools.permutations(range(n + 1))},
    )
    if proj == expected:
        rep.add("top-block", "projected block = N * permutation indicator", "pass")
    else:
        extra = len(set(proj.entries) - set(expected.entries))
        rep.add(
            "top-block",
            "projected block = N * permutation indicator",
            "fail",
            f"support has {extra} non-permutation tuples (index sums vanish "
            f"on doubled labels when n is odd)",
        )


# -- folded cube ---------------------------------------------------------------------

def folded_eigenvalue_formula(n: int, d: int) -> int:
    return n - 2 * d + (-1) ** d


def suite_folded(n: int) -> VerificationReport:
    rep = VerificationReport(f"folded:{n}")
    gr = family_graph("folded", n)
    spec = SpectralDecomposition(gr)
    ok = all(
        lam == folded_eigenvalue_formula(n, mu.degree)
        for lam, labels in spec.items for mu in labels
    )
    rep.add("eigenvalue-formula", "lambda_mu = n - 2 deg mu + (-1)^deg mu",
            "pass" if ok else "fail")
    paired = all(
        folded_eigenvalue_formula(n, 2 * d - 1) == folded_eigenvalue_formula(n, 2 * d)
        for d in range(1, n // 2 + 1)
    )
    rep.add("degeneracy", "lambda_{2d-1} = lambda_{2d}", "pass" if paired else "fail")
    pattern_ok = True
    for _, labs in spec.items:
        degs = sorted({mu.degree for mu in labs})
        if degs not in ([0], [n]) and not (
            len(degs) == 2 and degs[0] % 2 == 1 and degs[1] == degs[0] + 1
        ):
            pattern_ok = False
    rep.add("eigenspace-pattern", "labels join as degrees {2i-1, 2i}",
            "pass" if pattern_ok else "fail")
    _folded_closed_form_check(rep, n)
    if n in (4, 6):
        _folded_fork_check(rep, spec)
        _folded_pairing_tensor_check(rep, n + 1)
    return rep


def _folded_closed_form_check(rep: VerificationReport, n: int):
    """The simplified closed form n - 4*ceil(d/2) against the direct sum; a
    finding when they differ (it sits one below the sum at every degree)."""
    divergence = [
        d for d in range(n + 1)
        if folded_eigenvalue_formula(n, d) != n - 4 * ((d + 1) // 2)
    ]
    rep.add(
        "closed-form",
        "one-line form n - 4*ceil(d/2) vs the direct character sum",
        "finding" if divergence else "pass",
        f"direct sum gives n + 1 - 4*ceil(d/2); they differ by 1 at every "
        f"degree ({len(divergence)} of {n + 1})" if divergence else "",
    )


def _folded_v2_basis(spec: SpectralDecomposition):
    g = spec.graph.group
    n = g.rank
    idx = next(
        i for i, (_, labs) in enumerate(spec.items) if any(m.degree == 1 for m in labs)
    )
    labels = sorted(spec.items[idx][1], key=g.index)
    pairs = []
    for mu in labels:
        nz = [i + 1 for i, c in enumerate(mu.coords) if c]
        pairs.append(tuple(nz) if len(nz) == 2 else (nz[0], n + 1))
    return EigenprojectionBasis(g, labels), pairs


def _pairing_rows(pairs, r: int) -> np.ndarray:
    """(count, r) array, in lexicographic order, of the r-tuples of positions
    into ``pairs`` (pairs of ints in 0..62) that use every index an even
    number of times: the XOR of the pairs' parity masks is zero."""
    bits = np.left_shift(1, np.asarray(pairs, dtype=np.int64))
    masks = np.bitwise_xor.reduce(bits, axis=1)
    total = masks
    for _ in range(r - 1):
        total = np.bitwise_xor.outer(total, masks)
    return np.argwhere(total == 0)


def _folded_fork_check(rep: VerificationReport, spec: SpectralDecomposition):
    g = spec.graph.group
    basis, pairs = _folded_v2_basis(spec)
    proj = hat_block_intertwiner(g, 1, 2, basis, basis)
    scaled = proj.scale(Fraction(g.order))
    expected = SparseTensor._from_columns(scaled.shape, 2, _pairing_rows(pairs, 3).T)
    rep.add("fork-projection", "N * projected fork = pairing indicator",
            "pass" if scaled == expected else "fail")


def _folded_pairing_tensor_check(rep: VerificationReport, size: int):
    """The signed evaluation of the six-pairing combination is exactly the
    indicator of tuples of two-points that can be matched up (entries 1)."""
    combo = six_pairing_combination()
    t = evaluate_partlin(combo, size, deformed=True).scale(Fraction(16))
    two_points = np.array(list(itertools.permutations(range(size), 2)))
    rows = two_points[_pairing_rows(two_points, 4)].reshape(-1, 8)
    ok = t == SparseTensor._from_columns((size,) * 8, t.out_axes, rows.T)
    rep.add("pairing-tensor",
            f"2^4 x signed six-pairing combination = pairing indicator, size {size}",
            "pass" if ok else "fail")


def six_pairing_combination() -> PartLin:
    """The six ways to pair four two-points, antisymmetrized and signed so
    that the signed evaluation has constant entries.

    Each drawn pairing stands for the sum over its internal two-point flips
    with inversion-compensating signs.  Re-expressed through the normalized
    antisymmetrizer (weight 1/2 per two-point) the three rings keep weight
    +-1 while the three double bonds keep 1/4, because flipping both
    two-points of a bond stabilizes it (orbit 4, not 16).  The overall factor
    2^4 is tracked explicitly by the caller.
    """
    rings = [
        ("1 8 | 2 3 | 4 5 | 6 7", Fraction(1)),
        ("2 3 | 6 7 | 1 5 | 4 8", Fraction(-1)),
        ("4 5 | 3 7 | 2 6 | 1 8", Fraction(-1)),
    ]
    bonds = [
        ("2 3 | 6 7 | 1 4 | 5 8", Fraction(1, 4)),
        ("4 5 | 3 6 | 2 7 | 1 8", Fraction(1, 4)),
        ("2 5 | 1 6 | 4 7 | 3 8", Fraction(1, 4)),
    ]
    total = PartLin.zero(0, 8)
    for blocks, weight in rings + bonds:
        prim = [[f"{int(x)}'" for x in blk.split()] for blk in blocks.split("|")]
        p = Partition.from_blocks(0, 8, prim)
        total = total + antisymmetrize(p).scale(weight)
    return total


# -- Hamming / complete ------------------------------------------------------------------

def suite_complete(m: int) -> VerificationReport:
    rep = VerificationReport(f"complete:{m}")
    spec = SpectralDecomposition(family_graph("complete", m))
    vals = [(lam, len(labs)) for lam, labs in spec.items]
    ok = (
        len(vals) == 2
        and vals[0][0] == m - 1
        and vals[0][1] == 1
        and vals[1][0] == -1
        and vals[1][1] == m - 1
    )
    rep.add("spectrum", "{m-1 x1, -1 x(m-1)}", "pass" if ok else "fail",
            spec.summary())
    return rep


def suite_hamming(n: int, m: int) -> VerificationReport:
    rep = VerificationReport(f"hamming:{n},{m}")
    spec = SpectralDecomposition(family_graph("hamming", n, m))
    ok = all(lam == m * mu.zeros - n for lam, labels in spec.items for mu in labels)
    rep.add("eigenvalue-formula", "lambda_mu = m l_mu - n", "pass" if ok else "fail")
    rep.add("distinct-count", "n+1 distinct eigenvalues",
            "pass" if len(spec.items) == n + 1 else "fail",
            f"got {len(spec.items)}")
    _hamming_operator_checks(rep, spec, n, m)
    return rep


def _hamming_operator_checks(rep: VerificationReport, spec: SpectralDecomposition,
                             n: int, m: int):
    ops = HammingOperators(m, n)
    named = ops.all_named()
    aabb, abab, abba, aabb_cap = (
        named["AAbb"], named["aBaB"], named["aBBa"], named["AABB"],
    )
    zero_ok = (aabb @ abab).is_zero() and (aabb @ abba).is_zero()
    rep.add("zero-products", "AAbb.aBaB = 0 = AAbb.aBBa",
            "pass" if zero_ok else "fail")

    # the operators' labels follow the V1 basis rows, so the projected block
    # compares with the split directly
    g = spec.graph.group
    v1 = EigenprojectionBasis.from_spectrum(spec, [1])
    proj = hat_block_intertwiner(g, 2, 2, v1, v1).scale(g.order)
    split = named["connecter"] + aabb + abab + abba
    rep.add("connecter-split", "N hatT restricted = connecter + AAbb + aBaB + aBBa",
            "pass" if proj == split else "fail")

    s = aabb + abab + abba
    sq = s @ s
    sq_stated = aabb_cap.scale(2 * (m - 1)) + abba.scale(2) + abab.scale(2)
    residual = sq - sq_stated
    if residual.is_zero():
        rep.add("square-display", "sum squared as stated", "pass")
    else:
        rep.add(
            "square-display",
            "sum squared vs the stated shortcut",
            "finding",
            f"exact residual has {residual.nnz()} entries: AAbb^2 = "
            f"(m-1)(n-2) AAbb + (m-1)(n-1) Rdiag, not 2(m-1) AABB",
        )
    cube = (sq @ s) - s.scale(4)
    stated = aabb.scale(Fraction(4 * m * (m - 2)))
    if cube == stated:
        rep.add("cube-display", "cube minus four sums = 4m(m-2) AAbb", "pass")
    else:
        resid = cube - stated
        rep.add(
            "cube-display",
            "cube minus four sums = 4m(m-2) AAbb",
            "fail",
            f"exact: ((m-1)^2((n-2)^2+n-1) - 4) AAbb + (m-1)^2(n-2)(n-1) Rdiag; "
            f"residual has {resid.nnz()} entries",
        )


# -- cross-cutting suites -----------------------------------------------------------------

def suite_eqthat(max_order: int = 9, max_points: int = 4) -> VerificationReport:
    rep = VerificationReport("block-intertwiner-oracle")
    bad = []
    for orders in GROUPS_UP_TO_9:
        g = make_group(orders)
        if g.order > max_order:
            continue
        for k in range(0, max_points + 1):
            for l in range(0, max_points + 1 - k):
                if k + l < 1 or k + l > max_points:
                    continue
                closed = hat_block_intertwiner(g, k, l)
                brute = brute_hat_intertwiner(
                    g, functor_T(Partition.block(k, l), g.order)
                )
                if closed != brute:
                    bad.append((orders, k, l))
    rep.add(
        "closed-form",
        f"N^(1-l) delta closed form vs leg-wise conjugation, all groups of "
        f"order <= {max_order}, k+l <= {max_points}",
        "pass" if not bad else "fail",
        "" if not bad else f"mismatch at {bad[:3]}",
    )
    return rep


def suite_functoriality(samples: int = 200, seed: int = 20240817) -> VerificationReport:
    rep = VerificationReport("functoriality")
    rng = random.Random(seed)
    checked = 0
    bad = None
    while checked < samples:
        k, l, m = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
        if k + l + m > 8 or k + l == 0 or l + m == 0:
            continue
        n_val = rng.randint(4, 7)
        p = random_partition(rng, k, l)
        q = random_partition(rng, l, m)
        if n_val ** p.n_blocks > 2 * 10**5 or n_val ** q.n_blocks > 2 * 10**5:
            continue
        lhs = functor_T(q, n_val) @ functor_T(p, n_val)
        if lhs != evaluate_partlin(compose(q, p), n_val):
            bad = (p, q, n_val)
            break
        checked += 1
    rep.add(
        "compose",
        f"T_q T_p = N^loops T_(q after p) on {samples} random pairs, N in 4..7",
        "pass" if bad is None else "fail",
        "" if bad is None else f"failed at {bad}",
    )
    return rep


def suite_wreath(n: int, m: int, samples: int = 20, seed: int = 7) -> VerificationReport:
    rep = VerificationReport(f"wreath:{n},{m}")
    rng = random.Random(seed)
    adj = family_graph("hamming", n, m).adjacency()
    ok_perm = ok_comm = True
    for _ in range(samples):
        v_perms = [list(rng.sample(range(m), m)) for _ in range(n)]
        w = list(rng.sample(range(n), n))
        u = wreath_rep([perm_matrix(vp) for vp in v_perms], w)
        expected = perm_matrix(product_action_perm(v_perms, w, m))
        if u != expected:
            ok_perm = False
        if u @ adj != adj @ u:
            ok_comm = False
    rep.add("product-action", "wreath matrix equals the product-action permutation",
            "pass" if ok_perm else "fail")
    rep.add("commutes", "wreath matrix commutes with the product adjacency",
            "pass" if ok_comm else "fail")
    return rep


def suite_eigenspace_invariance(seed: int = 11) -> VerificationReport:
    rep = VerificationReport("eigenspace-invariance")
    rng = random.Random(seed)
    for family in ("hypercube:3", "hypercube:4", "halved:4", "folded:4", "hamming:2,3",
                   "hamming:2,4"):
        gr = family_graph(family)
        g = gr.group
        spec = SpectralDecomposition(gr)
        group_of = {}
        for i, (_, labs) in enumerate(spec.items):
            for mu in labs:
                group_of[g.index(mu)] = i
        perms = [translation_perm(g, rng.choice(list(g.elements())))]
        pi = list(range(g.rank))
        rng.shuffle(pi)
        perms.append(coordinate_perm(g, pi))
        ok = True
        for perm in perms:
            if not (perm_matrix(perm) @ gr.adjacency() == gr.adjacency() @ perm_matrix(perm)):
                ok = False
                break
            hat_u = conjugate_by_fourier(g, perm_matrix(perm))
            if any(group_of[r] != group_of[c] for r, c in hat_u.entries):
                ok = False
                break
        rep.add(family, "conjugated automorphisms vanish between distinct eigenvalues",
                "pass" if ok else "fail")
    return rep


def suite_antisymmetrizers(n_max: int = 6, seed: int = 99) -> VerificationReport:
    rep = VerificationReport("antisymmetrizers")
    failed = ""
    for n, k, deformed in ((n, k, deformed) for n in range(1, n_max + 1)
                           for k in range(n + 1) for deformed in (False, True)):
        a = antisymmetrizer(k, n, deformed)
        w = antisym_coisometry(k, n, deformed)
        kf = factorial(k)
        if (w.adjoint() @ w).scale(Fraction(kf)) != a:
            failed = "factorization"
        elif w @ w.adjoint() != SparseTensor.identity((comb(n, k),)).scale(Fraction(1, kf)):
            failed = "coisometry"
        elif a.trace() != comb(n, k):
            failed = "trace"
        if failed:
            break
    rep.add("rank", f"rank A_k = rank A'_k = C(n,k) for n <= {n_max} (certified "
            f"by A = k! W*W, W W* = I/k!)", "fail" if failed else "pass",
            f"{failed} fails at n={n}, k={k}" if failed else "")
    rng = random.Random(seed)
    perm_ok = True
    for _ in range(20):
        size = rng.choice([3, 4])
        mx = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        if permanent_via_wedge(mx) != permanent_direct(mx):
            perm_ok = False
            break
    rep.add("permanent", "wedge permanent matches the direct sum on 20 random "
            "3x3/4x4 integer matrices", "pass" if perm_ok else "fail")
    return rep


def suite_fourier_check(name: str, *params) -> VerificationReport:
    """Assert the Fourier conjugation of a family adjacency is diagonal and
    matches the character-sum spectrum.  ``name`` is a family name or a
    whole family string such as 'hamming:2,3'."""
    name, parsed = parse_spec(name)
    rep = VerificationReport(f"fourier-check:{name}")
    gr = family_graph(name, *parsed, *params)
    g = gr.group
    d = _fourier_diagonal(rep, gr, "conjugated adjacency is diagonal")
    ok = all(
        d[(g.index(mu), g.index(mu))] == lam
        for lam, labels in SpectralDecomposition(gr).items for mu in labels
    )
    rep.add("matches-spectrum", "diagonal equals the character sums",
            "pass" if ok else "fail")
    if name == "folded":
        _folded_closed_form_check(rep, g.rank)
    return rep


# -- suite selection ---------------------------------------------------------------------

# ``qsym verify all`` runs these suites in this order
_ALL = ("hypercube:3", "hypercube:6", "halved:4", "halved:5", "folded:4", "hamming:2,3",
        "complete:4", "eqthat", "functoriality", "wreath:2,3", "eigenspace", "antisym",
        "lemmas")


def _suite_all() -> VerificationReport:
    total = VerificationReport("all")
    for spec in _ALL:
        total.extend(run_suite(spec))
    return total


# suite name -> (suite function name, number of parameters it takes); the
# function is looked up when the suite runs, so wrappers installed on this
# module's functions apply
_SUITES = {
    "all": ("_suite_all", 0),
    "lemmas": ("lemma_suite", 0),
    "hypercube": ("suite_hypercube", 1),
    "halved": ("suite_halved", 1),
    "folded": ("suite_folded", 1),
    "hamming": ("suite_hamming", 2),
    "complete": ("suite_complete", 1),
    "wreath": ("suite_wreath", 2),
    "eqthat": ("suite_eqthat", 0),
    "functoriality": ("suite_functoriality", 0),
    "eigenspace": ("suite_eigenspace_invariance", 0),
    "antisym": ("suite_antisymmetrizers", 0),
}


def run_suite(spec_str: str) -> VerificationReport:
    """Resolve a suite name like 'all', 'lemmas', 'hypercube:3', or
    'hamming:2,3' to its report."""
    name, params = parse_spec(spec_str)
    if name not in _SUITES:
        raise InvalidInputError(f"unknown suite {spec_str!r}")
    suite, arity = _SUITES[name]
    if len(params) != arity:
        raise InvalidInputError(
            f"suite {name!r} needs {arity} parameter(s), got {len(params)}"
        )
    return globals()[suite](*(as_int(p, f"parameter of {spec_str!r}") for p in params))

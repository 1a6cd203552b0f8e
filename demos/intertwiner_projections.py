#!/usr/bin/env python3
"""Fourier-transformed intertwiners and eigenspace projections.

The one-block tensor [T]^j_i = [all indices equal] conjugates under the group
Fourier transform into N^(1-l) [sum of inputs = sum of outputs], a statement
this demo checks against a brute-force leg-by-leg conjugation before putting
it to work.
"""

from fractions import Fraction

from qsym import (
    EigenprojectionBasis,
    Partition,
    SpectralDecomposition,
    brute_hat_intertwiner,
    family_graph,
    functor_T,
    HammingOperators,
    hat_block_intertwiner,
    make_group,
    project,
)

# ---------------------------------------------------------------------------
print("=== closed form vs brute conjugation ===")
g = make_group([3, 3])
for k, l in [(2, 1), (1, 2), (2, 2)]:
    closed = hat_block_intertwiner(g, k, l)
    brute = brute_hat_intertwiner(g, functor_T(Partition.block(k, l), g.order))
    print(f"  block ({k},{l}) on Z_3^2: closed == brute: {closed == brute}, "
          f"scale N^(1-l) = {Fraction(g.order) ** (1 - l)}")
print()

# ---------------------------------------------------------------------------
print("=== the cube's degree-one eigenspace ===")
# Projecting the four-point block onto the degree-one labels of the cube
# yields (up to the explicit factor 2^n) the indicator that the four indices
# pair up - a combination of three pairings minus twice the full block.
n = 4
cube = family_graph("hypercube", n)
spec = SpectralDecomposition(cube)
v1 = EigenprojectionBasis.from_spectrum(spec, [1])
proj = project(functor_T(Partition.block(2, 2), cube.group.order), v1, v1)
scaled = proj.scale(Fraction(2**n))
print(f"2^{n} x projected block on Q_{n}: {scaled.nnz()} entries, "
      f"values {sorted({str(v) for v in scaled.entries.values()})}")
print()

# ---------------------------------------------------------------------------
print("=== the halved cube's top block: even n vs odd n ===")
for n in (4, 5):
    gr = family_graph("halved", n)
    gh = gr.group
    sp = SpectralDecomposition(gr)
    labs = next(ls for _, ls in sp.items if any(mu.degree == 1 for mu in ls))
    basis = EigenprojectionBasis(
        gh, sorted(labs, key=lambda mu: (mu.degree, gh.index(mu)))
    )
    proj = project(functor_T(Partition.block(n + 1, 0), gh.order), None, basis)
    from itertools import permutations

    perm_count = sum(1 for idx in proj.entries if tuple(sorted(idx)) == tuple(range(n + 1)))
    print(f"  n={n}: support {proj.nnz()}, permutation tuples {perm_count}")
print("At even n the support is exactly the permutations (an exact")
print("antisymmetrizer); at odd n doubled labels also have vanishing sums,")
print("so the permutation-indicator reading fails there.")
print()

# ---------------------------------------------------------------------------
print("=== Hamming degree-one operators ===")
ops = HammingOperators(3, 2)
named = ops.all_named()
s = named["AAbb"] + named["aBaB"] + named["aBBa"]
print("AAbb . aBaB == 0:", (named["AAbb"] @ named["aBaB"]).is_zero())
cube_combo = (s @ s @ s) - s.scale(4)
print("cube minus four sums nnz:", cube_combo.nnz(),
      "(zero at m=3, n=2; the quoted shortcut 4m(m-2) AAbb would have",
      named["AAbb"].scale(Fraction(12)).nnz(), "entries)")

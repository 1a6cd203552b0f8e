#!/usr/bin/env python3
"""A tour of exact Cayley-graph spectra.

Every eigenvalue below is computed as a character sum in a cyclotomic field
and grouped by exact equality; floating point never decides anything.
"""

from qsym import (
    SpectralDecomposition,
    conjugate_by_fourier,
    eigenvalue,
    family_graph,
    fourier_matrix,
    make_group,
)

# ---------------------------------------------------------------------------
# The cube graph: vertices are bit-strings, edges flip one bit.
print("=== cube graph on Z_2^3 ===")
cube = family_graph("hypercube", 3)
spec = SpectralDecomposition(cube)
print("spectrum:", spec.summary())

# Characters diagonalize the adjacency matrix.  Conjugating by the Fourier
# matrix (columns = characters) gives an exactly diagonal matrix whose entries
# are n - 2*deg(mu), here shown in degree-major order:
g = cube.group
diag = conjugate_by_fourier(g, cube.adjacency())
order = g.degree_major_elements()
print("diagonal:", [str(diag[(g.index(mu), g.index(mu))]) for mu in order])

# The Fourier matrix itself satisfies F F* = N I exactly:
from qsym import SparseTensor

f = fourier_matrix(g)
n_eye = SparseTensor.identity((g.order,)).scale(g.order)
print("F F* == N I:", f @ f.adjoint() == n_eye)
print()

# ---------------------------------------------------------------------------
# Halved cube: nearest plus next-nearest neighbours on Z_2^n.  Eigenvalues
# depend only on the degree d of the label and pair up as d <-> n+1-d.
print("=== halved cube on Z_2^4 ===")
halved = family_graph("halved", 4)
print("spectrum:", SpectralDecomposition(halved).summary())
gh = halved.group
for d in range(5):
    mu = gh.element([1] * d + [0] * (4 - d))
    print(f"  degree {d}: lambda = {eigenvalue(gh, halved.gens, mu)}")
print()

# ---------------------------------------------------------------------------
# Folded cube: the cube plus all long diagonals.  Consecutive odd/even
# degrees share an eigenvalue, so eigenspaces merge in pairs.
print("=== folded cube on Z_2^4 ===")
folded = family_graph("folded", 4)
for lam, labels in SpectralDecomposition(folded).items:
    degs = sorted({mu.degree for mu in labels})
    print(f"  lambda = {lam.str():>4}   label degrees {degs}")
print()

# ---------------------------------------------------------------------------
# Hamming graphs H(n, m) = n-fold Cartesian power of the complete graph K_m.
# Eigenvalues are m * (number of zero coordinates) - n.
print("=== Hamming graph H(2,3) on Z_3^2 ===")
hamming = family_graph("hamming", 2, 3)
print("spectrum:", SpectralDecomposition(hamming).summary())

# Here the characters take values in Q(zeta_3); the eigenvalues are still
# rational integers because generating sets are closed under negation.
z9 = make_group([3, 3])
val = z9.char_value(z9.element([1, 2]), z9.element([2, 1]))
print("a character value in Q(zeta_3):", val)

"""Fourier-transformed intertwiners, eigenspace projections, and the Hamming
two-point operator algebra.

For the one-block partition b_{k,l}, conjugating the blockwise delta by the
group Fourier transform gives the exact closed form

    [hat T_{b_{k,l}}]^{nu_1..nu_l}_{mu_1..mu_k} = N^(1-l) * [sum mu = sum nu]

(character orthogonality contributes one factor N, each inverse transform on
an output leg contributes 1/N).  Restricted to chosen eigenspace label sets,
the same closed form gives the projected block directly; ``project``
restricts any tensor leg by leg and is kept as its oracle.  Character
values come from :func:`qsym.cayley.fourier_matrix`.  Results are kept
unnormalized-but-exact, with scale factors stated explicitly where
identities are asserted.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import prod

import numpy as np

from .cayley import SpectralDecomposition, fourier_matrix, fourier_transform_legs
from .config import guard_sparse
from .errors import InvalidInputError
from .groups import AbelianGroup, GroupElement
from .sparse import SparseTensor


class EigenprojectionBasis:
    """An ordered list of character labels spanning selected eigenspaces.

    The coisometry U has rows conj(tau_mu(alpha)), one per label, so
    U U* = N I on the selected block; U* is the Fourier matrix restricted to
    the labels' columns, kept unnormalized so everything stays in the
    cyclotomic field.
    """

    def __init__(self, group: AbelianGroup, labels):
        self.group = group
        self.labels = tuple(
            mu if isinstance(mu, GroupElement) else group.element(mu) for mu in labels
        )
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("duplicate labels in eigenprojection basis")
        self.positions = np.array([group.index(mu) for mu in self.labels], dtype=np.int64)

    def __len__(self):
        return len(self.labels)

    @classmethod
    def from_spectrum(cls, spec: SpectralDecomposition, indices) -> "EigenprojectionBasis":
        """Select the eigenspaces with the given positions in the canonical
        eigenvalue order (0 = largest)."""
        labels = []
        for i in indices:
            if not 0 <= i < len(spec.items):
                raise InvalidInputError(
                    f"eigenspace index {i} out of range 0..{len(spec.items) - 1}"
                )
            labels.extend(spec.items[i][1])
        return cls(spec.graph.group, labels)

    def u_star_matrix(self) -> Mapping:
        """U* as {(alpha_index, row): tau_mu(alpha)}."""
        return fourier_matrix(self.group, self.positions).entries


def hat_block_intertwiner(group: AbelianGroup, k: int, l: int,
                          basis_out: EigenprojectionBasis | None = None,
                          basis_in: EigenprojectionBasis | None = None) -> SparseTensor:
    """Closed form of the Fourier transform of T_{b_{k,l}}, restricted to the
    labels of ``basis_out`` on the output legs and of ``basis_in`` on the input
    legs.  Axes follow the bases' row order; ``None`` stands for all N
    characters in the group's fixed enumeration.  This is the route for
    eigenspace restrictions; :func:`project` is its leg-wise oracle."""
    if k < 0 or l < 0 or k + l < 1:
        raise InvalidInputError(f"block intertwiner needs k+l >= 1, got ({k},{l})")
    g = group
    N = g.order
    bases = (basis_out,) * l + (basis_in,) * k
    for basis in bases:
        if basis is not None and basis.group != g:
            raise InvalidInputError(f"eigenprojection basis of {basis.group} is not on {g}")
    dims = tuple(N if b is None else len(b) for b in bases)
    free = k + l - 1
    count = prod(dims[:free])
    guard_sparse(count, f"hat block intertwiner k={k}, l={l}, N={N}")
    # the value N^(1-l) as numerator / denominator
    value, den = (1, N ** (l - 1)) if l >= 1 else (N, 1)
    positions = [np.arange(N) if b is None else b.positions for b in bases]
    # All legs but the last run over their label rows.  With d the digit sum
    # of those outputs minus that of those inputs, sum mu = sum nu makes the
    # last leg d (an input) or -d (an output, when k = 0); a solution counts
    # when that leg lands on one of its own labels.
    rows = np.indices(dims[:free]).reshape(free, count)
    table = np.stack(g.digits(np.arange(N)), axis=1)  # (N, rank)
    d = np.zeros((count, g.rank), dtype=np.int64)
    for leg, (p, r) in enumerate(zip(positions, rows)):
        d += table[p[r]] if leg < l else -table[p[r]]
    row_of = np.full(N, -1, dtype=np.int64)
    row_of[positions[-1]] = np.arange(dims[-1])
    last = row_of[g.position(((d if k else -d) % g.orders).T)]
    hit = last >= 0
    cols = np.vstack([rows[:, hit], last[hit]])
    return SparseTensor._from_columns(dims, l, cols, value, den)


def brute_hat_intertwiner(group: AbelianGroup, t: SparseTensor) -> SparseTensor:
    """(F^-1)^(x l) . T . F^(x k) by explicit leg-wise contraction; the
    independent oracle for the closed form.  The contraction is
    :func:`qsym.cayley.fourier_transform_legs`, the exact power-basis twist
    kernel that conjugation by F also uses for rational matrices."""
    if not t.all_rational():
        raise InvalidInputError("brute hat intertwiner needs a rational tensor")
    return fourier_transform_legs(group, t)


def project(
    t: SparseTensor,
    basis_out: EigenprojectionBasis | None,
    basis_in: EigenprojectionBasis | None,
) -> SparseTensor:
    """Fourier-conjugate t and restrict legs to selected labels, one leg at a
    time; the oracle for the restricted :func:`hat_block_intertwiner`.

    Equals (1/N^l) U_out^(x l) . t . (U_in^*)^(x k), i.e. the exact restriction
    of (F^-1)^(x l) t F^(x k) to the chosen label sets; no other normalization
    is applied.
    """
    basis = basis_in if basis_in is not None else basis_out
    if basis is None:
        raise InvalidInputError("projection needs an input or an output basis")
    if basis_out is not None and basis_out.group != basis.group:
        raise InvalidInputError(
            f"eigenprojection basis of {basis_out.group} is not on {basis.group}"
        )
    g = basis.group
    N = g.order
    if any(d != N for d in t.shape):
        raise InvalidInputError("tensor legs must all have the group order as dimension")
    out = t
    if t.in_axes:
        if basis_in is None:
            raise InvalidInputError("input legs present but no input basis given")
        ustar = basis_in.u_star_matrix()  # (alpha, row) -> tau_mu(alpha)
        for leg in range(t.in_axes):
            out = out.transform_in_leg(leg, ustar, len(basis_in))
    if t.out_axes:
        if basis_out is None:
            raise InvalidInputError("output legs present but no output basis given")
        f_out = fourier_matrix(g, basis_out.positions)
        u_scaled = f_out.adjoint().scale(Fraction(1, N)).entries  # (row, beta) -> conj tau / N
        for leg in range(t.out_axes):
            out = out.transform_out_leg(leg, u_scaled, len(basis_out))
    return out


# -- Hamming two-point operators -------------------------------------------------------

class HammingOperators:
    """The named restrictions of Fourier-transformed intertwiners to the
    degree-one eigenspace of the Hamming graph H(n, m).

    Labels are pairs (a, i), a in 1..m-1, i in 0..n-1, standing for the
    character a * e_i and flattened to a single axis in the row order of
    ``EigenprojectionBasis.from_spectrum(spec, [1])``: by the enumeration
    position of a * e_i, so i descending, then a ascending.  Every operator
    is listed from its index pattern on label pairs: ``same`` pairs share a
    position, ``apart`` pairs do not.  All delta formulas are over Z_m (a sum
    condition written a+b = m means a + b = 0 mod m).
    """

    def __init__(self, m: int, n: int):
        if m < 2 or n < 1:
            raise InvalidInputError("Hamming operators need m >= 2, n >= 1")
        self.m, self.n = m, n
        self.dim = (m - 1) * n
        # the dim^2 label pairs, and the largest operator: the connecter has
        # sum_s c_s^2 entries per position, where c_0 = m - 1 label pairs sum
        # to 0 mod m and c_s = m - 2 to each s != 0; every other operator
        # has at most dim^2
        guard_sparse(self.dim**2 + n * (m - 1) * (m - 1 + (m - 2)**2),
                     f"Hamming operators m={m}, n={n}")
        self._labels = [(a, i) for i in reversed(range(n)) for a in range(1, m)]
        self._index = {lab: x for x, lab in enumerate(self._labels)}
        # the cyclic value and the position of every label, and the label
        # pairs (x, y) as columns: ``same`` pairs share a position
        self._a = np.arange(self.dim) % (m - 1) + 1
        self._pos = n - 1 - np.arange(self.dim) // (m - 1)
        pairs = np.indices((self.dim, self.dim)).reshape(2, -1)
        same = self._pos[pairs[0]] == self._pos[pairs[1]]
        self._same, self._apart = pairs[:, same], pairs[:, ~same]

    def idx(self, a: int, i: int) -> int:
        return self._index[(a, i)]

    def labels(self):
        return list(self._labels)

    def _sum(self, x, y):
        return (self._a[x] + self._a[y]) % self.m

    def _four_leg(self, cols) -> SparseTensor:
        return SparseTensor._from_columns((self.dim,) * 4, 2, cols)

    def merge(self) -> SparseTensor:
        """[R]^{b j}_{a1 i1, a2 i2} = [i1 = i2 = j][a1 + a2 = b mod m]."""
        x, y = self._same
        b = self._sum(x, y)
        # label (b, i) sits b - a places after label (a, i)
        cols = np.stack((x - self._a[x] + b, x, y))[:, b != 0]
        return SparseTensor._from_columns((self.dim,) * 3, 1, cols)

    def connecter(self) -> SparseTensor:
        """[i1 = i2 = j1 = j2][a1 + a2 = b1 + b2 mod m]: C C* for the
        indicator C of a same pair (x, y) and its group (position, sum)."""
        x, y = self._same
        group = self._pos[x] * self.m + self._sum(x, y)
        c = SparseTensor._from_columns((self.dim, self.dim, self.n * self.m), 2,
                                       np.stack((x, y, group)))
        return c @ c.adjoint()

    def _zero_sum_cols(self):
        """[a1 + a2 = 0 = b1 + b2 mod m][i1 = i2 != j1 = j2], as index columns."""
        x, y = self._same[:, self._sum(*self._same) == 0]
        p, q = np.indices((len(x), len(x))).reshape(2, -1)
        apart = self._pos[x[p]] != self._pos[x[q]]
        return np.stack((x[p], y[p], x[q], y[q]))[:, apart]

    def aabb(self) -> SparseTensor:
        return self._four_leg(self._zero_sum_cols())

    def abab(self) -> SparseTensor:
        """[a1 = b2, a2 = b1][i1 = j2 != i2 = j1]."""
        x, y = self._apart
        return self._four_leg(np.stack((y, x, x, y)))

    def abba(self) -> SparseTensor:
        """[a1 = b1, a2 = b2][i1 = j1 != i2 = j2]."""
        x, y = self._apart
        return self._four_leg(np.stack((x, y, x, y)))

    def aabb_capital(self) -> SparseTensor:
        """All four cyclic values equal with vanishing sums; the i,j pattern
        follows the two-block reading (i1 = i2 != j1 = j2)."""
        cols = self._zero_sum_cols()
        return self._four_leg(cols[:, (self._a[cols] == self._a[cols[0]]).all(axis=0)])

    def all_named(self) -> dict[str, SparseTensor]:
        return {
            "merge": self.merge(),
            "connecter": self.connecter(),
            "AAbb": self.aabb(),
            "aBaB": self.abab(),
            "aBBa": self.abba(),
            "AABB": self.aabb_capital(),
        }

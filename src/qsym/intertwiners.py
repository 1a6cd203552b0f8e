"""Fourier-transformed intertwiners, eigenspace projections, and the Hamming
two-point operator algebra.

For the one-block partition b_{k,l}, conjugating the blockwise delta by the
group Fourier transform gives the exact closed form

    [hat T_{b_{k,l}}]^{nu_1..nu_l}_{mu_1..mu_k} = N^(1-l) * [sum mu = sum nu]

(character orthogonality contributes one factor N, each inverse transform on
an output leg contributes 1/N).  Restricted to chosen eigenspace label sets,
the same closed form gives the projected block directly; ``project``
restricts any tensor leg by leg and is kept as its oracle.  Results are
kept unnormalized-but-exact, with scale factors stated explicitly where
identities are asserted.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from fractions import Fraction
from math import prod

import numpy as np

from .cayley import SpectralDecomposition, fourier_transform_legs
from .config import guard_sparse
from .cyclotomic import power_rows
from .errors import InvalidInputError
from .groups import AbelianGroup, GroupElement
from .sparse import SparseTensor


class EigenprojectionBasis:
    """An ordered list of character labels spanning selected eigenspaces.

    The coisometry U with rows conj(tau_mu(alpha)) satisfies U U* = N I on the
    selected block; it is kept unnormalized so everything stays in the
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
        self.scale = group.order  # U U* = scale * identity

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

    def u_tensor(self) -> SparseTensor:
        """U with U[row, alpha_index] = conj(tau_mu(alpha)), built from the
        character exponents: conj(tau_mu(alpha)) = zeta_M^(-e)."""
        g = self.group
        M = g.exponent
        zeta = power_rows(M, 1, M)
        exps = g.char_exponents(self.positions[:, None], np.arange(g.order)[None, :])
        num = dict(zip(
            itertools.product(range(len(self)), range(g.order)),
            (zeta[-e % M] for e in exps.ravel().tolist()),
        ))
        return SparseTensor._raw((len(self), g.order), 1, num, 1, M)

    def u_star_matrix(self) -> Mapping:
        """U* as {(alpha_index, row): tau_mu(alpha)}."""
        return self.u_tensor().adjoint().entries


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
    # All legs but the last run over their label rows.  With d the sum of
    # those outputs minus the sum of those inputs, sum mu = sum nu makes the
    # last leg d (an input) or -d (an output, when k = 0); a solution counts
    # when that leg lands on one of its own labels.
    rows = np.indices(dims[:free]).reshape(free, count)
    legs = [p[r] for p, r in zip(positions, rows)]
    zero = np.zeros(count, dtype=np.int64)
    s_out = functools.reduce(g.index_sum, legs[:l], zero)
    s_in = functools.reduce(g.index_sum, legs[l:], zero)
    diff = g.index_sum(s_out, g.index_neg(s_in))
    row_of = np.full(N, -1, dtype=np.int64)
    row_of[positions[-1]] = np.arange(dims[-1])
    last = row_of[diff if k else g.index_neg(diff)]
    hit = last >= 0
    keys = np.vstack([rows[:, hit], last[hit]]).T
    num = dict.fromkeys(map(tuple, keys.tolist()), value)
    return SparseTensor._raw(dims, l, num, den)


def brute_hat_intertwiner(group: AbelianGroup, t: SparseTensor) -> SparseTensor:
    """(F^-1)^(x l) . T . F^(x k) by explicit leg-wise contraction; the
    independent oracle for the closed form.  The contraction is
    :func:`qsym.cayley.fourier_transform_legs`, the exact group-algebra
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
    group = (basis_in or basis_out).group
    g = group
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
        # (row, beta) -> conj tau / N
        u_scaled = basis_out.u_tensor().scale(Fraction(1, N)).entries
        for leg in range(t.out_axes):
            out = out.transform_out_leg(leg, u_scaled, len(basis_out))
    return out


def check_intertwiner(t: SparseTensor, reps_out, reps_in) -> bool:
    """Exact test of t . (x reps_in) == (x reps_out) . t.

    ``reps_out``/``reps_in`` give one square matrix per corresponding leg.
    """
    reps_out = [_as_tensor(r) for r in reps_out]
    reps_in = [_as_tensor(r) for r in reps_in]
    if len(reps_in) != t.in_axes or len(reps_out) != t.out_axes:
        raise InvalidInputError("one representation matrix needed per leg")
    lhs = t
    for leg, r in enumerate(reps_in):
        if r.shape != (t.shape[t.out_axes + leg],) * 2:
            raise InvalidInputError("input representation has wrong dimension")
        lhs = lhs.transform_in_leg(leg, r.entries, r.shape[1])
    rhs = t
    for leg, r in enumerate(reps_out):
        if r.shape != (t.shape[leg],) * 2:
            raise InvalidInputError("output representation has wrong dimension")
        rhs = rhs.transform_out_leg(leg, r.entries, r.shape[0])
    return lhs == rhs


def _as_tensor(r) -> SparseTensor:
    return r if isinstance(r, SparseTensor) else SparseTensor.from_matrix(r)


# -- Hamming two-point operators -------------------------------------------------------

class HammingOperators:
    """The named restrictions of Fourier-transformed intertwiners to the
    degree-one eigenspace of the Hamming graph H(n, m).

    Labels are pairs (a, i), a in 1..m-1, i in 1..n, flattened to a single
    axis.  All delta formulas are over Z_m (a sum condition written a+b = m
    means a + b = 0 mod m).
    """

    def __init__(self, m: int, n: int):
        if m < 2 or n < 1:
            raise InvalidInputError("Hamming operators need m >= 2, n >= 1")
        self.m, self.n = m, n
        self.dim = (m - 1) * n
        guard_sparse(self.dim**4, f"Hamming operators m={m}, n={n}")
        self._labels = [(a, i) for a in range(1, m) for i in range(n)]
        self._index = {lab: x for x, lab in enumerate(self._labels)}

    def idx(self, a: int, i: int) -> int:
        return self._index[(a, i)]

    def labels(self):
        return list(self._labels)

    def _tensor2(self, pred) -> SparseTensor:
        d = self.dim
        entries = {}
        for (a1, i1), (a2, i2) in itertools.product(self._labels, repeat=2):
            for (b1, j1), (b2, j2) in itertools.product(self._labels, repeat=2):
                if pred(a1, i1, a2, i2, b1, j1, b2, j2):
                    entries[
                        (self.idx(b1, j1), self.idx(b2, j2), self.idx(a1, i1), self.idx(a2, i2))
                    ] = 1
        return SparseTensor._raw((d,) * 4, 2, entries)

    def merge(self) -> SparseTensor:
        """[R]^{b j}_{a1 i1, a2 i2} = [i1 = i2 = j][a1 + a2 = b mod m]."""
        d, m = self.dim, self.m
        entries = {}
        for (a1, i1), (a2, i2) in itertools.product(self._labels, repeat=2):
            if i1 != i2:
                continue
            b = (a1 + a2) % m
            if b:
                entries[(self.idx(b, i1), self.idx(a1, i1), self.idx(a2, i2))] = 1
        return SparseTensor._raw((d,) * 3, 1, entries)

    def connecter(self) -> SparseTensor:
        m = self.m
        return self._tensor2(
            lambda a1, i1, a2, i2, b1, j1, b2, j2: i1 == i2 == j1 == j2
            and (a1 + a2) % m == (b1 + b2) % m
        )

    def aabb(self) -> SparseTensor:
        m = self.m
        return self._tensor2(
            lambda a1, i1, a2, i2, b1, j1, b2, j2: (a1 + a2) % m == 0
            and (b1 + b2) % m == 0
            and i1 == i2 != j1 == j2
        )

    def abab(self) -> SparseTensor:
        return self._tensor2(
            lambda a1, i1, a2, i2, b1, j1, b2, j2: a1 == b2
            and a2 == b1
            and i1 == j2 != i2 == j1
        )

    def abba(self) -> SparseTensor:
        return self._tensor2(
            lambda a1, i1, a2, i2, b1, j1, b2, j2: a1 == b1
            and a2 == b2
            and i1 == j1 != i2 == j2
        )

    def aabb_capital(self) -> SparseTensor:
        """All four cyclic values equal with vanishing sums; the i,j pattern
        follows the two-block reading (i1 = i2 != j1 = j2)."""
        m = self.m
        return self._tensor2(
            lambda a1, i1, a2, i2, b1, j1, b2, j2: a1 == a2 == b1 == b2
            and (a1 + a2) % m == 0
            and (b1 + b2) % m == 0
            and i1 == i2 != j1 == j2
        )

    def all_named(self) -> dict[str, SparseTensor]:
        return {
            "merge": self.merge(),
            "connecter": self.connecter(),
            "AAbb": self.aabb(),
            "aBaB": self.abab(),
            "aBBa": self.abba(),
            "AABB": self.aabb_capital(),
        }

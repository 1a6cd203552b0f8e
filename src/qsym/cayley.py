"""Cayley graphs of finite abelian groups and their exact spectra.

The characters of the underlying group diagonalize the adjacency matrix of any
of its Cayley graphs: the character labelled mu is an eigenvector with exact
eigenvalue sum_{theta in S} tau_mu(-theta).  Spectra are therefore computed by
character sums and grouped by exact cyclotomic equality, never by floating
point.  The Fourier matrix F (columns = characters) satisfies F F* = N I.
``fourier_transform_legs`` is the one exact kernel for transforming every leg
of a rational tensor by F: it runs in the group algebra Z[x]/(x^M - 1) on
integer arrays, one cyclic factor at a time.  Conjugation by F uses it for
rational matrices, an integer +-1 fast path for groups of exponent <= 2, and
the generic product F* Mx F / N for irrational matrices.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .config import guard_dense, guard_n
from .cyclotomic import ZERO, Cyclotomic, power_rows
from .errors import InvalidInputError
from .groups import AbelianGroup, GroupElement, make_group
from .sparse import SparseTensor


@dataclass(frozen=True)
class GeneratingSet:
    """A set of nonzero group elements, with symmetry/generation diagnostics."""

    group: AbelianGroup
    elements: tuple[GroupElement, ...]
    symmetric: bool
    generates: bool

    def __len__(self):
        return len(self.elements)

    def to_json(self):
        return [e.to_json() for e in self.elements]


def make_generating_set(group: AbelianGroup, elems) -> GeneratingSet:
    seen = {}
    for e in elems:
        e = e if isinstance(e, GroupElement) else group.element(e)
        if not group.contains(e):
            raise InvalidInputError(f"generator {e} invalid for {group}")
        if e.is_zero():
            raise InvalidInputError("generating set may not contain 0 (loop-free graphs)")
        seen[e] = None
    if not seen:
        raise InvalidInputError("generating set may not be empty")
    elements = tuple(sorted(seen, key=group.index))
    symmetric = all(group.neg(e) in seen for e in elements)
    generates = len(group.subgroup_closure(elements)) == group.order
    return GeneratingSet(group, elements, symmetric, generates)


class CayleyGraph:
    """Cay(Gamma, S): vertex set Gamma, edge alpha -> alpha + theta."""

    def __init__(self, group: AbelianGroup, gens: GeneratingSet):
        if gens.group != group:
            raise InvalidInputError("generating set belongs to a different group")
        self.group = group
        self.gens = gens
        if not gens.symmetric:
            warnings.warn("generating set not closed under negation: directed graph")
        if not gens.generates:
            warnings.warn("set does not generate the group: graph is disconnected")

    @property
    def n_vertices(self) -> int:
        return self.group.order

    def adjacency(self) -> SparseTensor:
        """A with A[beta, alpha] = 1 iff beta - alpha in S."""
        g = self.group
        guard_dense(g.order * len(self.gens), "adjacency matrix")
        num = {}
        for alpha in g.elements():
            ia = g.index(alpha)
            for theta in self.gens.elements:
                num[(g.index(g.add(alpha, theta)), ia)] = 1
        return SparseTensor._raw((g.order, g.order), 1, num)

    def edge_count(self) -> int:
        if not self.gens.symmetric:
            raise InvalidInputError("edge count of a directed graph is ambiguous")
        return self.group.order * len(self.gens) // 2


def eigenvalue(group: AbelianGroup, gens: GeneratingSet, mu: GroupElement) -> Cyclotomic:
    """lambda_mu = sum_{theta in S} tau_mu(-theta), exact."""
    total = ZERO
    for theta in gens.elements:
        total = total + group.char_value(mu, group.neg(theta))
    return total


class SpectralDecomposition:
    """Distinct eigenvalues with their character labels, exactly grouped.

    Ordered by descending real part of the float image, ties broken
    lexicographically on the canonical coefficient vector at the group
    exponent level.
    """

    def __init__(self, graph: CayleyGraph):
        g = graph.group
        buckets: dict[Cyclotomic, list[GroupElement]] = {}
        for mu in g.elements():
            lam = eigenvalue(g, graph.gens, mu)
            buckets.setdefault(lam, []).append(mu)

        def sort_key(lam: Cyclotomic):
            return (-lam.to_complex().real, tuple(lam._coeffs_at(g.exponent)))

        self.graph = graph
        self.items: list[tuple[Cyclotomic, list[GroupElement]]] = [
            (lam, buckets[lam]) for lam in sorted(buckets, key=sort_key)
        ]

    @property
    def eigenvalues(self):
        return [lam for lam, _ in self.items]

    @property
    def multiplicities(self):
        return [len(labels) for _, labels in self.items]

    def all_real(self) -> bool:
        return all(lam.is_real() for lam in self.eigenvalues)

    def to_json(self):
        return {
            "group": self.graph.group.to_json(),
            "gens": self.graph.gens.to_json(),
            "symmetric": self.graph.gens.symmetric,
            "eigenvalues": [
                {
                    "value": lam.to_json(),
                    "multiplicity": len(labels),
                    "labels": [mu.to_json() for mu in labels],
                }
                for lam, labels in self.items
            ],
        }

    def summary(self) -> str:
        return ", ".join(
            f"{lam.str()} (x{len(labels)})" for lam, labels in self.items
        )


# -- Fourier transform ------------------------------------------------------------

def fourier_matrix(group: AbelianGroup) -> SparseTensor:
    """F with F[alpha, mu] = tau_mu(alpha); F F* = N I."""
    g = group
    guard_dense(g.order**2, "Fourier matrix")
    M = g.exponent
    zeta = power_rows(M, 1, M)
    pos = np.arange(g.order)
    exps = g.char_exponents(pos[None, :], pos[:, None]).ravel().tolist()
    num = dict(zip(itertools.product(range(g.order), repeat=2), (zeta[e] for e in exps)))
    return SparseTensor._raw((g.order, g.order), 1, num, 1, M)


def fourier_transform_legs(group: AbelianGroup, t: SparseTensor) -> SparseTensor:
    """(F^-1)^(x l) . t . F^(x k) for a rational t with l output and k input
    legs, each of dimension N: input legs go through F, output legs through
    F^-1 = F* / N.

    Every Fourier coefficient is a root of unity zeta_M^e, so the work runs on
    a dense integer array over the group algebra Z[x]/(x^M - 1), where
    multiplying by zeta_M^e shifts the last axis by e.  F is the tensor product
    of its cyclic factors' transforms, so each leg is split into one axis per
    factor and contracted one factor at a time, as a multidimensional DFT is,
    through an (m, m, M, M) shift kernel.  The result is reduced into Q(zeta_M)
    once, at the end.  The array holds int64 when a bound shows that no sum
    can overflow, and Python ints otherwise.
    """
    if not t.all_rational():
        raise InvalidInputError("Fourier transform of legs needs a rational tensor")
    g = group
    N, M, orders = g.order, g.exponent, g.orders
    if any(d != N for d in t.shape):
        raise InvalidInputError("tensor legs must all have the group order as dimension")
    legs = len(t.shape)
    guard_dense(N**legs * M, "group-algebra Fourier transform")
    rows = np.array(power_rows(M, 1, M), dtype=np.int64)  # (M,), or (M, phi(M))
    # Every coefficient of the transformed array is a signed sum of at most
    # N^legs numerators; reduction multiplies that by at most the largest
    # row norm of the reduction rows.
    max_num = max(map(abs, t.numerators.values()), default=0)
    row_norm = int(np.abs(rows.reshape(M, -1)).sum(axis=1).max())
    dtype = np.int64 if max_num * N**legs * row_norm < 2**62 else object

    arr = np.zeros((N,) * legs + (M,), dtype=dtype)
    for idx, v in t.numerators.items():
        arr[idx + (0,)] = v
    arr = arr.reshape(orders * legs + (M,))  # one axis per leg and cyclic factor
    kernels = {}
    for leg in range(legs):
        sign = -1 if leg < t.out_axes else 1
        for i, m in enumerate(orders):
            kernel = kernels.get((m, sign))
            if kernel is None:
                kernel = kernels[(m, sign)] = _shift_kernel(m, sign * (M // m), M, dtype)
            ax = leg * len(orders) + i
            arr = np.moveaxis(np.tensordot(arr, kernel, axes=([ax, -1], [0, 2])), -2, ax)

    reduced = arr.reshape(N**legs, M) @ rows.astype(dtype)
    nonzero = reduced != 0
    if nonzero.ndim == 2:
        nonzero = nonzero.any(axis=1)
    idx = map(tuple, np.argwhere(nonzero.reshape((N,) * legs)).tolist())
    values = reduced[nonzero].tolist()
    num = dict(zip(idx, values if reduced.ndim == 1 else map(tuple, values)))
    return SparseTensor._raw(t.shape, t.out_axes, num, t.den * N**t.out_axes, M)


def _shift_kernel(m: int, step: int, M: int, dtype) -> np.ndarray:
    """K[a, b, j, j'] = [j' = j + step*a*b mod M]: multiplication by
    zeta_M^(step*a*b) on Z[x]/(x^M - 1), for every pair of digits a, b < m."""
    a, b, j = np.ogrid[:m, :m, :M]
    kernel = np.zeros((m, m, M, M), dtype=dtype)
    kernel[a, b, j, (j + step * a * b) % M] = 1
    return kernel


def conjugate_by_fourier(group: AbelianGroup, mx: SparseTensor) -> SparseTensor:
    """(1/N) F* Mx F, exactly."""
    g = group
    N = g.order
    if mx.shape != (N, N) or mx.out_axes != 1:
        raise InvalidInputError(
            f"matrix shape {mx.shape} does not match group order {N}"
        )
    if mx.all_rational():
        if g.exponent <= 2:
            return _conjugate_hadamard_int(g, mx)
        return fourier_transform_legs(g, mx)
    guard_dense(N**3, "generic Fourier conjugation")
    F = fourier_matrix(g)
    return (F.adjoint() @ mx @ F).scale(Fraction(1, N))


def _conjugate_hadamard_int(group: AbelianGroup, mx: SparseTensor) -> SparseTensor:
    """Exponent-2 fast path: F is a +-1 integer matrix, so the conjugation is
    integer linear algebra; done in numpy int64 with an overflow bound check,
    then divided by N exactly."""
    N = group.order
    max_num = max((abs(v) for v in mx.numerators.values()), default=0)
    # |(F* M F)_{ij}| <= N^2 * max numerator; keep comfortably inside int64
    if max_num * N * N >= 2**62:
        guard_dense(N**3, "exact Fourier conjugation fallback")
        F = fourier_matrix(group)
        return (F.adjoint() @ mx @ F).scale(Fraction(1, N))
    elems = list(group.elements())
    F = np.empty((N, N), dtype=np.int64)
    for mu in elems:
        im = group.index(mu)
        for alpha in elems:
            F[group.index(alpha), im] = 1 if group.char_exponent(mu, alpha) == 0 else -1
    M = np.zeros((N, N), dtype=np.int64)
    for (i, j), v in mx.numerators.items():
        M[i, j] = v
    C = F.T @ M @ F  # F is symmetric and real here, F* = F^T = F
    num = {(int(i), int(j)): int(C[i, j]) for i, j in zip(*np.nonzero(C))}
    return SparseTensor._raw((N, N), 1, num, N * mx.den)


# -- graph families ------------------------------------------------------------------

def as_int(value, what: str) -> int:
    """``value`` as an int: an integer, or the decimal text of one.  Anything
    else (a float, a list, '1.5', 'x', '') is invalid input."""
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def parse_spec(spec: str) -> tuple[str, tuple]:
    """The lower-cased name and the parameters of a family or suite string
    such as 'hamming:2,3' or 'circulant:8,(1;3)'.  Parameters follow the
    first ':' and are separated by ',' or ':'; a '(s1;s2;...)' group is one
    list parameter."""
    name, _, rest = spec.partition(":")
    params = []
    for text in re.split("[,:]", rest):
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            shifts = [s for s in text[1:-1].split(";") if s.strip()]
            params.append([as_int(s, f"list entry of {spec!r}") for s in shifts])
        elif text:
            params.append(as_int(text, f"parameter of {spec!r}"))
    return name.strip().lower(), tuple(params)


def _cube(g, n):
    return [g.epsilon(i) for i in range(n)]


# family -> ({parameter: least value}, its cyclic orders, its generators); a
# least value of None marks a list of integer shifts.  folded needs n >= 2
# (at n = 1 the all-ones generator is epsilon_1), and circulant m >= 2 (Z_1
# has no nonzero shift).
FAMILIES = {
    "hypercube": ({"n": 1}, lambda n: [2] * n, _cube),
    "halved": ({"n": 1}, lambda n: [2] * n, lambda g, n: _cube(g, n) + [
        g.add(a, b) for a, b in itertools.combinations(_cube(g, n), 2)]),
    "folded": ({"n": 2}, lambda n: [2] * n,
               lambda g, n: _cube(g, n) + [g.element([1] * n)]),
    "hamming": ({"n": 1, "m": 2}, lambda n, m: [m] * n,
                lambda g, n, m: [g.epsilon(i, a) for i in range(n) for a in range(1, m)]),
    "complete": ({"m": 2}, lambda m: [m],
                 lambda g, m: [g.element([a]) for a in range(1, m)]),
    "circulant": ({"m": 2, "shifts": None}, lambda m, shifts: [m],
                  lambda g, m, shifts: [g.element([s]) for s in shifts]),
}


def family_graph(spec: str, *params) -> CayleyGraph:
    """The Cayley graph of a named family, from a string such as 'hamming:2,3'
    or from a name and its parameters, as in family_graph('hamming', 2, 3).
    The parameters are checked against the family's domain before any group
    is built."""
    name, parsed = parse_spec(spec)
    params = parsed + params
    if name not in FAMILIES:
        raise InvalidInputError(f"unknown family {name!r}")
    domain, orders, gens = FAMILIES[name]
    if len(params) != len(domain):
        raise InvalidInputError(
            f"family {name!r} needs {len(domain)} parameter(s): {', '.join(domain)}"
        )
    values = []
    for (param, least), value in zip(domain.items(), params):
        if least is None:
            if not isinstance(value, (list, tuple)):
                raise InvalidInputError(f"family {name!r} needs {param} as a list (s1;s2;...)")
            values.append([as_int(s, f"family {name!r} {param}") for s in value])
            continue
        value = as_int(value, f"family {name!r} {param}")
        if value < least:
            raise InvalidInputError(f"family {name!r} needs {param} >= {least}, got {value}")
        values.append(value)
    sizes = orders(*values)
    guard_n(prod(sizes), f"family {name}")
    g = make_group(sizes)
    return CayleyGraph(g, make_generating_set(g, gens(g, *values)))


# -- products, automorphisms, wreath representations ----------------------------------

def cartesian_adjacency(graphs) -> SparseTensor:
    """Adjacency of the Cartesian product: sum_i I x..x A_i x..x I.

    Vertex order is row-major over the factor vertex orders.
    """
    graphs = list(graphs)
    if not graphs:
        raise InvalidInputError("cartesian product of no graphs")
    sizes = [gr.n_vertices for gr in graphs]
    total = 1
    for s in sizes:
        total *= s
    guard_dense(total * sum(len(gr.gens) for gr in graphs), "cartesian adjacency")
    num = {}
    adjs = [gr.adjacency() for gr in graphs]  # 0/1 matrices, denominator 1
    for i, adj in enumerate(adjs):
        before = sizes[:i]
        after = sizes[i + 1:]
        for rest_b in itertools.product(*(range(s) for s in before)):
            for rest_a in itertools.product(*(range(s) for s in after)):
                for (r, c), v in adj.numerators.items():
                    row = _flatten(rest_b + (r,) + rest_a, sizes)
                    col = _flatten(rest_b + (c,) + rest_a, sizes)
                    key = (row, col)
                    num[key] = num.get(key, 0) + v
    return SparseTensor._raw((total, total), 1, num)


def _flatten(coords, sizes):
    idx = 0
    for c, s in zip(coords, sizes):
        idx = idx * s + c
    return idx


def perm_matrix(perm) -> SparseTensor:
    """Permutation matrix P with P[perm[i], i] = 1."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidInputError("permutation must be a bijection of 0..n-1")
    return SparseTensor._raw((n, n), 1, {(perm[i], i): 1 for i in range(n)})


def is_automorphism(graph: CayleyGraph, perm) -> bool:
    """True iff the vertex permutation commutes with the adjacency matrix."""
    a = graph.adjacency()
    p = perm_matrix(perm)
    return p @ a == a @ p


def translation_perm(group: AbelianGroup, beta: GroupElement):
    """The vertex permutation alpha -> alpha + beta."""
    return [
        group.index(group.add(alpha, beta)) for alpha in group.elements()
    ]


def coordinate_perm(group: AbelianGroup, pi):
    """Vertex permutation induced by permuting the cyclic factors (which must
    have equal orders along each orbit of pi)."""
    pi = list(pi)
    orders = group.orders
    if sorted(pi) != list(range(group.rank)):
        raise InvalidInputError("coordinate permutation must be a bijection")
    if any(orders[pi[i]] != orders[i] for i in range(group.rank)):
        raise InvalidInputError("coordinate permutation mixes unequal factors")
    out = []
    for alpha in group.elements():
        moved = group.element([alpha.coords[pi[i]] for i in range(group.rank)])
        out.append(group.index(moved))
    return out


def wreath_rep(v_list, w) -> SparseTensor:
    """The product-action matrix of (v_1, ..., v_n; w) on (C^m)^(x n).

    Entries are tilde-u[b, a] = sum_sigma prod_i u[b_{sigma(i)}, sigma(i); a_i, i]
    with u[b, j; a, i] = (v_i)[b, a] * delta_{j, w(i)}.  Only sigma = w
    survives the delta, so this is v_1 x .. x v_n with output slot i moved to
    slot w(i).  For permutation matrices v_i it is the permutation matrix of
    (x_1, .., x_n) -> slot w(i) receives v_i x_i.
    """
    v_list = [v if isinstance(v, SparseTensor) else SparseTensor.from_matrix(v) for v in v_list]
    n = len(v_list)
    if n == 0:
        raise InvalidInputError("wreath representation needs at least one factor")
    m = v_list[0].shape[0]
    for v in v_list:
        if v.shape != (m, m) or v.out_axes != 1:
            raise InvalidInputError("all factors must be square matrices of equal size")
    w = list(w)
    if sorted(w) != list(range(n)):
        raise InvalidInputError("w must be a permutation of 0..n-1")
    guard_dense(m ** (2 * n), "wreath representation matrix")
    t = functools.reduce(SparseTensor.tensor, v_list)
    dims = [m] * n
    num = {}
    for idx, v in t.numerators.items():
        b = [0] * n
        for i in range(n):
            b[w[i]] = idx[i]
        num[(_flatten(b, dims), _flatten(idx[n:], dims))] = v
    return SparseTensor._raw((m**n, m**n), 1, num, t.den, t.level)


def product_action_perm(v_perms, w, m: int):
    """Reference product action on tuples: slot w(i) receives v_i(x_i)."""
    n = len(v_perms)
    out = []
    for x in itertools.product(range(m), repeat=n):
        y = [0] * n
        for i in range(n):
            y[w[i]] = v_perms[i][x[i]]
        out.append(_flatten(tuple(y), [m] * n))
    return out

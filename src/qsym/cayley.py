"""Cayley graphs of finite abelian groups and their exact spectra.

The characters of the underlying group diagonalize the adjacency matrix of any
of its Cayley graphs: the character labelled mu is an eigenvector with exact
eigenvalue sum_{theta in S} tau_mu(-theta).  Spectra are therefore computed by
character sums on integer exponents, reduced exactly into Q(zeta_M) and
grouped by their unique coefficient vectors, never by floating point.  Graphs,
spectra and permutations do their group arithmetic on enumeration positions.
Every character value is the row of its exponent in the one table of roots
of unity, ``cyclotomic.power_rows(M, 1, M)``.
The Fourier matrix F (columns = characters) satisfies F F* = N I;
``fourier_matrix`` is the one builder of character-value tensors, for all
characters or for a chosen list of labels.  ``fourier_transform_legs`` is the
one exact kernel for transforming every leg of a rational tensor by F: it
runs on arrays of integer power-basis coordinates in Q(zeta_M), one cyclic
factor at a time, each factor one matrix product with a cached twist kernel
that multiplies by zeta_M^e.  A bound from the kernels' column sums caps
every value the products form, so below 2^53 they run in float64, exactly
and through BLAS, and otherwise in int64 or Python integers; its guards
count that array and those kernels.
Conjugation by F takes rational matrices only: an integer +-1 fast path for
groups of exponent <= 2, the kernel otherwise.  Both conjugation routes
scatter the tensor's index array into their dense array, and graphs, F, both
routes and the wreath matrices hand index arrays to
``SparseTensor._from_columns``; no route builds an index tuple per entry.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .config import guard_dense, int_dtype, max_abs
from .cyclotomic import Cyclotomic, euler_phi, power_rows
from .errors import InvalidInputError
from .groups import AbelianGroup, GroupElement, as_int, make_group
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

    @property
    def positions(self) -> np.ndarray:
        """The generators' positions in the group's enumeration, ascending."""
        return np.array([self.group.index(e) for e in self.elements], dtype=np.int64)

    def to_json(self):
        return [e.to_json() for e in self.elements]


def make_generating_set(group: AbelianGroup, elems) -> GeneratingSet:
    """The distinct elements of ``elems`` (group elements or coordinate
    tuples).  N * |S| bounds the closure's work and is the count the
    adjacency and the character sums guard; it is checked against the dense
    cap before the first element is located and as each element arrives, so
    a huge group or an oversized iterable is refused before a position is
    computed, the rest of the iterable read or any length-N array built."""
    guard_dense(group.order, "generating-set closure")
    seen = {}
    for e in elems:
        e = e if isinstance(e, GroupElement) else group.element(e)
        pos = group.index(e)  # rejects an element of another group
        if pos == 0:
            raise InvalidInputError("generating set may not contain 0 (loop-free graphs)")
        seen[pos] = e
        guard_dense(group.order * len(seen), "generating-set closure")
    if not seen:
        raise InvalidInputError("generating set may not be empty")
    positions = np.array(sorted(seen), dtype=np.int64)
    symmetric = bool(np.isin(group.index_neg(positions), positions).all())
    generates = _generated_order(group, positions) == group.order
    return GeneratingSet(group, tuple(seen[p] for p in positions.tolist()),
                         symmetric, generates)


def _generated_order(group: AbelianGroup, gens: np.ndarray) -> int:
    """Order of the subgroup H generated by the positions ``gens``, grown from
    {0} one generator theta at a time.  With t the least j > 0 such that
    j theta lies in H (j = M, the group exponent, always does), the cosets
    H + j theta for j < t are disjoint and make up the subgroup generated by
    H and theta, so each generator costs work linear in that subgroup."""
    in_h = np.zeros(group.order, dtype=bool)
    members = np.zeros(1, dtype=np.int64)  # H, as positions
    steps = np.arange(group.exponent + 1)
    for theta in gens.tolist():
        in_h[members] = True
        multiples = group.position(
            [steps * d % m for d, m in zip(group.digits(theta), group.orders)])
        inside = in_h[multiples]
        inside[0] = False
        t = int(np.argmax(inside))
        members = group.index_sum(members[None, :], multiples[:t, None]).ravel()
    return members.size


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

    def adjacency(self) -> SparseTensor:
        """A with A[beta, alpha] = 1 iff beta - alpha in S."""
        g = self.group
        guard_dense(g.order * len(self.gens), "adjacency matrix")
        alpha = np.arange(g.order)
        heads = g.index_sum(alpha[:, None], self.gens.positions[None, :])
        tails = np.broadcast_to(alpha[:, None], heads.shape)
        cols = np.stack([heads.ravel(), tails.ravel()])
        return SparseTensor._from_columns((g.order, g.order), 1, cols)


class SpectralDecomposition:
    """Distinct eigenvalues with their character labels, exactly grouped.

    Ordered by descending real part of the float image, ties broken
    lexicographically on the canonical coefficient vector at the group
    exponent level.
    """

    def __init__(self, graph: CayleyGraph):
        g = graph.group
        M = g.exponent
        neg_gens = g.index_neg(graph.gens.positions)
        guard_dense(g.order * len(neg_gens), "character sums")
        guard_dense(g.order * euler_phi(M), "eigenvalue rows")
        # lambda_mu = sum_theta zeta_M^e(mu, -theta), one generator at a time,
        # as integer coefficient rows in the power basis of Q(zeta_M); the
        # rows are unique, so equal rows are exactly equal eigenvalues
        exps = g.char_exponents(np.arange(g.order)[:, None], neg_gens[None, :])
        zeta = power_rows(M, 1, M)[0]
        rows = sum(zeta[e] for e in exps.T)
        distinct, which = np.unique(rows, axis=0, return_inverse=True)
        buckets: list[list[GroupElement]] = [[] for _ in distinct]
        for mu, i in zip(g.elements(), which.ravel().tolist()):
            buckets[i].append(mu)
        lams = [Cyclotomic(M, row) for row in distinct.tolist()]

        def sort_key(i):
            return (-lams[i].to_complex().real, tuple(lams[i]._coeffs_at(M)))

        self.graph = graph
        self.items: list[tuple[Cyclotomic, list[GroupElement]]] = [
            (lams[i], buckets[i]) for i in sorted(range(len(lams)), key=sort_key)
        ]

    @property
    def eigenvalues(self):
        return [lam for lam, _ in self.items]

    @property
    def multiplicities(self):
        return [len(labels) for _, labels in self.items]

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

def fourier_matrix(group: AbelianGroup, labels=None) -> SparseTensor:
    """F_S with F_S[alpha, j] = tau_mu(alpha) for mu at enumeration position
    labels[j]: the characters as columns, in the order given.  ``None`` takes
    all N characters in enumeration order, the full F with F F* = N I."""
    g = group
    N = g.order
    M = g.exponent
    cols = np.arange(N) if labels is None else np.asarray(labels, dtype=np.int64)
    guard_dense(N * len(cols) * euler_phi(M), "Fourier matrix")
    if ((cols < 0) | (cols >= N)).any():
        raise InvalidInputError(f"character positions must lie in 0..{N - 1}")
    zeta = power_rows(M, 1, M)[0]
    exps = g.char_exponents(cols[None, :], np.arange(N)[:, None]).ravel()
    keys = np.indices((N, len(cols))).reshape(2, -1)
    return SparseTensor._from_columns((N, len(cols)), 1, keys, zeta[exps], 1, M)


def fourier_transform_legs(group: AbelianGroup, t: SparseTensor) -> SparseTensor:
    """(F^-1)^(x l) . t . F^(x k) for a rational t with l output and k input
    legs, each of dimension N: input legs go through F, output legs through
    F^-1 = F* / N.

    Every Fourier coefficient is a root of unity zeta_M^e, so the work runs on
    a dense array of integer power-basis coordinates in Q(zeta_M), one more
    axis of length phi(M).  F is the tensor product of its cyclic factors'
    transforms, so each leg is split into one axis per factor and contracted
    one factor at a time, as a multidimensional DFT is: the array, held as
    (m, rest, phi), is copied to (rest, m*phi) and multiplied by the
    (m*phi, m*phi) twist kernel of that factor (multiplication by zeta_M^e)
    back into its own buffer, which leaves the contracted axis last before
    phi.  A bound taken from the kernels caps every product and partial
    sum; below 2^53 the product runs exactly in float64 (in any summation
    order), otherwise in ``int_dtype`` of the bound.
    """
    if not t.all_rational():
        raise InvalidInputError("Fourier transform of legs needs a rational tensor")
    g = group
    N, M, orders = g.order, g.exponent, g.orders
    if any(d != N for d in t.shape):
        raise InvalidInputError("tensor legs must all have the group order as dimension")
    legs = len(t.shape)
    phi = euler_phi(M)
    size = N**legs * phi
    guard_dense(size, "group-algebra Fourier transform")
    if legs:  # each cyclic factor's (m, phi, m, phi) twist kernel, before it is cached
        guard_dense(max(orders) ** 2 * phi**2, "Fourier twist kernel")
    kernels = [_twist_kernel(m, (-1 if leg < t.out_axes else 1) * (M // m), M)
               for leg in range(legs) for m in orders]
    # Each contraction multiplies the largest coefficient by at most the
    # kernel's largest absolute column sum; no partial sum exceeds that.
    bound = max_abs(t._num)
    for _, col_sum in kernels:
        bound *= col_sum
    exact = int_dtype(bound)
    dtype = np.float64 if bound < 2**53 else exact

    arr = np.zeros((N,) * legs + (phi,), dtype=dtype)
    arr[(*t._idx, np.zeros(t.nnz(), dtype=np.intp))] = t._num[:, 0]
    work = np.empty_like(arr)
    for m, (kernel, _) in zip(orders * legs, kernels):
        rest = size // (m * phi)
        work.reshape(rest, m, phi)[...] = arr.reshape(m, rest, phi).transpose(1, 0, 2)
        np.matmul(work.reshape(rest, m * phi),
                  kernel.reshape(m * phi, m * phi).astype(dtype, copy=False),
                  out=arr.reshape(rest, m * phi))
    del work

    flat = arr.reshape(N**legs, phi)
    nonzero = (flat != 0).any(axis=1)
    cols = np.argwhere(nonzero.reshape((N,) * legs)).T  # a 0-d argwhere is (1, 0)
    return SparseTensor._from_columns(t.shape, t.out_axes, cols,
                                      flat[nonzero].astype(exact, copy=False),
                                      t.den * N**t.out_axes, M)


# One timed pass of any benchmark workload uses at most 20 kernels; the
# bound keeps a process that walks many group sizes from keeping them all.
@functools.lru_cache(maxsize=32)
def _twist_kernel(m: int, step: int, M: int) -> tuple[np.ndarray, int]:
    """The matrix K of multiplication by zeta_M^(step*a*b) for digits a, b < m,
    acting on row vectors of power-basis coordinates in Q(zeta_M), and its
    largest absolute column sum max_{b,i'} sum_{a,i} |K[a, i, b, i']|.

    K[a, i, b, :] is the power-basis row of zeta_M^(i + step*a*b) for
    i < phi(M).  K is a read-only C-contiguous int64 array of shape
    (m, phi, m, phi), so it reads as an (m*phi, m*phi) matrix without a
    copy, and K.transpose(0, 2, 1, 3)[a, b] is the phi x phi matrix of
    multiplication by zeta_M^(step*a*b)."""
    rows = power_rows(M, 1, M)[0]
    a, i, b = np.ogrid[:m, :rows.shape[1], :m]
    kernel = rows[(i + step * a * b) % M]
    kernel.flags.writeable = False
    return kernel, int(np.abs(kernel).sum(axis=(0, 1)).max())


def conjugate_by_fourier(group: AbelianGroup, mx: SparseTensor) -> SparseTensor:
    """(1/N) F* Mx F, exactly, for a rational matrix Mx such as an adjacency
    or a permutation matrix; irrational input is rejected by the kernel."""
    g = group
    N = g.order
    if mx.shape != (N, N) or mx.out_axes != 1:
        raise InvalidInputError(
            f"matrix shape {mx.shape} does not match group order {N}"
        )
    if g.exponent <= 2 and mx.all_rational():
        return _conjugate_hadamard_int(g, mx)
    return fourier_transform_legs(g, mx)


def _conjugate_hadamard_int(group: AbelianGroup, mx: SparseTensor) -> SparseTensor:
    """Exponent-2 fast path: F is a +-1 integer matrix, so the conjugation is
    integer linear algebra; done in numpy int64 with an overflow bound check,
    then divided by N exactly.  Past the bound the twist kernel takes over."""
    N = group.order
    guard_dense(N * N, "exponent-2 Fourier conjugation")
    # |(F* M F)_{ij}| <= N^2 * max numerator; keep comfortably inside int64
    if max_abs(mx._num) * N * N >= 2**62:
        return fourier_transform_legs(group, mx)
    pos = np.arange(N)
    F = np.where(group.char_exponents(pos[None, :], pos[:, None]) == 0, 1, -1)
    M = np.zeros((N, N), dtype=np.int64)
    M[tuple(mx._idx)] = mx._num[:, 0]
    C = F.T @ M @ F  # F is symmetric and real here, F* = F^T = F
    nonzero = C != 0
    return SparseTensor._from_columns((N, N), 1, np.argwhere(nonzero).T, C[nonzero],
                                      N * mx.den)


# -- graph families ------------------------------------------------------------------

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
    return (g.epsilon(i) for i in range(n))


# family -> ({parameter: least value}, its cyclic orders, its generators); a
# least value of None marks a list of integer shifts.  folded needs n >= 2
# (at n = 1 the all-ones generator is epsilon_1), and circulant m >= 2 (Z_1
# has no nonzero shift).  The generators are yielded one at a time, so
# make_generating_set refuses an oversized set before it is built.
FAMILIES = {
    "hypercube": ({"n": 1}, lambda n: [2] * n, _cube),
    "halved": ({"n": 1}, lambda n: [2] * n, lambda g, n: itertools.chain(_cube(g, n), (
        g.element([int(i in pair) for i in range(n)])
        for pair in itertools.combinations(range(n), 2)))),
    "folded": ({"n": 2}, lambda n: [2] * n,
               lambda g, n: itertools.chain(_cube(g, n), [g.element([1] * n)])),
    "hamming": ({"n": 1, "m": 2}, lambda n, m: [m] * n,
                lambda g, n, m: (g.epsilon(i, a) for i in range(n) for a in range(1, m))),
    "complete": ({"m": 2}, lambda m: [m],
                 lambda g, m: (g.element([a]) for a in range(1, m))),
    "circulant": ({"m": 2, "shifts": None}, lambda m, shifts: [m],
                  lambda g, m, shifts: (g.element([s]) for s in shifts)),
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
    g = make_group(orders(*values))
    return CayleyGraph(g, make_generating_set(g, gens(g, *values)))


# -- automorphisms, wreath representations -------------------------------------------

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
    return SparseTensor._from_columns((n, n), 1, np.array([perm, range(n)]).reshape(2, n))


def translation_perm(group: AbelianGroup, beta: GroupElement):
    """The vertex permutation alpha -> alpha + beta."""
    return group.index_sum(np.arange(group.order), group.index(beta)).tolist()


def coordinate_perm(group: AbelianGroup, pi):
    """Vertex permutation induced by permuting the cyclic factors (which must
    have equal orders along each orbit of pi)."""
    pi = list(pi)
    orders = group.orders
    if sorted(pi) != list(range(group.rank)):
        raise InvalidInputError("coordinate permutation must be a bijection")
    if any(orders[pi[i]] != orders[i] for i in range(group.rank)):
        raise InvalidInputError("coordinate permutation mixes unequal factors")
    digits = group.digits(np.arange(group.order))
    return group.position([digits[p] for p in pi]).tolist()


def wreath_rep(v_list, w) -> SparseTensor:
    """The product-action matrix of (v_1, ..., v_n; w) on (C^m)^(x n).

    Entries are tilde-u[b, a] = sum_sigma prod_i u[b_{sigma(i)}, sigma(i); a_i, i]
    with u[b, j; a, i] = (v_i)[b, a] * delta_{j, w(i)}.  Only sigma = w
    survives the delta, so this is v_1 x .. x v_n with output slot i moved to
    slot w(i).  The factors are m x m ``SparseTensor`` matrices; for
    permutation matrices v_i = perm_matrix(p_i) it is the permutation matrix
    of (x_1, .., x_n) -> slot w(i) receives p_i(x_i), an automorphism of the
    Hamming graph family_graph('hamming', n, m).
    """
    v_list = list(v_list)
    n = len(v_list)
    if n == 0:
        raise InvalidInputError("wreath representation needs at least one factor")
    if not all(isinstance(v, SparseTensor) for v in v_list):
        raise InvalidInputError("wreath factors must be SparseTensor matrices")
    m = v_list[0].shape[0]
    for v in v_list:
        if v.shape != (m, m) or v.out_axes != 1:
            raise InvalidInputError("all factors must be square matrices of equal size")
    w = list(w)
    if sorted(w) != list(range(n)):
        raise InvalidInputError("w must be a permutation of 0..n-1")
    guard_dense(m ** (2 * n), "wreath representation matrix")
    t = functools.reduce(SparseTensor.tensor, v_list)
    # output slot w(i) takes t's output leg i; both sides flatten big-endian
    weights = m ** (n - 1 - np.array([w, range(n)]))
    legs = t._idx.astype(np.int64).reshape(2, n, -1)
    cols = np.einsum("sl,sle->se", weights, legs)
    return SparseTensor._from_columns((m**n, m**n), 1, cols, t._num, t.den, t.level)


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

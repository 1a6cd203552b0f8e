"""Slow reference routes that the production code is checked against.

``compose_partitions`` glues one pair of partitions by union-find over
their blocks; it shares no code with ``partitions.compose``, which glues
all term pairs of a product at once in numpy.
"""

from qsym.errors import InvalidInputError
from qsym.partitions import Partition


def compose_partitions(q: Partition, p: Partition) -> tuple[Partition, int]:
    """q after p: glue p's lower row to q's upper row.

    Returns the composed partition in P(p.k, q.l) together with the number of
    closed middle-row loops (components meeting neither outer row).
    """
    if p.l != q.k:
        raise InvalidInputError(
            f"arity mismatch: cannot compose P({q.k},{q.l}) after P({p.k},{p.l})"
        )
    assign, loops = _glue(q.assign, p.assign, p.k, p.l, p.n_blocks)
    return Partition._raw(p.k, q.l, assign), loops


def _glue(qa, pa, k: int, l: int, offset: int) -> tuple[tuple, int]:
    """Canonical assignment and loop count of q after p, from their
    assignments, p's shape (k, l) and p's block count ``offset``.

    Union-find over blocks: p's block b is node b, q's block b is node
    offset + b, and middle point j joins p's block of lower point j to q's
    block of upper point j.  A component that reaches no outer point is a
    loop.
    """
    parent = list(range(offset + max(qa, default=-1) + 1))
    components = len(parent)
    for j in range(l):
        x, y = pa[k + j], offset + qa[j]
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[x] = y
            components -= 1
    roots = {}
    assign = []
    for node in pa[:k] + tuple(offset + b for b in qa[l:]):
        while parent[node] != node:
            node = parent[node]
        assign.append(roots.setdefault(node, len(roots)))
    return tuple(assign), components - len(roots)

"""Tracing of qsym's layers from outside the program.

``install`` replaces the public functions and methods of each layer module
with wrappers that time every call.  Names that other modules bound with
``from .x import y`` are rebound too, so calls between modules are seen.
Self time is a call's duration minus the time its wrapped callees took.

Calls into ``cyclotomic`` are counted and timed but get no span: a single
pass makes hundreds of thousands of them.  Every other wrapped call records
a span ``(id, parent id, name id, start, end)`` in memory; ``write_spans``
saves them when the run ends.  Work counters (products formed, entries
copied, ...) are computed in hooks whose own cost is kept out of every self
time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import time
import types
from collections import Counter, defaultdict

# qsym modules, one per layer, in call-stack order from the bottom up.
LAYERS = (
    "cyclotomic", "groups", "sparse", "functors", "cayley", "intertwiners",
    "polyq", "partitions", "dsl", "lemmas", "verify",
)
UNSPANNED = frozenset({"cyclotomic"})
# operator and construction methods that are part of a class's public surface
DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__matmul__", "__eq__",
    "__getitem__", "__call__", "__pow__",
})
# private helpers that are counted (not timed) for a per-layer ratio
COUNTED_PRIVATE = {"cayley": ("_conjugate_hadamard_int",)}


class Tracer:
    """Frames, spans and counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = [[0.0, 0.0, -1]]  # open frames: [start, child seconds, span id]
        self._ids = itertools.count()
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peak_nnz = 0
        self._project_depth = 0

    # -- wrapping -------------------------------------------------------------------

    def wrap(self, key: str, fn, span: bool = True, before=None, after=None):
        """Return ``fn`` timed under ``key``; ``before(*args, **kw)`` and
        ``after(result, *args, **kw)`` run outside every frame's self time."""
        clock, stack, spans, ids = self.clock, self._stack, self.spans, self._ids
        self_s, calls = self.self_s, self.calls
        name_id = len(self.names)
        self.names.append(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                h = clock()
                before(*args, **kwargs)
                stack[-1][1] += clock() - h
            parent = stack[-1]
            sid = next(ids) if span else parent[2]
            frame = [0.0, 0.0, sid]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[key] += dur - frame[1]
                calls[key] += 1
                parent[1] += dur
                if span:
                    spans.append((sid, parent[2], name_id, start, end))
            if after is not None:
                h = clock()
                after(result, *args, **kwargs)
                parent[1] += clock() - h
            return result

        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return tallied

    # -- hooks that feed the work counters ----------------------------------------------

    def hooks(self, key: str):
        """(before, after) hooks for a wrapped function key."""
        c = self.counts

        def mul_before(a, b):
            if a.level > 1 and getattr(b, "level", 1) > 1:
                c["cyclotomic.mul_irrational"] += 1

        def tensor_new_after(_, t, shape, out_axes, entries=None):
            c["sparse.new.entries"] += len(entries or ())
            self.peak_nnz = max(self.peak_nnz, len(t.entries))

        def compose_before(a, b):
            c["sparse.compose.products"] += compose_products(a, b)

        def eq_before(a, b):
            if hasattr(b, "entries"):
                c["sparse.eq.entries"] += len(a.entries) + len(b.entries)

        def add_before(a, b):
            c["sparse.add.entries_copied"] += len(a.entries)

        def leg_before(axis_of, key_pos):
            def before(t, leg, matrix, new_dim):
                n = transform_products(t, axis_of(t, leg), matrix, key_pos)
                c["sparse.transform_leg.products"] += n
                if self._project_depth:
                    c["intertwiners.project.leg_products"] += n
            return before

        def terms_before(e, *a, **kw):
            c["functors.evaluate_partlin.terms"] += len(getattr(e, "terms", (e,)))

        def entries_after(name):
            def after(result, *a, **kw):
                c[name] += result.nnz()
            return after

        def project_before(*a, **kw):
            self._project_depth += 1

        def project_after(result, *a, **kw):
            self._project_depth -= 1
            c["intertwiners.project.out_nnz"] += result.nnz()

        table = {
            "cyclotomic.Cyclotomic.__mul__": (mul_before, None),
            "sparse.SparseTensor.__init__": (None, tensor_new_after),
            "sparse.SparseTensor.compose": (compose_before, None),
            "sparse.SparseTensor.__eq__": (eq_before, None),
            "sparse.SparseTensor.__add__": (add_before, None),
            "sparse.SparseTensor.transform_in_leg": (
                leg_before(lambda t, leg: t.out_axes + leg, 0), None),
            "sparse.SparseTensor.transform_out_leg": (
                leg_before(lambda t, leg: leg, 1), None),
            "functors.evaluate_partlin": (terms_before, None),
            "functors.functor_T": (None, entries_after("functors.functor_T.entries")),
            "functors.antisymmetrizer": (
                None, entries_after("functors.antisymmetrizer.entries")),
            "intertwiners.project": (project_before, project_after),
        }
        return table.get(key, (None, None))

    # -- output ----------------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


def compose_products(a, b) -> int:
    """Scalar products ``a.compose(b)`` forms: pairs of entries that meet on
    the contracted legs."""
    k = b.out_axes
    per_mid = Counter(idx[:k] for idx in b.entries)
    ka = a.out_axes
    return sum(per_mid.get(idx[ka:], 0) for idx in a.entries)


def transform_products(t, axis: int, matrix, key_pos: int) -> int:
    """Scalar products a leg transform forms: entries of ``t`` times the
    matrix entries whose ``key_pos`` coordinate matches the entry's index on
    ``axis``."""
    per_key = Counter(k[key_pos] for k in matrix)
    return sum(per_key.get(idx[axis], 0) for idx in t.entries)


def install(tracer: Tracer):
    """Wrap every layer of qsym; return a function that undoes it."""
    mods = {layer: sys.modules[f"qsym.{layer}"] for layer in LAYERS}
    replaced = {}  # id(original) -> (original, wrapper)
    undo = []

    def wrapper_for(fn, layer):
        got = replaced.get(id(fn))
        if got is None:
            key = f"{layer}.{fn.__qualname__}"
            before, after = tracer.hooks(key)
            got = (fn, tracer.wrap(key, fn, layer not in UNSPANNED, before, after))
            replaced[id(fn)] = got
        return got[1]

    def rebind(owner, name, value):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                rebind(mod, name, wrapper_for(obj, layer))
            elif isinstance(obj, type):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    if isinstance(member, types.FunctionType):
                        rebind(obj, attr, wrapper_for(member, layer))
                    elif isinstance(member, (classmethod, staticmethod)):
                        rebind(obj, attr, type(member)(wrapper_for(member.__func__, layer)))
        for name in COUNTED_PRIVATE.get(layer, ()):
            fn = getattr(mod, name)
            rebind(mod, name, tracer.counted(f"{layer}.{name}", fn))
            replaced[id(fn)] = (fn, getattr(mod, name))

    # names bound elsewhere by ``from .x import y`` (and the package namespace)
    for modname, mod in list(sys.modules.items()):
        if modname != "qsym" and not modname.startswith("qsym."):
            continue
        for name, obj in list(vars(mod).items()):
            got = replaced.get(id(obj))
            if got is not None and got[0] is obj:
                rebind(mod, name, got[1])

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall

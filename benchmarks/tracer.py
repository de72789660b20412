"""Per-layer tracing of the uod library from outside it.

``install(uod_modules)`` replaces every public function of every ``uod``
module, in every ``uod`` namespace that binds it, with a wrapper that records
a span, and does the same for the methods of the public ``znf`` and
``chainkit`` classes.  The modules import each other's functions by name
(``from .znf import snf``), so patching the defining module alone would miss
most calls.

Spans are aggregated in memory as they close: per span name the call count,
the inclusive time of the outermost activation and the self time (duration
minus the part covered by child spans).  Nothing is written while the
program runs; ``Tracer.snapshot()`` returns the tables at the end.

The layer of a span is the module that defines the wrapped callable, so a
layer's self time is the time spent in its own code, whichever layer called
it: an ``IntMatrix.zeros`` that ``DoubleComplex.horizontal`` builds for a
lookup from ``skcx`` is charged to ``znf``, the lookup itself to
``chainkit``.  (Methods of classes outside ``METHOD_LAYERS`` are the
exception; see there.)  Counters that need a scan of a matrix (Smith reduction sizes
and entry bits) are taken inside the span of the call they describe, so
their cost stays in that layer too.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("znf", "chainkit", "arith", "distmod", "signh", "ftate", "skcx", "iwasawa", "cli")

# One reduction per call, never nested, and the transforms each entry point
# asks _run_smith for.
SMITH_TRANSFORMS = {
    "snf": 4,
    "snf_invariants": 0,
    "kernel_basis": 1,
    "image_basis": 1,
    "solve": 2,
    "cokernel": 2,
}

# Counters that hold a maximum over the run, not a sum.
MAXIMA = ("znf.smith_max_dim", "znf.smith_max_bits_in", "znf.smith_max_bits_out",
          "distmod.module_rank_max")

# Layers whose classes get a span on every traced method: their objects
# (matrices, complexes) are built and queried by all the other layers.  The
# other layers' methods are called up to 10^5 times per op, mostly from their
# own layer, and a span each would double the traced time; they run in their
# caller's span, except the ones with a probe in ``Tracer.method_probes``.
METHOD_LAYERS = ("znf", "chainkit")

# Special methods that get spans besides ``__init__``: the ones that build
# new objects.  Lookups, hashing and comparison stay in their caller's span.
METHOD_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__")

def _bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                b = (x if x > 0 else -x).bit_length()
                if b > best:
                    best = b
    return best


def _nnz(rows) -> int:
    return sum(len(row) - row.count(0) for row in rows)


def _out_bits(out) -> int:
    """Largest entry, in bits, of whatever a Smith entry point returned."""
    if isinstance(out, tuple):  # snf_invariants
        return _bits((out,))
    best = 0
    for attr in ("left", "right", "left_inv", "right_inv", "section", "projection"):
        m = getattr(out, attr, None)
        if m is not None:
            best = max(best, _bits(m.data))
    if hasattr(out, "invariants") and isinstance(out.invariants, tuple):  # snf
        best = max(best, _bits((out.invariants,)))
    if hasattr(out, "data"):  # kernel_basis, image_basis, solve
        best = max(best, _bits(out.data))
    return best


class Tracer:
    """Span aggregation plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_ns, self_ns]
        self.active = {}  # name -> open activations of that name
        self.stack = []  # child time covered, per open span
        self.counters = {
            "znf.matrix_new": 0,
            "znf.zeros_cells": 0,
            "znf.smith_cells": 0,
            "znf.smith_nnz": 0,
            "znf.smith_max_dim": 0,
            "znf.smith_transforms": 0,
            "znf.smith_max_bits_in": 0,
            "znf.smith_max_bits_out": 0,
            "znf.matmul_mults": 0,
            "chainkit.dc_lookups": 0,
            "arith.factor_calls": 0,
            "arith.gf_group_repeats": 0,
            "distmod.module_rank_max": 0,
        }
        self.pairs_seen = set()
        self.groups_seen = set()

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(*args)`` and ``after(result)``
        update counters inside it."""
        stack = self.stack
        spans = self.spans
        active = self.active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = clock()
            try:
                if before is not None:
                    before(*args, **kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            finally:
                dt = clock() - t0
                active[name] = depth
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0, 0]
                rec[0] += 1
                if depth == 0:
                    rec[1] += dt
                rec[2] += dt - child

        return wrapper

    def bump(self, counter, amount=None):
        """A ``before`` hook that adds ``amount(*args)`` (or 1) to a counter."""
        c = self.counters

        def hook(*args, **_kwargs):
            c[counter] += 1 if amount is None else amount(*args)

        return hook

    # -- probes of single entry points ------------------------------------

    def probes(self):
        """``(layer, name) -> (before, after)`` for the callables whose
        counters need more than a call count."""
        c = self.counters
        pairs_seen = self.pairs_seen
        groups_seen = self.groups_seen

        def smith(entry):
            transforms = SMITH_TRANSFORMS[entry]

            def before(m, *_rest):
                c["znf.smith_cells"] += m.rows * m.cols
                c["znf.smith_nnz"] += _nnz(m.data)
                c["znf.smith_max_dim"] = max(c["znf.smith_max_dim"], m.rows, m.cols)
                c["znf.smith_transforms"] += transforms
                c["znf.smith_max_bits_in"] = max(c["znf.smith_max_bits_in"], _bits(m.data))

            def after(out):
                c["znf.smith_max_bits_out"] = max(c["znf.smith_max_bits_out"], _out_bits(out))

            return before, after

        def pair(d_out, d_in):
            pairs_seen.add((d_out.rows, d_out.cols, d_in.cols, hash(d_out), hash(d_in)))

        def group(bk, f):
            key = (bk.key, bk.ideal_key(f))
            if key in groups_seen:
                c["arith.gf_group_repeats"] += 1
            groups_seen.add(key)

        def module_rank(af):
            c["distmod.module_rank_max"] = max(c["distmod.module_rank_max"], af.rank)

        table = {("znf", e): smith(e) for e in SMITH_TRANSFORMS}
        table[("znf", "homology_pair")] = (pair, None)
        table[("arith", "gf_group")] = (group, None)
        table[("distmod", "build_af")] = (None, module_rank)
        return table

    def method_probes(self):
        """``(class, method) -> (span name or None, before)``."""
        lookup = self.bump("chainkit.dc_lookups")
        factor = self.bump("arith.factor_calls")
        return {
            ("IntMatrix", "__init__"): (None, self.bump("znf.matrix_new")),
            ("IntMatrix", "zeros"): (None, self.bump("znf.zeros_cells", lambda _cls, r, k: r * k)),
            ("IntMatrix", "__mul__"): ("znf.matmul",
                                       self.bump("znf.matmul_mults", lambda a, b: a.rows * a.cols * b.cols)),
            ("DoubleComplex", "horizontal"): (None, lookup),
            ("DoubleComplex", "vertical"): (None, lookup),
            ("ArchimedeanBackend", "factor"): (None, factor),
            ("FunctionFieldBackend", "factor"): (None, factor),
            # one span name, so that nested calls (PresentedComplex.homology
            # runs ChainComplex.homology) count once in the inclusive time
            ("ChainComplex", "homology"): ("chainkit.homology", None),
            ("PresentedComplex", "homology"): ("chainkit.homology", None),
        }

    def layer_self_ns(self) -> dict:
        """Self time so far per layer; the child takes it after every op."""
        out = dict.fromkeys(LAYERS, 0)
        for name, rec in self.spans.items():
            out[name.split(".", 1)[0]] += rec[2]
        return out

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "homology_pair_unique": len(self.pairs_seen),
        }


def _is_traceable(obj) -> bool:
    """A function of a uod module, or an ``lru_cache`` around one."""
    return ((inspect.isfunction(obj) or hasattr(obj, "__wrapped__"))
            and (getattr(obj, "__module__", None) or "").startswith("uod."))


def _layer(mod) -> str | None:
    layer = mod.__name__.split(".")[-1]
    return layer if layer in LAYERS else None


def _traced_methods(cls):
    """``(name, function, rewrap)`` for the methods of ``cls`` that get a span:
    the public ones and ``METHOD_DUNDERS``, plain, class or static."""
    for name, attr in vars(cls).items():
        if name.startswith("_") and name not in METHOD_DUNDERS:
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            yield name, attr.__func__, type(attr)
        elif inspect.isfunction(attr):
            yield name, attr, None


def install(modules) -> Tracer:
    """Wrap the public callables of ``modules`` (the ``uod`` package and its
    submodules) and return the tracer that collects their spans."""
    tracer = Tracer()

    # 1. public functions, keyed by the object so that every alias gets the
    #    same wrapper
    probes = tracer.probes()
    wrappers = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not _is_traceable(obj) or id(obj) in wrappers:
                continue
            layer = obj.__module__.split(".")[1]
            if layer not in LAYERS:
                continue
            before, after = probes.get((layer, name), (None, None))
            wrappers[id(obj)] = (obj, tracer.span(f"{layer}.{name}", obj, before, after))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])

    # 2. methods of the public classes each module defines
    probes = tracer.method_probes()
    for mod in modules:
        layer = _layer(mod)
        if layer is None:
            continue
        for cls_name, cls in list(vars(mod).items()):
            if (not isinstance(cls, type) or cls.__module__ != mod.__name__
                    or cls_name.startswith("_")):
                continue
            for name, fn, rewrap in list(_traced_methods(cls)):
                if layer not in METHOD_LAYERS and (cls_name, name) not in probes:
                    continue
                span_name, before = probes.get((cls_name, name), (None, None))
                w = tracer.span(span_name or f"{layer}.{cls_name}.{name}", fn, before)
                setattr(cls, name, rewrap(w) if rewrap else w)
    return tracer

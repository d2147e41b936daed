"""Per-layer tracing of ortho2d, installed from outside the package.

``installed(tracer)`` replaces the public functions and methods listed in
``SPANNED`` with wrappers that record one span per call, and restores the
originals on exit.  A function imported by name into several ortho2d
modules is replaced in every one of them, so calls between modules are
seen too.  Spans stay in memory; ``Tracer.summary`` turns them into
per-layer metrics when the run ends:

* ``<layer>.self_s`` -- span time minus the time of child spans, summed;
* ``<layer>.calls``  -- number of spans;
* a few counters fed by hooks (term pairs, distinct basis polynomials,
  largest bit lengths), see ``HOOKS``.

Hook time is charged to nobody: it is removed from the enclosing span's
self time, so it shows only in the traced run's wall time.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time

MODULES = ("numerics", "univariate", "construction", "ttr", "catalog",
           "verify", "cli")

# (module, attribute path, layer name).  The layer name is the metric prefix.
SPANNED = (
    ("construction", "BivariateSystem.moment_bilinear",
     "construction.moment_bilinear"),
    ("construction", "BivariateSystem.gram_block", "construction.gram_block"),
    ("construction", "BivariateSystem.expand_P", "construction.expand_P"),
    ("construction", "BivariateSystem.ladder", "construction.ladder"),
    ("univariate", "adjacent_down", "univariate.adjacent_down"),
    ("univariate", "adjacent_up", "univariate.adjacent_up"),
    ("numerics", "poly_mul", "numerics.poly_mul"),
    ("numerics", "rank_exact", "numerics.rank_exact"),
    ("ttr", "first_ttr", "ttr.first_ttr"),
    ("ttr", "second_ttr", "ttr.second_ttr"),
    ("ttr", "ttr_from_gram", "ttr.ttr_from_gram"),
    ("ttr", "rank_conditions", "ttr.rank_conditions"),
    ("catalog", "make_system", "catalog.make_system"),
    ("catalog", "closed_form_ttr", "catalog.closed_form_ttr"),
    ("catalog", "cross_check", "catalog.cross_check"),
    ("verify", "verify_relation", "verify.verify_relation"),
    ("verify", "verify_orthonormal_transpose",
     "verify.verify_orthonormal_transpose"),
    ("cli", "main", "cli.main"),
    ("cli", "canonical_json", "cli.canonical_json"),
)

# Layers whose call counts must stay zero on workloads that bypass the
# Gram oracle.
ORACLE_LAYERS = ("construction.moment_bilinear", "construction.gram_block",
                 "ttr.ttr_from_gram")


def _bits(scalar):
    return max(scalar.numerator.bit_length(), scalar.denominator.bit_length())


class Tracer:
    """In-memory span recorder.  Not thread-safe: the benchmark is serial."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index]
        self.calls = {}          # layer -> calls so far (read during a run)
        self.counters = {}       # metric name -> running total
        self.maxima = {}         # metric name -> largest value seen
        self._hook_s = {}        # parent span index -> hook seconds
        self._seen = set()       # distinct expand_P keys
        self._stack = []

    def call(self, layer, fn, args, kwargs, hook=None):
        parent = self._stack[-1] if self._stack else -1
        record = [layer, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.calls[layer] = self.calls.get(layer, 0) + 1
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self, result, args, kwargs)
            self._hook_s[parent] = (self._hook_s.get(parent, 0.0)
                                    + time.perf_counter() - record[2])
        return result

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_max(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def summary(self):
        """Per-layer self time, inclusive time and calls, plus counters.
        No traced layer calls itself, so inclusive times do not overlap."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, seconds in self._hook_s.items():
            if index >= 0:
                child[index] += seconds
        self_s = {}
        total_s = {}
        for index, (layer, start, end, _) in enumerate(self.spans):
            self_s[layer] = self_s.get(layer, 0.0) + end - start - child[index]
            total_s[layer] = total_s.get(layer, 0.0) + end - start
        return {"self_s": self_s, "total_s": total_s,
                "calls": dict(self.calls), "counters": dict(self.counters),
                "maxima": dict(self.maxima)}


# -- hooks: counters taken where the work happens ---------------------------


def _moment_bilinear_hook(tracer, result, args, kwargs):
    _, p, q = args[:3]
    tracer.add("construction.moment_bilinear.term_pairs",
               len(p.terms) * len(q.terms))
    tracer.note_max("ttr.gram_entry.max_bits", _bits(result))


def _expand_p_hook(tracer, result, args, kwargs):
    system, n, m = args[:3]
    key = (id(system), n, m)
    if key not in tracer._seen:
        tracer._seen.add(key)
        tracer.add("construction.expand_P.distinct", 1)
        tracer.note_max("construction.expand_P.max_terms", len(result.terms))


HOOKS = {
    "construction.moment_bilinear": _moment_bilinear_hook,
    "construction.expand_P": _expand_p_hook,
}


def _relation_layer(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "exact")
    return f"verify.verify_relation.{mode}"


def _wrap(tracer, layer, fn):
    hook = HOOKS.get(layer)
    if layer == "verify.verify_relation":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(_relation_layer(args, kwargs), fn, args,
                               kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, hook)
    return wrapper


def _bits_only(tracer, fn):
    """Record bit lengths of BivariateSystem.w_moment results, no span: the
    oracle reaches moments through a private path, so a span here would
    only time the public accessor."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.note_max("construction.w_moment.max_bits", _bits(result))
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Trace every layer in SPANNED for the duration of the block."""
    modules = [importlib.import_module(f"ortho2d.{name}") for name in MODULES]
    modules.append(importlib.import_module("ortho2d"))
    undo = []
    try:
        for module_name, path, layer in SPANNED:
            owner = importlib.import_module(f"ortho2d.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, _wrap(tracer, layer, original))
                continue
            original = getattr(owner, path)
            wrapper = _wrap(tracer, layer, original)
            for module in modules:
                if getattr(module, path, None) is original:
                    undo.append((module, path, original))
                    setattr(module, path, wrapper)
        system_cls = importlib.import_module(
            "ortho2d.construction").BivariateSystem
        original = system_cls.__dict__["w_moment"]
        undo.append((system_cls, "w_moment", original))
        system_cls.w_moment = _bits_only(tracer, original)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

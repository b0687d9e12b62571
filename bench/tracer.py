"""Spans and counters recorded from outside the package, for the traced run.

``install`` replaces every public function of every package module with a
wrapper, in every module namespace that holds a binding to it (from-imports
included), and wraps two methods on classes.  Most wrappers record a span:
(id, parent id, operation id, name, start, end, time lent to timed calls).  The hot functions in
``COUNTED`` and ``TIMED`` only bump a counter (``TIMED`` also sums its
inclusive time), because a span per call would cost more than the call.
The time of a ``TIMED`` or generator call is moved from the enclosing span
to its own module; a counted call made outside any span is timed as well,
so that its time is still attributed to its module.

Everything stays in memory until ``Recorder.dump``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "rootsystem", "cyclotomic", "weylchar", "reconstruct",
          "orders", "coincidence", "compalg")

COUNTED = {
    "rootsystem.degrees", "rootsystem.positive_root_count", "rootsystem.coxeter_number",
    "rootsystem.render", "rootsystem.weyl_order", "rootsystem.parse_type",
    "cyclotomic.cyclo_mul", "cyclotomic.is_prime", "cyclotomic.euler_phi",
    "cyclotomic.cyclotomic", "cyclotomic.factor_power_minus_one",
    "weylchar.mu", "weylchar.mu_prime", "weylchar.mu_joint", "weylchar.ch_star",
    "orders.order_value", "orders.order_factored", "orders.split_prime_power",
    "coincidence.evaluate_word", "coincidence.generator", "coincidence.reduce",
    "coincidence.compose", "coincidence.inverse", "coincidence.identity_pair",
    "compalg.oct_norm", "compalg.oct_conj", "compalg.oct_add", "compalg.oct_sub",
    "compalg.oct_neg", "compalg.oct_scale", "compalg.oct_unit", "compalg.oct_zero",
    "compalg.oct_scalar", "compalg.random_octonion",
}
TIMED = {"compalg.oct_mul"}
GENERATORS = {"rootsystem.all_semisimple_types"}

# Methods wrapped on their classes, with the name they are reported under.
METHODS = {
    ("weylchar", "CharPolyTable", "validate"): "weylchar.validate",
    ("cyclotomic", "CycloProduct", "__mul__"): "cyclotomic.cyclo_mul",
}

# Span names whose results feed a per-layer counter.
RENAMES = {"weylchar.charpolys_exceptional": "weylchar.enumerate"}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.counts = {}
        self.times = {}  # inclusive time of TIMED and generator wrappers
        self.layer_time = {}  # time of timed calls, and of counted calls outside spans
        self.outside = 0.0  # the part of layer_time spent outside any span

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "times": self.times,
                "layer_time": self.layer_time, "outside": self.outside}

    def charge(self, layer, elapsed, timed):
        """Book a measured call to its layer, taking it out of the enclosing span."""
        self.layer_time[layer] = self.layer_time.get(layer, 0.0) + elapsed
        if not self.stack:
            self.outside += elapsed
        elif timed:
            self.stack[-1][6] += elapsed


def _span(rec, name, fn, after=None):
    spans, stack, clock = rec.spans, rec.stack, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [len(spans), stack[-1][0] if stack else None, rec.op, name, clock(), None, 0.0]
        spans.append(span)
        stack.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[5] = clock()
            stack.pop()
        if after:
            after(rec, out)
        return out

    return wrapper


def _counted(rec, name, fn, timed):
    counts, times, stack, clock = rec.counts, rec.times, rec.stack, time.perf_counter
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if stack and not timed:
            return fn(*args, **kwargs)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            if timed:
                times[name] = times.get(name, 0.0) + elapsed
            rec.charge(layer, elapsed, timed)

    return wrapper


def _generator(rec, name, fn):
    times, clock = rec.times, time.perf_counter
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            start = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                times[name] = times.get(name, 0.0) + elapsed
                rec.charge(layer, elapsed, True)
            rec.add(name + ".types")
            yield item

    return wrapper


def _after_charpolys(rec, table):
    rec.add("weylchar.charpolys.entries", len(table.entries))


def _after_enumerate(rec, table):
    rec.add("weylchar.elements", table.group_order)


def _after_cache_load(rec, table):
    rec.add("cli.cache_load.hits", table is not None)


def _after_decompose(rec, word):
    rec.add("coincidence.word_letters", len(word))


AFTER = {
    "weylchar.charpolys": _after_charpolys,
    "weylchar.enumerate": _after_enumerate,
    "cli.cache_load": _after_cache_load,
    "coincidence.decompose": _after_decompose,
}


def _recognize(rec, name, fn):
    """A span for ``recognize_order`` that also counts its matches and the
    ``order_value`` calls made inside it."""
    span = _span(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = rec.counts.get("orders.order_value", 0)
        hits = span(*args, **kwargs)
        rec.add("orders.recognize.hits", len(hits))
        rec.add("orders.recognize.order_value_calls",
                rec.counts.get("orders.order_value", 0) - before)
        return hits

    return wrapper


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield n, obj


def install() -> Recorder:
    """Wrap the package's public functions; returns the recorder they feed."""
    rec = Recorder()
    modules = {layer: sys.modules[f"weylorders.{layer}"] for layer in LAYERS}
    wrapped = {}  # id(original function) -> wrapper
    for layer, module in modules.items():
        for fname, fn in _public_functions(module):
            name = RENAMES.get(f"{layer}.{fname}", f"{layer}.{fname}")
            if name in GENERATORS:
                wrapped[id(fn)] = _generator(rec, name, fn)
            elif name == "orders.recognize_order":
                wrapped[id(fn)] = _recognize(rec, name, fn)
            elif name in COUNTED or name in TIMED:
                wrapped[id(fn)] = _counted(rec, name, fn, name in TIMED)
            else:
                wrapped[id(fn)] = _span(rec, name, fn, AFTER.get(name))
    for module in sys.modules.copy().values():
        if getattr(module, "__name__", "").startswith("weylorders."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
    for (layer, cls_name, meth), name in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        fn = getattr(cls, meth)
        if name in COUNTED:
            setattr(cls, meth, _counted(rec, name, fn, False))
        else:
            setattr(cls, meth, _span(rec, name, fn))
    return rec

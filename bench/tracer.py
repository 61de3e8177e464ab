"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` wraps every function and class constructor named in
LAYERS.  A function is replaced in every tropcover module that bound it by
name (``jacobian.refine`` and ``divisors.refine`` as well as
``graphs.refine``), so calls made through any import path are seen; a class
gets its ``__init__`` wrapped once.  Spans stay in memory as
``[op id, span id, parent span id, name, start, end]`` and are written out
when the run ends.  ``count_fractions`` counts ``Fraction`` constructions in
a pass of its own, because wrapping that constructor slows every layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from fractions import Fraction

# module -> public names whose calls become spans
LAYERS = {
    "graphs": ("refine", "CycleSpace", "distance_field", "MetricGraph", "virtualize"),
    "divisors": ("Divisor", "is_principal", "equivalent", "reduce_at", "effective_representative"),
    "jacobian": ("period_lattice", "PeriodLattice", "abel_jacobi", "lattice_contains"),
    "linalg": ("solve", "in_lattice", "rref"),
    "theta": ("theta_characteristic", "two_torsion_divisor", "enumerate_theta"),
    "covers": ("free_covers", "covers_with_dilation", "verify_cover", "pullback", "pushforward"),
    "prym": ("pairing_table", "prym_contains", "homology_action", "HomologyAction"),
    "serialize": ("loads", "dumps", "graph_from_obj", "divisor_from_obj", "cover_from_obj"),
    "cli": ("main",),
}

# memo function -> the constructor it calls on a miss
MEMOS = {
    "jacobian.period_lattice": "jacobian.PeriodLattice",
    "prym.homology_action": "prym.HomologyAction",
}

SPAN_NAMES = tuple("%s.%s" % (m, f) for m, names in LAYERS.items() for f in names)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [self.op, len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[1])
            rec[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()

        return span

    def install(self):
        modules = [
            m for k, m in sys.modules.items() if k == "tropcover" or k.startswith("tropcover.")
        ]
        for mod_name, names in LAYERS.items():
            home = sys.modules["tropcover." + mod_name]
            for attr in names:
                name = "%s.%s" % (mod_name, attr)
                orig = getattr(home, attr)
                if inspect.isclass(orig):
                    init = orig.__dict__["__init__"]
                    orig.__init__ = self._wrap(name, init)
                    self._undo.append((orig, "__init__", init))
                    continue
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = {}
    for rec in spans:
        children.setdefault(rec[2], []).append((rec[4], rec[5]))
    out = []
    for rec in spans:
        start, end = rec[4], rec[5]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(rec[1], ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def layer_metrics(spans):
    """calls and self_s per span name, plus the memo hit ratios."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    names = {rec[1]: rec[3] for rec in spans}
    misses = dict.fromkeys(MEMOS, 0)
    for rec, st in zip(spans, self_times(spans)):
        calls[rec[3]] += 1
        self_s[rec[3]] += st
        memo = names.get(rec[2])
        if memo in MEMOS and MEMOS[memo] == rec[3]:
            misses[memo] += 1
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
    for memo in MEMOS:
        ratio = 1 - misses[memo] / calls[memo] if calls[memo] else 0.0
        out[memo + ".hit_ratio"] = (ratio, "ratio")
    return out


class count_fractions:
    """Context manager counting every Fraction construction, including the
    results of arithmetic, by wrapping ``Fraction.__new__``."""

    def __enter__(self):
        self.count = 0
        self._orig = Fraction.__dict__["__new__"]
        new = self._orig.__func__

        def counting_new(cls, *args, **kwargs):
            self.count += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        return self

    def __exit__(self, *exc):
        Fraction.__new__ = self._orig
        return False

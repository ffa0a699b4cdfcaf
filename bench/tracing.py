"""Per-layer tracing from outside the package.

The tracer replaces public functions of the freshly loaded su2moduli
modules with wrappers, in every module namespace that holds them (so
``from .su2 import quat_mul`` call sites are caught too).  Functions reached
only through dispatch tables (``orbit_lab._CHARTS``, ``orbit_lab._S4_MOVES``,
``torus_family._MATRIX_MOVES``) are not rewrapped; their time stays in the
self time of their caller.

Two kinds of wrapper:

* counted: only a call counter, for hot scalar functions;
* spanned: a span (id, parent id, name, start, end) kept in memory, plus
  totals.  Self time is a span's duration minus the time covered by the
  spans of wrapped functions it called directly.
"""
from __future__ import annotations

import json
import time

#: (module, attribute path, kind); the metric prefix is "<module>.<path>",
#: with a method's dunder name dropped to its plain name (``__mul__`` -> mul)
TRACED = (
    ("su2", "quat_mul", "count"),
    ("su2", "normalize", "count"),
    ("exact", "ExactQuaternion.__mul__", "span"),
    ("exact", "QFElement.__mul__", "count"),
    ("classify", "finite_closure", "span"),
    ("classify", "classify_subgroup", "span"),
    ("torus_one", "coords_of_matrices", "count"),
    ("sphere_four", "delta_inband", "span"),
    ("sphere_four", "x_level_ellipse", "count"),
    ("sphere_four", "y_level_extent_x", "count"),
    ("torus_family", "steer_t2", "span"),
    ("torus_family", "coords_of_rep_t2", "count"),
    ("orbit_lab", "orbit_sample", "span"),
    ("orbit_lab", "density_report", "span"),
    ("appendix", "solve_case_system", "span"),
    ("appendix", "decide_outcome", "span"),
    ("appendix", "verify_appendix_case", "span"),
    ("repfile", "parse_repfile_text", "span"),
)

#: spans kept for the trace file; totals keep counting past this
SPAN_CAP = 500_000


class Tracer:
    def __init__(self):
        self.totals: dict = {}     # prefix -> [calls, total_s, self_s]
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []     # [span id, child seconds] per open span
        self._next_id = 0
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name, fn):
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])

        def counted(*args, **kwargs):
            tot[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, name, fn):
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def spanned(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, start, end))
                else:
                    self.dropped += 1
        return spanned

    # -- installation --------------------------------------------------------

    def install(self, lib) -> None:
        modules = list(vars(lib).values())
        for mod_name, path, kind in TRACED:
            name = f"{mod_name}.{path.replace('__mul__', 'mul')}"
            make = self._counted if kind == "count" else self._spanned
            owner = getattr(lib, mod_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapper = make(name, orig)
                for attr, val in list(vars(cls).items()):
                    if val is orig:     # aliases such as __rmul__ = __mul__
                        self._undo.append((cls, attr, orig))
                        setattr(cls, attr, wrapper)
                continue
            orig = getattr(owner, path)
            wrapper = make(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def write(self, path: str) -> None:
        """Write totals and the kept spans as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                                  for k, v in sorted(self.totals.items())},
                       "span_fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans, "dropped_spans": self.dropped}, fh)

"""Per-layer tracing of the icckit pipeline from outside the package.

``Tracer.install()`` replaces every public function of the traced modules,
in every icckit module that imported it by name, with a wrapper that
records a span (name, case, parent, start, end).  Hot primitives get a
count-only wrapper instead.  Spans stay in memory and are written out by
``write_spans`` at the end of a run.  A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("cli", "dsl", "extension", "catalog", "intlinalg", "matgroup", "words",
           "analyzer", "oracle")

# Methods and static methods traced as spans: (module, class, attribute) -> span name.
METHOD_SPANS = {
    ("intlinalg", "IntMatrix", "inverse_unimodular"): "intlinalg.inverse_unimodular",
    ("intlinalg", "Lattice", "intersect"): "intlinalg.lattice_intersect",
    ("intlinalg", "Lattice", "from_rows"): "intlinalg.lattice_from_rows",
    ("words", "FreeAut", "compose"): "words.freeaut_compose",
    ("words", "FreeAut", "power"): "words.freeaut_power",
    ("words", "FreeAut", "inverse"): "words.freeaut_inverse",
    ("catalog", "FiniteGroupDesc", "from_generators"): "catalog.from_generators",
}
# Hot primitives and tiny helpers: counted, never timed, so their time
# lands in the calling span.
COUNTED = {
    ("intlinalg", "IntMatrix", "__matmul__"): "intlinalg.matmul",
    ("words", None, "word_mul"): "words.word_mul",
    ("words", "FreeAut", "apply"): "words.freeaut_apply",
    ("oracle", "ConcreteGroup", "mul"): "oracle.group_mul",
    ("oracle", "ConcreteGroup", "conjugate"): "oracle.conjugations",
    ("words", None, "word_inverse"): "words.word_inverse",
    ("words", None, "free_reduce"): "words.free_reduce",
    ("catalog", None, "perm_compose"): "catalog.perm_compose",
    ("catalog", None, "perm_inverse"): "catalog.perm_inverse",
    ("catalog", None, "perm_identity"): "catalog.perm_identity",
    ("catalog", None, "generator_count"): "catalog.generator_count",
    ("catalog", None, "generator_labels"): "catalog.generator_labels",
    ("catalog", None, "group_is_trivial"): "catalog.group_is_trivial",
}
# Thin aliases whose body is one traced call; wrapping them would count twice.
SKIP = {("intlinalg", "lattice_intersect"), ("cli", "main")}

FC_SPAN = "analyzer.theta_fc_injective"
FC_TESTS = ("words.is_inner", "matgroup.matrix_order")


class Tracer:
    def __init__(self, package="icckit"):
        self.package = package
        self.enabled = False
        self.case = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in parallel arrays to keep memory small.
        self.span_name = array("H")
        self.span_case = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self.reset_totals()

    # -- bookkeeping ---------------------------------------------------------

    def reset_totals(self):
        """Start a new accumulation window (one pass over the corpus)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.values = defaultdict(int)

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _enter(self, nid, name):
        parent = self._stack[-1] if self._stack else None
        if name in FC_TESTS and parent is not None and self.names[parent[1]] == FC_SPAN:
            self.values["analyzer.fc_candidates"] += 1
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_case.append(self.case)
        self.span_parent.append(parent[0] if parent else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([idx, nid, start, 0.0])

    def _exit(self, name):
        end = time.perf_counter()
        idx, _, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def drop_open_spans(self):
        """Forget spans left open by a case interrupted mid-call."""
        self._stack.clear()

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(nid, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _fc_identity_property(self, prop):
        """IntMatrix.is_identity, counted as an FC candidate test when read
        directly inside the injectivity search."""
        getter = prop.fget

        def is_identity(m):
            if self.enabled and self._stack and self.names[self._stack[-1][1]] == FC_SPAN:
                self.values["analyzer.fc_candidates"] += 1
            return getter(m)

        return property(is_identity)

    def _result_hooks(self):
        def finite(cert):
            order = getattr(cert, "order", None)
            if order is not None:
                self.values["matgroup.image_elements"] += order

        def orbit(res):
            vectors = getattr(res, "vectors", None)
            if vectors is not None:
                self.values["matgroup.orbit_vectors"] += len(vectors)

        def inner(res):
            if res is not None:
                self.values["words.is_inner.hits"] += 1

        def ball(curve):
            self.values["oracle.ball_elements"] += curve.final_size

        return {
            "matgroup.group_is_finite": finite,
            "matgroup.orbit_bfs": orbit,
            "words.is_inner": inner,
            "oracle.conjugacy_ball": ball,
        }

    def install(self):
        """Wrap the traced functions everywhere they are looked up."""
        pkg = self.package
        mods = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
        every = [importlib.import_module(pkg)] + list(mods.values())
        hooks = self._result_hooks()
        replace = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or (short, attr) in SKIP):
                    continue
                name = f"{short}.{attr}"
                replace[id(obj)] = (obj, self.span(name, obj, hooks.get(name)))
        for (short, cls_name, attr), name in COUNTED.items():
            if cls_name is None:
                obj = getattr(mods[short], attr)
                replace[id(obj)] = (obj, self.counter(name, obj))
            else:
                cls = getattr(mods[short], cls_name)
                setattr(cls, attr, self.counter(name, vars(cls)[attr]))
        for (short, cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(mods[short], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, raw.__func__)))
            else:
                setattr(cls, attr, self.span(name, raw))
        int_matrix = mods["intlinalg"].IntMatrix
        int_matrix.is_identity = self._fc_identity_property(vars(int_matrix)["is_identity"])
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    # -- output --------------------------------------------------------------

    def layer_totals(self):
        per_module = defaultdict(float)
        for name, s in self.self_s.items():
            per_module[name.split(".", 1)[0]] += s
        return per_module

    def write_spans(self, path, case_ids):
        """Gzipped tab-separated spans: index, parent, case, name, start, end (s)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tparent\tcase\tname\tstart_s\tend_s\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                f.write(f"{i}\t{self.span_parent[i]}\t{case_ids[self.span_case[i]]}\t"
                        f"{self.names[self.span_name[i]]}\t{self.span_start[i] - t0:.7f}\t"
                        f"{self.span_end[i] - t0:.7f}\n")

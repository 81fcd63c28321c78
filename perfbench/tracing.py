"""Span tracing for the traced benchmark run.

Public functions of the reflekt modules are wrapped as *module attributes*
(for example ``reflekt.linalg.nullspace``), so the calls reflekt makes through
its own module globals are caught as well as the benchmark's.  ``CycNum`` and
``MultiPoly`` operator calls are counted by wrapping the class methods.  Only
the traced child installs any of this; nothing under ``src/`` changes.

Spans stay in memory as (name, start, end, parent) tuples and are written out
at the end as JSON lines.  A span's self time is its duration minus the time
its direct child spans cover; each per-layer ``*_s`` metric is the summed
self time of the spans mapped to it.
"""
from __future__ import annotations

import functools
import importlib
import importlib.machinery
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# span name -> per-layer metric that receives the span's self time
SELF_TIME = {
    "cli.import": "cli.import_s",
    "kz.numpy_import": "kz.numpy_import_s",
    "groups.build_group": "groups.build_s",
    "chars.character_table": "chars.table_s",
    "fake.FakeDegreeSet": "fake.degrees_s",
    "fake.fake_degree": "fake.degrees_s",
    "fake.verify_all_pn": "fake.pn_s",
    "fake.poincare_identity": "fake.poincare_s",
    "fake.verify_symmetry": "fake.symmetry_s",
    "fake.palindrome_check": "fake.palindrome_s",
    "minmat.build_minimal_matrix": "minmat.build_s",
    "minmat.equivariant_basis": "minmat.equivariant_s",
    "minmat.verify_det_factorization": "minmat.det_s",
    "minmat.verify_quotient_property": "minmat.quotient_s",
    "linalg.mat_mul": "linalg.mat_mul_s",
    "linalg.rref": "linalg.rref_s",
    "linalg.nullspace": "linalg.nullspace_s",
    "kz.assemble_connection": "kz.assemble_s",
    "kz.monodromy": "kz.monodromy_s",
    "kz.monodromy_rep": "kz.monodromy_rep_s",
    "kz.gamma_scan": "kz.gamma_s",
}
# spans recorded around code rather than around a wrapped reflekt function
REGIONS = ("cli.import", "kz.numpy_import")

# span name -> per-layer metric counting its calls
CALLS = {
    "linalg.mat_mul": "linalg.mat_mul_calls",
    "linalg.rref": "linalg.rref_calls",
    "linalg.nullspace": "linalg.nullspace_calls",
    "kz.monodromy": "kz.monodromy_calls",
}

# span name -> (metric, amount taken from the call's arguments and result)
RESULT_COUNTS = {
    "groups.build_group": ("groups.elements", lambda args, g: g.order),
    "chars.character_table": ("chars.classes", lambda args, t: len(t.rows)),
    "minmat.build_minimal_matrix": ("minmat.matrices", lambda args, mm: 1),
    "kz.assemble_connection": ("kz.base_point_attempt", lambda args, b: b.seed_used),
    "kz.monodromy": ("kz.labels_transported", lambda args, m: len(args[0].labels)),
}

# (class in reflekt.exact, its operator methods) -> metric counting the calls
OPERATOR_COUNTS = {
    ("CycNum", ("__mul__", "__rmul__")): "exact.cycnum_mul_calls",
    ("CycNum", ("__add__", "__radd__")): "exact.cycnum_add_calls",
    ("MultiPoly", ("__mul__", "__rmul__")): "exact.multipoly_mul_calls",
}

# traced wall_s minus untraced wall_s; filled in by run.py
OVERHEAD = "trace.overhead_s"

LAYER_METRICS = sorted(
    set(SELF_TIME.values())
    | set(CALLS.values())
    | {metric for metric, _ in RESULT_COUNTS.values()}
    | set(OPERATOR_COUNTS.values())
    | {OVERHEAD}
)


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int | None] | None] = []
        self.stack: list[int] = []
        self.counts = {
            m: 0 for m in LAYER_METRICS if m != OVERHEAD and not m.endswith("_s")
        }

    @contextmanager
    def region(self, name: str):
        """A span around the enclosed block, child of the innermost open span."""
        nid = self.ids.setdefault(name, len(self.ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (nid, start, end, parent)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.region(name):
                result = fn(*args, **kwargs)
            if counted is not None:
                self.counts[counted[0]] += counted[1](args, result)
            return result

        return traced

    def time_import(self, module: str, name: str) -> None:
        """Record a span named ``name`` around the first import of ``module``,
        as a child of whatever span triggers that import."""
        tracer = self

        class Finder:
            @staticmethod
            def find_spec(fullname, path=None, target=None):
                if fullname != module:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(fullname, path)
                if spec is not None and spec.loader is not None:
                    spec.loader.exec_module = tracer.wrap(name, spec.loader.exec_module)
                return spec

        sys.meta_path.insert(0, Finder)

    def install(self) -> None:
        """Wrap the reflekt functions named in SELF_TIME and the operators
        named in OPERATOR_COUNTS.  Call after ``reflekt`` is imported."""
        for name in SELF_TIME:
            if name in REGIONS:
                continue
            mod_name, attr = name.split(".")
            mod = importlib.import_module(f"reflekt.{mod_name}")
            target = getattr(mod, attr)
            if isinstance(target, type):
                target.__init__ = self.wrap(name, target.__init__)
            else:
                setattr(mod, attr, self.wrap(name, target))
        exact = importlib.import_module("reflekt.exact")
        for (cls_name, methods), metric in OPERATOR_COUNTS.items():
            cls = getattr(exact, cls_name)
            for meth in methods:
                setattr(cls, meth, self._counting(metric, getattr(cls, meth)))

    def _counting(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[metric] += 1
            return fn(*args)

        return counted

    def layers(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs a second run."""
        out: dict[str, float] = {m: 0.0 for m in LAYER_METRICS if m.endswith("_s")}
        del out[OVERHEAD]
        out.update(self.counts)
        child = [0.0] * len(self.spans)
        for _nid, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for idx, (nid, start, end, _parent) in enumerate(self.spans):
            name = self.names[nid]
            out[SELF_TIME[name]] += (end - start) - child[idx]
            if name in CALLS:
                out[CALLS[name]] += 1
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent id."""
        with open(path, "w") as fh:
            for idx, (nid, start, end, parent) in enumerate(self.spans):
                record = {"id": idx, "name": self.names[nid], "start": start,
                          "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")

"""Span tracing from outside the program.

A :class:`Tracer` wraps selected public functions of the ``daha``
package for the length of one traced item run and puts the originals
back afterwards.  A wrapped name is replaced in *every* ``daha`` module
namespace that holds it, so nested calls made through a module's own
imports (``analysis`` calling ``span_closure``, ``linalg`` calling
``kernel``) are caught too.  Methods are wrapped on their class.

Spans live in flat arrays (index = span id) for the life of the tracer:
name, start, end, the span that caused it, and the item it belongs to.
Self time is a span's duration minus the time of its direct children;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute path, metric prefix).  The prefix follows
# <module>.<function>; a dunder method drops its underscores.
TARGETS = (
    ("linalg", "span_closure", "linalg.span_closure"),
    ("linalg", "Matrix.__mul__", "linalg.Matrix.mul"),
    ("linalg", "solve_sylvester_homogeneous", "linalg.solve_sylvester_homogeneous"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "solve_right", "linalg.solve_right"),
    ("scalar", "RatFun.__init__", "scalar.RatFun.init"),
    ("params", "canonical_orbit_rep", "params.canonical_orbit_rep"),
    ("modrep", "make_E", "modrep.make_E"),
    ("modrep", "make_O", "modrep.make_O"),
    ("modrep", "verify_relations", "modrep.verify_relations"),
    ("modrep", "central_character", "modrep.central_character"),
    ("modrep", "verma_apply", "modrep.verma_apply"),
    ("modrep", "poly_apply", "modrep.poly_apply"),
    ("modrep", "ModuleRep.from_json", "modrep.ModuleRep.from_json"),
    ("analysis", "criterion_E", "analysis.criterion_E"),
    ("analysis", "criterion_O", "analysis.criterion_O"),
    ("analysis", "burnside_irreducible", "analysis.burnside_irreducible"),
    ("analysis", "classify", "analysis.classify"),
    ("analysis", "twist", "analysis.twist"),
    ("analysis", "det_fingerprint", "analysis.det_fingerprint"),
    ("analysis", "find_intertwiner", "analysis.find_intertwiner"),
    ("cli", "main", "cli.main"),
)

ITEM = "item"

def _daha_modules():
    return [m for n, m in sys.modules.items() if n == "daha" or n.startswith("daha.")]


class Tracer:
    """Spans of one traced pass; see the module docstring."""

    def __init__(self):
        self.names = [ITEM] + [prefix for _, _, prefix in TARGETS]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._item = -1
        self.dim_sum = 0
        self.system_entries = 0
        self.kernel_dim_sum = 0
        self._restore = []
        self._probes = {
            "linalg.span_closure": self._closure_probe,
            "linalg.solve_sylvester_homogeneous": self._sylvester_probe,
        }

    # -- spans ------------------------------------------------------------

    def open(self, name_index: int) -> int:
        sid = len(self.start)
        self.name.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span_item(self, item_id: int):
        """Trace the calls made inside, under one root span per item."""
        self._item = item_id
        sid = self.open(0)
        try:
            yield
        finally:
            self.close(sid)
            self._item = -1

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, prefix: str):
        index = self._index[prefix]
        tracer = self
        probe = self._probes.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _closure_probe(self, args, dim):
        self.dim_sum += dim

    def _sylvester_probe(self, args, space):
        # the system has m*n rows per (A, B) pair and m*n columns
        self.system_entries += len(args[0]) * space.ambient * space.ambient
        self.kernel_dim_sum += space.dim

    def install(self, dh) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _daha_modules()
        for module_name, path, prefix in TARGETS:
            owner = getattr(dh, module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, prefix))
                else:
                    wrapped = self._wrap(original, prefix)
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(original, prefix)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results ----------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def metrics(self) -> dict:
        """Per-layer calls, self time in ms and the derived counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = [0.0] * len(self.start)
        by_parent = {}
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for sid in range(len(starts)):
            dur = ends[sid] - starts[sid]
            par = parents[sid]
            if par >= 0:
                child_s[par] += dur
                key = (names[par], names[sid])
                by_parent[key] = by_parent.get(key, 0) + 1
        for sid in range(len(starts)):
            k = names[sid]
            calls[k] += 1
            self_s[k] += ends[sid] - starts[sid] - child_s[sid]
        out = {}
        for k, prefix in enumerate(self.names):
            if prefix == ITEM:
                continue
            out[f"{prefix}.calls"] = calls[k]
            out[f"{prefix}.self_ms"] = self_s[k] * 1000.0
        idx = self._index
        products = by_parent.get((idx["linalg.span_closure"], idx["linalg.Matrix.mul"]), 0)
        searches = calls[idx["analysis.find_intertwiner"]]
        det_tries = by_parent.get((idx["analysis.find_intertwiner"], idx["linalg.det"]), 0)
        out["linalg.span_closure.dim_sum"] = self.dim_sum
        out["linalg.span_closure.products"] = products
        out["linalg.span_closure.insert_ratio"] = self.dim_sum / products if products else 0.0
        out["linalg.solve_sylvester_homogeneous.rows"] = self.system_entries
        out["linalg.solve_sylvester_homogeneous.kernel_dim_sum"] = self.kernel_dim_sum
        out["analysis.find_intertwiner.det_tries"] = det_tries / searches if searches else 0.0
        return out

    def write(self, path: str) -> None:
        """All spans as CSV, times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,item\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.names[self.name[sid]]},"
                    f"{round((self.start[sid] - t0) * 1e9)},"
                    f"{round((self.end[sid] - t0) * 1e9)},"
                    f"{self.parent[sid]},{self.item[sid]}\n"
                )

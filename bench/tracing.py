"""Per-layer tracing of tropctl from outside the package.

The tracer wraps the functions tropctl exports, the working methods of
`Matrix` and `Subspace`, the graph and series methods the layer metrics
name, and `cli.main`.  Each wrapper is installed under every name that
refers to the original, in every loaded tropctl module, so callers that
imported the name with `from .x import y` reach the wrapper too.  A name
that a later version of tropctl no longer has is skipped.

Spans (name, start, end, parent, operation) are kept in memory and written
out at the end.  Bookkeeping done for the counters (matrix shapes, entry bit
lengths) is timed and removed from the durations of the spans around it.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, class, methods) wrapped besides the exported functions; their
# spans are named "module.Class.method", the functions' "module.function"
CLASS_METHODS = [
    ("linalg", "Matrix", ("rref", "rank", "kernel", "mul_vec", "solve", "stack", "transpose")),
    ("linalg", "Subspace", ("span", "full", "contains_vector", "contains", "annihilator", "intersect")),
    ("graphs", "AbstractGraph", ("loop_part", "loop_decomposition")),
    ("laurent", "LaurentSeries", ("evaluate",)),
]


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "ovh_start", "ovh_end")

    def duration(self):
        return (self.end - self.start) - (self.ovh_end - self.ovh_start)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.overhead = 0.0  # seconds of counter bookkeeping so far
        self.op = None  # kind of the operation being run
        self.rref_shapes = []  # (rows, cols, nonzeros, max bits of the result)

    # -- installation ------------------------------------------------------------------

    def install(self):
        import tropctl
        from tropctl import cli

        modules = [m for name, m in sys.modules.items() if name == "tropctl" or name.startswith("tropctl.")]
        for name in getattr(tropctl, "__all__", ()):
            fn = getattr(tropctl, name, None)
            if inspect.isfunction(fn):
                short = fn.__module__.rsplit(".", 1)[-1]
                self._replace(modules, fn, self.wrap(f"{short}.{name}", fn))
        main = getattr(cli, "main", None)
        if inspect.isfunction(main):
            self._replace(modules, main, self.wrap("cli.main", main))
        for modname, clsname, attrs in CLASS_METHODS:
            cls = getattr(sys.modules.get(f"tropctl.{modname}"), clsname, None)
            for attr in attrs:
                raw = cls.__dict__.get(attr) if cls is not None else None
                name = f"{modname}.{clsname}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    post = self._rref_stats if name == "linalg.Matrix.rref" else None
                    setattr(cls, attr, self.wrap(name, raw, post))

    @staticmethod
    def _replace(modules, original, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def wrap(self, name, fn, post=None):
        tracer = self

        def traced(*args, **kwargs):
            span = Span()
            span.name = name
            span.op = tracer.op
            span.parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span)
            span.ovh_start = tracer.overhead
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.ovh_end = tracer.overhead
                tracer.stack.pop()
                tracer.spans.append(span)
            if post is not None:
                t0 = perf_counter()
                post(args, result)
                tracer.overhead += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _rref_stats(self, args, result):
        m = args[0]
        nonzeros = sum(1 for row in m.data for x in row if x)
        red = result[0]
        bits = 0
        for row in red.data:
            for x in row:
                if x:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        self.rref_shapes.append((m.rows, m.cols, nonzeros, bits))

    # -- results -------------------------------------------------------------------

    def write(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "op": s.op,
                    "start": round(s.start, 7),
                    "end": round(s.end, 7),
                    "excluded": round(s.ovh_end - s.ovh_start, 7),
                }
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, rounds, report_bytes):
        """Per-layer metrics, per round of the workload."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        inside = defaultdict(int)  # (ancestor name, name) -> calls
        for s in self.spans:
            d = s.duration()
            total[s.name] += d
            own[s.name] += d
            calls[s.name] += 1
            if s.parent is not None:
                own[s.parent.name] -= d
            seen = set()
            p = s.parent
            while p is not None:
                if p.name not in seen:
                    inside[(p.name, s.name)] += 1
                    seen.add(p.name)
                p = p.parent
        ops = defaultdict(int)
        chain_in_op = 0
        for s in self.spans:
            if s.name == "cli.main":
                ops[s.op] += 1
            elif s.name == "obstruction.dual_obstruction_chain" and s.op == "obstruction_chain":
                chain_in_op += 1

        def per_round(x):
            return x / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        shapes = self.rref_shapes
        return {
            "cli.main_s": per_round(total["cli.main"]),
            "cli.self_s": per_round(own["cli.main"]),
            "cli.report_bytes": per_round(report_bytes),
            "curves.parse_curve_s": per_round(total["curves.parse_curve"]),
            "curves.parse_curve_calls": per_round(calls["curves.parse_curve"]),
            "curves.contract_image_s": per_round(total["curves.contract_image"]),
            "curves.contract_image_calls": per_round(calls["curves.contract_image"]),
            "curves.replace_star_s": per_round(total["curves.replace_star"]),
            "graphs.loop_decomposition_s": per_round(total["graphs.AbstractGraph.loop_decomposition"]),
            "graphs.loop_part_s": per_round(total["graphs.AbstractGraph.loop_part"]),
            "graphs.loop_part_calls": per_round(calls["graphs.AbstractGraph.loop_part"]),
            "linalg.rref_s": per_round(total["linalg.Matrix.rref"]),
            "linalg.rref_calls": per_round(calls["linalg.Matrix.rref"]),
            "linalg.kernel_s": per_round(total["linalg.Matrix.kernel"]),
            "linalg.kernel_calls": per_round(calls["linalg.Matrix.kernel"]),
            "linalg.rank_calls": per_round(calls["linalg.Matrix.rank"]),
            "linalg.rref_cells": per_round(sum(r * c for r, c, _z, _b in shapes)),
            "linalg.rref_nonzeros": per_round(sum(z for _r, _c, z, _b in shapes)),
            "linalg.rref_max_cells": max((r * c for r, c, _z, _b in shapes), default=0),
            "linalg.rref_max_bits": max((b for _r, _c, _z, b in shapes), default=0),
            "linalg.rref_per_kernel": ratio(
                inside[("linalg.Matrix.kernel", "linalg.Matrix.rref")], calls["linalg.Matrix.kernel"]
            ),
            "obstruction.chain_s": per_round(total["obstruction.dual_obstruction_chain"]),
            "obstruction.chain_self_s": per_round(own["obstruction.dual_obstruction_chain"]),
            "obstruction.chain_calls_per_op": ratio(chain_in_op, ops["obstruction_chain"]),
            "obstruction.abundancy_map_s": per_round(total["obstruction.abundancy_map"]),
            "obstruction.reduced_abundancy_map_s": per_round(total["obstruction.reduced_abundancy_map"]),
            "obstruction.classify_report_s": per_round(total["obstruction.classify_report"]),
            "residues.xi_map_s": per_round(total["residues.xi_map"]),
            "residues.xi_map_self_s": per_round(own["residues.xi_map"]),
            "residues.xi_map_calls": per_round(calls["residues.xi_map"]),
            "residues.a_system_s": per_round(total["residues.a_system"]),
            "residues.degeneration_compare_s": per_round(total["residues.degeneration_compare"]),
            "residues.xi_per_compare": ratio(
                inside[("residues.degeneration_compare", "residues.xi_map")],
                calls["residues.degeneration_compare"],
            ),
            "laurent.evaluate_s": per_round(total["laurent.LaurentSeries.evaluate"]),
            "laurent.evaluate_calls": per_round(calls["laurent.LaurentSeries.evaluate"]),
            "laurent.phylo_tree_s": per_round(total["laurent.phylo_tree"]),
            "laurent.parse_laurent_doc_s": per_round(total["laurent.parse_laurent_doc"]),
        }


# unit of a per-layer metric, by the suffix of its name
LAYER_UNITS = {
    "_s": "s",
    "_calls": "count",
    "_bytes": "bytes",
    "_cells": "cells",
    "_nonzeros": "count",
    "_bits": "bits",
    "_per_kernel": "calls/kernel",
    "_per_op": "calls/op",
    "_per_compare": "calls/op",
}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)

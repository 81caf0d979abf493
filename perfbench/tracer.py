"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every ``secindex``
module that binds its name (``cli`` and the package import several by
name, ``index`` imports ``saturated_by_all_max_linkings``), plus
``numpy.linalg.svd``, which the oracle calls through the module.
``uninstall`` puts every original back.  A name that no longer exists is
recorded as absent instead of failing.

A span's self time is its duration minus the durations of the traced
spans it directly contains.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Layer -> public functions traced in that layer's module.
TRACED = {
    "cli": ("main",),
    "io": ("parse_system", "emit_report", "export_dot"),
    "model": ("build_attack_graph", "validate_assumptions"),
    "index": ("all_indices", "security_index"),
    "linking": ("saturated_by_all_max_linkings", "max_linking_size", "find_max_linking"),
    "oracle": ("sample_realization", "transfer_matrix", "generic_normal_rank", "numeric_index_vector"),
}
SVD_SPAN = "oracle.svd"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    # Span clock; ``run.py`` passes one that skips the host-speed samples.
    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, SpanStats] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    # Counters taken from arguments and results at the layer boundaries.
    input_bytes: int = 0
    report_bytes: int = 0
    graph_vertices: int = 0
    graph_edges: int = 0
    subsets_examined: int = 0
    finite_results: int = 0
    flows_under_all_indices: int = 0
    _child_time: list[float] = field(default_factory=list)
    _inside_all_indices: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "secindex"]
        for layer, names in TRACED.items():
            home = sys.modules[f"secindex.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                original = getattr(home, name, None)
                if original is None:
                    self.absent.append(span)
                    continue
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        import numpy.linalg

        self._patch(numpy.linalg, "svd", self._wrap(SVD_SPAN, numpy.linalg.svd))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, module: object, attr: str, wrapper: object) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, SpanStats())
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span == "linking.max_linking_size" and self._inside_all_indices:
                self.flows_under_all_indices += 1
            entering_all = span == "index.all_indices"
            self._inside_all_indices += entering_all
            self._child_time.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                child = self._child_time.pop()
                self._inside_all_indices -= entering_all
                stats.calls += 1
                stats.self_s += duration - child
                if self._child_time:
                    self._child_time[-1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_io_parse_system(self, args, result) -> None:
        self.input_bytes += len(args[0].encode("utf-8"))

    def _observe_io_emit_report(self, args, result) -> None:
        self.report_bytes += len(result.encode("utf-8"))

    def _observe_model_build_attack_graph(self, args, result) -> None:
        # From the dataclass fields only, so no lazily cached property is filled.
        self.graph_vertices += (
            len(result.state_names)
            + len(result.actuator_names)
            + len(result.sensor_names)
            + sum(1 for p in result.protected if not p)
        )
        self.graph_edges += len(result.edges)

    def _observe_index_all_indices(self, args, result) -> None:
        self.subsets_examined += sum(r.subsets_examined for r in result.results)
        self.finite_results += sum(1 for r in result.results if r.is_finite)

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values; absent spans are left out."""
        out: dict[str, float] = {}
        for span, stats in self.stats.items():
            out[f"{span}.calls"] = stats.calls
            out[f"{span}.self_s"] = stats.self_s
        out["io.input_bytes"] = self.input_bytes
        out["io.report_bytes"] = self.report_bytes
        out["model.graph_vertices"] = self.graph_vertices
        out["model.graph_edges"] = self.graph_edges
        out["index.subsets_examined"] = self.subsets_examined
        if self.subsets_examined:
            out["index.witness_yield"] = self.finite_results / self.subsets_examined
            if "linking.max_linking_size" not in self.absent:
                out["linking.flows_per_subset"] = self.flows_under_all_indices / self.subsets_examined
        return out

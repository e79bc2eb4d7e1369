"""Spans around the calls into each layer of the explain path.

The tracer replaces every public function of the layer modules, wherever a
``minaxp`` module binds it, with a wrapper that records one span per call:
its name, start, end, the span that was open when it began (its parent) and
the row being explained.  Calls made inside a module go through the module's
globals, so they are caught too.  Spans stay in memory until the run ends.

``layer_metrics`` turns the spans of the traced ``explain`` passes into the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("cli", "dataio", "model", "explain", "classified", "rejected", "baseline")

LAYER_UNITS = {
    "cli.self_s": "s",
    "dataio.load_dataset_s": "s",
    "dataio.parse_mb_per_s": "MB/s",
    "dataio.load_model_s": "s",
    "dataio.write_report_s": "s",
    "model.validate_calls_per_row": "count",
    "model.profile_calls_per_row": "count",
    "model.validate_us": "us",
    "model.predict_us": "us",
    "model.profile_us": "us",
    "explain.self_us": "us",
    "explain.boundary_tight_us": "us",
    "classified.greedy_us_p50": "us",
    "classified.greedy_ns_per_feature": "ns",
    "rejected.build_us": "us",
    "rejected.lift_us": "us",
    "rejected.solve_ms_p50": "ms",
    "rejected.solve_ms_p95": "ms",
    "rejected.nodes": "count",
    "rejected.nodes_per_s": "nodes/s",
    "baseline.us_per_row": "us",
    "baseline.extra_pins": "count",
    "trace.overhead_pct": "%",
}

_ROW_ARG = "explain.explain_instance"  # its third argument is the row id
_NODES = "rejected.solve_rejection_ilp"  # its result carries nodes_explored


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, parent, row, start, end, nodes]
        self._stack: list[int] = []
        self._row = -1
        self._wrappers: dict | None = None  # original function -> its wrapper
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                module = sys.modules[f"minaxp.{layer}"]
                for attr, fn in inspect.getmembers(module, inspect.isfunction):
                    if fn.__module__ == module.__name__ and not attr.startswith("_"):
                        self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "minaxp" and not name.startswith("minaxp."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sets_row = name == _ROW_ARG
        counts_nodes = name == _NODES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            previous_row = self._row
            if sets_row:
                self._row = args[2] if len(args) > 2 else kwargs["instance_id"]
            span = [name_id, stack[-1] if stack else -1, self._row, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                self._row = previous_row
            if counts_nodes:
                span[5] = result.nodes_explored
            return result

        return traced

    def save(self, path) -> None:
        """Write the spans as arrays, one entry per span, plus the name table."""
        cols = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez(
            path,
            names=np.array(self.names),
            name=cols[:, 0].astype(np.int64),
            parent=cols[:, 1].astype(np.int64),
            row=cols[:, 2].astype(np.int64),
            start=cols[:, 3],
            end=cols[:, 4],
            nodes=cols[:, 5].astype(np.int64),
        )


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _pass_metrics(names, name, duration, self_time, nodes, n_features, csv_mb):
    """Per-layer metrics of one traced ``explain`` pass (the spans of one cli.main)."""

    def pick(qualified):
        return name == names.index(qualified) if qualified in names else np.zeros(name.size, bool)

    layer_of = np.array([n.split(".", 1)[0] for n in names])[name]
    rows = int(pick("explain.explain_instance").sum())
    greedy = pick("classified.explain_positive") | pick("classified.explain_negative")
    solve = pick("rejected.solve_rejection_ilp")
    solve_s = duration[solve]
    load_s = float(duration[pick("dataio.load_dataset")].sum())
    return {
        "cli.self_s": float(self_time[layer_of == "cli"].sum()),
        "dataio.load_dataset_s": load_s,
        "dataio.parse_mb_per_s": csv_mb / load_s if load_s else 0.0,
        "dataio.load_model_s": float(duration[pick("dataio.load_model")].sum()),
        "dataio.write_report_s": float(duration[pick("dataio.write_explanation_report")].sum()),
        "model.validate_calls_per_row": int(pick("model.validate_instance").sum()) / rows,
        "model.profile_calls_per_row": int(pick("model.coefficient_profile").sum()) / rows,
        "model.validate_us": 1e6 * _mean(duration[pick("model.validate_instance")]),
        "model.predict_us": 1e6 * _mean(duration[pick("model.predict")]),
        "model.profile_us": 1e6 * _mean(duration[pick("model.coefficient_profile")]),
        "explain.self_us": 1e6 * _mean(self_time[pick("explain.explain_instance")]),
        "explain.boundary_tight_us": 1e6 * _mean(duration[pick("explain.boundary_tight")]),
        "classified.greedy_us_p50": 1e6 * _percentile(self_time[greedy], 50),
        "classified.greedy_ns_per_feature": (
            1e9 * float(self_time[greedy].sum()) / (int(greedy.sum()) * n_features)
            if greedy.any()
            else 0.0
        ),
        "rejected.build_us": 1e6 * _mean(duration[pick("rejected.build_rejection_ilp")]),
        "rejected.lift_us": 1e6 * _mean(duration[pick("rejected.explanation_from_solution")]),
        "rejected.solve_ms_p50": 1e3 * _percentile(solve_s, 50),
        "rejected.solve_ms_p95": 1e3 * _percentile(solve_s, 95),
        "rejected.nodes": int(nodes[solve].sum()),
        "rejected.nodes_per_s": float(nodes[solve].sum() / solve_s.sum()) if solve.any() else 0.0,
        "baseline.us_per_row": 1e6
        * _mean(duration[pick("baseline.subset_minimal_explanation")]),
    }


def layer_metrics(spans_path, n_features: int, csv_bytes: int) -> dict:
    """Median over the traced passes of each per-layer metric.

    Self time is a span's duration less the time its direct children cover.
    Counts (calls per row, nodes) are the same in every pass of one seed.
    """
    data = np.load(spans_path)
    names = data["names"].tolist()
    name, parent = data["name"], data["parent"]
    duration = data["end"] - data["start"]
    children = np.bincount(
        parent[parent >= 0], weights=duration[parent >= 0], minlength=name.size
    )
    self_time = duration - children

    # Each traced pass is one top-level cli.main span; spans are stored in
    # the order they open, so its descendants are the spans up to the next
    # top-level one.
    top = np.flatnonzero(parent < 0)
    if not all(names[i] == "cli.main" for i in name[top]):
        raise ValueError("a traced span opened outside cli.main")
    passes = []
    for a, b in zip(top, list(top[1:]) + [name.size]):
        passes.append(
            _pass_metrics(
                names,
                name[a:b],
                duration[a:b],
                self_time[a:b],
                data["nodes"][a:b],
                n_features,
                csv_bytes / 1e6,
            )
        )
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}

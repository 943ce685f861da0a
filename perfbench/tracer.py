"""In-memory span recorder and the rebinding that feeds it.

A span is (name, start, end, parent); the layer of a span is the part of
its name before the first dot, so `acpf.eval_H` belongs to `acpf`. Spans
named `bench.*` are the benchmark's own root spans, one per operation:
whatever part of them no layer span covers is the remainder. Counters
(bytes, iterations, pivots) are recorded at the same call boundaries as the
spans.

No span is recorded in a timed run. The workloads call the library through
its module attributes, and only the traced run rebinds those attributes (and
the names the library's modules import from each other) to span-recording
wrappers.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import acrestore.acpf
import acrestore.fileio
import acrestore.lpac
import acrestore.netmodel
import acrestore.scenarios
import acrestore.sens
import acrestore.train
import acrestore.wls

ROOT_LAYER = "bench"


def _count_wls(tracer, args, result):
    tracer.count("wls.gn_iters", result.iterations)
    tracer.count("wls.converged", float(result.converged))


def _count_read(tracer, args, result):
    tracer.count("fileio.read.bytes", os.path.getsize(args[0]))


def _count_write(tracer, args, result):
    tracer.count("fileio.write.bytes", os.path.getsize(args[0]))


def _count_simplex(tracer, args, result):
    m, n = result.std.a_mat.shape
    tracer.count("lpac.pivots", result.iterations)
    # phase 1 pivots on an (m + 1) x (n + m + 1) tableau: n structural and
    # slack columns, m artificials, one right-hand side
    tracer.count("lpac.tableau_cells", (m + 1) * (n + m + 1))


# Call sites rebound in the traced run: (module or class, attribute, span
# name, counter hook). The first group are the module attributes the
# workloads call; the rest are names one library module imported from
# another, so calls made inside the library get spans too.
SITES = (
    (acrestore.fileio, "read_solution", "fileio.read_solution", _count_read),
    (acrestore.fileio, "solution_to_measurements", "fileio.solution_to_measurements", None),
    (acrestore.fileio, "operating_point_solution", "fileio.operating_point_solution", None),
    (acrestore.fileio, "write_solution", "fileio.write_solution", _count_write),
    (acrestore.train, "default_initial_weights", "train.default_initial_weights", None),
    (acrestore.train, "train_weights", "train.train_weights", None),
    (acrestore.wls, "wls_restore", "wls.wls_restore", _count_wls),
    (acrestore.acpf, "operating_point", "acpf.operating_point", None),
    (acrestore.acpf, "constraint_report", "acpf.constraint_report", None),
    (acrestore.netmodel.Network, "with_loads", "netmodel.with_loads", None),
    (acrestore.scenarios, "ground_truth_states", "scenarios.ground_truth_states", None),
    (acrestore.lpac, "build_lpac", "lpac.build_lpac", None),
    (acrestore.lpac, "simplex_solve", "lpac.simplex_solve", _count_simplex),
    (acrestore.lpac, "extract_solution", "lpac.extract_solution", None),
    (acrestore.lpac, "lpac_to_measurements", "lpac.lpac_to_measurements", None),
    (acrestore.wls, "eval_H", "acpf.eval_H", None),
    (acrestore.wls, "eval_h", "acpf.eval_h", None),
    (acrestore.sens, "eval_H", "acpf.eval_H", None),
    (acrestore.sens, "eval_h", "acpf.eval_h", None),
    (acrestore.train, "wls_restore", "wls.wls_restore", _count_wls),
    (acrestore.train, "solution_sensitivity", "sens.solution_sensitivity", None),
    (acrestore.train, "adam_step", "train.adam_step", None),
    (acrestore.scenarios, "newton_pf", "acpf.newton_pf", None),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records the spans and counters of one traced phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        end = perf_counter()
        self.spans[index][2] = end
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        return end - self.spans[index][1]

    def count(self, name: str, value: float = 1.0):
        self.counters[name] += value

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; then `after(tracer, args, result)` runs outside
        the span, so its cost lands in the parent. Calls made outside an
        operation (the output checks) are passed straight through."""

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                fh,
            )


@contextmanager
def rebound(sites):
    """Temporarily replace attributes: sites is [(owner, attribute, value)]."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in sites]
    try:
        for owner, attr, value in sites:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def traced_sites(tracer: Tracer):
    """The rebinding of SITES that routes their calls through tracer."""
    return [
        (owner, attr, tracer.wrap(name, owner.__dict__[attr], after))
        for owner, attr, name, after in SITES
    ]


def aggregate(tracer: Tracer) -> dict:
    """Per-span-name totals plus per-layer self time and the remainder.

    Returns {"busy": {name: seconds}, "calls": {name: n}, "self": {layer:
    seconds}, "counters": {name: total}, "root_s": seconds}. Self time is a
    span's duration minus the time its direct children cover; children of
    one span never overlap because the run is single-threaded.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    root_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        busy[name] += duration
        calls[name] += 1
        self_time[layer_of(name)] += duration - child_time[index]
        if parent < 0:
            root_s += duration
    return {
        "busy": dict(busy),
        "calls": dict(calls),
        "self": dict(self_time),
        "counters": dict(tracer.counters),
        "root_s": root_s,
    }

"""End-to-end and per-layer metric definitions.

Every per-layer metric names the end-to-end metric and workload it should
move; the traced run prints that tag beside the value. Per-layer values are
per operation of the traced phase unless the unit says otherwise.
"""

from __future__ import annotations

import math
import statistics

from tracer import ROOT_LAYER

LAYERS = ("netmodel", "fileio", "acpf", "wls", "sens", "train", "scenarios", "lpac")

RESTORE, TRAIN, LPAC = "restore-118", "train-57", "lpac-dataset-14"

# name: (unit, better, what it is)
END_TO_END = {
    "setup_s": ("s", "lower", "process start to the first timed operation (import, "
                "case parse, input generation): median over eight fresh processes, four "
                "before the measured run and four after it"),
    "op_ms_p50": ("ms", "lower", "median operation time"),
    "ops_per_s": ("1/s", "higher", "operations completed per second of timed work"),
    "state_err": ("pu2", "lower", "mean per record of squared voltage-state distance "
                  "to the ground truth over the state dimension (the paper's loss)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the process"),
}


def percentile(sorted_values, q):
    """Nearest-rank percentile; failed operations enter as +inf."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latencies_ms(results):
    return sorted(r.seconds * 1e3 if r.ok else math.inf for r in results)


def end_to_end(results, setup_s, state_err, peak_rss_mb):
    """Values of END_TO_END plus the printed-only p90 and failed_frac."""
    lat = latencies_ms(results)
    ok = sum(r.ok for r in results)
    return {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": percentile(lat, 0.9),
        "ops_per_s": ok / sum(r.seconds for r in results),
        "failed_frac": (len(results) - ok) / len(results),
        "state_err": state_err,
        "peak_rss_mb": peak_rss_mb,
    }


def _busy(*names):
    return lambda a, ops: 1e3 * sum(a["busy"].get(n, 0.0) for n in names) / ops


def _calls(name):
    return lambda a, ops: a["calls"].get(name, 0) / ops


def _self(layer):
    return lambda a, ops: 1e3 * a["self"].get(layer, 0.0) / ops


def _counter(name, per_op=True):
    return lambda a, ops: a["counters"].get(name, 0.0) / (ops if per_op else 1)


def _ratio(num, den):
    def get(a, ops):
        d = den(a, ops)
        return num(a, ops) / d if d else 0.0
    return get


_ALL = f"{RESTORE}, {TRAIN}, {LPAC}"
_RT = f"moves op_ms_p50 on {RESTORE}, {TRAIN}"
_GN = f"moves op_ms_p50, ops_per_s on {RESTORE}; op_ms_p50 on {TRAIN}"
_LP = f"moves op_ms_p50, ops_per_s on {LPAC}"
_R = f"moves op_ms_p50 on {RESTORE}"
_T = f"moves op_ms_p50 on {TRAIN}"
_L = f"moves op_ms_p50 on {LPAC}"

# name: (unit, better, tag, value from (aggregate, traced ops)); the tag names
# the end-to-end metric and workload the value should move. The trace.*
# entries that need both phases are filled in by per_layer.
PER_LAYER = {
    "acpf.eval_h.calls": ("calls/op", "lower", _RT, _calls("acpf.eval_h")),
    "acpf.eval_h.busy_ms": ("ms/op", "lower", _RT, _busy("acpf.eval_h")),
    "acpf.eval_H.calls": ("calls/op", "lower", _RT, _calls("acpf.eval_H")),
    "acpf.eval_H.busy_ms": ("ms/op", "lower", _RT, _busy("acpf.eval_H")),
    "acpf.report.busy_ms": ("ms/op", "lower", _R,
                            _busy("acpf.operating_point", "acpf.constraint_report")),
    "acpf.newton_pf.calls": ("calls/op", "lower", _L, _calls("acpf.newton_pf")),
    "acpf.newton_pf.busy_ms": ("ms/op", "lower", _L, _busy("acpf.newton_pf")),
    "acpf.self_ms": ("ms/op", "lower", f"moves op_ms_p50 on {_ALL}", _self("acpf")),
    "wls.calls": ("calls/op", "lower", _GN, _calls("wls.wls_restore")),
    "wls.self_ms": ("ms/op", "lower", _GN, _self("wls")),
    "wls.gn_iters": ("iters/op", "lower", _GN, _counter("wls.gn_iters")),
    "wls.converged_ratio": ("ratio", "higher", _GN,
                            _ratio(_counter("wls.converged"), _calls("wls.wls_restore"))),
    "sens.calls": ("calls/op", "lower", _T, _calls("sens.solution_sensitivity")),
    "sens.self_ms": ("ms/op", "lower", _T, _self("sens")),
    "train.self_ms": ("ms/op", "lower", _T, _self("train")),
    "train.records_skipped": ("records/op", "lower", _T, _counter("train.records_skipped")),
    "fileio.read.busy_ms": ("ms/op", "lower", _R, _busy("fileio.read_solution")),
    "fileio.read.bytes": ("bytes/op", "lower", _R, _counter("fileio.read.bytes")),
    "fileio.write.busy_ms": ("ms/op", "lower", _R, _busy("fileio.write_solution")),
    "fileio.write.bytes": ("bytes/op", "lower", _R, _counter("fileio.write.bytes")),
    "fileio.self_ms": ("ms/op", "lower", _R, _self("fileio")),
    "lpac.build.busy_ms": ("ms/op", "lower", _LP, _busy("lpac.build_lpac")),
    "lpac.simplex.busy_ms": ("ms/op", "lower", _LP, _busy("lpac.simplex_solve")),
    "lpac.pivots": ("pivots/op", "lower", _LP, _counter("lpac.pivots")),
    "lpac.ms_per_pivot": ("ms", "lower", _LP,
                          _ratio(_busy("lpac.simplex_solve"), _counter("lpac.pivots"))),
    "lpac.tableau_cells": ("cells/op", "lower", _LP + " (computed: (m+1)(n+m+1) of phase 1)",
                           _counter("lpac.tableau_cells")),
    "lpac.failures": ("count", "lower", f"moves failed_frac on {LPAC} (SimplexError or rejected certificate)",
                      _counter("lpac.failures", per_op=False)),
    "lpac.self_ms": ("ms/op", "lower", _LP, _self("lpac")),
    "scenarios.ground_truth.busy_ms": ("ms/op", "lower", _L,
                                       _busy("scenarios.ground_truth_states")),
    "scenarios.self_ms": ("ms/op", "lower", _L, _self("scenarios")),
    "netmodel.with_loads.busy_ms": ("ms/op", "lower", _L, _busy("netmodel.with_loads")),
    "netmodel.self_ms": ("ms/op", "lower", _L, _self("netmodel")),
    "trace.remainder_ms": ("ms/op", "lower", f"moves op_ms_p50 on {_ALL}; time no layer span covers",
                           _self(ROOT_LAYER)),
    "trace.op_ms_mean": ("ms/op", "lower", "traced op time: the sum of every *.self_ms and trace.remainder_ms",
                         lambda a, ops: 1e3 * a["root_s"] / ops),
    "trace.op_ms_p50": ("ms", "lower", "op_ms_p50 with tracing on", None),
    "trace.untraced_op_ms_p50": ("ms", "lower", "op_ms_p50 with tracing off, same run and inputs", None),
    "trace.overhead_ratio": ("ratio", "lower", "tracing overhead: trace.op_ms_p50 / trace.untraced_op_ms_p50", None),
}


def per_layer(aggregate, traced, untraced):
    """Every PER_LAYER value from the traced phase's aggregate and both phases' results."""
    ops = len(traced)
    values = {
        name: get(aggregate, ops)
        for name, (_, _, _, get) in PER_LAYER.items()
        if get is not None
    }
    values["trace.op_ms_p50"] = statistics.median(latencies_ms(traced))
    values["trace.untraced_op_ms_p50"] = statistics.median(latencies_ms(untraced))
    values["trace.overhead_ratio"] = (
        values["trace.op_ms_p50"] / values["trace.untraced_op_ms_p50"]
    )
    return values


def self_time_balance(values):
    """traced op time minus (layer self times + remainder); zero up to rounding."""
    parts = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
    return values["trace.op_ms_mean"] - parts - values["trace.remainder_ms"]

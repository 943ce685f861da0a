"""Interchange file formats: solutions, weights, datasets, traces, reports.

Everything is schema-versioned JSON (plus tab-separated text for plot-ready
curves), so external solver scripts in any ecosystem can produce or consume
the artifacts. All writes go through a temp-file-then-rename so readers
never observe partial files.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .acpf import (
    ALL_KINDS,
    BRANCH_KINDS,
    BUS_KINDS,
    MeasurementKind,
    MeasurementSet,
    OperatingPoint,
    StateVector,
    canonical_kinds,
    compile_layout,
)
from .netmodel import Network
from .train import ScenarioRecord, check_layout
from .wls import check_weights

SOLUTION_SCHEMA = "acrestore-solution/1"
WEIGHTS_SCHEMA = "acrestore-weights/1"
MANIFEST_SCHEMA = "acrestore-dataset/1"
RECORD_SCHEMA = "acrestore-record/1"
REPORT_SCHEMA = "acrestore-report/1"


class FormatError(ValueError):
    """Unreadable or mismatched interchange file."""


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict):
    # compact: indentation forces json's pure-Python encoder
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def read_json(path, expected_schema: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if payload.get("schema") != expected_schema:
        raise FormatError(
            f"{path}: schema {payload.get('schema')!r}, expected {expected_schema!r}"
        )
    return payload


def require(payload: dict, key: str, path):
    """payload[key], or a FormatError naming the file and the missing key."""
    if key not in payload:
        raise FormatError(f"{path}: missing field {key!r}")
    return payload[key]


def finite_array(values, path, field: str) -> np.ndarray:
    """values as a float array, or a FormatError naming the file, the field
    and, where one is NaN or infinite, its first such entry."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # a string, null or ragged list
        raise FormatError(f"{path}: {field}: {exc}") from exc
    bad = ~np.isfinite(out)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise FormatError(f"{path}: {field}[{i}] is {out.flat[i]}, want a finite value")
    return out


def check_network_hash(payload: dict, network: Network, path):
    stored = payload.get("network_hash")
    if stored and stored != network.case_hash:
        raise FormatError(
            f"{path}: file was produced for a different network (hash mismatch)"
        )


# ---------------------------------------------------------------------------
# measurement-kind layout descriptors
# ---------------------------------------------------------------------------


def kind_to_json(network: Network, kind: MeasurementKind) -> dict:
    if kind.kind in BUS_KINDS:
        return {"kind": kind.kind, "bus": network.buses[kind.index].id}
    br = network.branches[kind.index]
    return {
        "kind": kind.kind,
        "branch": kind.index,
        "from": br.from_bus,
        "to": br.to_bus,
    }


def kind_from_json(network: Network, item: dict) -> MeasurementKind:
    name = item.get("kind")
    if name in BUS_KINDS:
        bus = item.get("bus")
        if bus not in network.bus_index:
            raise FormatError(f"unknown bus {bus!r} in layout")
        return MeasurementKind(name, network.bus_index[bus])
    if name in BRANCH_KINDS:
        branch = item.get("branch")
        if not isinstance(branch, int) or not (0 <= branch < network.n_branch):
            raise FormatError(f"unknown branch {branch!r} in layout")
        return MeasurementKind(name, branch)
    raise FormatError(f"unknown measurement kind {name!r}")


def layout_to_json(network: Network, kinds) -> list:
    return [kind_to_json(network, k) for k in kinds]


def layout_from_json(network: Network, items) -> tuple:
    """The layout's kinds; the canonical tuple itself when they equal it, so
    its compiled layout is reused."""
    kinds = tuple(kind_from_json(network, item) for item in items)
    canonical = canonical_kinds(network)
    return canonical if kinds == canonical else kinds


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionFile:
    """A (possibly inconsistent) operating solution from any formulation.

    vm is required; va is optional since some relaxations carry no angle
    variables; injections, flows, and generator outputs are optional groups.
    """

    formulation: str
    vm: np.ndarray
    va: np.ndarray | None = None
    p_inj: np.ndarray | None = None
    q_inj: np.ndarray | None = None
    flows: np.ndarray | None = None  # (n_branch, 4)
    p_gen: np.ndarray | None = None
    q_gen: np.ndarray | None = None


def solution_to_json(network: Network, sol: SolutionFile) -> dict:
    def arr(a):
        return None if a is None else np.asarray(a).tolist()

    payload = {
        "schema": SOLUTION_SCHEMA,
        "formulation": sol.formulation,
        "base_mva": network.base_mva,
        "network_hash": network.case_hash,
        "bus": {
            "ids": [b.id for b in network.buses],
            "vm": arr(sol.vm),
            "va": arr(sol.va),
            "p_inj": arr(sol.p_inj),
            "q_inj": arr(sol.q_inj),
        },
        "branch": {
            "from": [br.from_bus for br in network.branches],
            "to": [br.to_bus for br in network.branches],
            "p_from": arr(None if sol.flows is None else sol.flows[:, 0]),
            "q_from": arr(None if sol.flows is None else sol.flows[:, 1]),
            "p_to": arr(None if sol.flows is None else sol.flows[:, 2]),
            "q_to": arr(None if sol.flows is None else sol.flows[:, 3]),
        },
        "gen": {
            "bus": [g.bus for g in network.generators],
            "p": arr(sol.p_gen),
            "q": arr(sol.q_gen),
        },
    }
    return payload


def write_solution(path, network: Network, sol: SolutionFile):
    write_json(path, solution_to_json(network, sol))


def read_solution(path, network: Network) -> SolutionFile:
    payload = read_json(path, SOLUTION_SCHEMA)
    check_network_hash(payload, network, path)
    base = payload.get("base_mva")
    if base is not None and base != network.base_mva:
        raise FormatError(
            f"{path}: per-unit base {base} differs from the case's "
            f"{network.base_mva}"
        )
    if payload.get("bus", {}).get("ids") != [b.id for b in network.buses]:
        raise FormatError(f"{path}: bus ids do not match the loaded case")

    def arr(group, name, length):
        values = payload.get(group, {}).get(name)
        if values is None:
            return None
        out = finite_array(values, path, f"{group}.{name}")
        if out.size != length:
            raise FormatError(f"{path}: field {group}.{name} has length {out.size}, want {length}")
        return out

    vm = arr("bus", "vm", network.n_bus)
    if vm is None:
        raise FormatError(f"{path}: per-bus vm is required")
    flow_parts = [arr("branch", f, network.n_branch) for f in ("p_from", "q_from", "p_to", "q_to")]
    if any(p is None for p in flow_parts):
        flows = None
    else:
        flows = np.column_stack(flow_parts)
    return SolutionFile(
        formulation=str(payload.get("formulation", "unknown")),
        vm=vm,
        va=arr("bus", "va", network.n_bus),
        p_inj=arr("bus", "p_inj", network.n_bus),
        q_inj=arr("bus", "q_inj", network.n_bus),
        flows=flows,
        p_gen=arr("gen", "p", network.n_gen),
        q_gen=arr("gen", "q", network.n_gen),
    )


def solution_to_measurements(network: Network, sol: SolutionFile) -> MeasurementSet:
    """Measurement set in canonical ordering from whichever groups exist.

    Angles are re-referenced by subtracting the file's slack angle, keeping
    them comparable to the internal zero-at-slack convention.
    """
    present = {"vm": sol.vm}
    if sol.va is not None:
        present["va"] = np.asarray(sol.va) - sol.va[network.slack]
    if sol.p_inj is not None:
        present["pinj"] = sol.p_inj
    if sol.q_inj is not None:
        present["qinj"] = sol.q_inj
    if sol.flows is not None:
        present.update(zip(BRANCH_KINDS, np.asarray(sol.flows).T))
    # the canonical tuple itself when every group is present, so its
    # compiled layout is reused
    kinds = canonical_kinds(network)
    if len(present) < len(ALL_KINDS):
        kinds = tuple(k for k in kinds if k.kind in present)
    values = np.concatenate([present[name] for name in ALL_KINDS if name in present])
    return MeasurementSet(kinds, values)


def operating_point_solution(network: Network, op: OperatingPoint, formulation: str) -> SolutionFile:
    return SolutionFile(
        formulation=formulation,
        vm=op.state.vm.copy(),
        va=op.state.va.copy(),
        p_inj=op.p_inj.copy(),
        q_inj=op.q_inj.copy(),
        flows=op.flows.copy(),
        p_gen=op.p_gen.copy(),
        q_gen=op.q_gen.copy(),
    )


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------


def write_weights(path, network: Network, kinds, weights: np.ndarray):
    payload = {
        "schema": WEIGHTS_SCHEMA,
        "network_hash": network.case_hash,
        "layout": layout_to_json(network, kinds),
        "values": np.asarray(weights, dtype=float).tolist(),
    }
    write_json(path, payload)


def read_weights(path, network: Network):
    payload = read_json(path, WEIGHTS_SCHEMA)
    check_network_hash(payload, network, path)
    kinds = layout_from_json(network, require(payload, "layout", path))
    values = require(payload, "values", path)
    try:
        values = check_weights(values, len(kinds))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return kinds, values


# ---------------------------------------------------------------------------
# scenario datasets
# ---------------------------------------------------------------------------


def state_to_json(state: StateVector) -> dict:
    return {"vm": state.vm.tolist(), "va": state.va.tolist()}


def write_dataset(root, network: Network, records, train_idx, test_idx, meta: dict):
    """Manifest plus one record file per scenario under `root`."""
    layout = check_layout(records)
    root = os.fspath(root)
    os.makedirs(os.path.join(root, "records"), exist_ok=True)
    names = []
    for rec in records:
        name = f"records/s{rec.index:05d}.json"
        names.append(name)
        write_json(
            os.path.join(root, name),
            {
                "schema": RECORD_SCHEMA,
                "index": rec.index,
                "source": rec.source_tag,
                "p_load": rec.p_load.tolist(),
                "q_load": rec.q_load.tolist(),
                "x_ac": state_to_json(rec.x_ac),
                "z": rec.z.values.tolist(),
            },
        )
    present = {rec.index for rec in records}
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "network_hash": network.case_hash,
        "layout": layout_to_json(network, layout),
        "train_indices": [i for i in train_idx if i in present],
        "test_indices": [i for i in test_idx if i in present],
        "records": names,
        **meta,
    }
    write_json(os.path.join(root, "manifest.json"), manifest)


def _read_record(path, network: Network, kinds) -> ScenarioRecord:
    """One record file of a dataset whose measurement layout is `kinds`."""
    payload = read_json(path, RECORD_SCHEMA)

    def per_bus(group, prefix, keys):
        fields = [prefix + key for key in keys]
        arrays = [finite_array(require(group, key, path), path, field)
                  for key, field in zip(keys, fields)]
        if any(a.shape != (network.n_bus,) for a in arrays):
            raise FormatError(f"{path}: {' and '.join(fields)} need {network.n_bus} entries each")
        return arrays

    p_load, q_load = per_bus(payload, "", ("p_load", "q_load"))
    vm, va = per_bus(require(payload, "x_ac", path), "x_ac.", ("vm", "va"))
    z = finite_array(require(payload, "z", path), path, "z")
    if z.shape != (len(kinds),):
        raise FormatError(f"{path}: z has {z.size} values, the layout {len(kinds)} entries")
    try:
        x_ac = StateVector(vm, va, network.slack)
    except ValueError as exc:
        raise FormatError(f"{path}: x_ac: {exc}") from exc
    return ScenarioRecord(
        p_load=p_load,
        q_load=q_load,
        x_ac=x_ac,
        z=MeasurementSet(kinds, z),
        source_tag=str(payload.get("source", "unknown")),
        index=int(require(payload, "index", path)),
    )


def read_dataset(root, network: Network):
    """Returns (records, train_records, test_records, manifest)."""
    root = os.fspath(root)
    manifest_path = os.path.join(root, "manifest.json")
    manifest = read_json(manifest_path, MANIFEST_SCHEMA)
    check_network_hash(manifest, network, root)
    kinds = layout_from_json(network, require(manifest, "layout", manifest_path))
    compile_layout(network, kinds)  # one shared layout, validated once
    records = [_read_record(os.path.join(root, name), network, kinds)
               for name in require(manifest, "records", manifest_path)]
    by_index = {rec.index: rec for rec in records}
    try:
        train = [by_index[i] for i in require(manifest, "train_indices", manifest_path)]
        test = [by_index[i] for i in require(manifest, "test_indices", manifest_path)]
    except KeyError as exc:
        raise FormatError(f"{manifest_path}: no record has index {exc.args[0]!r}") from exc
    return records, train, test, manifest


# ---------------------------------------------------------------------------
# training traces and evaluation reports
# ---------------------------------------------------------------------------


def write_trace(path, trace):
    lines = ["iteration\tloss\tgrad_max"]
    for i, (loss_value, grad_norm) in enumerate(zip(trace.loss, trace.grad_norm), start=1):
        lines.append(f"{i}\t{loss_value:.12g}\t{grad_norm:.12g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0].split("\t") != ["iteration", "loss", "grad_max"]:
        raise FormatError(f"{path}: not a training trace")
    rows = [tuple(float(tok) for tok in line.split("\t")) for line in lines[1:]]
    return rows


def write_report(path_json, path_tsv, report: dict):
    payload = {"schema": REPORT_SCHEMA, **report}
    write_json(path_json, payload)
    lines = ["method\tloss\tmean_time_s\tmax_violation"]
    for method, entry in report["methods"].items():
        lines.append(
            f"{method}\t{entry['loss']:.12g}\t{entry['mean_time_s']:.12g}"
            f"\t{entry['violations']['max']:.12g}"
        )
    atomic_write_text(path_tsv, "\n".join(lines) + "\n")


def write_curve(path, points):
    lines = ["train_scenarios\ttest_loss"]
    for count, loss_value in points:
        lines.append(f"{count}\t{loss_value:.12g}")
    atomic_write_text(path, "\n".join(lines) + "\n")

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest

from acrestore import (
    benchmark_restore,
    canonical_kinds,
    eval_h,
    load_bundled_case,
    newton_pf,
    operating_point,
    serialize_case,
)
from acrestore import fileio, netmodel
from acrestore.acpf import MeasurementError, MeasurementKind, MeasurementSet
from acrestore.fileio import (
    FormatError,
    SolutionFile,
    network_hash,
    read_dataset,
    read_solution,
    read_trace,
    read_weights,
    solution_to_measurements,
    write_dataset,
    write_solution,
    write_trace,
    write_weights,
)
from acrestore.scenarios import ScenarioSpec, dispatch_spec, gen_load_scenarios, synth_dataset
from acrestore.train import TrainTrace, default_initial_weights


def solved_solution(network):
    state = newton_pf(network, dispatch_spec(network))
    op = operating_point(network, state)
    return fileio.operating_point_solution(network, op, "pf")


def test_solution_roundtrip(case5, tmp_path):
    sol = solved_solution(case5)
    path = tmp_path / "sol.json"
    write_solution(path, case5, sol)
    again = read_solution(path, case5)
    assert again.formulation == "pf"
    assert again.vm == pytest.approx(sol.vm)
    assert again.va == pytest.approx(sol.va)
    assert again.flows == pytest.approx(sol.flows)
    assert again.p_gen == pytest.approx(sol.p_gen)


def test_solution_hash_mismatch_rejected(case5, case14, tmp_path):
    sol = solved_solution(case5)
    path = tmp_path / "sol.json"
    write_solution(path, case5, sol)
    with pytest.raises(FormatError):
        read_solution(path, case14)


def test_solution_without_angles(case5, tmp_path):
    sol = solved_solution(case5)
    stripped = SolutionFile(formulation="socp", vm=sol.vm, p_inj=sol.p_inj, q_inj=sol.q_inj)
    path = tmp_path / "sol.json"
    write_solution(path, case5, stripped)
    again = read_solution(path, case5)
    assert again.va is None
    z = solution_to_measurements(case5, again)
    assert all(k.kind != "va" for k in z.kinds)
    assert z.m == 3 * case5.n_bus


def test_measurements_re_reference_angles(case5, tmp_path):
    sol = solved_solution(case5)
    shifted = SolutionFile(
        formulation="pf", vm=sol.vm, va=sol.va + 0.3, p_inj=sol.p_inj, q_inj=sol.q_inj
    )
    z = solution_to_measurements(case5, shifted)
    va_rows = [i for i, k in enumerate(z.kinds) if k.kind == "va"]
    assert z.values[va_rows][case5.slack] == pytest.approx(0.0)
    z_ref = solution_to_measurements(
        case5, SolutionFile("pf", sol.vm, sol.va, sol.p_inj, sol.q_inj)
    )
    assert z.values == pytest.approx(z_ref.values)


def hand_built_measurements(network, sol):
    """Reference: the canonical layout built kind by kind from Python lists."""
    kinds, values = [], []
    kinds += [MeasurementKind("vm", i) for i in range(network.n_bus)]
    values += list(sol.vm)
    if sol.va is not None:
        va = np.asarray(sol.va) - sol.va[network.slack]
        kinds += [MeasurementKind("va", i) for i in range(network.n_bus)]
        values += list(va)
    if sol.p_inj is not None:
        kinds += [MeasurementKind("pinj", i) for i in range(network.n_bus)]
        values += list(sol.p_inj)
    if sol.q_inj is not None:
        kinds += [MeasurementKind("qinj", i) for i in range(network.n_bus)]
        values += list(sol.q_inj)
    if sol.flows is not None:
        for col, name in enumerate(("pf", "qf", "pt", "qt")):
            kinds += [MeasurementKind(name, e) for e in range(network.n_branch)]
            values += list(sol.flows[:, col])
    return MeasurementSet(tuple(kinds), np.array(values))


@pytest.mark.parametrize("case", ["case5", "case14"])
def test_measurements_match_the_hand_built_layout(case, request):
    network = request.getfixturevalue(case)
    sol = solved_solution(network)
    for keep in itertools.product([False, True], repeat=4):
        va, p_inj, q_inj, flows = (
            part if kept else None
            for part, kept in zip((sol.va + 0.3, sol.p_inj, sol.q_inj, sol.flows), keep)
        )
        partial = SolutionFile("pf", sol.vm, va, p_inj, q_inj, flows)
        z = solution_to_measurements(network, partial)
        ref = hand_built_measurements(network, partial)
        assert z.kinds == ref.kinds, keep
        assert np.array_equal(z.values, ref.values), keep
        assert z.values.dtype == ref.values.dtype, keep


def test_consistent_solution_restores_exactly(case5, tmp_path):
    state = newton_pf(case5, dispatch_spec(case5))
    op = operating_point(case5, state)
    sol = fileio.operating_point_solution(case5, op, "pf")
    z = solution_to_measurements(case5, sol)
    restored = benchmark_restore(case5, z)
    assert np.max(np.abs(restored.state.as_vector() - state.as_vector())) < 1e-7


def test_weights_roundtrip(case5, tmp_path):
    kinds = canonical_kinds(case5)
    weights = default_initial_weights(kinds) * np.linspace(0.5, 2.0, len(kinds))
    path = tmp_path / "weights.json"
    write_weights(path, case5, kinds, weights)
    kinds2, weights2 = read_weights(path, case5)
    assert kinds2 == kinds
    assert weights2 == pytest.approx(weights)


def test_weights_without_layout_is_a_format_error(case5, tmp_path):
    kinds = canonical_kinds(case5)
    path = tmp_path / "weights.json"
    write_weights(path, case5, kinds, default_initial_weights(kinds))
    payload = json.loads(path.read_text())
    del payload["layout"]
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=r"weights\.json: missing field 'layout'"):
        read_weights(path, case5)


def test_dataset_roundtrip(case5, tmp_path):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=5, sigma=0.05, seed=3))
    records = synth_dataset(case5, loads, seed=4)
    root = tmp_path / "ds"
    write_dataset(root, case5, records, [0, 1, 2, 3], [4], {"source": "synthetic"})
    again, train, test, manifest = read_dataset(root, case5)
    assert len(again) == 5
    assert len(train) == 4 and len(test) == 1
    assert manifest["source"] == "synthetic"
    for a, b in zip(records, again):
        assert np.array_equal(a.z.values, b.z.values)
        assert a.x_ac.as_vector() == pytest.approx(b.x_ac.as_vector())
        assert np.array_equal(a.p_load, b.p_load)


def test_dataset_manifest_with_repeated_entry_rejected(case5, tmp_path):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=2, sigma=0.05, seed=3))
    records = synth_dataset(case5, loads, seed=4)
    root = tmp_path / "ds"
    write_dataset(root, case5, records, [0], [1], {"source": "synthetic"})
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["layout"][1] = manifest["layout"][0]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(MeasurementError, match="duplicate measurement"):
        read_dataset(root, case5)


@pytest.mark.parametrize("file, key, edit, message", [
    ("manifest.json", "train_indices", "append", r"manifest\.json: no record has index 99"),
    ("manifest.json", "test_indices", "append", r"manifest\.json: no record has index 99"),
    ("manifest.json", "records", "delete", r"manifest\.json: missing field 'records'"),
    ("records/s00001.json", "z", "delete", r"s00001\.json: missing field 'z'"),
], ids=["train-index", "test-index", "manifest-key", "record-key"])
def test_malformed_dataset_is_a_format_error(case5, tmp_path, file, key, edit, message):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=2, sigma=0.05, seed=3))
    records = synth_dataset(case5, loads, seed=4)
    root = tmp_path / "ds"
    write_dataset(root, case5, records, [0], [1], {"source": "synthetic"})
    path = root / file
    payload = json.loads(path.read_text())
    if edit == "append":
        payload[key].append(99)
    else:
        del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=message):
        read_dataset(root, case5)


def test_trace_roundtrip(tmp_path):
    trace = TrainTrace()
    trace.record(0.5, np.array([1.0, -2.0]))
    trace.record(0.25, np.array([0.5, -1.0]))
    path = tmp_path / "trace.tsv"
    write_trace(path, trace)
    rows = read_trace(path)
    assert rows[0] == pytest.approx((1.0, 0.5, 2.0))
    assert rows[1] == pytest.approx((2.0, 0.25, 1.0))


def test_network_hash_distinguishes_cases(case5, case14, two_bus):
    hashes = {network_hash(case5), network_hash(case14), network_hash(two_bus)}
    assert len(hashes) == 3
    assert all(h.startswith("sha256:") for h in hashes)


def test_network_hash_is_computed_once(monkeypatch, tmp_path):
    network = load_bundled_case("case5")
    fresh = "sha256:" + hashlib.sha256(serialize_case(network).encode("utf-8")).hexdigest()
    calls = []
    serialize = netmodel.serialize_case

    def counting(net):
        calls.append(net)
        return serialize(net)

    monkeypatch.setattr(netmodel, "serialize_case", counting)
    assert network_hash(network) == fresh
    sol = SolutionFile(formulation="flat", vm=np.ones(network.n_bus))
    write_solution(tmp_path / "s.json", network, sol)
    read_solution(tmp_path / "s.json", network)
    assert network_hash(network) == fresh
    assert calls == [network]
    heavier = network.with_loads(network.p_load * 1.1, network.q_load)
    assert network_hash(heavier) != fresh
    assert calls == [network, heavier]


def test_atomic_write_no_partial_on_error(tmp_path):
    target = tmp_path / "x.json"
    fileio.atomic_write_text(target, "hello")
    assert target.read_text() == "hello"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []

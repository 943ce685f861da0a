from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from acrestore import (
    MeasurementKind,
    MeasurementSet,
    PfSpec,
    StateVector,
    benchmark_restore,
    canonical_kinds,
    constraint_report,
    eval_H,
    eval_h,
    newton_pf,
    operating_point,
    parse_case,
)
from acrestore import wls_restore
from acrestore.acpf import (
    ALL_KINDS,
    BRANCH_KINDS,
    BUS_KINDS,
    Layout,
    MeasurementError,
    PowerFlowError,
    compile_layout,
    jacobian_product,
    jacobian_transpose_product,
    jacobian_values,
)
from acrestore.netmodel import PQ, PV, SLACK, Network
from conftest import fd_jacobian, perturbed_state


def proportional_spec(network, vm_target=1.0):
    """PV/PQ/slack spec from a proportional dispatch at the network's loads."""
    caps = np.array([g.p_max for g in network.generators])
    mins = np.array([g.p_min for g in network.generators])
    t = np.clip((network.p_load.sum() - mins.sum()) / (caps.sum() - mins.sum()), 0, 1)
    p_gen = mins + t * (caps - mins)
    p_bus = np.zeros(network.n_bus)
    for g, b in zip(p_gen, network.gen_bus):
        p_bus[b] += g
    gen_buses = set(int(b) for b in network.gen_buses())
    types = tuple(
        SLACK if i == network.slack else PV if i in gen_buses else PQ
        for i in range(network.n_bus)
    )
    return PfSpec(
        types,
        p_bus - network.p_load,
        -network.q_load,
        np.full(network.n_bus, vm_target),
    )


# ---------------------------------------------------------------------------
# eval_h
# ---------------------------------------------------------------------------


def test_flat_state_zero_everything(two_bus):
    state = StateVector.flat(two_bus)
    kinds = canonical_kinds(two_bus)
    values = eval_h(two_bus, state, kinds)
    for k, v in zip(kinds, values):
        if k.kind == "vm":
            assert v == 1.0
        else:
            assert v == pytest.approx(0.0, abs=1e-15)


def test_identity_components(case5):
    rng = np.random.default_rng(3)
    state = perturbed_state(case5, rng)
    kinds = [MeasurementKind("vm", 2), MeasurementKind("va", 4), MeasurementKind("va", case5.slack)]
    vals = eval_h(case5, state, kinds)
    assert vals[0] == state.vm[2]
    assert vals[1] == state.va[4]
    assert vals[2] == 0.0


def test_two_bus_flow_against_phasor_oracle(two_bus):
    # independent complex-phasor evaluation of the from-side flow
    state = StateVector(np.array([1.0, 0.95]), np.array([0.0, -0.1]), slack=0)
    y = 1.0 / complex(0.01, 0.1)
    v1, v2 = 1.0, 0.95 * np.exp(-0.1j)
    s_12 = v1 * np.conj(y * v1 - y * v2)
    s_21 = v2 * np.conj(y * v2 - y * v1)
    kinds = [
        MeasurementKind("pf", 0),
        MeasurementKind("qf", 0),
        MeasurementKind("pt", 0),
        MeasurementKind("qt", 0),
        MeasurementKind("pinj", 0),
        MeasurementKind("qinj", 1),
    ]
    vals = eval_h(two_bus, state, kinds)
    assert vals[0] == pytest.approx(s_12.real, abs=1e-14)
    assert vals[1] == pytest.approx(s_12.imag, abs=1e-14)
    assert vals[2] == pytest.approx(s_21.real, abs=1e-14)
    assert vals[3] == pytest.approx(s_21.imag, abs=1e-14)
    # injections at the terminal buses equal the single branch flow
    assert vals[4] == pytest.approx(s_12.real, abs=1e-14)
    assert vals[5] == pytest.approx(s_21.imag, abs=1e-14)


def test_shunt_enters_injection():
    text = """
mpc.baseMVA = 100.0;
mpc.bus = [
	1	3	0.0	0.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	2	1	0.0	0.0	5.0	-20.0	1	1.0	0.0	230.0	1	1.1	0.9;
];
mpc.gen = [
	1	0.0	0.0	60.0	-60.0	1.0	100.0	1	120.0	0.0;
];
mpc.branch = [
	1	2	0.01	0.1	0.0	0.0	0.0	0.0	0.0	0.0	1	-30.0	30.0;
];
"""
    net = parse_case(text)
    vm2 = 1.02
    state = StateVector(np.array([1.0, vm2]), np.zeros(2), 0)
    vals = eval_h(net, state, [MeasurementKind("pinj", 1), MeasurementKind("qinj", 1)])
    # branch contribution plus g_sh*vm^2 and -b_sh*vm^2
    y = 1.0 / complex(0.01, 0.1)
    s_21 = vm2 * np.conj(y * vm2 - y * 1.0)
    assert vals[0] == pytest.approx(s_21.real + 0.05 * vm2**2, abs=1e-14)
    assert vals[1] == pytest.approx(s_21.imag - (-0.20) * vm2**2, abs=1e-14)


def test_unknown_reference_rejected(two_bus):
    with pytest.raises(MeasurementError):
        eval_h(two_bus, StateVector.flat(two_bus), [MeasurementKind("pinj", 5)])
    with pytest.raises(MeasurementError):
        eval_h(two_bus, StateVector.flat(two_bus), [MeasurementKind("pf", 1)])


def test_lossless_antisymmetry():
    text = """
mpc.baseMVA = 100.0;
mpc.bus = [
	1	3	0.0	0.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	2	1	30.0	5.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	3	1	20.0	5.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
];
mpc.gen = [
	1	0.0	0.0	60.0	-60.0	1.0	100.0	1	120.0	0.0;
];
mpc.branch = [
	1	2	0.0	0.1	0.0	0.0	0.0	0.0	0.0	0.0	1	-30.0	30.0;
	2	3	0.0	0.15	0.0	0.0	0.0	0.0	0.0	0.0	1	-30.0	30.0;
	1	3	0.0	0.2	0.0	0.0	0.0	0.0	0.0	0.0	1	-30.0	30.0;
];
"""
    net = parse_case(text)
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = perturbed_state(net, rng)
        pf = eval_h(net, state, [MeasurementKind("pf", e) for e in range(3)])
        pt = eval_h(net, state, [MeasurementKind("pt", e) for e in range(3)])
        assert pf == pytest.approx(-pt, abs=1e-13)


# ---------------------------------------------------------------------------
# eval_H
# ---------------------------------------------------------------------------


def test_vm_rows_are_unit_rows(case5):
    state = StateVector.flat(case5)
    kinds = [MeasurementKind("vm", 3)]
    H = eval_H(case5, state, kinds)
    expected = np.zeros(case5.n_state)
    expected[3] = 1.0
    assert H[0] == pytest.approx(expected)


def test_jacobian_has_no_slack_angle_column(case5):
    kinds = canonical_kinds(case5)
    H = eval_H(case5, StateVector.flat(case5), kinds)
    assert H.shape == (len(kinds), case5.n_state)


def test_jacobian_matches_finite_differences(case5):
    rng = np.random.default_rng(5)
    kinds = canonical_kinds(case5)
    for _ in range(4):
        state = perturbed_state(case5, rng)
        H = eval_H(case5, state, kinds)
        H_fd = fd_jacobian(case5, state, kinds)
        err = np.max(np.abs(H - H_fd)) / (1.0 + np.max(np.abs(H_fd)))
        assert err < 1e-6


def test_jacobian_matches_fd_with_tap_and_shift():
    text = """
mpc.baseMVA = 100.0;
mpc.bus = [
	1	3	0.0	0.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	2	1	40.0	10.0	0.0	5.0	1	1.0	0.0	230.0	1	1.1	0.9;
	3	1	20.0	5.0	2.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
];
mpc.gen = [
	1	0.0	0.0	60.0	-60.0	1.0	100.0	1	120.0	0.0;
];
mpc.branch = [
	1	2	0.01	0.1	0.04	0.0	0.0	0.0	1.04	3.0	1	-30.0	30.0;
	2	3	0.02	0.2	0.0	0.0	0.0	0.0	0.0	0.0	1	-30.0	30.0;
	1	3	0.015	0.15	0.02	0.0	0.0	0.0	0.97	-2.0	1	-30.0	30.0;
];
"""
    net = parse_case(text)
    rng = np.random.default_rng(17)
    kinds = canonical_kinds(net)
    state = perturbed_state(net, rng)
    H = eval_H(net, state, kinds)
    H_fd = fd_jacobian(net, state, kinds)
    err = np.max(np.abs(H - H_fd)) / (1.0 + np.max(np.abs(H_fd)))
    assert err < 1e-6


# ---------------------------------------------------------------------------
# measurement layouts
# ---------------------------------------------------------------------------


def validate_by_entry(network, kinds):
    """Per-entry reference for the checks of compile_layout and their order."""
    seen = set()
    for k in kinds:
        if k.kind not in ALL_KINDS:
            raise MeasurementError(f"unknown measurement kind {k.kind!r}")
        limit = network.n_bus if k.kind in BUS_KINDS else network.n_branch
        if not (0 <= k.index < limit):
            raise MeasurementError(f"{k.kind}[{k.index}] out of range")
        if k in seen:
            raise MeasurementError(f"duplicate measurement {k.kind}[{k.index}]")
        seen.add(k)


def restore_zeros(network, kinds):
    kinds = tuple(kinds)
    return wls_restore(network, MeasurementSet(kinds, np.zeros(len(kinds))), np.ones(len(kinds)))


LAYOUT_USERS = {
    "eval_h": lambda network, kinds: eval_h(network, StateVector.flat(network), kinds),
    "eval_H": lambda network, kinds: eval_H(network, StateVector.flat(network), kinds),
    "wls_restore": restore_zeros,
}


def faulty_entry(network, fault):
    return {
        "unknown kind": (MeasurementKind("vx", 1), "unknown measurement kind 'vx'"),
        "negative index": (MeasurementKind("qinj", -1), "qinj[-1] out of range"),
        "bus index n_bus": (
            MeasurementKind("pinj", network.n_bus), f"pinj[{network.n_bus}] out of range"
        ),
        "branch index n_branch": (
            MeasurementKind("qt", network.n_branch), f"qt[{network.n_branch}] out of range"
        ),
        "duplicate": (MeasurementKind("vm", 3), "duplicate measurement vm[3]"),
    }[fault]


@pytest.mark.parametrize("user", sorted(LAYOUT_USERS))
@pytest.mark.parametrize(
    "fault",
    ["unknown kind", "negative index", "bus index n_bus", "branch index n_branch", "duplicate"],
)
def test_faulty_layout_entry_is_named(case5, user, fault):
    entry, message = faulty_entry(case5, fault)
    kinds = list(canonical_kinds(case5))
    kinds.insert(7, entry)
    with pytest.raises(MeasurementError, match=re.escape(message)):
        LAYOUT_USERS[user](case5, kinds)


@pytest.mark.parametrize("user", sorted(LAYOUT_USERS))
def test_first_fault_in_layout_order_is_reported(case5, user):
    vm = [MeasurementKind("vm", i) for i in range(case5.n_bus)]
    wide = MeasurementKind("pf", case5.n_branch)
    bogus = MeasurementKind("bogus", 0)
    cases = [
        (vm[:2] + [wide, vm[2], bogus] + vm[3:], f"pf[{case5.n_branch}] out of range"),
        (vm[:2] + [bogus, vm[2], wide] + vm[3:], "unknown measurement kind 'bogus'"),
        # a repeat is reported at its second occurrence
        (vm[:2] + [vm[0], wide] + vm[2:], "duplicate measurement vm[0]"),
        (vm[:2] + [wide, vm[0]] + vm[2:], f"pf[{case5.n_branch}] out of range"),
    ]
    for kinds, message in cases:
        with pytest.raises(MeasurementError, match=re.escape(message)):
            LAYOUT_USERS[user](case5, kinds)


def test_layout_checks_match_per_entry_reference(case5):
    rng = np.random.default_rng(17)
    names = ALL_KINDS + ("bogus",)
    indices = (-1000, -1, 0, 1, 2, 3, 4, 5, 6, 1000)
    outcomes = set()
    for _ in range(400):
        kinds = [
            MeasurementKind(names[rng.integers(len(names))], indices[rng.integers(len(indices))])
            for _ in range(rng.integers(0, 10))
        ]
        expected = got = None
        try:
            validate_by_entry(case5, kinds)
        except MeasurementError as exc:
            expected = str(exc)
        try:
            compile_layout(case5, kinds)
        except MeasurementError as exc:
            got = str(exc)
        assert got == expected, kinds
        outcomes.add(expected.split(" ")[0] if expected else None)
    assert outcomes >= {None, "unknown", "duplicate"}
    assert any(o and o.endswith("]") for o in outcomes)  # an out-of-range entry


@pytest.mark.parametrize("name", ["case5", "case14"])
def test_permuted_layout_permutes_rows_exactly(name, request):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    kinds = canonical_kinds(network)
    slack = network.slack
    slack_va = kinds.index(MeasurementKind("va", slack))
    assert np.any((network.f_idx == slack) | (network.t_idx == slack))
    state = perturbed_state(network, rng)
    h = eval_h(network, state, kinds)
    H = eval_H(network, state, kinds)
    assert H.shape == (len(kinds), network.n_state)
    assert not H[slack_va].any()
    for _ in range(3):
        perm = rng.permutation(len(kinds))
        permuted = [kinds[i] for i in perm]
        assert np.array_equal(eval_h(network, state, permuted), h[perm])
        assert np.array_equal(eval_H(network, state, permuted), H[perm])


def test_compiled_layout_matches_plain_sequence(case14):
    rng = np.random.default_rng(29)
    canonical = canonical_kinds(case14)
    subset = [canonical[i] for i in rng.permutation(len(canonical))[:60]]
    state = perturbed_state(case14, rng)
    for kinds in (canonical, subset):
        layout = compile_layout(case14, kinds)
        assert isinstance(layout, Layout) and layout.m == len(kinds)
        assert compile_layout(case14, layout) is layout
        assert np.array_equal(eval_h(case14, state, layout), eval_h(case14, state, kinds))
        assert np.array_equal(eval_H(case14, state, layout), eval_H(case14, state, kinds))


def test_layout_fits_networks_of_its_shape_only(case5, case14):
    layout = compile_layout(case5, canonical_kinds(case5))
    loaded = case5.with_loads(case5.p_load * 1.1, case5.q_load)
    state = StateVector.flat(case5)
    assert np.array_equal(eval_h(loaded, state, layout), eval_h(loaded, state, canonical_kinds(case5)))
    for evaluate in (eval_h, eval_H):
        with pytest.raises(MeasurementError, match="layout for 5 buses and 6 branches"):
            evaluate(case14, StateVector.flat(case14), layout)


def rewired(network, branch, from_bus):
    """The network with one branch moved to another from bus: same bus and
    branch counts, other wiring."""
    branches = list(network.branches)
    branches[branch] = dataclasses.replace(branches[branch], from_bus=from_bus)
    return Network(network.base_mva, network.buses, tuple(branches), network.generators)


def test_layout_fits_its_topology_only(case5):
    layout = compile_layout(case5, canonical_kinds(case5))
    # branch 4-5 becomes 2-5; bus 5 stays connected through branch 1-5
    moved = rewired(case5, 5, 2)
    assert (moved.n_bus, moved.n_branch) == (case5.n_bus, case5.n_branch)
    state = StateVector.flat(case5)
    for evaluate in (eval_h, eval_H):
        with pytest.raises(MeasurementError, match="other branch endpoints"):
            evaluate(moved, state, layout)
    # reusing the layout would have dropped the terms of the new wiring
    kinds = canonical_kinds(moved)
    assert not np.array_equal(compile_layout(moved, kinds).pattern.entries,
                              layout.pattern.entries)


def pattern_layouts(network, rng):
    """The canonical layout, and permuted partial ones that keep flows on
    every branch at the slack bus."""
    kinds = canonical_kinds(network)
    yield kinds
    slack_branches = set(np.flatnonzero((network.f_idx == network.slack)
                                        | (network.t_idx == network.slack)))
    assert slack_branches
    for share in (0.5, 0.3):
        keep = rng.permutation(len(kinds))[: int(share * len(kinds))]
        subset = [kinds[i] for i in keep]
        subset += [k for k in kinds if k.kind in BRANCH_KINDS and k.index in slack_branches
                   and k not in subset]
        yield [subset[i] for i in rng.permutation(len(subset))]


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_jacobian_nonzeros_lie_in_the_pattern(name, request):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(37)
    states = [StateVector.flat(network)] + [perturbed_state(network, rng) for _ in range(2)]
    for kinds in pattern_layouts(network, rng):
        layout = compile_layout(network, kinds)
        pattern = layout.pattern
        n = network.n_state
        # entries are sorted by row, then column, and each appears once
        assert np.all(np.diff(pattern.entries) > 0)
        assert np.array_equal(pattern.rows, pattern.entries // n)
        inside = np.zeros(layout.m * n, dtype=bool)
        inside[pattern.entries] = True
        for state in states:
            nonzero = eval_H(network, state, layout).ravel() != 0.0
            assert not np.any(nonzero & ~inside), (name, len(kinds))
        # the pairs are the upper triangle of each row's entries
        first, second = pattern.entries[pattern.first], pattern.entries[pattern.second]
        assert np.array_equal(first // n, second // n)
        assert np.all(first % n <= second % n)
        sizes = np.bincount(pattern.rows, minlength=layout.m)
        assert pattern.first.size == int((sizes * (sizes + 1) // 2).sum())
        assert np.array_equal(pattern.target, (first % n) * n + second % n)


def test_parallel_branches_count_once(case5):
    # a second branch 1-2 next to branch 0: injection rows at buses 1 and 2
    # must list each other's columns once
    doubled = Network(case5.base_mva, case5.buses, case5.branches + (case5.branches[0],),
                      case5.generators)
    kinds = canonical_kinds(doubled)
    pattern = compile_layout(doubled, kinds).pattern
    assert np.all(np.diff(pattern.entries) > 0)
    base = compile_layout(case5, canonical_kinds(case5)).pattern
    row = kinds.index(MeasurementKind("pinj", 0))
    assert np.array_equal(pattern.entries[pattern.rows == row] % doubled.n_state,
                          base.entries[base.rows == row] % case5.n_state)


def dense_jacobian(network, state, kinds):
    """The dense Jacobian, written group by group over n_bus x n_bus
    injection derivatives: the reference the pattern values must equal bit
    for bit."""
    layout = compile_layout(network, kinds)
    groups, nb = layout.groups, network.n_bus
    v = state.voltages()
    v_norm = np.exp(1j * state.va)
    h_mat = np.zeros((layout.m, network.n_state))
    # the state column of each bus's angle; the slack bus has none
    angle_col = {bus: nb + bus - (bus > network.slack)
                 for bus in range(nb) if bus != network.slack}
    if "vm" in groups:
        rows, idx = groups["vm"]
        h_mat[rows, idx] = 1.0
    if "va" in groups:
        for row, bus in zip(*groups["va"]):
            if bus in angle_col:
                h_mat[row, angle_col[bus]] = 1.0
    if "pinj" in groups or "qinj" in groups:
        i_inj = network.ybus @ v
        v_unit = np.exp(1j * np.angle(v))
        ds_dvm = v[:, None] * np.conj(network.ybus * v_unit[None, :])
        ds_dvm[np.diag_indices_from(ds_dvm)] += np.conj(i_inj) * v_unit
        ds_dva = 1j * v[:, None] * np.conj(np.diag(i_inj) - network.ybus * v[None, :])
        non_slack = np.flatnonzero(np.arange(nb) != network.slack)
        for name, part in (("pinj", np.real), ("qinj", np.imag)):
            if name in groups:
                rows, idx = groups[name]
                h_mat[rows, :nb] = part(ds_dvm[idx])
                h_mat[rows, nb:] = part(ds_dva[np.ix_(idx, non_slack)])
    f, t = network.f_idx, network.t_idx
    vf, vt = v[f], v[t]
    i_from = network.y_ff * vf + network.y_ft * vt
    i_to = network.y_tf * vf + network.y_tt * vt
    from_side = (
        v_norm[f] * np.conj(i_from) + vf * np.conj(network.y_ff) * np.conj(v_norm[f]),
        vf * np.conj(network.y_ft) * np.conj(v_norm[t]),
        1j * (vf * np.conj(i_from) - vf * np.conj(network.y_ff * vf)),
        -1j * vf * np.conj(network.y_ft * vt),
    )
    to_side = (
        vt * np.conj(network.y_tf) * np.conj(v_norm[f]),
        v_norm[t] * np.conj(i_to) + vt * np.conj(network.y_tt) * np.conj(v_norm[t]),
        -1j * vt * np.conj(network.y_tf * vf),
        1j * (vt * np.conj(i_to) - vt * np.conj(network.y_tt * vt)),
    )
    sides = {"pf": (from_side, np.real), "qf": (from_side, np.imag),
             "pt": (to_side, np.real), "qt": (to_side, np.imag)}
    for name, (side, part) in sides.items():
        if name not in groups:
            continue
        rows, idx = groups[name]
        d_vmf, d_vmt, d_vaf, d_vat = (part(d)[idx] for d in side)
        h_mat[rows, f[idx]] = d_vmf
        h_mat[rows, t[idx]] = d_vmt
        for row, e, d_from, d_to in zip(rows, idx, d_vaf, d_vat):
            if f[e] in angle_col:
                h_mat[row, angle_col[f[e]]] = d_from
            if t[e] in angle_col:
                h_mat[row, angle_col[t[e]]] = d_to
    return h_mat


@pytest.mark.parametrize("name", ["case5", "case14"])
def test_state_vector_round_trip_is_exact(name, request):
    network = request.getfixturevalue(name)
    state = perturbed_state(network, np.random.default_rng(61))
    vec = state.as_vector()
    # the np.delete / np.insert reference the slices replace
    assert np.array_equal(vec, np.concatenate([state.vm, np.delete(state.va, network.slack)]))
    back = StateVector.from_vector(vec, network.slack)
    assert np.array_equal(back.va, np.insert(vec[network.n_bus:], network.slack, 0.0))
    assert np.array_equal(back.vm, state.vm) and np.array_equal(back.va, state.va)
    assert not np.shares_memory(back.vm, vec) and not np.shares_memory(back.va, vec)


def sparse_layouts(network, rng):
    """pattern_layouts plus the slack bus's va row, and layouts of one
    injection or flow family with the voltage rows."""
    slack_va = MeasurementKind("va", network.slack)
    for kinds in pattern_layouts(network, rng):
        yield list(kinds) + ([slack_va] if slack_va not in kinds else [])
    kinds = canonical_kinds(network)
    yield [k for k in kinds if k.kind in ("vm", "va", "qinj")]
    yield [k for k in kinds if k.kind in ("vm", "pt", "qf")]


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_jacobian_values_are_the_dense_jacobian_bit_for_bit(name, request):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(53)
    states = [StateVector.flat(network)] + [perturbed_state(network, rng) for _ in range(2)]
    for kinds in sparse_layouts(network, rng):
        layout = compile_layout(network, kinds)
        for state in states:
            dense = eval_H(network, state, layout)
            assert np.array_equal(dense, dense_jacobian(network, state, kinds))
            values = jacobian_values(network, state, layout)
            assert np.array_equal(values, dense.take(layout.pattern.entries))
            assert np.array_equal(jacobian_values(network, state, kinds), values)


@pytest.mark.parametrize("name", ["case5", "case14"])
def test_eval_h_is_the_operating_point_bit_for_bit(name, request):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(67)
    states = [StateVector.flat(network)] + [perturbed_state(network, rng) for _ in range(2)]
    for kinds in sparse_layouts(network, rng):
        layout = compile_layout(network, kinds)
        for state in states:
            op = operating_point(network, state)
            table = {"vm": state.vm, "va": state.va, "pinj": op.p_inj, "qinj": op.q_inj}
            table.update(zip(BRANCH_KINDS, op.flows.T))
            expected = np.array([table[k.kind][k.index] for k in kinds])
            assert np.array_equal(eval_h(network, state, layout), expected)
            assert np.array_equal(eval_h(network, state, kinds), expected)


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_pattern_products_match_dense_products(name, request):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(59)
    for kinds in sparse_layouts(network, rng):
        layout = compile_layout(network, kinds)
        state = perturbed_state(network, rng)
        dense = eval_H(network, state, layout)
        values = jacobian_values(network, state, layout)
        y = rng.standard_normal(layout.m)
        x = rng.standard_normal(network.n_state)
        x_mat = rng.standard_normal((network.n_state, 4))
        for product, reference in (
            (jacobian_transpose_product(layout, values, y), dense.T @ y),
            (jacobian_product(layout, values, x[:, None]), dense @ x[:, None]),
            (jacobian_product(layout, values, x_mat), dense @ x_mat),
        ):
            assert product.shape == reference.shape
            # measured up to 3.1e-16 (case14) on the canonical layouts
            assert np.abs(product - reference).max() <= 1e-14 * np.abs(reference).max()


# ---------------------------------------------------------------------------
# newton_pf
# ---------------------------------------------------------------------------


def test_newton_recovers_known_state(case5):
    rng = np.random.default_rng(23)
    target = perturbed_state(case5, rng, vm_spread=0.03, va_spread=0.08)
    spec = proportional_spec(case5)
    # overwrite targets so the data is exactly consistent with `target`
    v = target.voltages()
    s = v * np.conj(case5.ybus @ v)
    gen_buses = set(int(b) for b in case5.gen_buses())
    types = spec.bus_type
    p_set = s.real.copy()
    q_set = s.imag.copy()
    vm_set = target.vm.copy()
    consistent = PfSpec(types, p_set, q_set, vm_set)
    # consistent spec solves regardless of which buses are PV vs PQ
    solved = newton_pf(case5, consistent, x0=StateVector.flat(case5))
    assert np.max(np.abs(solved.vm - target.vm)) < 1e-8
    assert np.max(np.abs(solved.va - target.va)) < 1e-8


def test_newton_nominal_self_consistency(case5):
    spec = proportional_spec(case5)
    state = newton_pf(case5, spec)
    v = state.voltages()
    mism = v * np.conj(case5.ybus @ v) - (spec.p_set + 1j * spec.q_set)
    types = np.array(spec.bus_type)
    assert np.max(np.abs(mism[types != SLACK].real)) < 1e-8
    assert np.max(np.abs(mism[types == PQ].imag)) < 1e-8


def test_newton_nonconvergence_on_absurd_load(two_bus):
    heavy = two_bus.with_loads(two_bus.p_load * 100.0, two_bus.q_load * 100.0)
    spec = proportional_spec(heavy)
    with pytest.raises(PowerFlowError):
        newton_pf(heavy, spec)


def test_newton_fixed_point(case14):
    spec = proportional_spec(case14)
    state = newton_pf(case14, spec)
    again = newton_pf(case14, spec, x0=state)
    assert np.max(np.abs(again.as_vector() - state.as_vector())) < 1e-8


def dense_newton_pf(network, spec, x0):
    """Reference Newton power flow with the dense Jacobian assembly: full
    n_bus x n_bus derivative matrices, cut into four blocks by np.ix_ and
    joined by np.block. Same start, steps and stopping rule as newton_pf."""
    types = np.array(spec.bus_type)
    slack = int(np.flatnonzero(types == SLACK)[0])
    pv, pq = np.flatnonzero(types == PV), np.flatnonzero(types == PQ)
    pvpq = np.concatenate([pv, pq])
    vm, va = x0.vm.copy(), x0.va.copy()
    vm[slack], vm[pv], va[slack] = spec.vm_set[slack], spec.vm_set[pv], 0.0
    ybus = network.ybus
    for _ in range(31):
        v = vm * np.exp(1j * va)
        mism = v * np.conj(ybus @ v) - (spec.p_set + 1j * spec.q_set)
        f = np.concatenate([mism[pvpq].real, mism[pq].imag])
        if np.max(np.abs(f)) < 1e-8:
            return StateVector(vm, va, slack)
        i_inj = ybus @ v
        v_norm = np.exp(1j * np.angle(v))
        # exact zeros off the bus pairs, where ybus is structurally zero
        nonzero = ybus != 0
        nonzero[np.diag_indices(network.n_bus)] = True
        ds_dvm = np.where(nonzero, v[:, None] * np.conj(ybus * v_norm), 0)
        ds_dvm[np.diag_indices(network.n_bus)] += np.conj(i_inj) * v_norm
        ds_dva = np.where(nonzero, 1j * v[:, None] * np.conj(np.diag(i_inj) - ybus * v), 0)
        jac = np.block([
            [ds_dva[np.ix_(pvpq, pvpq)].real, ds_dvm[np.ix_(pvpq, pq)].real],
            [ds_dva[np.ix_(pq, pvpq)].imag, ds_dvm[np.ix_(pq, pq)].imag],
        ])
        dx = np.linalg.solve(jac, -f)
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size:]
    raise AssertionError("reference power flow did not converge")


def consistent_spec(network, types, state):
    """A spec of the given bus types that `state` solves exactly."""
    v = state.voltages()
    s = v * np.conj(network.ybus @ v)
    return PfSpec(tuple(types), s.real, s.imag, state.vm)


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_newton_scatter_matches_dense_assembly_bit_for_bit(name, request):
    # the scatter fills the same entries with the same values as the dense
    # assembly, so every iterate, and the returned state, are the same bits
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(61)
    nb, slack = network.n_bus, network.slack
    generator = proportional_spec(network)
    flipped = [SLACK if t == SLACK else PV if t == PQ else PQ for t in generator.bus_type]
    all_pq, all_pv = ([SLACK if i == slack else t for i in range(nb)] for t in (PQ, PV))
    truth = newton_pf(network, generator)
    specs = [generator] + [consistent_spec(network, types, truth)
                           for types in (all_pq, all_pv, flipped)]
    assert tuple(flipped) != generator.bus_type
    starts = [StateVector.flat(network), perturbed_state(network, rng, 0.01, 0.02)]
    for spec in specs:
        for x0 in starts:
            state = newton_pf(network, spec, x0=x0)
            assert np.array_equal(state.as_vector(), dense_newton_pf(network, spec, x0).as_vector())


# ---------------------------------------------------------------------------
# benchmark restoration and reports
# ---------------------------------------------------------------------------


def consistent_measurements(network, state):
    kinds = canonical_kinds(network)
    return MeasurementSet(kinds, eval_h(network, state, kinds))


def test_benchmark_restores_consistent_point(case5):
    spec = proportional_spec(case5)
    truth = newton_pf(case5, spec)
    z = consistent_measurements(case5, truth)
    op = benchmark_restore(case5, z)
    assert np.max(np.abs(op.state.as_vector() - truth.as_vector())) < 1e-7


def test_benchmark_missing_vm_errors(case5):
    spec = proportional_spec(case5)
    truth = newton_pf(case5, spec)
    z = consistent_measurements(case5, truth)
    gen_bus = int(case5.gen_buses()[0])
    keep = [i for i, k in enumerate(z.kinds) if not (k.kind == "vm" and k.index == gen_bus)]
    with pytest.raises(MeasurementError):
        benchmark_restore(case5, z.subset(keep))


def test_operating_point_self_consistency(case5):
    spec = proportional_spec(case5)
    state = newton_pf(case5, spec)
    op = operating_point(case5, state)
    kinds = [MeasurementKind("pinj", i) for i in range(case5.n_bus)]
    assert op.p_inj == pytest.approx(eval_h(case5, state, kinds), abs=1e-14)
    # generator split preserves bus totals
    p_bus = np.zeros(case5.n_bus)
    for g, b in zip(op.p_gen, case5.gen_bus):
        p_bus[b] += g
    assert p_bus[case5.gen_buses()] == pytest.approx(
        (op.p_inj + case5.p_load)[case5.gen_buses()]
    )


def test_operating_point_splits_shared_bus_by_capacity(case5):
    state = newton_pf(case5, proportional_spec(case5))
    shared = np.flatnonzero(case5.gen_bus == case5.gen_bus[0])
    assert shared.tolist() == [0, 1]
    bus = case5.gen_bus[0]
    op = operating_point(case5, state)
    p_bus = op.p_inj[bus] + case5.p_load[bus]
    q_bus = op.q_inj[bus] + case5.q_load[bus]
    p_caps = np.array([case5.generators[g].p_max for g in shared])
    q_caps = np.array([abs(case5.generators[g].q_max) for g in shared])
    assert op.p_gen[shared] == pytest.approx(p_bus * p_caps / p_caps.sum(), rel=1e-15)
    assert op.q_gen[shared] == pytest.approx(q_bus * q_caps / q_caps.sum(), rel=1e-15)
    # with no capacity at the bus, the units split it equally
    idle = list(case5.generators)
    for g in shared:
        idle[g] = dataclasses.replace(idle[g], p_max=0.0, q_min=0.0, q_max=0.0)
    idle_net = Network(case5.base_mva, case5.buses, case5.branches, tuple(idle), case5.name)
    op = operating_point(idle_net, state)
    assert op.p_gen[shared].tolist() == [0.5 * p_bus, 0.5 * p_bus]
    assert op.q_gen[shared].tolist() == [0.5 * q_bus, 0.5 * q_bus]


def test_constraint_report_inside_bounds(case5):
    spec = proportional_spec(case5)
    state = newton_pf(case5, spec)
    report = constraint_report(case5, operating_point(case5, state))
    assert report.voltage == 0.0
    assert report.angle == 0.0
    assert report.flow == 0.0


def test_constraint_report_voltage_violation(case5):
    spec = proportional_spec(case5)
    state = newton_pf(case5, spec)
    vm = state.vm.copy()
    vm[2] = case5.buses[2].v_max + 0.01
    bumped = StateVector(vm, state.va, state.slack)
    report = constraint_report(case5, operating_point(case5, bumped))
    assert report.voltage == pytest.approx(0.01, abs=1e-12)
    assert "3" in report.worst["voltage"]

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from acrestore import Branch, Network, branch_two_port, canonical_kinds, parse_case, serialize_case
from acrestore.netmodel import (
    CaseSemanticError,
    CaseSyntaxError,
    DanglingEndpointError,
    DisconnectedError,
    DuplicateBusError,
    SlackError,
    load_bundled_case,
)
from conftest import TWO_BUS_CASE


def test_parse_minimal_two_bus(two_bus):
    assert two_bus.n_bus == 2
    assert two_bus.n_branch == 1
    assert two_bus.base_mva == 100.0
    assert two_bus.buses[1].p_load == pytest.approx(0.4)
    assert two_bus.buses[1].q_load == pytest.approx(0.1)
    assert two_bus.slack == 0


def test_parse_bundled_case5(case5):
    assert case5.n_bus == 5
    assert case5.n_branch == 6
    assert case5.n_gen == 5
    # per-unit conversion and cost scaling spot checks
    assert case5.buses[1].p_load == pytest.approx(3.0)
    assert case5.branches[0].s_max == pytest.approx(4.0)
    assert case5.generators[4].c1 == pytest.approx(10.0 * 100.0)
    assert case5.branches[0].theta_max == pytest.approx(math.radians(30.0))


def test_parse_bundled_case14(case14):
    assert case14.n_bus == 14
    assert case14.n_branch == 20
    # wide-open file angle limits fall back to the default
    assert case14.branches[0].theta_max == pytest.approx(math.pi / 3)
    # transformer tap read from the ratio column
    taps = [br.tap for br in case14.branches]
    assert 0.978 in taps
    # shunt at bus 9 converted to per-unit
    assert case14.buses[8].b_shunt == pytest.approx(0.19)


def test_dangling_branch_endpoint():
    text = TWO_BUS_CASE.replace("1\t2\t0.01\t0.1", "1\t99\t0.01\t0.1")
    with pytest.raises(DanglingEndpointError):
        parse_case(text)


def test_duplicate_bus_id():
    text = TWO_BUS_CASE.replace(
        "2\t1\t40.0", "1\t1\t40.0"
    )
    with pytest.raises(DuplicateBusError):
        parse_case(text)


def test_no_slack():
    text = TWO_BUS_CASE.replace("1\t3\t0.0", "1\t2\t0.0")
    with pytest.raises(SlackError):
        parse_case(text)


def test_disconnected_network():
    text = """
mpc.baseMVA = 100.0;
mpc.bus = [
	1	3	0.0	0.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	2	1	10.0	2.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	3	1	10.0	2.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	4	1	10.0	2.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
];
mpc.gen = [
	1	0.0	0.0	60.0	-60.0	1.0	100.0	1	120.0	0.0;
];
mpc.branch = [
	1	2	0.01	0.1	0.0	0.0	0.0	0.0	0.0	0.0	1	-30.0	30.0;
	3	4	0.01	0.1	0.0	0.0	0.0	0.0	0.0	0.0	1	-30.0	30.0;
];
"""
    with pytest.raises(DisconnectedError):
        parse_case(text)


def test_syntax_error_carries_line_number():
    text = TWO_BUS_CASE.replace("0.01\t0.1", "0.01\tbogus")
    with pytest.raises(CaseSyntaxError) as err:
        parse_case(text)
    assert err.value.line > 0


def test_piecewise_cost_rejected():
    text = TWO_BUS_CASE.replace("2\t0.0\t0.0\t3\t0.0\t20.0\t0.0;", "1\t0.0\t0.0\t2\t0.0\t0.0\t100.0\t2000.0;")
    with pytest.raises(CaseSemanticError):
        parse_case(text)


def test_two_port_pure_reactance():
    br = Branch(from_bus=1, to_bus=2, r=0.0, x=1.0)
    y_ff, y_ft, y_tf, y_tt = branch_two_port(br)
    assert y_ff == pytest.approx(-1j)
    assert y_tt == pytest.approx(-1j)
    assert y_ft == pytest.approx(1j)
    assert y_tf == pytest.approx(1j)


def test_two_port_with_charging():
    br = Branch(from_bus=1, to_bus=2, r=0.01, x=0.1, b_charge=0.02)
    y = 1.0 / complex(0.01, 0.1)
    y_ff, y_ft, y_tf, y_tt = branch_two_port(br)
    assert y_ff == pytest.approx(y + 0.01j)
    assert y_tt == pytest.approx(y + 0.01j)
    assert y_ft == pytest.approx(-y)
    assert y.real == pytest.approx(0.9900990099009901)
    assert y.imag == pytest.approx(-9.900990099009901)


def test_two_port_with_tap():
    br = Branch(from_bus=1, to_bus=2, r=0.0, x=0.2, tap=1.05)
    y_ff, y_ft, y_tf, y_tt = branch_two_port(br)
    assert y_ff == pytest.approx(-5j / 1.1025)
    assert y_tt == pytest.approx(-5j)
    assert y_ft == pytest.approx(5j / 1.05)


def test_two_port_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = float(rng.uniform(0.0, 0.05))
        x = float(rng.uniform(0.01, 0.3))
        b = float(rng.uniform(0.0, 0.1))
        tap = float(rng.uniform(0.9, 1.1))
        shift = float(rng.uniform(-0.3, 0.3))
        br = Branch(1, 2, r, x, b, tap=tap, shift=shift)
        y_ff, y_ft, y_tf, y_tt = branch_two_port(br)
        if shift == 0.0:
            assert y_ft == pytest.approx(y_tf)
        no_shift = branch_two_port(Branch(1, 2, r, x, b, tap=tap, shift=0.0))
        assert no_shift[1] == pytest.approx(no_shift[2])
        unit = branch_two_port(Branch(1, 2, r, x, b, tap=1.0, shift=0.0))
        assert unit[0] == pytest.approx(unit[3])
        # shift rotates the transfer admittances without changing magnitude
        assert abs(y_ft) == pytest.approx(abs(y_tf))


def test_roundtrip_bundled_cases(all_fixtures):
    for name, net in all_fixtures.items():
        text = serialize_case(net)
        again = parse_case(text, name=net.name)
        assert again == net, f"round-trip mismatch for {name}"


def test_roundtrip_with_tap_shift_shunts():
    text = """
mpc.baseMVA = 100.0;
mpc.bus = [
	1	3	0.0	0.0	0.0	0.0	1	1.0	0.0	230.0	1	1.1	0.9;
	2	1	40.0	10.0	1.5	-4.25	1	1.0	0.0	230.0	1	1.1	0.9;
];
mpc.gen = [
	1	0.0	0.0	60.0	-60.0	1.0	100.0	1	120.0	5.0;
];
mpc.gencost = [
	2	0.0	0.0	3	0.0625	20.5	1.25;
];
mpc.branch = [
	1	2	0.01	0.1	0.04	250.0	0.0	0.0	1.03125	8.5	1	-25.0	25.0;
];
"""
    net = parse_case(text)
    again = parse_case(serialize_case(net))
    assert again == net


def test_with_loads_returns_new_network(case5):
    scaled = case5.with_loads(case5.p_load * 1.1, case5.q_load * 1.1)
    assert scaled is not case5
    assert scaled.p_load[1] == pytest.approx(case5.p_load[1] * 1.1)
    assert case5.p_load[1] == pytest.approx(3.0)
    assert scaled.branches == case5.branches


def rebuilt(network):
    """The network built anew from its parts, validated and derived again."""
    return Network(network.base_mva, network.buses, network.branches, network.generators,
                   network.name)


def test_with_loads_copy_equals_a_rebuilt_network(case14):
    rng = np.random.default_rng(5)
    case14.case_hash  # cached on the parent; the copies must not inherit it
    once = case14.with_loads(case14.p_load * rng.uniform(0.5, 1.5, 14), case14.q_load)
    twice = once.with_loads(once.p_load, once.q_load * rng.uniform(0.5, 1.5, 14))
    for copy in (once, twice):
        fresh = rebuilt(copy)
        assert copy == fresh
        for f in dataclasses.fields(Network):
            if f.name == "_topology":
                continue
            mine, theirs = getattr(copy, f.name), getattr(fresh, f.name)
            if isinstance(mine, np.ndarray):
                assert np.array_equal(mine, theirs) and mine.dtype == theirs.dtype, f.name
            else:
                assert mine == theirs, f.name
        assert copy.case_hash == fresh.case_hash != case14.case_hash


def test_with_loads_shares_the_read_only_topology(case5):
    copy = case5.with_loads(case5.p_load * 1.1, case5.q_load).with_loads(case5.p_load, case5.q_load)
    for name in ("f_idx", "t_idx", "y_ff", "y_ft", "y_tf", "y_tt", "y_shunt", "ybus", "gen_bus"):
        assert getattr(copy, name) is getattr(case5, name)
        with pytest.raises(ValueError, match="read-only"):
            getattr(copy, name)[0] = 0
    assert canonical_kinds(copy) is canonical_kinds(case5)
    assert canonical_kinds(rebuilt(copy)) is not canonical_kinds(case5)
    assert copy.p_load is not case5.p_load


def test_with_loads_copies_keep_the_case_loads(case5):
    copy = case5.with_loads(case5.p_load * 1.1, case5.q_load).with_loads(case5.p_load * 0.9,
                                                                         case5.q_load * 2.0)
    p_case, q_case = copy.case_loads
    assert copy.case_loads is case5.case_loads
    assert np.array_equal(p_case, case5.p_load) and np.array_equal(q_case, case5.q_load)
    with pytest.raises(ValueError, match="read-only"):
        p_case[0] = 0
    assert np.array_equal(rebuilt(copy).case_loads[1], copy.q_load)


@pytest.mark.parametrize(
    "p_size,q_size,message",
    [(15, 14, r"p_load: expected 14 per-bus loads, got shape \(15,\)"),
     (14, 13, r"q_load: expected 14 per-bus loads, got shape \(13,\)")],
)
def test_with_loads_rejects_wrong_lengths(case14, p_size, q_size, message):
    with pytest.raises(ValueError, match=message):
        case14.with_loads(np.ones(p_size), np.ones(q_size))


def test_with_loads_rejects_non_finite_loads(case14):
    p_load, q_load = case14.p_load.copy(), case14.q_load.copy()
    p_load[3] = np.nan
    with pytest.raises(ValueError, match=r"p_load\[3\] = nan is not finite"):
        case14.with_loads(p_load, q_load)
    q_load[[6, 9]] = np.inf
    with pytest.raises(ValueError, match=r"q_load\[6\] = inf is not finite"):
        case14.with_loads(case14.p_load, q_load)


def test_bundled_case_names():
    from acrestore.netmodel import bundled_case_names

    assert set(bundled_case_names()) >= {"case5", "case14", "case57", "case118"}

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from acrestore import (
    benchmark_restore, eval_h, load_bundled_case, lpac, newton_pf, scenarios, wls_restore,
)
from acrestore.acpf import PowerFlowError
from acrestore.netmodel import PQ, SLACK, Network
from acrestore.scenarios import (
    NoiseProfile,
    ScenarioSpec,
    build_lpac_dataset,
    dispatch_spec,
    economic_dispatch,
    gen_load_scenarios,
    ground_truth_states,
    proportional_dispatch,
    split_indices,
    synth_dataset,
)
from acrestore.train import TrainConfig, default_initial_weights, loss, train_weights


def test_zero_sigma_reproduces_nominal(case5):
    spec = ScenarioSpec(count=4, sigma=0.0, seed=1)
    loads = gen_load_scenarios(case5, spec)
    for p_load, q_load in loads:
        assert p_load == pytest.approx(case5.p_load)
        assert q_load == pytest.approx(case5.q_load)


def test_determinism_under_seed(case5):
    spec = ScenarioSpec(count=10, sigma=0.1, seed=7)
    a = gen_load_scenarios(case5, spec)
    b = gen_load_scenarios(case5, spec)
    for (pa, qa), (pb, qb) in zip(a, b):
        assert np.array_equal(pa, pb) and np.array_equal(qa, qb)
    different = gen_load_scenarios(case5, ScenarioSpec(count=10, sigma=0.1, seed=8))
    assert not np.array_equal(a[0][0], different[0][0])


def test_factor_statistics(case5):
    spec = ScenarioSpec(count=10_000, sigma=0.1, seed=3)
    loads = gen_load_scenarios(case5, spec)
    load_buses = np.flatnonzero(case5.p_load > 0)
    factors = np.array(
        [p_load[load_buses] / case5.p_load[load_buses] for p_load, _ in loads]
    ).ravel()
    assert abs(factors.std() - 0.1) < 0.005
    assert abs(factors.mean() - 1.0) < 0.005
    assert factors.min() >= 0.1


def test_constant_power_factor(case5):
    spec = ScenarioSpec(count=5, sigma=0.15, seed=9)
    loads = gen_load_scenarios(case5, spec)
    load_buses = np.flatnonzero(case5.p_load > 0)
    for p_load, q_load in loads:
        fp = p_load[load_buses] / case5.p_load[load_buses]
        fq = q_load[load_buses] / case5.q_load[load_buses]
        assert fp == pytest.approx(fq)


def test_split_disjoint_exhaustive():
    spec = ScenarioSpec(count=10, train_fraction=0.8)
    train, test = split_indices(spec)
    assert len(train) == 8 and len(test) == 2
    assert sorted(train + test) == list(range(10))


def test_proportional_dispatch_meets_load(case5):
    p_gen = proportional_dispatch(case5)
    assert p_gen.sum() == pytest.approx(case5.p_load.sum())
    caps = np.array([g.p_max for g in case5.generators])
    assert np.all(p_gen <= caps + 1e-12)
    assert np.all(p_gen >= -1e-12)


def bisection_dispatch(network):
    """Reference: bisect the marginal price 200 times, then share what is
    left over the linear units marginal at the price found."""
    gens = network.generators
    mins = np.array([g.p_min for g in gens])
    caps = np.array([g.p_max for g in gens])
    c1 = np.array([g.c1 for g in gens])
    c2 = np.array([g.c2 for g in gens])
    target = float(np.clip(network.p_load.sum(), mins.sum(), caps.sum()))

    def output(price):
        p = np.where(
            c2 > 0,
            (price - c1) / np.maximum(2.0 * c2, 1e-300),
            np.where(price >= c1, caps, mins),
        )
        return np.clip(p, mins, caps)

    lo = float(c1.min()) - 1.0
    hi = float((c1 + 2.0 * c2 * caps).max()) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if output(mid).sum() < target:
            lo = mid
        else:
            hi = mid
    p = output(hi)
    gap = target - p.sum()
    if abs(gap) > 1e-12:
        marginal = np.flatnonzero(
            (c2 == 0) & (np.abs(c1 - hi) <= (hi - lo) + 1e-9) & (caps > mins)
        )
        if marginal.size == 0:
            marginal = np.flatnonzero(caps > mins)
        room = (caps - mins)[marginal]
        p[marginal] = np.clip(p[marginal] + gap * room / room.sum(), mins[marginal],
                              caps[marginal])
    return p


def unit_arrays(network, *names):
    return [np.array([getattr(g, name) for g in network.generators]) for name in names]


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_economic_dispatch_matches_bisection(all_fixtures, name):
    network = all_fixtures[name]
    mins, caps, c1, c2 = unit_arrays(network, "p_min", "p_max", "c1", "c2")
    at_cap = at_min = inside = 0
    for sigma, scale in ((0.3, 1.0), (0.6, 0.5), (0.6, 1.5)):
        for p_load, q_load in gen_load_scenarios(network, ScenarioSpec(40, sigma, seed=4)):
            scen = network.with_loads(scale * p_load, q_load)
            p = economic_dispatch(scen)
            assert np.abs(p - bisection_dispatch(scen)).max() <= 1e-12
            target = np.clip(scen.p_load.sum(), mins.sum(), caps.sum())
            assert p.sum() == pytest.approx(target, abs=1e-12)
            free = (c2 > 0) & (p > mins) & (p < caps)
            marginal_cost = c1[free] + 2.0 * c2[free] * p[free]
            if free.any():
                assert np.ptp(marginal_cost) <= 1e-12 * marginal_cost.max()
            at_cap += np.any(p == caps)
            at_min += np.any(p == mins)
            inside += np.any(free)
    # the scenarios reach both unit bounds, and quadratic units between them
    assert at_cap and at_min
    assert inside or not c2.any()


def test_economic_dispatch_shares_a_step_by_room(case5):
    # case5's units are linear: merit order fills them at c1 = 10, 14, 15, 30, 40
    # and the unit whose step meets the load takes the rest
    assert economic_dispatch(case5) == pytest.approx([0.4, 1.7, 1.9, 0.0, 6.0], abs=1e-12)
    # two units stepping at one price share the residual by p_max - p_min
    gens = list(case5.generators)
    gens[0] = dataclasses.replace(gens[0], p_min=0.1)
    gens[1] = dataclasses.replace(gens[1], c1=gens[0].c1, p_min=0.2)
    tied = Network(case5.base_mva, case5.buses, case5.branches, tuple(gens), case5.name)
    tied = tied.with_loads(case5.p_load * (7.05 / case5.p_load.sum()), case5.q_load)
    residual = 7.05 - 6.0 - 0.3
    expected = [0.1 + residual * 0.3 / 1.8, 0.2 + residual * 1.5 / 1.8, 0.0, 0.0, 6.0]
    assert economic_dispatch(tied) == pytest.approx(expected, abs=1e-12)
    assert economic_dispatch(tied) == pytest.approx(bisection_dispatch(tied), abs=1e-12)


@pytest.mark.parametrize("name", ["case5", "case57"])
def test_economic_dispatch_clips_load_outside_fleet_range(all_fixtures, name):
    network = all_fixtures[name]
    gens = tuple(dataclasses.replace(g, p_min=0.1 * g.p_max) for g in network.generators)
    network = Network(network.base_mva, network.buses, network.branches, gens, network.name)
    mins, caps = unit_arrays(network, "p_min", "p_max")
    for scale, bound in ((0.0, mins), (0.01, mins), (10.0, caps)):
        scen = network.with_loads(scale * network.p_load, network.q_load)
        assert economic_dispatch(scen) == pytest.approx(bound, abs=1e-12)


def test_synth_zero_noise_trains_to_noop(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=3, sigma=0.05, seed=2))
    silent = NoiseProfile(vm=0.0, va=0.0, pinj=0.0, qinj=0.0, flow=0.0)
    records = synth_dataset(case5, loads, noise=silent, seed=5)
    assert len(records) == 3
    for rec in records:
        # measurements are exactly consistent with the stored ground truth
        assert rec.z.values == pytest.approx(
            eval_h(case5.with_loads(rec.p_load, rec.q_load), rec.x_ac, rec.z.kinds)
        )
    w0 = default_initial_weights(records[0].z.kinds)
    w, trace = train_weights(case5, records, TrainConfig(max_iter=2, w_init=w0))
    assert w == pytest.approx(w0)


def test_synth_dataset_determinism(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=4, sigma=0.1, seed=11))
    a = synth_dataset(case5, loads, seed=13)
    b = synth_dataset(case5, loads, seed=13)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.z.values, rb.z.values)


def test_synth_noise_only_on_one_family_shifts_weights(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=20, sigma=0.08, seed=17))
    profile = NoiseProfile(vm=0.0, va=0.0, pinj=0.0, qinj=0.02, flow=0.0)
    records = synth_dataset(case5, loads, noise=profile, seed=19)
    w0 = default_initial_weights(records[0].z.kinds)
    w, _ = train_weights(
        case5, records, TrainConfig(max_iter=30, eta=20.0, w_init=w0)
    )
    kinds = records[0].z.kinds
    qinj_cols = [i for i, k in enumerate(kinds) if k.kind == "qinj"]
    vm_cols = [i for i, k in enumerate(kinds) if k.kind == "vm"]
    assert w[qinj_cols].mean() < 1e3  # noisy family discounted
    assert w[vm_cols].mean() > 1e3    # clean family not collapsed


def test_ground_truth_states_solve(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=4, sigma=0.1, seed=23))
    states = ground_truth_states(case5, loads)
    assert all(s is not None for s in states)


def test_lpac_dataset_default_ground_truth(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=3, sigma=0.05, seed=29))
    records = build_lpac_dataset(case5, loads)
    assert len(records) == 3
    for rec in records:
        assert rec.source_tag == "lpac"
        # default ground truth is the benchmark-restored point
        scen_net = case5.with_loads(rec.p_load, rec.q_load)
        op = benchmark_restore(scen_net, rec.z)
        assert np.max(np.abs(op.state.as_vector() - rec.x_ac.as_vector())) < 1e-6


def test_lpac_dataset_external_ground_truth_overrides(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=3, sigma=0.05, seed=31))
    truth = ground_truth_states(case5, loads)
    records = build_lpac_dataset(case5, loads, ground_truth=truth)
    for rec, state in zip(records, truth):
        assert np.array_equal(rec.x_ac.as_vector(), state.as_vector())


def test_lpac_dataset_skips_infeasible(case5, caplog):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=2, sigma=0.05, seed=37))
    heavy = [(p * 5.0, q * 5.0) for p, q in loads[:1]] + loads[1:]
    records = build_lpac_dataset(case5, heavy)
    assert len(records) == 1
    assert records[0].index == 1


def test_lpac_dataset_skips_failed_ground_truth(case5, caplog, monkeypatch):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=2, sigma=0.05, seed=37))

    def fail_scenario_0(network, z):
        if np.array_equal(network.p_load, loads[0][0]):
            raise PowerFlowError("power flow diverged (injected)")
        return benchmark_restore(network, z)

    monkeypatch.setattr(scenarios, "benchmark_restore", fail_scenario_0)
    with caplog.at_level("WARNING", logger="acrestore.scenarios"):
        records = build_lpac_dataset(case5, loads)
    assert [rec.index for rec in records] == [1]
    assert "scenario 0 skipped (ground truth): power flow diverged (injected)" in caplog.text


def test_lpac_dataset_skips_failed_certificate(case5, caplog, monkeypatch):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=3, sigma=0.05, seed=37))
    verify = lpac.verify_certificates

    def fail_scenario_1(result):
        cert = verify(result)
        if np.array_equal(result.std.row_hi, lpac.build_lpac(case5.with_loads(*loads[1])).row_hi):
            cert = dict(cert, ok=False, gap=1.0)
        return cert

    monkeypatch.setattr(lpac, "verify_certificates", fail_scenario_1)
    with caplog.at_level("WARNING", logger="acrestore.scenarios"):
        records = build_lpac_dataset(case5, loads)
    assert [rec.index for rec in records] == [0, 2]
    assert "scenario 1 skipped (approximation): certificate check failed: {'ok': False" in caplog.text
    assert "scenario 0 skipped" not in caplog.text and "scenario 2 skipped" not in caplog.text


def test_lpac_dataset_propagates_programming_errors(case5, monkeypatch):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=2, sigma=0.05, seed=37))

    def broken(network, z):
        raise TypeError("injected programming error")

    monkeypatch.setattr(scenarios, "benchmark_restore", broken)
    with pytest.raises(TypeError, match="injected"):
        build_lpac_dataset(case5, loads)


def fail_scenario_0(loads, error):
    """newton_pf that raises error on the first scenario's loads."""
    newton_pf = scenarios.newton_pf

    def solve(network, spec, **kwargs):
        if np.array_equal(network.p_load, loads[0][0]):
            raise error
        return newton_pf(network, spec, **kwargs)

    return solve


def test_power_flow_failure_skips_scenario(case5, caplog, monkeypatch):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=2, sigma=0.05, seed=37))
    error = PowerFlowError("power flow diverged (injected)")
    monkeypatch.setattr(scenarios, "newton_pf", fail_scenario_0(loads, error))
    with caplog.at_level("WARNING", logger="acrestore.scenarios"):
        states = ground_truth_states(case5, loads)
        records = synth_dataset(case5, loads)
    assert states[0] is None and states[1] is not None
    assert [rec.index for rec in records] == [1]
    assert "scenario 0: ground-truth power flow failed: power flow diverged (injected)" in caplog.text
    assert "scenario 0 skipped (power flow): power flow diverged (injected)" in caplog.text


@pytest.mark.parametrize("build", [ground_truth_states, synth_dataset])
def test_power_flow_programming_errors_propagate(case5, monkeypatch, build):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=2, sigma=0.05, seed=37))
    error = TypeError("injected programming error")
    monkeypatch.setattr(scenarios, "newton_pf", fail_scenario_0(loads, error))
    with pytest.raises(TypeError, match="injected"):
        build(case5, loads)


def flat_start_states(network, loads):
    """The ground truth with every power flow started flat."""
    states = []
    for p_load, q_load in loads:
        scen = network.with_loads(p_load, q_load)
        states.append(newton_pf(scen, dispatch_spec(scen, economic_dispatch(scen))))
    return states


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_ground_truth_starts_from_the_case_power_flow(name, request):
    network = request.getfixturevalue(name)
    loads = gen_load_scenarios(network, ScenarioSpec(count=6, sigma=0.3, seed=53))
    states = ground_truth_states(network, loads)
    for state, flat, (p_load, q_load) in zip(states, flat_start_states(network, loads), loads):
        scen = network.with_loads(p_load, q_load)
        spec = dispatch_spec(scen, economic_dispatch(scen))
        v = state.voltages()
        mismatch = v * np.conj(scen.ybus @ v) - (spec.p_set + 1j * spec.q_set)
        types = np.array(spec.bus_type)
        assert np.abs(mismatch[types != SLACK].real).max() < 1e-8
        assert np.abs(mismatch[types == PQ].imag).max() < 1e-8
        # a warm and a flat start stop at different points inside the
        # tolerance: up to 3.4e-9 apart over 1200 case5-case118 scenarios
        # at sigma 0.1, 0.3 and 0.6
        assert np.abs(state.as_vector() - flat.as_vector()).max() < 1e-7
    # the start is the case's, not the previous scenario's
    singles = [ground_truth_states(network, [scenario])[0] for scenario in loads[::-1]]
    for state, single in zip(states, singles[::-1]):
        assert np.array_equal(state.as_vector(), single.as_vector())


def test_failed_case_power_flow_starts_scenarios_flat(caplog, monkeypatch):
    network = load_bundled_case("case5")  # its own per-topology store
    loads = gen_load_scenarios(network, ScenarioSpec(count=3, sigma=0.05, seed=37))
    error = PowerFlowError("power flow diverged (injected)")
    monkeypatch.setattr(scenarios, "newton_pf", fail_scenario_0([network.case_loads], error))
    with caplog.at_level("WARNING", logger="acrestore.scenarios"):
        states = ground_truth_states(network, loads)
    assert "case power flow failed, scenarios start flat: power flow diverged" in caplog.text
    for state, flat in zip(states, flat_start_states(network, loads)):
        assert np.array_equal(state.as_vector(), flat.as_vector())


def test_case_power_flow_programming_error_propagates(monkeypatch):
    network = load_bundled_case("case5")
    loads = gen_load_scenarios(network, ScenarioSpec(count=2, sigma=0.05, seed=37))
    error = TypeError("injected programming error")
    monkeypatch.setattr(scenarios, "newton_pf", fail_scenario_0([network.case_loads], error))
    with pytest.raises(TypeError, match="injected"):
        ground_truth_states(network, loads)


def test_synth_dataset_builds_quickly(case5):
    import time

    loads = gen_load_scenarios(case5, ScenarioSpec(count=100, sigma=0.1, seed=43))
    started = time.perf_counter()
    records = synth_dataset(case5, loads, seed=44)
    elapsed = time.perf_counter() - started
    assert len(records) == 100
    assert elapsed < 10.0


def test_training_halves_loss_on_synthetic_dataset(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=100, sigma=0.1, seed=321))
    records = synth_dataset(case5, loads, seed=322)
    w0 = default_initial_weights(records[0].z.kinds)
    _, trace = train_weights(
        case5, records, TrainConfig(max_iter=200, eta=1000.0, w_init=w0)
    )
    assert trace.loss[-1] <= 0.5 * trace.loss[0]


def test_raw_lpac_loss_same_order_as_half_unit(case5):
    # raw voltage distance of the approximation, scaled to a 2,000-scenario
    # test set, lands within an order of magnitude of 0.5
    loads = gen_load_scenarios(case5, ScenarioSpec(count=50, sigma=0.1, seed=55))
    truth = ground_truth_states(case5, loads)
    records = build_lpac_dataset(case5, loads, ground_truth=truth)
    from acrestore import StateVector

    raw_states = []
    for rec in records:
        vm = rec.z.values[:5]
        va = rec.z.values[5:10] - rec.z.values[5 + case5.slack]
        raw_states.append(StateVector(vm, va, case5.slack))
    scaled = loss(records, raw_states) * (2000.0 / len(records))
    assert 0.05 < scaled < 5.0


def test_benchmark_matches_lpac_vm_but_not_qinj(case5):
    from acrestore import benchmark_restore as restore

    loads = gen_load_scenarios(case5, ScenarioSpec(count=1, sigma=0.1, seed=61))
    records = build_lpac_dataset(case5, loads)
    rec = records[0]
    scen_net = case5.with_loads(rec.p_load, rec.q_load)
    op = restore(scen_net, rec.z)
    table = {(k.kind, k.index): rec.z.values[i] for i, k in enumerate(rec.z.kinds)}
    for bus in case5.gen_buses():
        assert op.state.vm[bus] == pytest.approx(table[("vm", int(bus))], abs=1e-9)
    # reactive injections at generator buses are power-flow outcomes and
    # generally differ from the approximation's values
    q_dev = max(
        abs(op.q_inj[bus] - table[("qinj", int(bus))]) for bus in case5.gen_buses()
    )
    assert q_dev > 1e-4


def test_initial_weight_restoration_tracks_raw_lpac(case5):
    # regression: with heuristic weights the estimator stays within a small
    # factor of the raw approximation's voltage distance while, unlike raw,
    # being exactly AC-consistent; trained weights beating raw is asserted
    # in the acceptance suite
    loads = gen_load_scenarios(case5, ScenarioSpec(count=10, sigma=0.08, seed=41))
    truth = ground_truth_states(case5, loads)
    records = build_lpac_dataset(case5, loads, ground_truth=truth)
    w0 = default_initial_weights(records[0].z.kinds)
    restored, raw_states = [], []
    from acrestore import StateVector

    for rec in records:
        res = wls_restore(case5, rec.z, w0)
        assert res.converged
        restored.append(res.state)
        vm = rec.z.values[:5]
        va = rec.z.values[5:10].copy()
        va -= va[case5.slack]
        raw_states.append(StateVector(vm, va, case5.slack))
    assert loss(records, restored) < 1.3 * loss(records, raw_states)

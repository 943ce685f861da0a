"""Acceptance suite: one test per black-box criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).

The heavyweight 5-bus approximation pipeline (scenario generation, dataset
build, and weight trainings at four training-set sizes) is computed once in
a module fixture and shared by the training-related criteria.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from acrestore import (
    MeasurementSet,
    StateVector,
    benchmark_restore,
    canonical_kinds,
    eval_H,
    eval_h,
    newton_pf,
    solution_sensitivity,
    wls_restore,
)
from acrestore.lpac import build_lpac, cosine_cuts, simplex_solve, verify_certificates
from acrestore.scenarios import (
    NoiseProfile,
    ScenarioSpec,
    build_lpac_dataset,
    dispatch_spec,
    gen_load_scenarios,
    ground_truth_states,
    synth_dataset,
)
from acrestore.train import (
    TrainConfig,
    accumulate_gradient,
    adam_step,
    default_initial_weights,
    loss,
    train_weights,
)
from conftest import fd_jacobian, perturbed_state
from test_sens import case5_sensitivity_problem, column_errors, fd_sensitivity_column
from test_wls import two_bus_oracle_problem


def report(ok: bool, line: str):
    print(f"{'PASS' if ok else 'FAIL'} {line}")
    assert ok, line


# ---------------------------------------------------------------------------
# shared 5-bus approximation pipeline (criteria 6, 7, 9)
# ---------------------------------------------------------------------------

TRAIN_ETA = 100.0
TRAIN_ITERS = 200
CURVE_SIZES = (50, 100, 200, 400)


@pytest.fixture(scope="module")
def lpac_pipeline(case5):
    t_start = time.perf_counter()
    spec = ScenarioSpec(count=500, sigma=0.1, seed=2024, train_fraction=0.8)
    loads = gen_load_scenarios(case5, spec)
    truth = ground_truth_states(case5, loads)
    records = build_lpac_dataset(case5, loads, ground_truth=truth)
    by_index = {rec.index: rec for rec in records}
    train_all = [by_index[i] for i in range(400) if i in by_index]
    test_recs = [by_index[i] for i in range(400, 500) if i in by_index]
    w_init = default_initial_weights(records[0].z.kinds)
    t_dataset = time.perf_counter() - t_start

    def test_loss(weights):
        states = []
        for rec in test_recs:
            result = wls_restore(case5, rec.z, weights)
            assert result.converged
            states.append(result.state)
        return loss(test_recs, states)

    raw_states, bench_states = [], []
    nb = case5.n_bus
    for rec in test_recs:
        scen_net = case5.with_loads(rec.p_load, rec.q_load)
        vm = rec.z.values[:nb]
        va = rec.z.values[nb : 2 * nb] - rec.z.values[nb + case5.slack]
        raw_states.append(StateVector(vm, va, case5.slack))
        bench_states.append(benchmark_restore(scen_net, rec.z).state)

    curve = {}
    trained = {}
    t_train_400 = None
    for size in CURVE_SIZES:
        t0 = time.perf_counter()
        weights, _trace = train_weights(
            case5,
            train_all[:size],
            TrainConfig(max_iter=TRAIN_ITERS, eta=TRAIN_ETA, w_init=w_init),
        )
        if size == 400:
            t_train_400 = time.perf_counter() - t0
        trained[size] = weights
        curve[size] = test_loss(weights)

    return {
        "records": records,
        "test": test_recs,
        "loss_raw": loss(test_recs, raw_states),
        "loss_benchmark": loss(test_recs, bench_states),
        "loss_init": test_loss(w_init),
        "curve": curve,
        "trained": trained,
        # the criterion-6 budget covers the dataset build plus the
        # 400-scenario training; the extra curve trainings belong to 7
        "criterion6_s": t_dataset + t_train_400,
        "elapsed_s": time.perf_counter() - t_start,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_jacobian_correctness(all_fixtures):
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for name in ("case5", "case14", "case57", "case118"):
        network = all_fixtures[name]
        kinds = canonical_kinds(network)
        for _ in range(10):
            state = perturbed_state(network, rng)
            analytic = eval_H(network, state, kinds)
            numeric = fd_jacobian(network, state, kinds, step=1e-6)
            err = np.max(np.abs(analytic - numeric)) / (1.0 + np.max(np.abs(numeric)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    report(
        worst < 1e-6 and elapsed < 30.0,
        f"criterion 1: Jacobian vs central differences, worst rel err "
        f"{worst:.2e} (< 1e-6), runtime {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_2_wls_consistency(all_fixtures):
    rng = np.random.default_rng(2)
    worst_err, worst_iters, worst_scale = 0.0, 0, 0.0
    for name in ("case5", "case14", "case57", "case118"):
        network = all_fixtures[name]
        kinds = canonical_kinds(network)
        truth = perturbed_state(network, rng)
        z = MeasurementSet(kinds, eval_h(network, truth, kinds))
        weights = 10.0 ** rng.uniform(1, 4, z.m)
        base = wls_restore(network, z, weights)
        err = np.max(np.abs(base.state.as_vector() - truth.as_vector()))
        worst_err = max(worst_err, err)
        worst_iters = max(worst_iters, base.iterations)
        assert base.converged
        for c in (1e-3, 1.0, 1e3):
            scaled = wls_restore(network, z, c * weights)
            assert scaled.iterations == base.iterations
            for s_a, s_b in zip(base.state_trace, scaled.state_trace):
                worst_scale = max(
                    worst_scale, np.max(np.abs(s_a.as_vector() - s_b.as_vector()))
                )
    report(
        worst_err < 1e-8 and worst_iters <= 10 and worst_scale < 1e-12,
        f"criterion 2: consistent-data restoration, worst err {worst_err:.1e} "
        f"(< 1e-8) in <= {worst_iters} iterations (<= 10); weight-scale "
        f"iterate deviation {worst_scale:.1e} (< 1e-12)",
    )


def test_criterion_3_sensitivity_correctness(two_bus, case5):
    # zero residual: exactly zero sensitivity
    kinds = canonical_kinds(case5)
    state = perturbed_state(case5, np.random.default_rng(3))
    z0 = MeasurementSet(kinds, eval_h(case5, state, kinds))
    weights0 = np.full(z0.m, 1e3)
    s0 = solution_sensitivity(case5, z0, weights0, state)
    zero_ok = float(np.max(np.abs(s0))) == 0.0

    worst_all, worst_voltage = 0.0, 0.0
    for network, (z, weights) in (
        (two_bus, two_bus_oracle_problem(two_bus)),
        (case5, case5_sensitivity_problem(case5)),
    ):
        result = wls_restore(network, z, weights, tol=1e-13, max_iter=100)
        assert result.converged
        analytic = solution_sensitivity(network, z, weights, result.state)
        numeric = np.column_stack(
            [
                fd_sensitivity_column(network, z, weights, result.state, i)
                for i in range(z.m)
            ]
        )
        errs = column_errors(analytic, numeric)
        worst_all = max(worst_all, errs.max())
        voltage_cols = [i for i, k in enumerate(z.kinds) if k.is_voltage()]
        worst_voltage = max(worst_voltage, errs[voltage_cols].max())
    report(
        zero_ok and worst_all < 1e-2 and worst_voltage < 1e-4,
        f"criterion 3: sensitivity vs solver differences, worst col err "
        f"{worst_all:.2e} (< 1e-2), voltage cols {worst_voltage:.2e} (< 1e-4), "
        f"zero-residual exactly zero: {zero_ok}",
    )


def test_criterion_4_gradient_correctness(case5):
    loads = gen_load_scenarios(case5, ScenarioSpec(count=5, sigma=0.08, seed=44))
    records = synth_dataset(case5, loads, noise=NoiseProfile(), seed=45)
    assert len(records) == 5
    weights = default_initial_weights(records[0].z.kinds)
    analytic = accumulate_gradient(case5, records, weights)

    def objective(w):
        total = 0.0
        for rec in records:
            result = wls_restore(case5, rec.z, w, tol=1e-12, max_iter=100)
            assert result.converged
            diff = result.state.as_vector() - rec.x_ac.as_vector()
            total += 0.5 * float(diff @ diff)
        return total

    numeric = np.empty(weights.size)
    for i in range(weights.size):
        delta = 1e-4 * weights[i]
        hi, lo = weights.copy(), weights.copy()
        hi[i] += delta
        lo[i] -= delta
        numeric[i] = (objective(hi) - objective(lo)) / (2.0 * delta)
    rel = float(np.abs(analytic - numeric).max() / np.abs(numeric).max())
    report(
        rel < 1e-2,
        f"criterion 4: loss gradient vs finite differences through the full "
        f"pipeline, rel err {rel:.2e} (< 1e-2)",
    )


def test_criterion_5_adam_unit_behavior():
    config = TrainConfig(eta=3.0)
    g = np.array([2.5, -0.75, 1e-10, 4.0])
    w = np.array([100.0, 100.0, 100.0, 1.0])
    w1, _, _ = adam_step(w, np.zeros(4), np.zeros(4), g, 1, config)
    closed_form = w - config.eta * g / (np.sqrt(g * g) + config.epsilon)
    closed_form = np.maximum(closed_form, config.w_floor)
    first_step_err = float(np.max(np.abs(w1 - closed_form)))
    # the last coordinate steps down by ~eta > w, so the floor binds
    clamp_ok = w1[3] == config.w_floor
    report(
        first_step_err < 1e-12 and clamp_ok,
        f"criterion 5: Adam first-step closed form err {first_step_err:.1e} "
        f"(< 1e-12), floor clamp respected: {clamp_ok}",
    )


def test_criterion_6_training_efficacy(lpac_pipeline):
    p = lpac_pipeline
    opt = p["curve"][400]
    ok = (
        opt < p["loss_init"]
        and opt < p["loss_benchmark"]
        and opt < p["loss_raw"]
        and p["criterion6_s"] < 600.0
    )
    report(
        ok,
        "criterion 6: held-out losses trained "
        f"{opt:.5f} < init {p['loss_init']:.5f}, benchmark "
        f"{p['loss_benchmark']:.5f}, raw {p['loss_raw']:.5f} "
        f"(dataset + 400-scenario training {p['criterion6_s']:.0f} s < 600 s)",
    )


def test_criterion_7_scenario_count_curve(lpac_pipeline):
    curve = lpac_pipeline["curve"]
    band = 1.10
    ok_200 = curve[200] <= band * min(curve[50], curve[100])
    ok_400 = curve[400] <= band * curve[200]
    points = ", ".join(f"{n}: {curve[n]:.5f}" for n in CURVE_SIZES)
    report(
        ok_200 and ok_400,
        f"criterion 7: held-out loss vs training scenarios non-increasing "
        f"within 10% at and beyond 200 ({points})",
    )


def test_criterion_8_restoration_speed(case118):
    loads = gen_load_scenarios(case118, ScenarioSpec(count=100, sigma=0.1, seed=8))
    records = synth_dataset(case118, loads, seed=9)
    weights = default_initial_weights(records[0].z.kinds)
    elapsed = []
    for rec in records:
        started = time.perf_counter()
        result = wls_restore(case118, rec.z, weights)
        elapsed.append(time.perf_counter() - started)
        assert result.converged
    mean_s = float(np.mean(elapsed))
    report(
        mean_s < 1.0,
        f"criterion 8: mean 118-bus restoration {mean_s * 1e3:.1f} ms/scenario "
        f"over {len(records)} scenarios (< 1 s)",
    )


def test_criterion_9_benchmark_restoration(all_fixtures, lpac_pipeline):
    from acrestore import fileio, operating_point
    from acrestore.fileio import solution_to_measurements

    worst = 0.0
    for name in ("case5", "case14", "case57", "case118"):
        network = all_fixtures[name]
        state = newton_pf(network, dispatch_spec(network))
        sol = fileio.operating_point_solution(
            network, operating_point(network, state), "pf"
        )
        z = solution_to_measurements(network, sol)
        op = benchmark_restore(network, z)
        # the restored point reproduces the fixed quantities and the loads
        gen_buses = set(int(b) for b in network.gen_buses())
        table = {(k.kind, k.index): z.values[i] for i, k in enumerate(z.kinds)}
        for bus in range(network.n_bus):
            if bus in gen_buses:
                worst = max(worst, abs(op.state.vm[bus] - table[("vm", bus)]))
                if bus != network.slack:
                    worst = max(worst, abs(op.p_inj[bus] - table[("pinj", bus)]))
            else:
                worst = max(worst, abs(op.p_inj[bus] + network.p_load[bus]))
                worst = max(worst, abs(op.q_inj[bus] + network.q_load[bus]))
        worst = max(
            worst, float(np.max(np.abs(op.state.as_vector() - state.as_vector())))
        )
    opt = lpac_pipeline["curve"][400]
    ordering = lpac_pipeline["loss_benchmark"] > opt
    report(
        worst < 1e-8 and ordering,
        f"criterion 9: benchmark restoration exact on consistent inputs "
        f"(worst dev {worst:.1e} < 1e-8) and its approximation-pipeline loss "
        f"{lpac_pipeline['loss_benchmark']:.5f} exceeds the trained loss {opt:.5f}",
    )


def test_criterion_10_lpac_validity(case5, case14):
    import math

    worst_gap = -np.inf
    for network in (case5, case14):
        for br in network.branches:
            points, floor = cosine_cuts(br.theta_max, 9)
            grid = np.linspace(-br.theta_max, br.theta_max, 1000)
            cos_grid = np.cos(grid)
            for point in points:
                cut = math.cos(point) - math.sin(point) * (grid - point)
                worst_gap = max(worst_gap, float(np.max(cos_grid - cut)))
            worst_gap = max(worst_gap, float(np.max(floor - cos_grid)))
    envelope_ok = worst_gap <= 1e-12

    certificates = []
    for network in (case5, case14):
        result = simplex_solve(build_lpac(network))
        certificates.append(verify_certificates(result, tol=1e-9))
    loads = gen_load_scenarios(case5, ScenarioSpec(count=3, sigma=0.1, seed=10))
    for p_load, q_load in loads:
        result = simplex_solve(build_lpac(case5.with_loads(p_load, q_load)))
        certificates.append(verify_certificates(result, tol=1e-9))
    certs_ok = all(c["ok"] for c in certificates)
    worst_residual = max(c["primal_residual"] for c in certificates)
    worst_reduced = min(c["min_reduced_cost"] for c in certificates)
    report(
        envelope_ok and certs_ok,
        f"criterion 10: cosine envelope contains cos on 1000-point grids "
        f"(worst gap {worst_gap:.1e}) and simplex certificates hold at 1e-9 "
        f"(residual {worst_residual:.1e}, reduced cost {worst_reduced:.1e})",
    )

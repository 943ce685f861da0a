from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from acrestore import MeasurementSet, acpf, canonical_kinds, eval_h, sens, train, wls, wls_restore
from acrestore.train import (
    ScenarioRecord,
    TrainConfig,
    TrainingError,
    accumulate_gradient,
    adam_step,
    default_initial_weights,
    loss,
    train_weights,
)
from acrestore.wls import ConvergenceError, UnobservableError
from conftest import perturbed_state


def make_record(network, rng, noise_std=0.0, index=0, kinds=None):
    kinds = canonical_kinds(network) if kinds is None else kinds
    truth = perturbed_state(network, rng)
    values = eval_h(network, truth, kinds)
    if noise_std:
        values = values + rng.normal(0, noise_std, len(kinds))
    return ScenarioRecord(
        p_load=network.p_load.copy(),
        q_load=network.q_load.copy(),
        x_ac=truth,
        z=MeasurementSet(kinds, values),
        index=index,
    )


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_zero_on_exact_match(case5):
    rng = np.random.default_rng(0)
    records = [make_record(case5, rng, index=i) for i in range(3)]
    assert loss(records, [r.x_ac for r in records]) == 0.0


def test_loss_single_bus_deviation(case5):
    rng = np.random.default_rng(1)
    rec = make_record(case5, rng)
    vm = rec.x_ac.vm.copy()
    vm[2] += 0.1
    from acrestore import StateVector

    bumped = StateVector(vm, rec.x_ac.va, rec.x_ac.slack)
    assert loss([rec], [bumped]) == pytest.approx(0.01 / 9.0)


def test_loss_sums_over_records(case5):
    rng = np.random.default_rng(2)
    records = [make_record(case5, rng, index=i) for i in range(2)]
    from acrestore import StateVector

    bumped = []
    for rec in records:
        vm = rec.x_ac.vm.copy()
        vm[0] += 0.05
        bumped.append(StateVector(vm, rec.x_ac.va, rec.x_ac.slack))
    assert loss(records, bumped) == pytest.approx(2 * 0.05**2 / 9.0)


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------


def test_gradient_zero_on_consistent_dataset(case5):
    rng = np.random.default_rng(3)
    records = [make_record(case5, rng, index=i) for i in range(3)]
    w = default_initial_weights(records[0].z.kinds)
    grad = accumulate_gradient(case5, records, w)
    assert np.max(np.abs(grad)) < 1e-9


def test_gradient_additivity(case5):
    rng = np.random.default_rng(4)
    rec = make_record(case5, rng, noise_std=1e-3)
    w = default_initial_weights(rec.z.kinds)
    one = accumulate_gradient(case5, [rec], w)
    two = accumulate_gradient(case5, [rec, rec], w)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def fd_loss_gradient(network, records, w, rel_step=1e-4):
    """Central differences of the half-squared-error objective through the
    full restoration pipeline; the independent oracle for the gradient."""

    def objective(weights):
        total = 0.0
        for rec in records:
            res = wls_restore(network, rec.z, weights, tol=1e-12, max_iter=100)
            assert res.converged
            diff = res.state.as_vector() - rec.x_ac.as_vector()
            total += 0.5 * float(diff @ diff)
        return total

    grad = np.empty(w.size)
    for i in range(w.size):
        delta = rel_step * w[i]
        hi, lo = w.copy(), w.copy()
        hi[i] += delta
        lo[i] -= delta
        grad[i] = (objective(hi) - objective(lo)) / (2 * delta)
    return grad


def test_gradient_matches_finite_differences(two_bus):
    from test_wls import two_bus_oracle_problem

    z, w = two_bus_oracle_problem(two_bus)
    rng = np.random.default_rng(5)
    truth = perturbed_state(two_bus, rng, vm_spread=0.01, va_spread=0.05)
    rec = ScenarioRecord(two_bus.p_load, two_bus.q_load, truth, z)
    analytic = accumulate_gradient(two_bus, [rec], w)
    fd = fd_loss_gradient(two_bus, [rec], w)
    scale = np.abs(fd).max()
    assert np.max(np.abs(analytic - fd)) / scale < 1e-2


def test_too_many_failures_aborts(case5):
    rng = np.random.default_rng(6)
    # underdetermined per-record layout: every restoration fails and the
    # failure fraction trips the abort threshold
    from acrestore import MeasurementKind

    kinds = (MeasurementKind("vm", 0), MeasurementKind("vm", 1))
    records = []
    for i in range(3):
        truth = perturbed_state(case5, rng)
        values = eval_h(case5, truth, kinds)
        records.append(
            ScenarioRecord(case5.p_load, case5.q_load, truth, MeasurementSet(kinds, values), index=i)
        )
    with pytest.raises(TrainingError):
        accumulate_gradient(case5, records, np.full(len(kinds), 1e3))


def fail_record_3(records, fault):
    """wls_restore that applies fault to record 3 and runs normally elsewhere."""

    def restore(network, z, weights, **kwargs):
        if z is records[3].z:
            return fault(network, z, weights)
        return wls_restore(network, z, weights, **kwargs)

    return restore


def unobservable(network, z, weights):
    raise UnobservableError("normal matrix singular (injected)")


def one_iteration(network, z, weights):
    return wls_restore(network, z, weights, max_iter=1)


@pytest.mark.parametrize(
    "fault,message",
    [
        (unobservable, "record 3 skipped: normal matrix singular (injected)"),
        (one_iteration, "record 3 skipped: restoration did not converge in 1 iterations"),
    ],
)
def test_solver_error_skips_record(case5, caplog, monkeypatch, fault, message):
    rng = np.random.default_rng(12)
    records = [make_record(case5, rng, noise_std=1e-3, index=i) for i in range(10)]
    w = default_initial_weights(records[0].z.kinds)
    expected = accumulate_gradient(case5, records[:3] + records[4:], w)
    monkeypatch.setattr(train, "wls_restore", fail_record_3(records, fault))
    with caplog.at_level("WARNING", logger="acrestore.train"):
        grad = accumulate_gradient(case5, records, w)
    assert np.array_equal(grad, expected)
    assert message in caplog.text


def test_programming_error_in_a_record_propagates(case5, monkeypatch):
    rng = np.random.default_rng(12)
    records = [make_record(case5, rng, noise_std=1e-3, index=i) for i in range(10)]
    w = default_initial_weights(records[0].z.kinds)

    def mistyped(network, z, weights):
        raise TypeError("unsupported operand (injected)")

    monkeypatch.setattr(train, "wls_restore", fail_record_3(records, mistyped))
    with pytest.raises(TypeError, match="injected"):
        accumulate_gradient(case5, records, w)


def test_wrong_length_weights_raise(case5):
    rng = np.random.default_rng(12)
    records = [make_record(case5, rng, noise_std=1e-3, index=i) for i in range(10)]
    w = default_initial_weights(records[0].z.kinds)[:-1]
    with pytest.raises(ValueError, match="weights for"):
        accumulate_gradient(case5, records, w)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_train_config_options_and_fixed_adam_constants():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "eta", "max_iter", "w_init", "threads"
    ]
    assert (TrainConfig.beta1, TrainConfig.beta2, TrainConfig.epsilon) == (0.9, 0.999, 1e-8)
    assert TrainConfig.w_floor == wls.W_FLOOR
    with pytest.raises(ValueError, match="learning rate must be positive"):
        TrainConfig(eta=0.0)
    with pytest.raises(ValueError, match="threads must be 1"):
        TrainConfig(threads=2)


def test_adam_first_step_closed_form():
    config = TrainConfig(eta=2.0)
    g = np.array([3.0, -0.5, 1e-12])
    w = np.array([10.0, 10.0, 10.0])
    w1, m1, v1 = adam_step(w, np.zeros(3), np.zeros(3), g, 1, config)
    expected = w - config.eta * g / (np.sqrt(g * g) + config.epsilon)
    assert w1 == pytest.approx(expected, abs=1e-12)
    assert m1 == pytest.approx((1 - config.beta1) * g)
    assert v1 == pytest.approx((1 - config.beta2) * g * g)


def test_adam_momentum_moves_on_zero_gradient():
    config = TrainConfig(eta=1.0)
    m_prev = np.array([0.4])
    v_prev = np.array([0.2])
    w = np.array([5.0])
    w1, m1, v1 = adam_step(w, m_prev, v_prev, np.zeros(1), 2, config)
    assert m1 == pytest.approx(config.beta1 * m_prev)
    assert v1 == pytest.approx(config.beta2 * v_prev)
    assert w1[0] != 5.0


def test_adam_clamps_at_floor():
    config = TrainConfig(eta=100.0)
    g = np.array([50.0])
    w = np.array([1.0])
    w1, _, _ = adam_step(w, np.zeros(1), np.zeros(1), g, 1, config)
    assert w1[0] == config.w_floor


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_zero_iterations_returns_init(case5):
    rng = np.random.default_rng(7)
    records = [make_record(case5, rng, noise_std=1e-3, index=i) for i in range(2)]
    w0 = default_initial_weights(records[0].z.kinds)
    config = TrainConfig(max_iter=0, w_init=w0)
    w, trace = train_weights(case5, records, config)
    assert w == pytest.approx(w0)
    assert trace.loss == []


def test_consistent_dataset_is_a_fixed_point(case5):
    rng = np.random.default_rng(8)
    records = [make_record(case5, rng, index=i) for i in range(3)]
    w0 = default_initial_weights(records[0].z.kinds)
    config = TrainConfig(max_iter=3, w_init=w0)
    w, trace = train_weights(case5, records, config)
    assert w == pytest.approx(w0)
    assert max(trace.loss) < 1e-15


def test_training_reduces_loss_on_noisy_dataset(case5):
    rng = np.random.default_rng(9)
    records = [make_record(case5, rng, noise_std=2e-3, index=i) for i in range(10)]
    config = TrainConfig(max_iter=40, eta=20.0)
    w, trace = train_weights(case5, records, config)
    assert trace.loss[-1] < trace.loss[0]
    assert len(trace.loss) == 40
    assert all(wi >= config.w_floor for wi in w)


def watch_layouts(monkeypatch):
    """Lists of the layouts compiled from kind sequences (by length) and of
    the kinds of the z handed to each restoration and sensitivity in train."""
    compiled, handed = [], []
    compile_layout = acpf.compile_layout

    def counting(network, kinds):
        if not isinstance(kinds, acpf.Layout):
            compiled.append(len(kinds))
        return compile_layout(network, kinds)

    def receiving(solver):
        def call(network, z, *args, **kwargs):
            handed.append(z.kinds)
            return solver(network, z, *args, **kwargs)
        return call

    for module in (acpf, wls, sens, train):
        monkeypatch.setattr(module, "compile_layout", counting)
    monkeypatch.setattr(train, "wls_restore", receiving(train.wls_restore))
    monkeypatch.setattr(train, "solution_sensitivity", receiving(train.solution_sensitivity))
    return compiled, handed


def test_gradient_pass_compiles_its_layout_once(case5, monkeypatch):
    rng = np.random.default_rng(15)
    # permuted rows, a plain tuple: every record's kinds need compiling
    canonical = canonical_kinds(case5)
    kinds = tuple(canonical[i] for i in rng.permutation(len(canonical)))
    records = [make_record(case5, rng, noise_std=2e-3, index=i, kinds=kinds) for i in range(6)]
    w = default_initial_weights(kinds)
    expected = accumulate_gradient(case5, records, w)
    compiled, handed = watch_layouts(monkeypatch)
    grad = accumulate_gradient(case5, records, w)
    assert np.array_equal(grad, expected)
    assert compiled == [len(kinds)]
    assert len(handed) == 2 * len(records)
    assert isinstance(handed[0], acpf.Layout) and handed[0] == kinds
    assert all(layout is handed[0] for layout in handed)


def test_training_job_compiles_its_layout_once(case5, monkeypatch):
    # equal to the canonical kinds but a plain tuple, compiled once to the
    # canonical layout
    kinds = tuple(list(canonical_kinds(case5)))
    assert kinds == canonical_kinds(case5) and kinds is not canonical_kinds(case5)
    rng = np.random.default_rng(15)
    records = [make_record(case5, rng, noise_std=2e-3, index=i, kinds=kinds) for i in range(6)]
    config = TrainConfig(max_iter=3)
    expected, _ = train_weights(case5, records, config)
    compiled, handed = watch_layouts(monkeypatch)
    w, _ = train_weights(case5, records, config)
    assert np.array_equal(w, expected)
    assert compiled == [len(kinds)]
    assert len(handed) == 2 * len(records) * config.max_iter
    assert all(layout is canonical_kinds(case5) for layout in handed)


def test_full_batch_training_is_deterministic(case5):
    rng = np.random.default_rng(11)
    records = [make_record(case5, rng, noise_std=2e-3, index=i) for i in range(6)]
    config = TrainConfig(max_iter=4)
    w1, t1 = train_weights(case5, records, config)
    w2, t2 = train_weights(case5, records, config)
    assert np.array_equal(w1, w2)
    assert t1.loss == t2.loss


# ---------------------------------------------------------------------------
# initial weights
# ---------------------------------------------------------------------------


def test_default_initial_weights_layout(case5):
    from acrestore import MeasurementKind

    kinds = (
        MeasurementKind("vm", 0),
        MeasurementKind("vm", 1),
        MeasurementKind("pinj", 0),
        MeasurementKind("pinj", 1),
    )
    assert default_initial_weights(kinds) == pytest.approx([1e4, 1e4, 1e3, 1e3])
    assert default_initial_weights(()).size == 0
    flows = tuple(MeasurementKind("qf", e) for e in range(3))
    assert default_initial_weights(flows) == pytest.approx([1e3] * 3)


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------


def test_warm_started_training_matches_cold_starts(case5):
    rng = np.random.default_rng(9)
    records = [make_record(case5, rng, noise_std=2e-3, index=i) for i in range(10)]
    config = TrainConfig(max_iter=20, eta=20.0)
    w, trace = train_weights(case5, records, config)

    # reference: every restoration from a flat start
    w_ref = default_initial_weights(records[0].z.kinds)
    m_t, v_t = np.zeros_like(w_ref), np.zeros_like(w_ref)
    loss_ref = []
    for t in range(1, config.max_iter + 1):
        states = [wls_restore(case5, rec.z, w_ref).state for rec in records]
        loss_ref.append(loss(records, states))
        grad = accumulate_gradient(case5, records, w_ref)
        w_ref, m_t, v_t = adam_step(w_ref, m_t, v_t, grad, t, config)

    # warm starts move the restored states only within the Gauss-Newton
    # tolerance: the loss agreed to 1.8e-9 and the weights to 2.8e-11
    # (relative) on this dataset, and to less on seeds 13 and 21
    assert trace.loss == pytest.approx(loss_ref, rel=1e-7)
    assert w == pytest.approx(w_ref, rel=1e-9)
    assert trace.records_used == [len(records)] * config.max_iter
    assert all(n < trace.gn_iters[0] for n in trace.gn_iters[1:])


def test_skipped_record_restarts_flat(case5, monkeypatch):
    rng = np.random.default_rng(14)
    records = [make_record(case5, rng, noise_std=2e-3, index=i) for i in range(10)]
    starts = {i: [] for i in range(len(records))}
    restored = {i: [] for i in range(len(records))}

    def restore(network, z, weights, x0=None, **kwargs):
        i = next(k for k, rec in enumerate(records) if rec.z is z)
        starts[i].append(x0)
        if i == 3 and len(starts[i]) == 2:
            raise ConvergenceError("restoration did not converge (injected)")
        result = wls_restore(network, z, weights, x0=x0, **kwargs)
        restored[i].append(result.state)
        return result

    monkeypatch.setattr(train, "wls_restore", restore)
    _, trace = train_weights(case5, records, TrainConfig(max_iter=4))
    # record 3 starts warm on iteration 2, is skipped there, restarts
    # flat on iteration 3 and warm again on iteration 4
    assert starts[3][0] is None and starts[3][2] is None
    assert starts[3][1] is restored[3][0] and starts[3][3] is restored[3][1]
    for i in set(starts) - {3}:
        assert all(a is b for a, b in zip(starts[i][1:], restored[i]))
    assert trace.records_used == [10, 9, 10, 10]
    assert trace.skipped == [[], [(3, "restoration did not converge (injected)")], [], []]

from __future__ import annotations

import numpy as np
import pytest

from acrestore import (
    MeasurementSet,
    canonical_kinds,
    eval_H,
    eval_h,
    solution_sensitivity,
    wls_restore,
)
from acrestore.acpf import compile_layout
from acrestore.wls import solve_normal
from conftest import perturbed_state
from test_wls import two_bus_oracle_problem


def fd_sensitivity_column(network, z, weights, x_r, i, rel_step=1e-4):
    """Central difference of the converged estimate w.r.t. weight i.

    The perturbed solves warm-start from x_r at a tight tolerance so solver
    noise stays far below the difference being measured.
    """
    delta = rel_step * weights[i]
    w_hi, w_lo = weights.copy(), weights.copy()
    w_hi[i] += delta
    w_lo[i] -= delta
    hi = wls_restore(network, z, w_hi, x0=x_r, tol=1e-13, max_iter=100)
    lo = wls_restore(network, z, w_lo, x0=x_r, tol=1e-13, max_iter=100)
    assert hi.converged and lo.converged
    return (hi.state.as_vector() - lo.state.as_vector()) / (2.0 * delta)


def column_errors(analytic, fd):
    """Per-column relative error in max norm, floored for negligible columns."""
    scale = np.abs(fd).max(axis=0)
    floor = 1e-9 * max(scale.max(), 1e-30)
    return np.abs(analytic - fd).max(axis=0) / np.maximum(scale, floor)


def test_zero_residual_gives_zero_sensitivity(case5):
    rng = np.random.default_rng(4)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds))
    weights = np.full(z.m, 1e3)
    result = wls_restore(case5, z, weights, tol=1e-12)
    s = solution_sensitivity(case5, z, weights, result.state)
    assert s.shape == (case5.n_state, z.m)
    assert np.max(np.abs(s)) < 1e-10


def test_matches_fd_on_two_bus_oracle(two_bus):
    z, weights = two_bus_oracle_problem(two_bus)
    result = wls_restore(two_bus, z, weights, tol=1e-13, max_iter=100)
    assert result.converged
    s = solution_sensitivity(two_bus, z, weights, result.state)
    fd = np.column_stack(
        [fd_sensitivity_column(two_bus, z, weights, result.state, i) for i in range(z.m)]
    )
    errs = column_errors(s, fd)
    assert errs.max() < 1e-2


def case5_sensitivity_problem(case5, seed=12):
    """Noisy full-layout restoration on the 5-bus fixture.

    Voltage entries carry small errors and heavy weights, injection/flow
    entries carry larger errors and light weights, the typical shape of a
    relaxation's inconsistencies. Noise scales are sized so the
    held-Jacobian convention gap sits inside the check tolerances.
    """
    rng = np.random.default_rng(seed)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    noise_std = {"vm": 2e-5, "va": 2e-5}
    noise = np.array([rng.normal(0, noise_std.get(k.kind, 5e-4)) for k in kinds])
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds) + noise)
    weights = np.array([1e4 if k.is_voltage() else 1e2 for k in kinds])
    return z, weights


def test_matches_fd_on_case5_noisy(case5):
    z, weights = case5_sensitivity_problem(case5)
    result = wls_restore(case5, z, weights, tol=1e-13, max_iter=100)
    assert result.converged
    assert result.objective > 1e-5
    s = solution_sensitivity(case5, z, weights, result.state)
    fd = np.column_stack(
        [fd_sensitivity_column(case5, z, weights, result.state, i) for i in range(z.m)]
    )
    errs = column_errors(s, fd)
    assert errs.max() < 1e-2
    voltage_cols = [i for i, k in enumerate(z.kinds) if k.is_voltage()]
    assert errs[voltage_cols].max() < 1e-4


def test_exact_on_all_linear_layout(case5):
    # with only vm/va entries the model is linear, the held-Jacobian
    # convention is exact, and the match is limited by solver precision
    rng = np.random.default_rng(8)
    kinds = tuple(k for k in canonical_kinds(case5) if k.kind in ("vm", "va"))
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds) + rng.normal(0, 0.01, len(kinds)))
    weights = 10.0 ** rng.uniform(3, 4, z.m)
    result = wls_restore(case5, z, weights, tol=1e-13, max_iter=100)
    s = solution_sensitivity(case5, z, weights, result.state)
    fd = np.column_stack(
        [fd_sensitivity_column(case5, z, weights, result.state, i) for i in range(z.m)]
    )
    assert column_errors(s, fd).max() < 1e-7


def test_matches_fd_on_larger_fixtures_spot_columns(case14, case57, case118):
    # weights spanning 1e-2..1e6. Columns are checked where the difference
    # signal is representable: a column of scale s changes the state by
    # ~2e-4*s between the perturbed solves, so columns far below the
    # dominant scale sit under double-precision resolution and cannot be
    # measured by any finite difference. The ten largest columns carry the
    # matrix content; affordability caps the solver-run count.
    for network, seed in ((case14, 1), (case57, 2), (case118, 3)):
        rng = np.random.default_rng(seed)
        kinds = canonical_kinds(network)
        truth = perturbed_state(network, rng)
        noise_std = {"vm": 1e-5, "va": 1e-5}
        noise = np.array([rng.normal(0, noise_std.get(k.kind, 2e-4)) for k in kinds])
        z = MeasurementSet(kinds, eval_h(network, truth, kinds) + noise)
        weights = 10.0 ** rng.uniform(-2, 6, z.m)
        result = wls_restore(network, z, weights, tol=1e-13, max_iter=100)
        assert result.converged
        s = solution_sensitivity(network, z, weights, result.state)
        columns = np.argsort(-np.abs(s).max(axis=0))[:10]
        analytic = s[:, columns]
        fd = np.column_stack(
            [fd_sensitivity_column(network, z, weights, result.state, int(i)) for i in columns]
        )
        assert column_errors(analytic, fd).max() < 1e-2


def test_homogeneity_in_weights(two_bus):
    z, weights = two_bus_oracle_problem(two_bus)
    result = wls_restore(two_bus, z, weights, tol=1e-13)
    s1 = solution_sensitivity(two_bus, z, weights, result.state)
    s10 = solution_sensitivity(two_bus, z, 10.0 * weights, result.state)
    assert s10 == pytest.approx(s1 / 10.0, rel=1e-10)


def test_weighted_columns_sum_to_zero(case5):
    rng = np.random.default_rng(21)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds) + rng.normal(0, 0.01, len(kinds)))
    weights = 10.0 ** rng.uniform(-2, 6, z.m)
    result = wls_restore(case5, z, weights, tol=1e-13, max_iter=100)
    assert result.converged
    s = solution_sensitivity(case5, z, weights, result.state)
    assert np.max(np.abs(s @ weights)) < 1e-6


def test_shape_for_partial_layouts(case5):
    rng = np.random.default_rng(6)
    kinds = tuple(k for k in canonical_kinds(case5) if k.kind in ("vm", "pinj", "qinj"))
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds) + rng.normal(0, 0.005, len(kinds)))
    weights = np.full(z.m, 1e3)
    result = wls_restore(case5, z, weights, tol=1e-12)
    s = solution_sensitivity(case5, z, weights, result.state)
    assert s.shape == (case5.n_state, len(kinds))
    assert np.all(np.isfinite(s))


def explicit_sensitivity(network, z, weights, x_r):
    """The matrix formed column by column, N^-1 H' scaled by rho: one
    right-hand side per measurement. The reference for the product form."""
    residual = z.values - eval_h(network, x_r, z.kinds)
    h_mat = eval_H(network, x_r, z.kinds)
    layout = compile_layout(network, z.kinds)
    a_mat = solve_normal(h_mat.take(layout.pattern.entries), weights, h_mat.T, network, layout)
    projected = residual - h_mat @ (a_mat @ (weights * residual))
    return a_mat * projected[None, :]


def noisy_problem(network, seed):
    rng = np.random.default_rng(seed)
    kinds = canonical_kinds(network)
    truth = perturbed_state(network, rng)
    noise = np.array([rng.normal(0, 1e-5 if k.is_voltage() else 2e-4) for k in kinds])
    z = MeasurementSet(kinds, eval_h(network, truth, kinds) + noise)
    weights = 10.0 ** rng.uniform(2, 5, z.m)
    result = wls_restore(network, z, weights, tol=1e-12, max_iter=100)
    assert result.converged
    return z, weights, result.state, rng


def relative_error(value, reference):
    return np.abs(value - reference).max() / np.abs(reference).max()


@pytest.mark.parametrize("name", ["case5", "case14"])
def test_product_form_matches_the_matrix(name, request):
    network = request.getfixturevalue(name)
    z, weights, x_r, rng = noisy_problem(network, seed=31)
    s = solution_sensitivity(network, z, weights, x_r)
    # the full matrix is the product with D = I; it matched the explicit
    # formula to 8e-14 (case5) and 1e-14 (case14) relative, and the
    # products matched s.T @ d to 2e-14
    assert relative_error(s, explicit_sensitivity(network, z, weights, x_r)) < 1e-12
    for d in (rng.normal(size=network.n_state), rng.normal(size=(network.n_state, 3))):
        product = solution_sensitivity(network, z, weights, x_r, d)
        assert product.shape == (z.m,) + d.shape[1:]
        assert relative_error(product, s.T @ d) < 1e-12

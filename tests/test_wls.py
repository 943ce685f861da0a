from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from acrestore import (
    MeasurementKind,
    MeasurementSet,
    StateVector,
    canonical_kinds,
    eval_h,
    solution_sensitivity,
    wls_restore,
)
from acrestore import acpf, sens, wls
from acrestore.train import default_initial_weights
from acrestore.wls import UnobservableError
from conftest import perturbed_state


def two_bus_oracle_problem(two_bus):
    """Overdetermined 2-bus restoration with deliberately inconsistent values.

    Four measurements over a three-dimensional state, so the estimate is a
    genuine weighted compromise with a nonzero residual. The values are a
    consistent operating point nudged off the reachable set (magnitudes
    split apart by 5e-4, reactive injection biased by 2e-3), sized so that
    held-Jacobian sensitivity checks stay within their tolerances.
    """
    kinds = (
        MeasurementKind("vm", 0),
        MeasurementKind("vm", 1),
        MeasurementKind("pinj", 1),
        MeasurementKind("qinj", 1),
    )
    values = np.array([1.0055, 0.9895, -0.4078, -0.1018])
    weights = np.array([1e4, 1e4, 1e3, 1e3])
    return MeasurementSet(kinds, values), weights


def oracle_objective(network, z, weights):
    def j(vec):
        state = StateVector.from_vector(vec, network.slack)
        r = z.values - eval_h(network, state, z.kinds)
        return float(r @ (weights * r))

    return j


def grid_refine_minimum(network, z, weights):
    """Brute-force oracle: dense (vm2, va2) grid, then a local simplex polish
    over the full state. Independent of the Gauss-Newton implementation."""
    j = oracle_objective(network, z, weights)
    best = None
    for vm2 in np.linspace(0.90, 1.05, 121):
        for va2 in np.linspace(-0.25, 0.1, 141):
            val = j(np.array([1.0, vm2, va2]))
            if best is None or val < best[0]:
                best = (val, vm2, va2)
    start = np.array([1.0, best[1], best[2]])
    res = scipy.optimize.minimize(
        j, start, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000},
    )
    return res.x


def test_consistent_measurements_recover_state(case5):
    rng = np.random.default_rng(2)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds))
    weights = 10.0 ** rng.uniform(-1, 4, z.m)
    result = wls_restore(case5, z, weights)
    assert result.converged
    assert result.iterations <= 10
    assert np.max(np.abs(result.state.as_vector() - truth.as_vector())) < 1e-8
    assert result.objective < 1e-14


def test_matches_grid_search_oracle(two_bus):
    z, weights = two_bus_oracle_problem(two_bus)
    result = wls_restore(two_bus, z, weights, tol=1e-12)
    assert result.converged
    oracle = grid_refine_minimum(two_bus, z, weights)
    assert np.max(np.abs(result.state.as_vector() - oracle)) < 1e-4
    # residual really is nonzero on this problem
    assert result.objective > 1e-4


def test_uniform_weight_scaling_leaves_iterates_unchanged(two_bus):
    z, weights = two_bus_oracle_problem(two_bus)
    base = wls_restore(two_bus, z, weights)
    for c in (1e-3, 1.0, 1e3):
        scaled = wls_restore(two_bus, z, c * weights)
        assert scaled.iterations == base.iterations
        for s_a, s_b in zip(base.state_trace, scaled.state_trace):
            assert np.max(np.abs(s_a.as_vector() - s_b.as_vector())) < 1e-12


def test_stationarity_at_convergence(case5):
    rng = np.random.default_rng(9)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    values = eval_h(case5, truth, kinds) + rng.normal(0, 0.01, len(kinds))
    z = MeasurementSet(kinds, values)
    weights = np.full(z.m, 1e3)
    result = wls_restore(case5, z, weights, tol=1e-12)
    assert result.converged
    from acrestore import eval_H

    H = eval_H(case5, result.state, kinds)
    grad = H.T @ (weights * result.residual)
    assert np.max(np.abs(grad)) < 1e-6


def test_objective_descends_on_oracle_problem(two_bus):
    z, weights = two_bus_oracle_problem(two_bus)
    result = wls_restore(two_bus, z, weights, tol=1e-12)
    trace = result.objective_trace
    for before, after in zip(trace, trace[1:]):
        assert after <= before + 1e-12


def test_more_information_does_not_hurt(case5):
    rng = np.random.default_rng(31)
    truth = perturbed_state(case5, rng)
    inj_kinds = tuple(
        MeasurementKind(kind, i)
        for kind in ("pinj", "qinj")
        for i in range(case5.n_bus)
    )
    noise = rng.normal(0, 0.02, len(inj_kinds))
    z_inj = MeasurementSet(inj_kinds, eval_h(case5, truth, inj_kinds) + noise)
    w_inj = np.full(len(inj_kinds), 1e3)
    base = wls_restore(case5, z_inj, w_inj, tol=1e-11)

    exact_kinds = tuple(
        MeasurementKind(kind, i)
        for kind in ("vm", "va")
        for i in range(case5.n_bus)
    )
    z_aug = MeasurementSet(
        exact_kinds + inj_kinds,
        np.concatenate([eval_h(case5, truth, exact_kinds), z_inj.values]),
    )
    w_aug = np.concatenate([np.full(len(exact_kinds), 1e6), w_inj])
    augmented = wls_restore(case5, z_aug, w_aug, tol=1e-11)

    err_base = np.linalg.norm(base.state.as_vector() - truth.as_vector())
    err_aug = np.linalg.norm(augmented.state.as_vector() - truth.as_vector())
    assert err_aug <= err_base + 1e-9


def test_underdetermined_rejected(two_bus):
    kinds = (MeasurementKind("vm", 1), MeasurementKind("pinj", 1))
    z = MeasurementSet(kinds, np.array([1.0, -0.4]))
    with pytest.raises(UnobservableError):
        wls_restore(two_bus, z, np.array([1e3, 1e3]))


def test_unobservable_configuration_names_direction(two_bus):
    # the slack-angle row is identically zero, so this set never observes
    # the bus-2 angle and the normal matrix is singular
    kinds = (
        MeasurementKind("vm", 0),
        MeasurementKind("vm", 1),
        MeasurementKind("va", 0),
    )
    z = MeasurementSet(kinds, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(UnobservableError) as err:
        wls_restore(two_bus, z, np.full(3, 1e3))
    assert "va[bus 2]" in str(err.value)


def case5_angle_pair_layout(case5):
    # slack is bus 4; every vm plus the flows on branches 1-2, 3-4 and 4-5
    # see va[bus 1] and va[bus 2] only through their difference, so the
    # normal matrix is singular although each diagonal entry is positive
    flows = tuple(
        MeasurementKind(kind, branch)
        for branch in (0, 4, 5)
        for kind in ("pf", "qf", "pt", "qt")
    )
    kinds = tuple(MeasurementKind("vm", i) for i in range(case5.n_bus)) + flows
    return MeasurementSet(kinds, eval_h(case5, StateVector.flat(case5), kinds))


def two_bus_angle_layout(two_bus):
    kinds = (
        MeasurementKind("vm", 0),
        MeasurementKind("vm", 1),
        MeasurementKind("va", 0),
    )
    return MeasurementSet(kinds, np.array([1.0, 1.0, 0.0]))


@pytest.mark.parametrize(
    "fixture,layout,solver,names",
    [
        ("case5", case5_angle_pair_layout, "wls", ("va[bus 1]", "va[bus 2]")),
        ("case5", case5_angle_pair_layout, "sens", ("va[bus 1]", "va[bus 2]")),
        ("two_bus", two_bus_angle_layout, "sens", ("va[bus 2]",)),
    ],
)
def test_unobservable_layout_names_direction_in_both_solvers(
    request, fixture, layout, solver, names
):
    network = request.getfixturevalue(fixture)
    z = layout(network)
    weights = np.full(z.m, 1e3)
    # on case5, rounding makes the Cholesky factorization fail at some of
    # these states and succeed with a pivot near 1e-8 at others
    rng = np.random.default_rng(0)
    states = [StateVector.flat(network)] + [perturbed_state(network, rng) for _ in range(3)]
    for state in states:
        with pytest.raises(UnobservableError) as err:
            if solver == "wls":
                wls_restore(network, z, weights, x0=state)
            else:
                solution_sensitivity(network, z, weights, state)
        for name in names:
            assert name in str(err.value)


def test_restore_without_angle_measurements(case5):
    # sources without angle variables simply omit va entries; the solver
    # needs no special handling
    rng = np.random.default_rng(13)
    kinds = tuple(k for k in canonical_kinds(case5) if k.kind != "va")
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds))
    result = wls_restore(case5, z, np.full(z.m, 1e3))
    assert result.converged
    assert np.max(np.abs(result.state.as_vector() - truth.as_vector())) < 1e-8


def test_nonconvergence_flagged_not_raised(two_bus):
    z, weights = two_bus_oracle_problem(two_bus)
    result = wls_restore(two_bus, z, weights, max_iter=1)
    assert not result.converged
    assert result.iterations == 1


@pytest.mark.parametrize("solver", ["wls_restore", "solution_sensitivity"])
def test_each_solve_compiles_its_layout_once(case14, monkeypatch, solver):
    rng = np.random.default_rng(31)
    kinds = canonical_kinds(case14)
    values = eval_h(case14, perturbed_state(case14, rng), kinds)
    z = MeasurementSet(kinds, values + 1e-3 * rng.standard_normal(len(kinds)))
    weights = np.ones(len(kinds))
    x_r = wls_restore(case14, z, weights).state

    compiled = []
    compile_layout = acpf.compile_layout

    def counting(network, layout):
        if not isinstance(layout, acpf.Layout):
            compiled.append(len(layout))
        return compile_layout(network, layout)

    for module in (acpf, wls, sens):
        monkeypatch.setattr(module, "compile_layout", counting)
    if solver == "wls_restore":
        wls_restore(case14, z, weights)
    else:
        solution_sensitivity(case14, z, weights, x_r)
    assert compiled == [len(kinds)]


# ---------------------------------------------------------------------------
# the normal product over the layout's pattern
# ---------------------------------------------------------------------------


def dense_normal(values, weights, layout):
    """The reference the pattern product replaces: H' W H, dense, with H
    rebuilt from its values at the layout's pattern."""
    h_mat = np.zeros((layout.m, 2 * layout.n_bus - 1))
    h_mat.flat[layout.pattern.entries] = values
    return (h_mat * weights[:, None]).T @ h_mat


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_normal_matrix_matches_dense_product(name, request):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(41)
    kinds = canonical_kinds(network)
    partial = [kinds[i] for i in rng.permutation(len(kinds))[: len(kinds) // 2]]
    for layout_kinds in (kinds, partial):
        layout = acpf.compile_layout(network, layout_kinds)
        for state in (StateVector.flat(network), perturbed_state(network, rng)):
            values = acpf.jacobian_values(network, state, layout)
            weights = 10.0 ** rng.uniform(-8, 0, layout.m)
            normal = wls.normal_matrix(values, weights, layout)
            reference = dense_normal(values, weights, layout)
            assert np.array_equal(normal, normal.T)
            # measured 1.8e-16 (case57) and 1.9e-16 (case118)
            assert np.abs(normal - reference).max() <= 1e-14 * np.abs(reference).max()
    # a dense Jacobian is not its pattern values
    with pytest.raises(acpf.MeasurementError, match="Jacobian values for a layout"):
        wls.normal_matrix(acpf.eval_H(network, state, layout), weights, layout)


def noisy_restore_problem(network, seed):
    rng = np.random.default_rng(seed)
    kinds = canonical_kinds(network)
    truth = perturbed_state(network, rng)
    noise = np.array([rng.normal(0, 1e-4 if k.is_voltage() else 1e-3) for k in kinds])
    z = MeasurementSet(kinds, eval_h(network, truth, kinds) + noise)
    return z, 10.0 ** rng.uniform(2, 5, z.m)


@pytest.mark.parametrize("name", ["case14", "case57"])
def test_gauss_newton_iterations_match_dense_reference(name, request, monkeypatch):
    network = request.getfixturevalue(name)
    problems = [noisy_restore_problem(network, seed) for seed in (43, 44, 45)]
    runs = [wls_restore(network, z, weights, tol=1e-10) for z, weights in problems]
    monkeypatch.setattr(wls, "normal_matrix", dense_normal)
    for (z, weights), result in zip(problems, runs):
        reference = wls_restore(network, z, weights, tol=1e-10)
        assert result.converged and reference.converged
        assert result.iterations == reference.iterations
        assert len(result.objective_trace) == len(reference.objective_trace)
        assert np.allclose(result.state.as_vector(), reference.state.as_vector(),
                           rtol=0, atol=1e-10)


@pytest.mark.parametrize("solver", ["wls_restore", "solution_sensitivity"])
def test_given_layout_must_belong_to_z_and_network(case5, case14, solver):
    rng = np.random.default_rng(47)
    kinds = canonical_kinds(case5)
    z = MeasurementSet(kinds, eval_h(case5, perturbed_state(case5, rng), kinds))
    weights = np.full(z.m, 1e3)
    x_r = wls_restore(case5, z, weights).state

    def run(layout):
        if solver == "wls_restore":
            return wls_restore(case5, z, weights, layout=layout).state.as_vector()
        return solution_sensitivity(case5, z, weights, x_r, layout=layout)

    assert np.array_equal(run(acpf.compile_layout(case5, kinds)), run(None))
    swapped = list(kinds)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(acpf.MeasurementError, match="other measurement kinds"):
        run(acpf.compile_layout(case5, swapped))
    with pytest.raises(acpf.MeasurementError, match="other measurement kinds"):
        run(acpf.compile_layout(case5, kinds[:-1]))
    with pytest.raises(acpf.MeasurementError, match="layout for 14 buses"):
        run(acpf.compile_layout(case14, canonical_kinds(case14)))


# ---------------------------------------------------------------------------
# the observability certificate from the direct vm and va rows
# ---------------------------------------------------------------------------


def direct_weight_bound(network, kinds, weights, normal):
    """min_j (direct vm or va weight on state column j) / N_jj, from the kinds."""
    direct = np.zeros(network.n_state)
    for kind, weight in zip(kinds, weights):
        if kind.kind == "vm":
            direct[kind.index] += weight
        elif kind.kind == "va" and kind.index != network.slack:
            direct[network.n_bus + kind.index - (kind.index > network.slack)] += weight
    return (direct / np.diag(normal)).min()


@pytest.mark.parametrize("name", ["case14", "case57", "case118"])
def test_certificate_leaves_results_bit_identical(name, request, monkeypatch):
    network = request.getfixturevalue(name)
    problems = [noisy_restore_problem(network, seed) for seed in (51, 52)]
    rng = np.random.default_rng(53)
    d = rng.standard_normal((network.n_state, 2))

    def run():
        out = []
        for z, weights in problems:
            result = wls_restore(network, z, weights)
            out.append((result.state.as_vector(), np.array(result.objective_trace),
                        solution_sensitivity(network, z, weights, result.state, d)))
        return out

    certified = run()
    monkeypatch.setattr(wls, "_CERTIFIED", np.inf)  # every verdict from the Cholesky
    for got, want in zip(run(), certified):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["case5", "case14", "case57", "case118"])
def test_bound_is_below_every_pivot_squared(name, request):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(57)
    kinds = canonical_kinds(network)
    layout = acpf.compile_layout(network, kinds)
    certified = 0
    for state in (StateVector.flat(network), perturbed_state(network, rng)):
        values = acpf.jacobian_values(network, state, layout)
        for spread in np.linspace(0, 8, 10):
            # weights spread over up to eight decades: the narrow spreads
            # certify, the wide ones leave the verdict to the Cholesky
            weights = 10.0 ** rng.uniform(-spread, 0, layout.m)
            normal = wls.normal_matrix(values, weights, layout)
            bound = direct_weight_bound(network, kinds, weights, normal)
            scale = 1.0 / np.sqrt(np.diag(normal))
            scaled = normal * scale[:, None] * scale[None, :]
            smallest = np.linalg.eigvalsh(scaled)[0]
            pivot_sq = np.diag(np.linalg.cholesky(scaled)).min() ** 2
            # eigvalsh and the pivots are exact to about n * eps of the unit diagonal
            assert bound <= smallest + 1e-13
            assert smallest <= pivot_sq + 1e-13
            certified += bound > wls._CERTIFIED
    # both sides of the certificate are exercised
    assert 0 < certified < 20


def test_cholesky_runs_only_without_a_certificate(case14, monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    rng = np.random.default_rng(59)
    kinds = canonical_kinds(case14)
    truth = perturbed_state(case14, rng)

    def solve(kinds, weights):
        z = MeasurementSet(kinds, eval_h(case14, truth, kinds))
        result = wls_restore(case14, z, weights)
        solution_sensitivity(case14, z, weights, result.state, np.ones(case14.n_state))
        assert np.max(np.abs(result.state.as_vector() - truth.as_vector())) < 1e-8
        count = len(calls)
        calls.clear()
        return count, result.iterations

    assert solve(kinds, default_initial_weights(kinds))[0] == 0
    # without bus 3's vm row its column has no direct weight: every solve factors
    without = tuple(k for k in kinds if k != MeasurementKind("vm", 3))
    count, iterations = solve(without, default_initial_weights(without))
    assert count == iterations + 1
    weights = default_initial_weights(kinds)
    weights[kinds.index(MeasurementKind("vm", 3))] = wls.W_FLOOR
    count, iterations = solve(kinds, weights)
    assert count == iterations + 1


def test_halvings_are_counted(case5):
    rng = np.random.default_rng(4)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds))
    weights = np.ones(z.m)
    assert wls_restore(case5, z, weights).halvings == 0
    # a flat magnitude with angles up to a radian takes steps that cross vm = 0
    # and are halved back inside the magnitude region
    va = rng.uniform(-1.0, 1.0, case5.n_bus)
    va[case5.slack] = 0.0
    result = wls_restore(case5, z, weights, x0=StateVector(np.ones(case5.n_bus), va, case5.slack))
    assert result.converged and result.halvings > 0
    assert np.max(np.abs(result.state.as_vector() - truth.as_vector())) < 1e-8


def test_step_leaving_the_magnitude_region_keeps_the_run_going(case5):
    # from magnitudes as low as 0.02, steps cross vm = 0 and need more than
    # the five damping halvings to stay positive; halving them outside that
    # budget lets the run reach the truth instead of stopping early
    rng = np.random.default_rng(156)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds))
    vm = rng.uniform(0.02, 1.2, case5.n_bus)
    va = rng.uniform(-0.5, 0.5, case5.n_bus)
    va[case5.slack] = 0.0
    result = wls_restore(case5, z, np.ones(z.m), x0=StateVector(vm, va, case5.slack))
    assert result.converged and result.halvings > 5
    assert np.max(np.abs(result.state.as_vector() - truth.as_vector())) < 1e-8


def test_step_cut_short_by_the_magnitude_region_is_not_convergence(case5):
    # a flat magnitude with angles up to a radian drives vm at one bus
    # towards 0 while the objective keeps falling; the run goes on, and steps
    # that the boundary halves below tol do not count as convergence
    rng = np.random.default_rng(3)
    kinds = canonical_kinds(case5)
    truth = perturbed_state(case5, rng)
    z = MeasurementSet(kinds, eval_h(case5, truth, kinds))
    va = rng.uniform(-1.0, 1.0, case5.n_bus)
    va[case5.slack] = 0.0
    x0 = StateVector(np.ones(case5.n_bus), va, case5.slack)
    result = wls_restore(case5, z, np.ones(z.m), x0=x0)
    assert not result.converged and result.iterations == 50
    assert result.halvings == result.boundary_halvings > 0  # no step was damped
    trace = np.array(result.objective_trace)
    assert np.all(np.diff(trace) <= 0.0) and trace[-1] < trace[6]


def test_non_finite_step_ends_the_run(case5, monkeypatch):
    kinds = canonical_kinds(case5)
    z = MeasurementSet(kinds, eval_h(case5, perturbed_state(case5, np.random.default_rng(0)),
                                     kinds))
    flat = StateVector.flat(case5).as_vector()
    for bad in (np.nan, np.inf, -np.inf):
        monkeypatch.setattr(wls, "solve_normal",
                            lambda *args, bad=bad: np.full(case5.n_state, bad))
        result = wls_restore(case5, z, np.ones(z.m))
        assert not result.converged and result.iterations == 1 and result.halvings == 0, bad
        assert np.array_equal(result.state.as_vector(), flat), bad
        assert len(result.state_trace) == len(result.objective_trace) == 1, bad


def test_damping_halvings_are_not_boundary_halvings(case5, monkeypatch):
    # a step that keeps every vm at 1 and turns each angle by two radians
    # stays inside the magnitude region but inflates the objective
    kinds = canonical_kinds(case5)
    z = MeasurementSet(kinds, eval_h(case5, perturbed_state(case5, np.random.default_rng(0)),
                                     kinds))
    step = np.zeros(case5.n_state)
    step[case5.n_bus:] = 2.0
    monkeypatch.setattr(wls, "solve_normal", lambda *args: step)
    result = wls_restore(case5, z, np.ones(z.m), max_iter=1)
    assert result.halvings > 0 == result.boundary_halvings
    assert result.objective_trace[1] <= 10.0 * result.objective_trace[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver", ["wls_restore", "solution_sensitivity"])
def test_first_non_finite_weight_is_named(case5, solver, bad):
    kinds = canonical_kinds(case5)
    state = StateVector.flat(case5)
    z = MeasurementSet(kinds, eval_h(case5, state, kinds))
    weights = np.ones(z.m)
    weights[[3, 7]] = bad
    with pytest.raises(ValueError, match=f"weight 3 is {bad}, want a finite value"):
        if solver == "wls_restore":
            wls_restore(case5, z, weights)
        else:
            solution_sensitivity(case5, z, weights, state)

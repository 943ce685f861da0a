from __future__ import annotations

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

import acrestore
from acrestore import Network, acpf, lpac, load_bundled_case, netmodel, scenarios
from acrestore.acpf import compile_layout
from acrestore.lpac import (
    InfeasibleError,
    IterationLimitError,
    LinearProgram,
    SimplexError,
    UnboundedError,
    _build_model,
    _run_highs,
    build_lpac,
    cosine_cuts,
    extract_solution,
    lpac_to_measurements,
    simplex_solve,
    solve_lpac,
    verify_certificates,
    write_lp_text,
)
from acrestore.scenarios import ScenarioSpec, gen_load_scenarios, ground_truth_states
from conftest import FIXTURE_NAMES

# Optimal objectives of build_lpac(case5) and build_lpac(case14), recorded
# from the dense two-phase tableau simplex the package used before HiGHS.
DENSE_SIMPLEX_OBJECTIVE = {"case5": 17522.55934868019, "case14": 7795.731533252087}

LE, GE, EQ = "<=", ">=", "=="


def array_lp(columns, rows):
    """A LinearProgram from (lower, upper, cost) columns and (coeffs, sense,
    rhs) rows, where coeffs maps column positions to coefficients."""
    a_mat = np.zeros((len(rows), len(columns)))
    row_lo = np.full(len(rows), -np.inf)
    row_hi = np.full(len(rows), np.inf)
    for i, (coeffs, sense, rhs) in enumerate(rows):
        for j, val in coeffs.items():
            a_mat[i, j] = val
        if sense != LE:
            row_lo[i] = rhs
        if sense != GE:
            row_hi[i] = rhs
    lower, upper, cost = np.array(columns, dtype=float).T
    return LinearProgram(
        scipy.sparse.csr_array(a_mat), row_lo, row_hi, cost, lower, upper,
        tuple(f"x{j}" for j in range(len(columns))), tuple(f"c{i}" for i in range(len(rows))),
    )


def row_senses(lp: LinearProgram):
    """(dense row, sense, rhs) of each row of an LP without ranged rows."""
    for row, lo, hi in zip(lp.a_mat.toarray(), lp.row_lo, lp.row_hi):
        if lo == hi:
            yield row, EQ, lo
        elif lo == -math.inf:
            yield row, LE, hi
        else:
            yield row, GE, lo


def linprog_reference(lp: LinearProgram):
    """Solve a LinearProgram through linprog's dense A_ub/A_eq interface.

    This runs the same HiGHS backend as simplex_solve, so it checks only the
    row and sign bookkeeping; the independent checks are the pinned
    objectives, vertex enumeration and the certificate tests below.
    """
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, rhs in row_senses(lp):
        if sense == LE:
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense == GE:
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [(lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None)
              for lo, hi in zip(lp.lower, lp.upper)]
    return scipy.optimize.linprog(
        lp.c_vec,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


def test_simplex_trivial_bound():
    lp = array_lp([(0.0, math.inf, 1.0)], [({0: 1.0}, GE, 3.0)])
    result = simplex_solve(lp)
    assert result.x[0] == pytest.approx(3.0)
    assert verify_certificates(result)["ok"]


def test_simplex_infeasible():
    lp = array_lp([(-math.inf, math.inf, 1.0)], [({0: 1.0}, LE, 0.0), ({0: 1.0}, GE, 1.0)])
    with pytest.raises(InfeasibleError):
        simplex_solve(lp)


def test_simplex_unbounded():
    lp = array_lp([(0.0, math.inf, -1.0)], [({0: 1.0}, GE, 0.0)])
    with pytest.raises(UnboundedError):
        simplex_solve(lp)


def test_simplex_degenerate_tie_terminates():
    # multiple optimal bases and a duplicated row: the solver must still
    # stop at an optimum that passes the certificate check
    lp = array_lp(
        [(0.0, math.inf, 1.0), (0.0, math.inf, 1.0)],
        [({0: 1.0, 1: 1.0}, GE, 1.0), ({0: 1.0, 1: 1.0}, GE, 1.0), ({0: 1.0}, LE, 1.0)],
    )
    result = simplex_solve(lp)
    ref = linprog_reference(lp)
    assert result.objective == pytest.approx(ref.fun, abs=1e-9)
    assert result.objective == pytest.approx(1.0, abs=1e-9)
    assert verify_certificates(result)["ok"]


def vertex_enumeration_optimum(lp: LinearProgram) -> float:
    """Brute-force oracle for a bounded LP: the best feasible point among all
    intersections of n constraint hyperplanes (rows and variable bounds)."""
    n = lp.n_var
    rows = list(row_senses(lp))
    planes = [(row, rhs) for row, _sense, rhs in rows]
    for j in range(n):
        for bound in (lp.lower[j], lp.upper[j]):
            if math.isfinite(bound):
                planes.append((np.eye(n)[j], bound))
    best = math.inf
    for subset in itertools.combinations(planes, n):
        mat = np.array([p[0] for p in subset])
        if abs(np.linalg.det(mat)) < 1e-9:
            continue
        point = np.linalg.solve(mat, np.array([p[1] for p in subset]))
        feasible = all(
            lo - 1e-9 <= v <= hi + 1e-9 for v, lo, hi in zip(point, lp.lower, lp.upper)
        )
        for row, sense, rhs in rows:
            act = sum(row * point)
            feasible &= {LE: act <= rhs + 1e-9, GE: act >= rhs - 1e-9,
                         EQ: abs(act - rhs) <= 1e-9}[sense]
        if feasible:
            best = min(best, float(np.dot(lp.c_vec, point)))
    return best


def test_simplex_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(7)
    solved = infeasible = 0
    for _ in range(40):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 7))
        columns = [(float(rng.uniform(-2.0, 0.0)), float(rng.uniform(0.5, 3.0)),
                    float(rng.normal())) for _j in range(n)]
        rows = [({j: float(rng.normal()) for j in range(n)},
                 (LE, GE, EQ)[int(rng.integers(0, 3))], float(rng.uniform(-1.0, 1.0)))
                for _i in range(m)]
        lp = array_lp(columns, rows)
        oracle = vertex_enumeration_optimum(lp)
        if math.isinf(oracle):
            with pytest.raises(InfeasibleError):
                simplex_solve(lp)
            infeasible += 1
            continue
        result = simplex_solve(lp)
        assert result.objective == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        assert verify_certificates(result)["ok"]
        solved += 1
    assert solved > 10 and infeasible > 0


def test_simplex_matches_reference_on_random_lps():
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(60):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 12))
        columns = [(0.0, float(rng.uniform(0.5, 4.0)), float(rng.normal())) for _j in range(n)]
        rows = [({j: float(rng.normal()) for j in range(n)},
                 (LE, GE)[int(rng.integers(0, 2))], float(rng.uniform(-1.0, 2.0)))
                for _i in range(m)]
        lp = array_lp(columns, rows)
        ref = linprog_reference(lp)
        try:
            mine = simplex_solve(lp)
        except InfeasibleError:
            assert ref.status == 2
            continue
        assert ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, abs=1e-7)
        cert = verify_certificates(mine)
        assert cert["ok"], cert
        solved += 1
    assert solved > 20


def test_simplex_equality_and_free_variables():
    lp = array_lp(
        [(-math.inf, math.inf, 2.0), (-1.0, 5.0, -1.0)],  # x free, y boxed
        [({0: 1.0, 1: 1.0}, EQ, 2.0), ({0: -1.0, 1: 2.0}, LE, 4.0)],
    )
    mine = simplex_solve(lp)
    ref = linprog_reference(lp)
    assert mine.objective == pytest.approx(ref.fun, abs=1e-9)


def test_iteration_limit_raises():
    lp = array_lp([(0.0, math.inf, -1.0)] * 4,
                  [({j: 1.0, (j + 1) % 4: 0.5}, LE, 2.0) for j in range(4)])
    with pytest.raises(IterationLimitError):
        simplex_solve(lp, max_iter=1)


@pytest.mark.parametrize("error,status", [
    (InfeasibleError, "Infeasible"),
    (UnboundedError, "Unbounded"),
    (IterationLimitError, "Iteration limit reached"),
    (SimplexError, "Model error"),
])
def test_simplex_errors_name_the_highs_status(error, status):
    lps = {
        InfeasibleError: array_lp([(-math.inf, math.inf, 1.0)],
                                  [({0: 1.0}, LE, 0.0), ({0: 1.0}, GE, 1.0)]),
        UnboundedError: array_lp([(0.0, math.inf, -1.0)], [({0: 1.0}, GE, 0.0)]),
        IterationLimitError: array_lp([(0.0, math.inf, -1.0)] * 4,
                                      [({j: 1.0, (j + 1) % 4: 0.5}, LE, 2.0) for j in range(4)]),
        SimplexError: array_lp([(0.0, math.inf, 1.0)], [({0: 1.0}, GE, 1.0)]),
    }
    # HiGHS refuses a column whose lower bound is +inf; construction refuses
    # it too and makes the array read-only, so it is written afterwards
    lower = lps[SimplexError].lower
    lower.flags.writeable = True
    lower[0] = math.inf
    with pytest.raises(SimplexError, match=f"HiGHS model status: {status}$") as info:
        simplex_solve(lps[error], max_iter=1 if error is IterationLimitError else None)
    assert type(info.value) is error


def test_simplex_keeps_both_sides_of_a_ranged_row():
    # min -x  s.t.  1 <= x <= 2 as one row, x free: the row enters negated
    # and its upper side must stay
    lp = dataclasses.replace(array_lp([(-math.inf, math.inf, -1.0)], [({0: 1.0}, GE, 1.0)]),
                             row_hi=np.array([2.0]))
    result = simplex_solve(lp)
    assert result.x == pytest.approx([2.0])
    assert result.duals == pytest.approx([-1.0])
    assert verify_certificates(result)["ok"]


def tight_lp():
    # min x + 3y  s.t.  x + 2y >= 4,  x - y <= 1,  y <= 10; optimum (2, 1)
    # with row duals (4/3, -1/3, 0)
    return array_lp(
        [(0.0, math.inf, 1.0), (-math.inf, math.inf, 3.0)],
        [({0: 1.0, 1: 2.0}, GE, 4.0), ({0: 1.0, 1: -1.0}, LE, 1.0), ({1: 1.0}, LE, 10.0)],
    )


def test_linear_program_rejects_malformed_arrays():
    lp = tight_lp()
    nan_coefficient = lp.a_mat.copy()
    nan_coefficient.data[0] = np.nan
    malformed = [
        ("a_mat", nan_coefficient),
        ("row_hi", np.array([np.inf, np.nan, 10.0])),
        ("lower", np.array([np.nan, -np.inf])),
        ("upper", np.array([-1.0, np.inf])),           # below x's lower bound 0
        ("row_lo", np.array([4.0, 2.0, -np.inf])),     # above the second row's 1
        # infinite sides that leave nothing: HiGHS would call the model an error
        ("lower", np.array([np.inf, -np.inf])),
        ("upper", np.array([np.inf, -np.inf])),
        ("row_lo", np.array([np.inf, -np.inf, -np.inf])),
        ("row_hi", np.array([np.inf, -np.inf, 10.0])),
        ("c_vec", np.array([1.0, 3.0, 0.0])),          # three costs, two columns
        ("row_names", ("c0", "c1")),
    ]
    for name, value in malformed:
        with pytest.raises(ValueError, match="^LP"):
            dataclasses.replace(lp, **{name: value})


def test_constructed_lp_arrays_are_read_only():
    lp = tight_lp()
    for array in (lp.a_mat.data, lp.a_mat.indices, lp.a_mat.indptr, lp.c_vec, lp.lower,
                  lp.upper, lp.row_lo, lp.row_hi):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_lp_text_refuses_a_ranged_row():
    lp = tight_lp()
    ranged = dataclasses.replace(lp, row_lo=np.array([4.0, 0.0, -np.inf]))
    with pytest.raises(ValueError, match="two finite sides"):
        write_lp_text(ranged)


def test_certificate_accepts_optimum():
    result = simplex_solve(tight_lp())
    assert result.x == pytest.approx([2.0, 1.0])
    assert result.duals == pytest.approx([4.0 / 3.0, -1.0 / 3.0, 0.0])
    cert = verify_certificates(result)
    assert cert["ok"], cert


def test_certificate_rejects_point_off_a_tight_row():
    result = simplex_solve(tight_lp())
    shifted = dataclasses.replace(result, x=result.x + np.array([0.0, -1e-6]))
    cert = verify_certificates(shifted)
    assert not cert["ok"]
    assert cert["primal_residual"] > 1e-9


def test_certificate_rejects_wrong_sign_row_dual():
    result = simplex_solve(tight_lp())
    duals = result.duals.copy()
    duals[0] = -duals[0]
    cert = verify_certificates(dataclasses.replace(result, duals=duals))
    assert not cert["ok"]
    assert cert["min_row_dual"] < -1e-9


def test_certificate_rejects_feasible_suboptimal_point():
    # a feasible point that is not optimal: only the objective gap can tell
    result = simplex_solve(tight_lp())
    moved = dataclasses.replace(result, x=np.array([3.0, 2.0]))
    cert = verify_certificates(moved)
    assert cert["primal_residual"] == 0.0 and cert["bound_violation"] == 0.0
    assert cert["min_row_dual"] >= 0.0 and cert["min_reduced_cost"] >= -1e-12
    assert not cert["ok"]
    assert cert["gap"] > 1e-9


def test_certificate_rejects_nonzero_free_column_reduced_cost():
    result = simplex_solve(tight_lp())
    duals = result.duals + np.array([1e-6, 0.0, 0.0])
    cert = verify_certificates(dataclasses.replace(result, duals=duals))
    assert not cert["ok"]
    assert cert["min_reduced_cost"] < -1e-9


def test_import_leaves_lp_solver_modules_unloaded():
    # scipy.sparse and scipy.optimize are imported on the first LP build or
    # solve only: importing them costs ~0.3 s and ~20 MB, which every process
    # that never builds an LP would pay. The estimator and its sensitivity
    # use numpy only, so no scipy module at all may load before that, not at
    # import and not lazily during a ground-truth power flow, a restoration,
    # a sensitivity or a training iteration. Training runs one sequential
    # loop, so no thread pool loads either.
    src = os.path.dirname(os.path.dirname(acrestore.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import acrestore, acrestore.lpac, acrestore.scenarios, acrestore.cli; "
            "import sys; assert 'scipy.optimize' not in sys.modules; "
            "assert 'scipy.sparse' not in sys.modules; "
            "from acrestore import (MeasurementSet, canonical_kinds, eval_h, "
            "load_bundled_case, newton_pf, solution_sensitivity, wls_restore); "
            "from acrestore.scenarios import dispatch_spec, ground_truth_states; "
            "net = load_bundled_case('case14'); kinds = canonical_kinds(net); "
            "assert ground_truth_states(net, [(net.p_load * 1.01, net.q_load)])[0]; "
            "values = eval_h(net, newton_pf(net, dispatch_spec(net)), kinds); "
            "z = MeasurementSet(kinds, values * 1.001); weights = [1e3] * z.m; "
            "result = wls_restore(net, z, weights); assert result.converged; "
            "solution_sensitivity(net, z, weights, result.state, values[:net.n_state]); "
            "from acrestore.train import ScenarioRecord, TrainConfig, train_weights; "
            "net = load_bundled_case('case5'); kinds = canonical_kinds(net); "
            "x_ac = newton_pf(net, dispatch_spec(net)); "
            "z = MeasurementSet(kinds, eval_h(net, x_ac, kinds) * 1.001); "
            "record = ScenarioRecord(net.p_load, net.q_load, x_ac, z); "
            "_, trace = train_weights(net, [record], TrainConfig(max_iter=1)); "
            "assert trace.records_used == [1], trace; "
            "assert 'concurrent.futures' not in sys.modules, 'thread pool loaded'; "
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# cosine envelope
# ---------------------------------------------------------------------------


def test_tangent_at_zero_caps_phi_at_one():
    points, floor = cosine_cuts(math.pi / 3, 9)
    assert 0.0 in points
    # the cut at zero reads phi <= 1
    k = list(points).index(0.0)
    assert math.cos(points[k]) + points[k] * math.sin(points[k]) == pytest.approx(1.0)
    assert floor == pytest.approx(0.5)


def test_envelope_contains_cosine():
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta_max = float(rng.uniform(0.1, math.pi / 2 * 0.95))
        n_tan = int(rng.integers(2, 15))
        points, floor = cosine_cuts(theta_max, n_tan)
        grid = np.linspace(-theta_max, theta_max, 1000)
        cos_grid = np.cos(grid)
        for point in points:
            cut = math.cos(point) - math.sin(point) * (grid - point)
            assert np.all(cut >= cos_grid - 1e-12)
        assert np.all(floor <= cos_grid + 1e-12)


# ---------------------------------------------------------------------------
# LPAC model
# ---------------------------------------------------------------------------


def expected_row_count(network, n_cos, n_circle, n_cost):
    rows = 4 * network.n_branch          # flow definitions
    rows += 2 * network.n_bus            # power balance
    rows += n_cos * network.n_branch     # cosine tangents
    rows += 2 * network.n_branch         # angle limits
    rows += sum(2 * n_circle for br in network.branches if br.s_max > 0)
    rows += 2 * (network.n_bus - 1)      # near-nominal voltage tie-break
    for gen in network.generators:
        rows += 1 if (gen.c2 == 0.0 or gen.p_max == gen.p_min) else n_cost
    return rows


def expected_names(network, n_cos, n_circle, n_cost):
    """Column and row names of build_lpac in the order its docstring gives."""
    ids = [bus.id for bus in network.buses]
    others = [bus.id for i, bus in enumerate(network.buses) if i != network.slack]
    ne, ng = network.n_branch, network.n_gen
    columns = [f"{kind}[{i}]" for i in ids for kind in ("v", "th")]
    columns += [f"{kind}[{e}]" for kind in ("phi", "pf", "qf", "pt", "qt") for e in range(ne)]
    columns += [f"{kind}[{g}]" for kind in ("pg", "qg", "cost") for g in range(ng)]
    columns += [f"vdev[{i}]" for i in others]
    rows = [f"{kind}[{e}]" for e in range(ne)
            for kind in ("pflow_def", "qflow_def", "pflow_rev_def", "qflow_rev_def")]
    rows += [f"{kind}[{i}]" for i in ids for kind in ("pbal", "qbal")]
    for e in range(ne):
        rows += [f"cos_cut[{e},{k}]" for k in range(n_cos)] + [f"ang_hi[{e}]", f"ang_lo[{e}]"]
    for e, br in enumerate(network.branches):
        if br.s_max > 0:
            rows += [f"smax_{end}[{e},{k}]" for k in range(n_circle) for end in "ft"]
    rows += [f"{kind}[{i}]" for i in others for kind in ("vdev_hi", "vdev_lo")]
    for g, gen in enumerate(network.generators):
        cuts = 1 if (gen.c2 == 0.0 or gen.p_max == gen.p_min) else n_cost
        rows += [f"cost_cut[{g},{k}]" for k in range(cuts)]
    return columns, rows


@pytest.mark.parametrize("name,counts", [("two_bus", (7, 8, 4)), ("case5", (9, 8, 6))])
def test_lp_layout_follows_documented_order(request, name, counts):
    # HiGHS's pivoting path depends on the column and row order
    network = request.getfixturevalue(name)
    lp = build_lpac(network, *counts)
    columns, rows = expected_names(network, *counts)
    assert lp.var_names == tuple(columns)
    assert lp.row_names == tuple(rows)
    assert len(rows) == expected_row_count(network, *counts)
    sol = extract_solution(network, lp, np.arange(lp.n_var, dtype=float))
    col = {label: j for j, label in enumerate(columns)}
    buses, branches = [bus.id for bus in network.buses], range(network.n_branch)
    gens = range(network.n_gen)
    assert np.array_equal(sol.v, [col[f"v[{i}]"] for i in buses])
    assert np.array_equal(sol.theta, [col[f"th[{i}]"] for i in buses])
    assert np.array_equal(sol.phi, [col[f"phi[{e}]"] for e in branches])
    assert np.array_equal(sol.flows, [[col[f"{kind}[{e}]"] for kind in ("pf", "qf", "pt", "qt")]
                                      for e in branches])
    assert np.array_equal(sol.p_gen, [col[f"pg[{g}]"] for g in gens])
    assert np.array_equal(sol.q_gen, [col[f"qg[{g}]"] for g in gens])
    assert sol.objective == sum(col[f"cost[{g}]"] for g in gens)
    with pytest.raises(ValueError):
        extract_solution(network, lp, np.arange(lp.n_var + 1.0))


def test_lp_dimensions_two_bus(two_bus):
    lp = build_lpac(two_bus, 7, 8, 4)
    # v, th per bus; phi + 4 flows per branch; pg, qg, cost per generator;
    # one deviation variable per non-slack bus
    assert lp.n_var == 2 * 2 + 5 * 1 + 3 * 1 + 1
    assert lp.n_row == expected_row_count(two_bus, 7, 8, 4)


def test_lp_dimensions_case5(case5):
    lp = build_lpac(case5, 9, 8, 6)
    assert lp.n_var == 2 * 5 + 5 * 6 + 3 * 5 + 4
    assert lp.n_row == expected_row_count(case5, 9, 8, 6)


def test_voltage_tiebreak_does_not_move_cost(case5):
    # the deviation penalty only selects among cost-equal optima
    with_tiebreak = solve_lpac(case5)
    plain = simplex_solve(build_lpac(case5, v_tiebreak=0.0))
    assert with_tiebreak.objective == pytest.approx(plain.objective, rel=1e-9)
    # reported objective is the generation cost of the dispatch
    gen_cost = sum(g.cost(p) for g, p in zip(case5.generators, with_tiebreak.p_gen))
    assert with_tiebreak.objective == pytest.approx(gen_cost, rel=1e-6)


def test_lpac_matches_reference_solver(case5):
    lp = build_lpac(case5, 9, 8, 6)
    mine = simplex_solve(lp)
    ref = linprog_reference(lp)
    assert ref.status == 0
    assert mine.objective == pytest.approx(ref.fun, rel=1e-6)
    assert verify_certificates(mine)["ok"]


def test_lpac_matches_reference_solver_case14(case14):
    lp = build_lpac(case14, 9, 8, 6)
    mine = simplex_solve(lp)
    ref = linprog_reference(lp)
    assert ref.status == 0
    assert mine.objective == pytest.approx(ref.fun, rel=1e-6)


@pytest.mark.parametrize("name", sorted(DENSE_SIMPLEX_OBJECTIVE))
def test_lpac_objective_matches_dense_simplex(name, case5, case14):
    network = {"case5": case5, "case14": case14}[name]
    result = simplex_solve(build_lpac(network))
    assert result.objective == pytest.approx(DENSE_SIMPLEX_OBJECTIVE[name], rel=1e-9)
    assert verify_certificates(result, tol=1e-9)["ok"]


@pytest.mark.parametrize("seed,index", [(3, 9), (4, 20)])
def test_lpac_certificate_on_former_defect_scenarios(case14, seed, index):
    # the dense simplex returned an infeasible basis on these two scenarios
    p_load, q_load = gen_load_scenarios(case14, ScenarioSpec(count=index + 1, seed=seed))[index]
    result = simplex_solve(build_lpac(case14.with_loads(p_load, q_load)))
    cert = verify_certificates(result, tol=1e-9)
    assert cert["ok"], cert


@pytest.mark.parametrize(
    "name,index",
    [("case57", None), ("case57", 0), ("case57", 3), ("case57", 9),
     ("case118", 3), ("case118", 5), ("case118", 7), ("case118", 8)],
)
def test_lpac_certificate_scales_reduced_costs(all_fixtures, name, index):
    # HiGHS optima whose absolute reduced costs reach -1.1e-9 to -5.6e-9:
    # rounding in the sums of 1e4-1e5 they cancel. Scaled by those sums
    # they sit near 1e-14. index None is the nominal load.
    network = all_fixtures[name]
    if index is not None:
        loads = gen_load_scenarios(network, ScenarioSpec(count=10, seed=0))
        network = network.with_loads(*loads[index])
    cert = verify_certificates(simplex_solve(build_lpac(network)), tol=1e-9)
    assert cert["ok"], cert


def test_lpac_objective_nondecreasing_under_nested_refinement(case5):
    # nested tangent families tighten the outer envelope, so the minimum
    # cost can only go up
    objectives = [simplex_solve(build_lpac(case5, n, 8, 6)).objective for n in (5, 9, 17)]
    assert objectives[0] <= objectives[1] + 1e-6
    assert objectives[1] <= objectives[2] + 1e-6


def test_lpac_solution_fields(case5):
    sol = solve_lpac(case5, check=True)
    assert sol.v[case5.slack] == 0.0
    assert sol.theta[case5.slack] == 0.0
    assert np.all(sol.p_gen <= [g.p_max + 1e-9 for g in case5.generators])
    assert np.all(sol.p_gen >= [g.p_min - 1e-9 for g in case5.generators])
    # generation covers load plus linearized losses
    assert sol.p_gen.sum() == pytest.approx(case5.p_load.sum(), abs=0.1)
    # angle limits hold
    dtheta = sol.theta[case5.f_idx] - sol.theta[case5.t_idx]
    limits = np.array([br.theta_max for br in case5.branches])
    assert np.all(np.abs(dtheta) <= limits + 1e-9)


@pytest.mark.parametrize("name", ["case57", "case118"])
def test_solve_lpac_certifies_scenarios_on_large_cases(all_fixtures, name):
    network = all_fixtures[name]
    for pair in gen_load_scenarios(network, ScenarioSpec(count=4, seed=0)):
        sol = solve_lpac(network.with_loads(*pair), check=True)
        assert np.all(np.isfinite(sol.v)) and sol.objective > 0.0


def test_lpac_infeasible_on_absurd_load(case5):
    heavy = case5.with_loads(case5.p_load * 5.0, case5.q_load * 5.0)
    with pytest.raises(InfeasibleError):
        solve_lpac(heavy)


def test_measurement_packing(case5):
    sol = solve_lpac(case5)
    z = lpac_to_measurements(case5, sol)
    assert z.m == 2 * 5 + 2 * 5 + 4 * 6
    compile_layout(case5, z.kinds)
    # vm entries are deviations shifted back to magnitudes
    assert z.values[:5] == pytest.approx(1.0 + sol.v)
    # flow entries are the LP variables verbatim
    kinds = [k.kind for k in z.kinds]
    first_pf = kinds.index("pf")
    assert z.values[first_pf : first_pf + 6] == pytest.approx(sol.flows[:, 0])


def test_measurement_packing_flat_deviation(two_bus):
    from acrestore.lpac import LpacSolution

    sol = LpacSolution(
        v=np.zeros(2), theta=np.zeros(2), phi=np.ones(1),
        flows=np.zeros((1, 4)), p_gen=np.array([0.4]), q_gen=np.array([0.1]),
        objective=0.0,
    )
    z = lpac_to_measurements(two_bus, sol)
    assert z.values[:2] == pytest.approx([1.0, 1.0])


def test_lp_text_export_roundtrips_through_reference(case5):
    lp = build_lpac(case5, 5, 4, 3)
    text = write_lp_text(lp)
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    # reference solve of the same model object stays consistent
    ref = linprog_reference(lp)
    mine = simplex_solve(lp)
    assert mine.objective == pytest.approx(ref.fun, rel=1e-6)


# ---------------------------------------------------------------------------
# the model kept once per topology
# ---------------------------------------------------------------------------

# (n_cos_tangents, n_circle_cuts, n_cost_segments, v_tiebreak)
MODEL_SETTINGS = [(9, 8, 6, 1.0), (5, 4, 3, 1.0), (9, 8, 6, 0.0)]


def lp_arrays(lp):
    return (lp.a_mat.data, lp.a_mat.indices, lp.a_mat.indptr, lp.row_lo, lp.row_hi,
            lp.c_vec, lp.lower, lp.upper)


def scenario_networks(network, count=2):
    """Scenario copies of the network, one a copy of a copy."""
    loads = gen_load_scenarios(network, ScenarioSpec(count=count, seed=5))
    copies = [network.with_loads(*pair) for pair in loads]
    return copies + [copies[0].with_loads(*loads[-1])]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_stored_model_equals_a_fresh_build(all_fixtures, name):
    for settings in MODEL_SETTINGS:
        for scen in scenario_networks(all_fixtures[name]):
            mine, fresh = build_lpac(scen, *settings), _build_model(scen, *settings)
            for a, b in zip(lp_arrays(mine), lp_arrays(fresh)):
                assert np.array_equal(a, b) and a.dtype == b.dtype
            assert (mine.var_names, mine.row_names) == (fresh.var_names, fresh.row_names)
            assert mine.a_mat.shape == fresh.a_mat.shape


@pytest.mark.parametrize("name", ["case5", "case14"])
def test_stored_model_solves_like_a_fresh_build(all_fixtures, name):
    # warm solves from the fixture's stored model, whatever solved it before,
    # and from the model of a freshly loaded case
    fresh_case = load_bundled_case(name)
    for scen in scenario_networks(all_fixtures[name], count=4):
        mine = simplex_solve(build_lpac(scen))
        fresh = simplex_solve(build_lpac(fresh_case.with_loads(scen.p_load, scen.q_load)))
        assert np.array_equal(mine.x, fresh.x)
        assert np.array_equal(mine.duals, fresh.duals)
        assert mine.iterations == fresh.iterations


def stored_model(network, settings=MODEL_SETTINGS[0]):
    return network.per_topology(("lpac",) + settings, lambda: pytest.fail("no stored model"))


@pytest.mark.parametrize("name", ["case5", "case14"])
def test_stored_model_holds_the_case_loads_whichever_copy_builds_it(name):
    by_copy, by_root = load_bundled_case(name), load_bundled_case(name)
    scen = scenario_networks(by_copy, count=3)
    build_lpac(scen[-1])  # a copy of a copy builds the model
    build_lpac(by_root)
    own = _build_model(by_root, *MODEL_SETTINGS[0])
    for model in (stored_model(by_copy), stored_model(by_root)):
        assert np.array_equal(model.row_lo, own.row_lo)
        assert np.array_equal(model.row_hi, own.row_hi)
    for copy in scen:
        mine = simplex_solve(build_lpac(copy))
        theirs = simplex_solve(build_lpac(by_root.with_loads(copy.p_load, copy.q_load)))
        assert np.array_equal(mine.x, theirs.x)
        assert np.array_equal(mine.duals, theirs.duals)
        assert mine.iterations == theirs.iterations


def test_scenario_lps_share_the_read_only_model(case14):
    scen = scenario_networks(case14)
    first, second = build_lpac(scen[0]), build_lpac(scen[1])
    for mine, theirs in zip(lp_arrays(first)[:3] + lp_arrays(first)[5:],
                            lp_arrays(second)[:3] + lp_arrays(second)[5:]):
        assert mine is theirs
        with pytest.raises(ValueError, match="read-only"):
            mine[0] = 1
    # each LP has row bounds of its own, read-only like every LP's arrays
    assert not np.shares_memory(first.row_lo, second.row_lo)
    assert not (first.row_lo.flags.writeable or first.row_hi.flags.writeable)
    assert build_lpac(scen[0], v_tiebreak=0).a_mat is not first.a_mat


# ---------------------------------------------------------------------------
# parity with linprog, which simplex_solve bypasses
# ---------------------------------------------------------------------------


def linprog_highs_ds(lp: LinearProgram):
    """x, row duals, objective and iteration count of linprog's HiGHS dual
    simplex, fed the signed A_ub/A_eq split: >= rows negated into A_ub."""
    eq = lp.row_lo == lp.row_hi
    sign = np.where(np.isfinite(lp.row_lo), -1.0, 1.0)[~eq]
    res = scipy.optimize.linprog(
        lp.c_vec,
        A_ub=scipy.sparse.diags(sign) @ lp.a_mat[~eq],
        b_ub=sign * np.where(sign < 0, lp.row_lo[~eq], lp.row_hi[~eq]),
        A_eq=lp.a_mat[eq],
        b_eq=lp.row_hi[eq],
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs-ds",
    )
    assert res.status == 0, res.message
    duals = np.empty(lp.n_row)
    duals[~eq] = sign * res.ineqlin.marginals
    duals[eq] = res.eqlin.marginals
    return res.x, duals, float(lp.c_vec @ res.x), res.nit


@pytest.mark.parametrize("name,count", [("case5", 6), ("case14", 6), ("case57", 1),
                                        ("case118", 1)])
@pytest.mark.parametrize("v_tiebreak", [1.0, 0.0])
def test_simplex_matches_linprog_to_the_bit(all_fixtures, name, count, v_tiebreak):
    # cold solves: _build_model's LPs carry no start basis. The first is the
    # solve at the case's own loads that gives build_lpac's LPs their start
    # basis; a warm solve from it repeats it bit for bit in no iteration.
    network = all_fixtures[name]
    settings = (9, 8, 6, v_tiebreak)
    loads = gen_load_scenarios(network, ScenarioSpec(count=count, seed=0))
    for k, net in enumerate([network] + [network.with_loads(*pair) for pair in loads]):
        lp = _build_model(net, *settings)
        mine = simplex_solve(lp)
        x, duals, objective, iterations = linprog_highs_ds(lp)
        assert np.array_equal(mine.x, x)
        assert np.array_equal(mine.duals, duals)
        assert np.array_equal(mine.objective, objective)
        assert mine.iterations == iterations and not mine.warm
        if k == 0:
            warm = simplex_solve(build_lpac(net, *settings))
            assert np.array_equal(warm.x, x) and np.array_equal(warm.duals, duals)
            assert warm.iterations == 0 and warm.warm


@pytest.mark.parametrize("name,count", [("case5", 6), ("case14", 6), ("case57", 3),
                                        ("case118", 3)])
@pytest.mark.parametrize("v_tiebreak", [1.0, 0.0])
def test_warm_scenario_solves_agree_with_linprog(all_fixtures, name, count, v_tiebreak):
    # a warm solve certifies and reaches linprog's optimal cost in a tenth of
    # its iterations; without the tie-break the optimum is degenerate and x
    # may be another cost-equal vertex (up to 1.4 apart on case118)
    network = all_fixtures[name]
    for pair in gen_load_scenarios(network, ScenarioSpec(count=count, seed=0)):
        lp = build_lpac(network.with_loads(*pair), v_tiebreak=v_tiebreak)
        mine = simplex_solve(lp)
        x, _duals, objective, iterations = linprog_highs_ds(lp)
        cert = verify_certificates(mine, tol=1e-9)
        assert cert["ok"], cert
        assert mine.objective == pytest.approx(objective, rel=1e-12, abs=0.0)
        if v_tiebreak:
            assert np.max(np.abs(mine.x - x)) <= 1e-9
        assert mine.iterations <= iterations / 10


def test_failed_start_basis_leaves_the_solve_cold(case5):
    # a case whose own loads make the model infeasible gives no start basis,
    # so its scenarios solve cold, as linprog would
    heavy = Network(case5.base_mva, case5.with_loads(case5.p_load * 5.0, case5.q_load * 5.0).buses,
                    case5.branches, case5.generators, "heavy")
    with pytest.raises(InfeasibleError):
        simplex_solve(build_lpac(heavy))
    lp = build_lpac(heavy.with_loads(case5.p_load, case5.q_load))
    mine = simplex_solve(lp)
    x, duals, _objective, iterations = linprog_highs_ds(lp)
    assert np.array_equal(mine.x, x) and np.array_equal(mine.duals, duals)
    assert mine.iterations == iterations > 0 and not mine.warm


def assert_same_solve(mine, ref):
    assert np.array_equal(mine.x, ref.x)
    assert np.array_equal(mine.duals, ref.duals)
    assert mine.iterations == ref.iterations


def test_scenario_solve_does_not_depend_on_earlier_solves(all_fixtures):
    # the LPs of one model share its HiGHS solver: whatever that solver ran
    # before (other scenarios in any order, a cold solve of the model, a
    # solve cut short by max_iter) must not show in a scenario's result
    rng = np.random.default_rng(0)
    for name in ("case14", "case57"):
        network = all_fixtures[name]
        loads = gen_load_scenarios(network, ScenarioSpec(count=6, seed=0))
        # each reference on a freshly loaded case, whose solver solved nothing
        alone = [simplex_solve(build_lpac(load_bundled_case(name).with_loads(*pair)))
                 for pair in loads]
        k = int(np.argmax([ref.iterations for ref in alone]))
        assert alone[k].iterations > 0, "max_iter=0 must cut scenario k short"
        lp = build_lpac(network.with_loads(*loads[k]))
        model = stored_model(network)
        cold = simplex_solve(dataclasses.replace(model))  # on a solver of its own

        def others():
            for j in rng.permutation(len(loads)):
                if j != k:
                    assert_same_solve(simplex_solve(build_lpac(network.with_loads(*loads[j]))),
                                      alone[j])

        def cold_solve():
            solver, status = _run_highs(model, model.row_lo, model.row_hi)
            assert status.name == "kOptimal"
            assert np.array_equal(solver.getSolution().col_value, cold.x)
            assert solver.getInfo().simplex_iteration_count == cold.iterations

        def cut_short():
            with pytest.raises(IterationLimitError):
                simplex_solve(lp, max_iter=0)

        for earlier in (others, cold_solve, others, cut_short, others):
            earlier()
            assert_same_solve(simplex_solve(lp), alone[k])


def test_topology_work_is_built_once(monkeypatch):
    from scipy.optimize._highspy import _core

    calls = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((_core, "_Highs"), (scenarios, "_merit_order"),
                        (acpf, "_newton_index"), (acpf, "_generator_bus_types")):
        count(owner, name)
    replaced = []
    real_replace = dataclasses.replace

    def replace(obj, **changes):
        replaced.append(type(obj))
        return real_replace(obj, **changes)
    for module in (dataclasses, netmodel, scenarios, acpf, lpac):
        if hasattr(module, "replace"):
            monkeypatch.setattr(module, "replace", replace)
    cold_runs = []
    real_run = lpac._run_highs

    def run_highs(lp, row_lo, row_hi, max_iter=None, basis=None):
        cold_runs.append(basis is None)
        return real_run(lp, row_lo, row_hi, max_iter, basis)
    monkeypatch.setattr(lpac, "_run_highs", run_highs)

    network = load_bundled_case("case14")
    loads = gen_load_scenarios(network, ScenarioSpec(count=16, seed=2))
    assert all(ground_truth_states(network, loads))
    for pair in loads:
        assert verify_certificates(simplex_solve(build_lpac(network.with_loads(*pair))))["ok"]
    # one solver for the one model; one merit-order grid, one set of bus
    # types and one Newton index (one bus-type tuple) for the one topology
    assert calls == {"_Highs": 1, "_merit_order": 1, "_newton_index": 1,
                     "_generator_bus_types": 1}
    assert set(replaced) == {LinearProgram}  # build_lpac's, never a Bus
    # the stored model's one cold solve, for the start basis, then 16 warm ones
    assert cold_runs == [True] + [False] * 16


def test_simplex_matches_linprog_to_the_bit_on_random_lps():
    # small LPs that presolve often solves outright, with zero iterations
    rng = np.random.default_rng(3)
    counts = []
    for _ in range(60):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        columns = [(0.0, float(rng.uniform(1.0, 5.0)), float(rng.normal())) for _j in range(n)]
        rows = [({j: float(rng.normal()) for j in range(n) if rng.random() < 0.7},
                 (LE, GE, EQ)[int(rng.integers(0, 3))], float(rng.normal()))
                for _i in range(m)]
        lp = array_lp(columns, rows)
        try:
            mine = simplex_solve(lp)
        except InfeasibleError:
            continue
        x, duals, objective, iterations = linprog_highs_ds(lp)
        assert np.array_equal(mine.x, x) and np.array_equal(mine.duals, duals)
        assert np.array_equal(mine.objective, objective) and mine.iterations == iterations
        assert not mine.warm
        counts.append(iterations)
    assert len(counts) > 15 and 0 in counts and max(counts) > 0

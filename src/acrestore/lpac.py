"""Cold-start linear-programming approximation of the OPF (linearized at
the flat point), solved by the HiGHS dual simplex that ships with scipy,
with an optimality certificate checked on the original LP.

The model works in voltage-deviation coordinates (v = vm - 1), linearizes
the flow equations around the flat point, represents cos(angle difference)
by a lifted variable confined to a polyhedral envelope of upper tangent
cuts plus a chord floor, replaces the apparent-power disc by tangent
half-planes, and replaces each quadratic generation cost by a secant
epigraph. Both the deviation and the angle are pinned to zero at the slack
bus; only differences of either enter the flow model, so the pin removes a
spurious translation degeneracy.

build_lpac assembles the model as arrays, one numpy block per row family,
in a fixed column and row order (see build_lpac) with no zero coefficient
stored. HiGHS's pivoting path depends on that order: reordering may change
its iteration count and, among cost-equal optima, the vertex it returns.

Only the bus balance rows' bounds depend on the loads. build_lpac
assembles the model once per topology, at the case's own loads, in the
network's per-topology store shared by its `with_loads` copies, solves
it cold there once and keeps its optimal basis; each call copies the row
bounds and writes the loads into them. The LPs it returns share the
read-only matrix, costs and column bounds, the model's HiGHS form and
solver, and that basis, from which they solve warm, in a few dual simplex
iterations; every other LP solves cold, exactly as `linprog` would.

write_lp_text exports an LP through HiGHS's own LP-format writer, which
HiGHS's reader reads back to the same optimum: names have [ and ] as ( and
), and a row with two finite sides becomes a lo/up pair of rows.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .acpf import MeasurementSet, canonical_kinds
from .netmodel import Network

if TYPE_CHECKING:
    import scipy.sparse as sp

_FEAS_TOL = 1e-9


class SimplexError(RuntimeError):
    pass


class InfeasibleError(SimplexError):
    pass


class UnboundedError(SimplexError):
    pass


class IterationLimitError(SimplexError):
    pass


@dataclass(frozen=True)
class LinearProgram:
    """min c'x subject to row_lo <= A x <= row_hi and lower <= x <= upper.

    a_mat is the m x n CSR matrix of the rows in build order. A side a row
    or a variable leaves open is an infinite bound; equal sides make an
    equality. Construction checks the arrays once and raises ValueError on
    a non-finite coefficient, a NaN bound, an empty interval (a lower side
    of +inf or an upper side of -inf among them) or shapes that disagree;
    then it makes the arrays read-only.
    """

    a_mat: sp.csr_array
    row_lo: np.ndarray
    row_hi: np.ndarray
    c_vec: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    var_names: tuple[str, ...]
    row_names: tuple[str, ...]
    # the LP as HiGHS takes it, made on the first solve (see _highs_form), and
    # for build_lpac's LPs the start basis (see _case_model)
    _highs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n_row, n_var = self.a_mat.shape
        rows = (self.row_lo.shape, self.row_hi.shape, (len(self.row_names),))
        cols = (self.c_vec.shape, self.lower.shape, self.upper.shape, (len(self.var_names),))
        if set(rows) != {(n_row,)} or set(cols) != {(n_var,)}:
            raise ValueError(f"LP of shape {(n_row, n_var)}: row arrays {rows}, columns {cols}")
        if not (np.isfinite(self.a_mat.data).all() and np.isfinite(self.c_vec).all()):
            raise ValueError("LP: non-finite coefficient")
        # a NaN bound fails the comparisons as well
        for lo, hi in ((self.lower, self.upper), (self.row_lo, self.row_hi)):
            if not np.all((lo <= hi) & (lo < np.inf) & (hi > -np.inf)):
                raise ValueError("LP: empty or NaN bound interval")
        # checked once: a write would also leave the kept HiGHS form stale
        for array in (self.a_mat.data, self.a_mat.indices, self.a_mat.indptr, self.c_vec,
                      self.lower, self.upper, self.row_lo, self.row_hi):
            array.flags.writeable = False

    @property
    def n_var(self) -> int:
        return self.a_mat.shape[1]

    @property
    def n_row(self) -> int:
        return self.a_mat.shape[0]


def write_lp_text(lp: LinearProgram) -> str:
    """The LP as HiGHS's LP-format writer gives it (see the module
    docstring). It runs on a solver of its own, so no solve state changes;
    a HiGHS error raises ValueError naming its status."""
    # scipy.optimize loads on first use, as in _highs_form
    from scipy.optimize._highspy import _core as highs

    solver, a_mat, brackets = highs._Highs(), lp.a_mat, str.maketrans("[]", "()")
    solver.setOptionValue("output_flag", False)
    statuses = [solver.passModel(
        lp.n_var, lp.n_row, a_mat.nnz, highs.MatrixFormat.kRowwise, highs.ObjSense.kMinimize,
        0.0, lp.c_vec, lp.lower, lp.upper, lp.row_lo, lp.row_hi, a_mat.indptr.astype(np.int32),
        a_mat.indices.astype(np.int32), a_mat.data,
        np.full(lp.n_var, highs.HighsVarType.kContinuous, np.int32))]
    for put, names in ((solver.passColName, lp.var_names), (solver.passRowName, lp.row_names)):
        statuses += [put(k, name.translate(brackets)) for k, name in enumerate(names)]
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "model.lp")
        statuses.append(solver.writeModel(path))
        if highs.HighsStatus.kError in statuses:
            raise ValueError("HiGHS could not write the LP: status kError")
        with open(path, encoding="utf-8") as fh:
            return fh.read()


# ---------------------------------------------------------------------------
# HiGHS solve and the optimality certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray  # original variable values
    objective: float
    duals: np.ndarray  # row multipliers y, reduced costs are c - A'y
    iterations: int  # HiGHS simplex iterations
    std: LinearProgram  # the LP as solved
    warm: bool = False  # started from the model's optimal basis (see simplex_solve)


_STATUS_ERRORS = {"kIterationLimit": IterationLimitError, "kInfeasible": InfeasibleError,
                  "kUnbounded": UnboundedError}
# linprog(method="highs-ds")'s options (simplex strategy 1 is the dual simplex)
# and HiGHS's defaults, which a kept solver needs back after a warm or cut-short solve
_HIGHS_OPTIONS = {"presolve": "on", "solver": "simplex", "simplex_strategy": 1,
                  "highs_debug_level": 0, "output_flag": False, "log_to_console": False,
                  "simplex_dual_edge_weight_strategy": -1, "simplex_iteration_limit": 2147483647}
# a warm solve takes Devex dual edge weights (1): the default steepest-edge
# weights cost more to set up from a non-slack basis than the few pivots left
_WARM_OPTIONS = {**_HIGHS_OPTIONS, "simplex_dual_edge_weight_strategy": 1}


def _highs_form(lp: LinearProgram) -> tuple:
    """The LP as linprog(method="highs-ds") hands it to HiGHS, made on the
    first solve of the model and shared by the LPs build_lpac derives from
    it: the row order (inequalities, then equalities), the signs in that
    order (-1 on rows with a finite lower side, which enter negated), the
    signed rows in that order as column-wise start, index and value arrays,
    and the model's HiGHS solver."""
    if "form" not in lp._highs:
        # scipy.sparse and scipy.optimize load on first use: at module level they
        # cost every process that never builds or solves an LP ~0.3 s and ~20 MB
        import scipy.sparse as sp
        from scipy.optimize._highspy import _core as highs

        eq = lp.row_lo == lp.row_hi
        order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
        sign = np.where(~eq & np.isfinite(lp.row_lo), -1.0, 1.0)[order]
        csc = sp.csc_array(sp.diags(sign) @ lp.a_mat[order])
        lp._highs.setdefault("form", (order, sign, csc.indptr.astype(np.int32),
                                      csc.indices.astype(np.int32), csc.data, highs._Highs()))
    return lp._highs["form"]


def _run_highs(lp: LinearProgram, max_iter=None, basis=None):
    """The model's HiGHS solver run on the LP, cold with linprog's options
    or, given a basis, warm from it; returns the solver and its model
    status. The whole model is passed anew, replacing the solver's model
    and factorization, so a run keeps nothing from the last."""
    from scipy.optimize._highspy import _core as highs

    order, sign, start, index, value, solver = _highs_form(lp)
    lo, hi = lp.row_lo[order], lp.row_hi[order]
    limit = {} if max_iter is None else {"simplex_iteration_limit": max_iter}
    for name, setting in {**(_HIGHS_OPTIONS if basis is None else _WARM_OPTIONS), **limit}.items():
        solver.setOptionValue(name, setting)
    passed = solver.passModel(
        lp.n_var, lp.n_row, value.size, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
        0.0, lp.c_vec, lp.lower, lp.upper, *np.where(sign < 0, [-hi, -lo], [lo, hi]),
        start, index, value, np.full(lp.n_var, highs.HighsVarType.kContinuous, np.int32))
    status = highs.HighsModelStatus.kModelError
    if passed != highs.HighsStatus.kError:
        if basis is not None:
            solver.setBasis(basis)
        solver.run()
        status = solver.getModelStatus()
    return solver, status


def simplex_solve(lp: LinearProgram, max_iter: int | None = None) -> SimplexResult:
    """Solve with the HiGHS dual simplex shipped with scipy.

    Returns an optimal basic solution with its row duals. Raises
    InfeasibleError, UnboundedError, IterationLimitError, or SimplexError
    for any other solver outcome, each naming HiGHS's model status.

    An LP from build_lpac solves warm: HiGHS starts from the optimal basis
    of the same model at the case's own loads (see _case_model), which stays
    dual feasible when only the balance rows move, and takes Devex edge
    weights; a scenario then takes a few iterations instead of hundreds.
    The result is certified optimal like a cold one and its objective is
    the cold solve's up to rounding, but x may be another cost-equal vertex
    where the optimum is degenerate (see build_lpac's tie-break). Any other
    LP solves cold: scipy's private HiGHS binding gets linprog's row order,
    signs and options (a negated row keeps both sides), so x, the duals and
    the iterations are linprog's to the bit; the parity test in
    tests/test_lpac.py catches a scipy release that breaks that.

    The LPs of one model share its HiGHS solver. Each solve writes every
    option and passes the whole model anew, so no result depends on
    earlier solves (test_scenario_solve_does_not_depend_on_earlier_solves
    pins that); but LPs of one model must not be solved concurrently.
    """
    basis = lp._highs.get("basis")
    solver, status = _run_highs(lp, max_iter, basis)
    if status.name != "kOptimal":
        raise _STATUS_ERRORS.get(status.name, SimplexError)(
            f"HiGHS model status: {solver.modelStatusToString(status)}")
    order, sign = _highs_form(lp)[:2]
    solution = solver.getSolution()
    duals = np.empty(lp.n_row)
    duals[order] = sign * np.array(solution.row_dual)
    x = np.array(solution.col_value)
    iterations = solver.getInfoValue("simplex_iteration_count")[1]
    return SimplexResult(x, float(lp.c_vec @ x), duals, iterations, lp, basis is not None)


def _sign_margin(mult: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Smallest sign-adjusted multiplier; negative means the wrong sign.

    A multiplier may only push against a finite bound: one with no upper
    side must be >= 0, one with no lower side <= 0, a free one zero. Two
    finite sides allow either sign.
    """
    margin = np.where(np.isinf(hi), mult, np.inf)
    margin = np.where(np.isinf(lo), np.minimum(margin, -mult), margin)
    return float(margin.min(initial=np.inf))


def _priced_at(mult: np.ndarray, lo: np.ndarray, hi: np.ndarray, level: np.ndarray):
    """The bound each multiplier's sign selects; the level itself where that
    bound is infinite (a sign error there is reported by _sign_margin)."""
    bound = np.where(mult > 0, lo, hi)
    return np.where(np.isfinite(bound), bound, level)


def verify_certificates(result: SimplexResult, tol: float = _FEAS_TOL) -> dict:
    """Optimality check of a solution on the original LP.

    Uses only x, the row duals y and the LP, never the solver's status:
    - primal_residual: worst row violation, each row divided by its largest
      |coefficient|;
    - bound_violation: worst variable-bound violation;
    - min_row_dual: smallest sign-adjusted row dual (y on >= rows, -y on <=
      rows);
    - min_reduced_cost: the same for the reduced costs d = c - A'y, each
      scaled by the terms it cancels, d_j / max(1, |c_j| + sum_i |a_ij y_i|),
      so a free column counts -|d_j| at that scale; a column with two finite
      bounds may price either way. Unscaled, rounding alone exceeds 1e-9 where
      those terms sum to 1e4-1e5 (case57 and case118);
    - gap: |c'x - dual objective| / max(1, |c'x|), the dual objective pricing
      each row and column at the bound its multiplier's sign selects.
    Feasibility on both sides with a zero gap implies complementary slackness,
    hence optimality. Each measure is held to tol.
    """
    lp, x, y = result.std, result.x, result.duals
    ax = lp.a_mat @ x
    abs_a = abs(lp.a_mat)
    scale = abs_a.max(axis=1).toarray().ravel()
    scale[scale == 0.0] = 1.0
    row_excess = np.maximum(lp.row_lo - ax, ax - lp.row_hi) / scale
    primal_residual = float(np.max(row_excess, initial=0.0))
    bound_excess = np.maximum(lp.lower - x, x - lp.upper)
    bound_violation = float(np.max(bound_excess, initial=0.0))
    reduced = lp.c_vec - lp.a_mat.T @ y
    cancelled = np.maximum(1.0, abs(lp.c_vec) + abs_a.T @ abs(y))
    min_row_dual = _sign_margin(y, lp.row_lo, lp.row_hi)
    min_reduced = _sign_margin(reduced / cancelled, lp.lower, lp.upper)
    primal = float(lp.c_vec @ x)
    dual = float(
        y @ _priced_at(y, lp.row_lo, lp.row_hi, ax)
        + reduced @ _priced_at(reduced, lp.lower, lp.upper, x)
    )
    gap = abs(primal - dual) / max(1.0, abs(primal))
    ok = (
        primal_residual <= tol
        and bound_violation <= tol
        and min_row_dual >= -tol
        and min_reduced >= -tol
        and gap <= tol
    )
    return {
        "ok": bool(ok),
        "primal_residual": primal_residual,
        "bound_violation": bound_violation,
        "min_row_dual": min_row_dual,
        "min_reduced_cost": min_reduced,
        "gap": gap,
    }


# ---------------------------------------------------------------------------
# LPAC model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpacSolution:
    v: np.ndarray       # per-bus voltage deviation from 1.0
    theta: np.ndarray   # per-bus angle, radians
    phi: np.ndarray     # per-branch lifted cosine
    flows: np.ndarray   # (n_branch, 4): p_from, q_from, p_to, q_to
    p_gen: np.ndarray
    q_gen: np.ndarray
    objective: float


def cosine_cuts(theta_max: float, n_tangents: int):
    """Tangent points and a chord floor bounding cos on [-theta_max, theta_max]."""
    if n_tangents < 2:
        raise ValueError("at least two tangent points required")
    points = np.linspace(-theta_max, theta_max, n_tangents)
    return points, math.cos(theta_max)


# tie-break between cost-equal vertices: prefer near-nominal voltages.
# Negligible against generation costs, so the optimal cost is unaffected.
_V_TIEBREAK = 1.0


class _Builder:
    """An LP assembled block by block, columns and rows in the order added."""

    def __init__(self):
        self.var_names: list[str] = []
        self.row_names: list[str] = []
        self.var_parts: list[tuple[np.ndarray, ...]] = []  # lower, upper, cost
        self.row_parts: list[tuple[np.ndarray, ...]] = []  # row_lo, row_hi
        self.entries: list[tuple[np.ndarray, ...]] = []  # row, column, coefficient

    def columns(self, names: list[str], lower, upper, cost=0.0) -> np.ndarray:
        """Append len(names) columns, bounds and cost broadcast to them, and
        return their positions."""
        first = len(self.var_names)
        self.var_names.extend(names)
        self.var_parts.append(tuple(np.full(len(names), np.ravel(v), float)
                                    for v in (lower, upper, cost)))
        return np.arange(first, len(self.var_names))

    def rows(self, terms, lo, hi, names: list[str]):
        """Append len(names) rows, bounds broadcast to them. Each term is
        (row, column, coefficient): the row array, counted from the block's
        first row, sets the term's shape, and the other two broadcast to it."""
        first = len(self.row_names)
        for row, col, val in terms:
            shape = np.shape(row)
            self.entries.append((first + row, np.full(shape, col), np.full(shape, val, float)))
        self.row_parts.append(tuple(np.full(len(names), np.ravel(v), float) for v in (lo, hi)))
        self.row_names.extend(names)

    def program(self) -> LinearProgram:
        """The LP, its matrix in CSR sorted by row and column, without zero
        coefficients."""
        import scipy.sparse as sp

        row, col, val = (np.concatenate([a.ravel() for a in part]) for part in zip(*self.entries))
        keep = np.flatnonzero(val)
        n_row, n_var = len(self.row_names), len(self.var_names)
        keep = keep[np.argsort(row[keep] * n_var + col[keep])]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(row[keep], minlength=n_row))])
        a_mat = sp.csr_array((val[keep], col[keep], indptr), shape=(n_row, n_var))
        lower, upper, c_vec = (np.concatenate(part) for part in zip(*self.var_parts))
        row_lo, row_hi = (np.concatenate(part) for part in zip(*self.row_parts))
        return LinearProgram(a_mat, row_lo, row_hi, c_vec, lower, upper,
                             tuple(self.var_names), tuple(self.row_names))


def build_lpac(
    network: Network,
    n_cos_tangents: int = 9,
    n_circle_cuts: int = 8,
    n_cost_segments: int = 6,
    v_tiebreak: float = _V_TIEBREAK,
) -> LinearProgram:
    """Assemble the cold-start linear OPF approximation for the network.

    Columns, in order: v[bus] and th[bus] interleaved per bus, then the
    per-branch blocks phi, pf, qf, pt, qt, the per-generator blocks pg, qg,
    cost, and one vdev[bus] per non-slack bus. Rows, in order: the four flow
    definitions of each branch; the P and Q balance of each bus; each
    branch's cosine cuts followed by its two angle limits; the disc cuts of
    each branch with a rating, from and to terminal alternating per cut;
    the two tie-break rows of each non-slack bus; the cost cuts of each
    generator.

    Voltage deviations carry a tiny absolute-value penalty that selects the
    near-nominal point among cost-equal optima; deviation magnitudes are
    otherwise degenerate on shunt-free networks. Pass v_tiebreak=0 to drop
    the penalty.

    The model is built once per topology and its four settings, at the
    case's own loads (`Network.case_loads`) whichever `with_loads` copy
    asks first, and shared read-only by the LPs returned; each call copies
    only the row bounds and writes the network's loads into the balance
    rows (4 * n_branch onward, P and Q interleaved per bus). The LPs
    returned solve warm from the model's optimal basis at the case's loads,
    solved once when the model is stored (see _case_model and simplex_solve).
    """
    if n_cos_tangents < 2 or n_circle_cuts < 2 or n_cost_segments < 2:
        raise ValueError("tangent, circle-cut, and cost-segment counts must be >= 2")
    settings = (n_cos_tangents, n_circle_cuts, n_cost_segments,
                v_tiebreak if v_tiebreak > 0.0 else 0.0)
    model = network.per_topology(("lpac",) + settings, lambda: _case_model(network, settings))
    balance = slice(4 * network.n_branch, 4 * network.n_branch + 2 * network.n_bus)
    row_lo, row_hi = model.row_lo.copy(), model.row_hi.copy()
    row_lo[balance] = row_hi[balance] = _balance_bounds(network)
    lp = replace(model, row_lo=row_lo, row_hi=row_hi)
    # every row keeps its sense, so the model's HiGHS form and start basis fit
    object.__setattr__(lp, "_highs", model._highs)
    return lp


def _case_model(network: Network, settings) -> LinearProgram:
    """The model build_lpac stores: _build_model at the case's own loads,
    whichever copy of the network asks first, solved cold there once; its
    optimal basis, or None where that solve is not optimal, is the start
    basis of the warm solves (see simplex_solve)."""
    model = _build_model(network.with_loads(*network.case_loads), *settings)
    solver, status = _run_highs(model)
    model._highs["basis"] = solver.getBasis() if status.name == "kOptimal" else None
    return model


def _balance_bounds(network: Network) -> np.ndarray:
    """Both bounds of the bus balance rows, P and Q interleaved per bus:
    the loads plus the first-order shunt terms at nominal voltage."""
    g_sh, b_sh = network.y_shunt.real, network.y_shunt.imag
    return np.column_stack([network.p_load + g_sh, network.q_load - b_sh]).ravel()


def _build_model(network: Network, n_cos_tangents, n_circle_cuts, n_cost_segments,
                 v_tiebreak) -> LinearProgram:
    """build_lpac's LP for the network."""
    lp = _Builder()
    nb, ne, ng = network.n_bus, network.n_branch, network.n_gen
    f, t = network.f_idx, network.t_idx
    buses, branches, gens = network.buses, network.branches, network.generators
    ids = [bus.id for bus in buses]
    others = np.flatnonzero(np.arange(nb) != network.slack)

    v_lo = np.array([[bus.v_min - 1.0, -np.inf] for bus in buses])
    v_hi = np.array([[bus.v_max - 1.0, np.inf] for bus in buses])
    v_lo[network.slack] = v_hi[network.slack] = 0.0
    v_col, th_col = lp.columns(
        [f"{kind}[{i}]" for i in ids for kind in ("v", "th")], v_lo, v_hi
    ).reshape(nb, 2).T
    phi_col = lp.columns([f"phi[{e}]" for e in range(ne)],
                         [math.cos(br.theta_max) for br in branches], np.inf)
    pf_col, qf_col, pt_col, qt_col = lp.columns(
        [f"{kind}[{e}]" for kind in ("pf", "qf", "pt", "qt") for e in range(ne)], -np.inf, np.inf
    ).reshape(4, ne)
    pg_col = lp.columns([f"pg[{g}]" for g in range(ng)],
                        [gen.p_min for gen in gens], [gen.p_max for gen in gens])
    qg_col = lp.columns([f"qg[{g}]" for g in range(ng)],
                        [gen.q_min for gen in gens], [gen.q_max for gen in gens])
    cost_col = lp.columns([f"cost[{g}]" for g in range(ng)], -np.inf, np.inf, 1.0)

    # directed flow definitions from the linearized flow model: P and Q
    # leaving each branch's from end, then leaving its to end
    y = np.array([1.0 / complex(br.r, br.x) for br in branches])
    g, b = y.real, y.imag
    terms = []
    for k, (p_col, q_col, near, far) in enumerate([(pf_col, qf_col, f, t), (pt_col, qt_col, t, f)]):
        p, q = 4 * np.arange(ne) + 2 * k, 4 * np.arange(ne) + 2 * k + 1
        terms += [(p, p_col, 1.0), (p, phi_col, g), (p, th_col[near], b), (p, th_col[far], -b),
                  (q, q_col, 1.0), (q, v_col[near], b), (q, v_col[far], -b),
                  (q, th_col[near], g), (q, th_col[far], -g), (q, phi_col, -b)]
    rhs = np.column_stack([g, -b, g, -b])
    lp.rows(
        terms, rhs, rhs,
        [f"{kind}[{e}]" for e in range(ne)
         for kind in ("pflow_def", "qflow_def", "pflow_rev_def", "qflow_rev_def")],
    )

    # bus power balance with first-order shunt terms
    bus = np.arange(nb)
    g_sh, b_sh = network.y_shunt.real, network.y_shunt.imag
    gen_bus = network.gen_bus
    rhs = _balance_bounds(network)
    lp.rows(
        [(2 * gen_bus, pg_col, 1.0), (2 * f, pf_col, -1.0), (2 * t, pt_col, -1.0),
         (2 * bus, v_col, -2.0 * g_sh),
         (2 * gen_bus + 1, qg_col, 1.0), (2 * f + 1, qf_col, -1.0), (2 * t + 1, qt_col, -1.0),
         (2 * bus + 1, v_col, 2.0 * b_sh)],
        rhs, rhs,
        [f"{kind}[{i}]" for i in ids for kind in ("pbal", "qbal")],
    )

    # cosine envelope tangents and angle-difference limits; the tangents are
    # made per distinct angle limit, in math.sin and math.cos because numpy's
    # may round differently in the last bit
    theta_max = np.array([br.theta_max for br in branches])
    limits, which = np.unique(theta_max, return_inverse=True)
    points = [cosine_cuts(limit, n_cos_tangents)[0] for limit in limits]
    sines = np.reshape([[math.sin(p) for p in pts] for pts in points], (-1, n_cos_tangents))[which]
    tops = np.reshape([[math.cos(p) + p * math.sin(p) for p in pts] for pts in points],
                      (-1, n_cos_tangents))[which]
    per = n_cos_tangents + 2
    cut = per * np.arange(ne)[:, None] + np.arange(n_cos_tangents)
    ang = per * np.arange(ne) + n_cos_tangents
    lo = np.column_stack([np.full((ne, per - 1), -np.inf), -theta_max])
    hi = np.column_stack([tops, theta_max, np.full(ne, np.inf)])
    lp.rows(
        [(cut, phi_col[:, None], 1.0), (cut, th_col[f][:, None], sines),
         (cut, th_col[t][:, None], -sines),
         (ang, th_col[f], 1.0), (ang, th_col[t], -1.0),
         (ang + 1, th_col[f], 1.0), (ang + 1, th_col[t], -1.0)],
        lo, hi,
        [name for e in range(ne) for name in
         [f"cos_cut[{e},{k}]" for k in range(n_cos_tangents)] + [f"ang_hi[{e}]", f"ang_lo[{e}]"]],
    )

    # apparent-power discs as tangent half-planes, both terminals
    rated = np.flatnonzero([br.s_max > 0.0 for br in branches])
    alphas = [2.0 * math.pi * k / n_circle_cuts for k in range(n_circle_cuts)]
    # cos and sin at multiples of pi/2 leave ~1e-16 for an exact 0, which
    # HiGHS would drop with a warning; zero them so the builder does
    ca, sa = (np.array([trig(alpha) for alpha in alphas]) for trig in (math.cos, math.sin))
    ca[abs(ca) < 1e-15] = sa[abs(sa) < 1e-15] = 0.0
    disc = 2 * n_circle_cuts * np.arange(rated.size)[:, None] + 2 * np.arange(n_circle_cuts)
    lp.rows(
        [(disc, pf_col[rated, None], ca), (disc, qf_col[rated, None], sa),
         (disc + 1, pt_col[rated, None], ca), (disc + 1, qt_col[rated, None], sa)],
        -np.inf, np.repeat([branches[e].s_max for e in rated], 2 * n_circle_cuts),
        [f"smax_{end}[{e},{k}]" for e in rated for k in range(n_circle_cuts) for end in "ft"],
    )

    # near-nominal tie-break: |v| epigraph with a negligible cost
    if v_tiebreak > 0.0:
        dev_col = lp.columns([f"vdev[{ids[i]}]" for i in others], 0.0, np.inf, v_tiebreak)
        dev = 2 * np.arange(others.size)
        lp.rows(
            [(dev, dev_col, 1.0), (dev, v_col[others], -1.0),
             (dev + 1, dev_col, 1.0), (dev + 1, v_col[others], 1.0)],
            0.0, np.inf,
            [f"{kind}[{ids[i]}]" for i in others for kind in ("vdev_hi", "vdev_lo")],
        )

    # secant epigraph of each quadratic generation cost
    cuts = []  # generator, slope, intercept, name
    for k, gen in enumerate(gens):
        if gen.c2 == 0.0 or gen.p_max == gen.p_min:
            cuts.append((k, gen.c1, gen.c0, f"cost_cut[{k},0]"))
            continue
        points = np.linspace(gen.p_min, gen.p_max, n_cost_segments + 1)
        for s, (a, b_pt) in enumerate(zip(points[:-1], points[1:])):
            slope = (gen.cost(b_pt) - gen.cost(a)) / (b_pt - a)
            cuts.append((k, slope, gen.cost(a) - slope * a, f"cost_cut[{k},{s}]"))
    cut_gen, slopes, intercepts, names = zip(*cuts)
    own = np.arange(len(cuts))
    lp.rows(
        [(own, cost_col[list(cut_gen)], 1.0), (own, pg_col[list(cut_gen)], -np.array(slopes))],
        intercepts, np.inf, list(names),
    )
    return lp.program()


def extract_solution(network: Network, lp: LinearProgram, x: np.ndarray) -> LpacSolution:
    """Read a solution of build_lpac(network) by its column blocks."""
    nb, ne, ng = network.n_bus, network.n_branch, network.n_gen
    base = 2 * nb + 5 * ne + 3 * ng
    if lp.n_var not in (base, base + nb - 1) or len(x) != lp.n_var:
        raise ValueError(f"{lp.n_var}-column LP or {len(x)} values do not fit {network.name}")
    v, theta = x[: 2 * nb].reshape(nb, 2).T
    phi, flows, p_gen, q_gen, cost = np.split(x[2 * nb : base], np.cumsum([ne, 4 * ne, ng, ng]))
    return LpacSolution(v, theta, phi, flows.reshape(4, ne).T, p_gen, q_gen, float(sum(cost)))


def solve_lpac(network: Network, check: bool = False) -> LpacSolution:
    """Build and solve the linear approximation with `build_lpac`'s default
    cuts; optionally verify certificates."""
    lp = build_lpac(network)
    result = simplex_solve(lp)
    if check:
        cert = verify_certificates(result)
        if not cert["ok"]:
            raise SimplexError(f"certificate check failed: {cert}")
    return extract_solution(network, lp, result.x)


def lpac_to_measurements(network: Network, sol: LpacSolution) -> MeasurementSet:
    """Pack a solved approximation into the canonical measurement layout.

    Flow entries are the LP's flow variables verbatim; nothing is recomputed
    through the nonlinear model, so the set carries exactly the linearization
    inconsistency the restorer has to resolve.
    """
    p_inj = -network.p_load.copy()
    q_inj = -network.q_load.copy()
    np.add.at(p_inj, network.gen_bus, sol.p_gen)
    np.add.at(q_inj, network.gen_bus, sol.q_gen)
    kinds = canonical_kinds(network)
    values = np.concatenate([1.0 + sol.v, sol.theta, p_inj, q_inj, *sol.flows.T])
    return MeasurementSet(kinds, values)

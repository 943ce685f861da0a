"""Cold-start linear-programming approximation of the OPF, solved by the
HiGHS dual simplex that ships with scipy, with an optimality certificate
checked on the original LP.

The model works in voltage-deviation coordinates (v = vm - 1), linearizes
the flow equations around the flat point, represents cos(angle difference)
by a lifted variable confined to a polyhedral envelope of upper tangent
cuts plus a chord floor, replaces the apparent-power disc by tangent
half-planes, and replaces each quadratic generation cost by a secant
epigraph. Both the deviation and the angle are pinned to zero at the slack
bus; only differences of either enter the flow model, so the pin removes a
spurious translation degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .acpf import MeasurementSet, canonical_kinds
from .netmodel import Network

if TYPE_CHECKING:
    import scipy.sparse as sp

LE, GE, EQ = "<=", ">=", "=="

_FEAS_TOL = 1e-9


class SimplexError(RuntimeError):
    pass


class InfeasibleError(SimplexError):
    pass


class UnboundedError(SimplexError):
    pass


class IterationLimitError(SimplexError):
    pass


@dataclass
class LinearProgram:
    """min c'x over sparse rows with senses and per-variable bounds."""

    var_names: list[str] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    rows: list = field(default_factory=list)  # (coeffs dict, sense, rhs, name)

    def add_var(self, name: str, lower=-math.inf, upper=math.inf, cost=0.0) -> int:
        if not (lower <= upper):
            raise ValueError(f"variable {name}: empty bound interval")
        self.var_names.append(name)
        self.objective.append(float(cost))
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.var_names) - 1

    def add_row(self, coeffs: dict, sense: str, rhs: float, name: str = ""):
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        for j, val in coeffs.items():
            if not (0 <= j < len(self.var_names)) or not math.isfinite(val):
                raise ValueError(f"row {name!r}: bad coefficient ({j}, {val})")
        if not math.isfinite(rhs):
            raise ValueError(f"row {name!r}: non-finite rhs")
        self.rows.append((dict(coeffs), sense, float(rhs), name))

    @property
    def n_var(self) -> int:
        return len(self.var_names)

    @property
    def n_row(self) -> int:
        return len(self.rows)


def write_lp_text(lp: LinearProgram) -> str:
    """Export in the plain text LP format understood by external solvers."""

    def term(coef, name, first):
        sign = "-" if coef < 0 else ("" if first else "+")
        return f" {sign} {abs(coef):.12g} {name}".rstrip()

    out = ["Minimize", " obj:"]
    line = ""
    for j, c in enumerate(lp.objective):
        if c != 0.0:
            line += term(c, lp.var_names[j], line == "")
    out.append(line or " 0 x0")
    out.append("Subject To")
    for k, (coeffs, sense, rhs, name) in enumerate(lp.rows):
        line = f" {name or f'c{k}'}:"
        body = ""
        for j in sorted(coeffs):
            if coeffs[j] != 0.0:
                body += term(coeffs[j], lp.var_names[j], body == "")
        rel = {LE: "<=", GE: ">=", EQ: "="}[sense]
        out.append(line + (body or " 0 " + lp.var_names[0]) + f" {rel} {rhs:.12g}")
    out.append("Bounds")
    for j, name in enumerate(lp.var_names):
        lo, hi = lp.lower[j], lp.upper[j]
        if lo == hi:
            out.append(f" {name} = {lo:.12g}")
        else:
            lo_s = "-inf" if lo == -math.inf else f"{lo:.12g}"
            hi_s = "+inf" if hi == math.inf else f"{hi:.12g}"
            out.append(f" {lo_s} <= {name} <= {hi_s}")
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# matrix form, HiGHS solve and the optimality certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixForm:
    """The LP as arrays: min c'x, row_lo <= A x <= row_hi, lower <= x <= upper.

    a_mat is the m x n CSR matrix of the rows in their original order; the
    side a row's sense leaves open is an infinite bound.
    """

    a_mat: sp.csr_array
    row_lo: np.ndarray
    row_hi: np.ndarray
    c_vec: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def matrix_form(lp: LinearProgram) -> MatrixForm:
    """Collect the rows into one CSR matrix and the bounds into vectors."""
    import scipy.sparse as sp

    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    row_lo = np.full(lp.n_row, -np.inf)
    row_hi = np.full(lp.n_row, np.inf)
    for i, (coeffs, sense, rhs, _name) in enumerate(lp.rows):
        indices.extend(coeffs)
        data.extend(coeffs.values())
        indptr.append(len(indices))
        if sense != LE:
            row_lo[i] = rhs
        if sense != GE:
            row_hi[i] = rhs
    a_mat = sp.csr_array(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(lp.n_row, lp.n_var),
    )
    return MatrixForm(
        a_mat, row_lo, row_hi,
        np.array(lp.objective, dtype=float),
        np.array(lp.lower, dtype=float),
        np.array(lp.upper, dtype=float),
    )


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray  # original variable values
    objective: float
    duals: np.ndarray  # row multipliers y, reduced costs are c - A'y
    iterations: int  # HiGHS simplex iterations
    std: MatrixForm  # the LP as solved


_STATUS_ERRORS = {1: IterationLimitError, 2: InfeasibleError, 3: UnboundedError}


def simplex_solve(lp: LinearProgram, max_iter: int | None = None) -> SimplexResult:
    """Solve with the HiGHS dual simplex shipped with scipy.

    Returns an optimal basic solution with its row duals. Raises
    InfeasibleError, UnboundedError, IterationLimitError, or SimplexError
    for any other solver outcome.
    """
    # scipy.sparse and scipy.optimize are imported on the first solve: at
    # module level they cost every process that never solves an LP ~0.3 s
    # and ~20 MB
    import scipy.sparse as sp
    from scipy.optimize import linprog

    form = matrix_form(lp)
    eq = form.row_lo == form.row_hi
    ineq = ~eq
    # linprog takes A_ub x <= b_ub: >= rows enter negated
    sign = np.where(np.isfinite(form.row_lo), -1.0, 1.0)[ineq]
    a_ub = sp.diags(sign) @ form.a_mat[ineq]
    b_ub = sign * np.where(sign < 0, form.row_lo[ineq], form.row_hi[ineq])
    res = linprog(
        form.c_vec,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=form.a_mat[eq],
        b_eq=form.row_hi[eq],
        bounds=np.column_stack([form.lower, form.upper]),
        method="highs-ds",
        options={} if max_iter is None else {"maxiter": max_iter},
    )
    if res.status != 0:
        raise _STATUS_ERRORS.get(res.status, SimplexError)(res.message)
    duals = np.empty(lp.n_row)
    duals[ineq] = sign * res.ineqlin.marginals
    duals[eq] = res.eqlin.marginals
    return SimplexResult(res.x, float(form.c_vec @ res.x), duals, int(res.nit), form)


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
    - min_reduced_cost: the same for the reduced costs d = c - A'y, so a free
      column counts -|d|; a column with two finite bounds may price either way;
    - gap: |c'x - dual objective| / max(1, |c'x|), the dual objective pricing
      each row and column at the bound its multiplier's sign selects.
    Feasibility on both sides with a zero gap implies complementary slackness,
    hence optimality. Each measure is held to tol.
    """
    form, x, y = result.std, result.x, result.duals
    ax = form.a_mat @ x
    scale = abs(form.a_mat).max(axis=1).toarray().ravel()
    scale[scale == 0.0] = 1.0
    row_excess = np.maximum(form.row_lo - ax, ax - form.row_hi) / scale
    primal_residual = float(np.max(row_excess, initial=0.0))
    bound_excess = np.maximum(form.lower - x, x - form.upper)
    bound_violation = float(np.max(bound_excess, initial=0.0))
    reduced = form.c_vec - form.a_mat.T @ y
    min_row_dual = _sign_margin(y, form.row_lo, form.row_hi)
    min_reduced = _sign_margin(reduced, form.lower, form.upper)
    primal = float(form.c_vec @ x)
    dual = float(
        y @ _priced_at(y, form.row_lo, form.row_hi, ax)
        + reduced @ _priced_at(reduced, form.lower, form.upper, x)
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


def build_lpac(
    network: Network,
    n_cos_tangents: int = 9,
    n_circle_cuts: int = 8,
    n_cost_segments: int = 6,
    v_tiebreak: float = _V_TIEBREAK,
) -> LinearProgram:
    """Assemble the cold-start linear OPF approximation for the network.

    Voltage deviations carry a tiny absolute-value penalty that selects the
    near-nominal point among cost-equal optima; deviation magnitudes are
    otherwise degenerate on shunt-free networks. Pass v_tiebreak=0 to drop
    the penalty.
    """
    if n_cos_tangents < 2 or n_circle_cuts < 2 or n_cost_segments < 2:
        raise ValueError("tangent, circle-cut, and cost-segment counts must be >= 2")
    lp = LinearProgram()
    nb, ne, ng = network.n_bus, network.n_branch, network.n_gen

    v_idx = []
    th_idx = []
    for i, bus in enumerate(network.buses):
        if i == network.slack:
            v_idx.append(lp.add_var(f"v[{bus.id}]", 0.0, 0.0))
            th_idx.append(lp.add_var(f"th[{bus.id}]", 0.0, 0.0))
        else:
            v_idx.append(lp.add_var(f"v[{bus.id}]", bus.v_min - 1.0, bus.v_max - 1.0))
            th_idx.append(lp.add_var(f"th[{bus.id}]"))
    phi_idx = [
        lp.add_var(f"phi[{e}]", math.cos(br.theta_max), math.inf)
        for e, br in enumerate(network.branches)
    ]
    pf_idx = [lp.add_var(f"pf[{e}]") for e in range(ne)]
    qf_idx = [lp.add_var(f"qf[{e}]") for e in range(ne)]
    pt_idx = [lp.add_var(f"pt[{e}]") for e in range(ne)]
    qt_idx = [lp.add_var(f"qt[{e}]") for e in range(ne)]
    pg_idx = [
        lp.add_var(f"pg[{g}]", gen.p_min, gen.p_max)
        for g, gen in enumerate(network.generators)
    ]
    qg_idx = [
        lp.add_var(f"qg[{g}]", gen.q_min, gen.q_max)
        for g, gen in enumerate(network.generators)
    ]
    cost_idx = [lp.add_var(f"cost[{g}]", cost=1.0) for g in range(ng)]

    # directed flow definitions from the linearized flow model
    for e, br in enumerate(network.branches):
        y = 1.0 / complex(br.r, br.x)
        g, b = y.real, y.imag
        f, t = int(network.f_idx[e]), int(network.t_idx[e])
        lp.add_row(
            {pf_idx[e]: 1.0, phi_idx[e]: g, th_idx[f]: b, th_idx[t]: -b},
            EQ, g, f"pflow_def[{e}]",
        )
        lp.add_row(
            {qf_idx[e]: 1.0, v_idx[f]: b, v_idx[t]: -b, th_idx[f]: g,
             th_idx[t]: -g, phi_idx[e]: -b},
            EQ, -b, f"qflow_def[{e}]",
        )
        lp.add_row(
            {pt_idx[e]: 1.0, phi_idx[e]: g, th_idx[t]: b, th_idx[f]: -b},
            EQ, g, f"pflow_rev_def[{e}]",
        )
        lp.add_row(
            {qt_idx[e]: 1.0, v_idx[t]: b, v_idx[f]: -b, th_idx[t]: g,
             th_idx[f]: -g, phi_idx[e]: -b},
            EQ, -b, f"qflow_rev_def[{e}]",
        )

    # bus power balance with first-order shunt terms
    for i, bus in enumerate(network.buses):
        p_row: dict[int, float] = {}
        q_row: dict[int, float] = {}
        for g in network.gens_at(i):
            p_row[pg_idx[g]] = 1.0
            q_row[qg_idx[g]] = 1.0
        for e in range(ne):
            if network.f_idx[e] == i:
                p_row[pf_idx[e]] = p_row.get(pf_idx[e], 0.0) - 1.0
                q_row[qf_idx[e]] = q_row.get(qf_idx[e], 0.0) - 1.0
            if network.t_idx[e] == i:
                p_row[pt_idx[e]] = p_row.get(pt_idx[e], 0.0) - 1.0
                q_row[qt_idx[e]] = q_row.get(qt_idx[e], 0.0) - 1.0
        if bus.g_shunt != 0.0:
            p_row[v_idx[i]] = p_row.get(v_idx[i], 0.0) - 2.0 * bus.g_shunt
        if bus.b_shunt != 0.0:
            q_row[v_idx[i]] = q_row.get(v_idx[i], 0.0) + 2.0 * bus.b_shunt
        lp.add_row(p_row, EQ, bus.p_load + bus.g_shunt, f"pbal[{bus.id}]")
        lp.add_row(q_row, EQ, bus.q_load - bus.b_shunt, f"qbal[{bus.id}]")

    # cosine envelope tangents and angle-difference limits
    for e, br in enumerate(network.branches):
        f, t = int(network.f_idx[e]), int(network.t_idx[e])
        points, _floor = cosine_cuts(br.theta_max, n_cos_tangents)
        for k, point in enumerate(points):
            lp.add_row(
                {phi_idx[e]: 1.0, th_idx[f]: math.sin(point), th_idx[t]: -math.sin(point)},
                LE, math.cos(point) + point * math.sin(point), f"cos_cut[{e},{k}]",
            )
        lp.add_row({th_idx[f]: 1.0, th_idx[t]: -1.0}, LE, br.theta_max, f"ang_hi[{e}]")
        lp.add_row({th_idx[f]: 1.0, th_idx[t]: -1.0}, GE, -br.theta_max, f"ang_lo[{e}]")

    # apparent-power discs as tangent half-planes, both terminals
    for e, br in enumerate(network.branches):
        if br.s_max <= 0.0:
            continue
        for k in range(n_circle_cuts):
            alpha = 2.0 * math.pi * k / n_circle_cuts
            ca, sa = math.cos(alpha), math.sin(alpha)
            lp.add_row({pf_idx[e]: ca, qf_idx[e]: sa}, LE, br.s_max, f"smax_f[{e},{k}]")
            lp.add_row({pt_idx[e]: ca, qt_idx[e]: sa}, LE, br.s_max, f"smax_t[{e},{k}]")

    # near-nominal tie-break: |v| epigraph with a negligible cost
    if v_tiebreak > 0.0:
        for i, bus in enumerate(network.buses):
            if i == network.slack:
                continue
            dev = lp.add_var(f"vdev[{bus.id}]", 0.0, math.inf, cost=v_tiebreak)
            lp.add_row({dev: 1.0, v_idx[i]: -1.0}, GE, 0.0, f"vdev_hi[{bus.id}]")
            lp.add_row({dev: 1.0, v_idx[i]: 1.0}, GE, 0.0, f"vdev_lo[{bus.id}]")

    # secant epigraph of each quadratic generation cost
    for g, gen in enumerate(network.generators):
        if gen.c2 == 0.0 or gen.p_max == gen.p_min:
            lp.add_row(
                {cost_idx[g]: 1.0, pg_idx[g]: -gen.c1},
                GE, gen.c0, f"cost_cut[{g},0]",
            )
            continue
        points = np.linspace(gen.p_min, gen.p_max, n_cost_segments + 1)
        for k in range(n_cost_segments):
            a, b_pt = points[k], points[k + 1]
            slope = (gen.cost(b_pt) - gen.cost(a)) / (b_pt - a)
            lp.add_row(
                {cost_idx[g]: 1.0, pg_idx[g]: -slope},
                GE, gen.cost(a) - slope * a, f"cost_cut[{g},{k}]",
            )

    return lp


def extract_solution(network: Network, lp: LinearProgram, x: np.ndarray) -> LpacSolution:
    pos = {name: j for j, name in enumerate(lp.var_names)}
    nb, ne, ng = network.n_bus, network.n_branch, network.n_gen
    v = np.array([x[pos[f"v[{bus.id}]"]] for bus in network.buses])
    theta = np.array([x[pos[f"th[{bus.id}]"]] for bus in network.buses])
    phi = np.array([x[pos[f"phi[{e}]"]] for e in range(ne)])
    flows = np.column_stack(
        [
            [x[pos[f"pf[{e}]"]] for e in range(ne)],
            [x[pos[f"qf[{e}]"]] for e in range(ne)],
            [x[pos[f"pt[{e}]"]] for e in range(ne)],
            [x[pos[f"qt[{e}]"]] for e in range(ne)],
        ]
    )
    p_gen = np.array([x[pos[f"pg[{g}]"]] for g in range(ng)])
    q_gen = np.array([x[pos[f"qg[{g}]"]] for g in range(ng)])
    objective = float(sum(x[pos[f"cost[{g}]"]] for g in range(ng)))
    return LpacSolution(v, theta, phi, flows, p_gen, q_gen, objective)


def solve_lpac(
    network: Network,
    n_cos_tangents: int = 9,
    n_circle_cuts: int = 8,
    n_cost_segments: int = 6,
    check: bool = False,
) -> LpacSolution:
    """Build and solve the linear approximation; optionally verify certificates."""
    lp = build_lpac(network, n_cos_tangents, n_circle_cuts, n_cost_segments)
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
    for g, bus in zip(range(network.n_gen), network.gen_bus):
        p_inj[bus] += sol.p_gen[g]
        q_inj[bus] += sol.q_gen[g]
    kinds = canonical_kinds(network)
    values = np.concatenate(
        [
            1.0 + sol.v,
            sol.theta,
            p_inj,
            q_inj,
            sol.flows[:, 0],
            sol.flows[:, 1],
            sol.flows[:, 2],
            sol.flows[:, 3],
        ]
    )
    return MeasurementSet(kinds, values)

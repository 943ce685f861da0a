"""Gauss-Newton weighted least squares restoration.

Finds the voltage state whose modeled measurements best match a tagged
measurement vector under positive diagonal weights. The Jacobian is carried
as its values at the compiled layout's sparsity pattern
(`acpf.jacobian_values`), never as a dense m x n array: the gradient H' W r
is one `np.bincount` over the entries' columns, and `normal_matrix` sums
w h_a h_b for every pair of entries in one row into the upper triangle of
N = H' W H, so the work follows the Jacobian's nonzeros, not m x n x n.
`solve_normal` is the package's one normal-equation routine, shared with
the weight sensitivity: it Jacobi-scales N, certifies observability from
the direct vm and va rows where it can and lets a numpy Cholesky
factorization decide otherwise, and solves each right-hand side with
numpy only.

Each restoration validates and compiles its measurement layout once, or
takes the compiled layout of z.kinds as a precomputed input, and passes it
to every evaluation of h and H and to every normal-equation solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acpf import (
    Layout,
    MeasurementError,
    MeasurementSet,
    StateVector,
    compile_layout,
    eval_H,  # noqa: F401  unused; perfbench/tracer.py rebinds wls.eval_H by name
    eval_h,
    jacobian_transpose_product,
    jacobian_values,
)
from .netmodel import Network

W_FLOOR = 1e-8

# a trial step is rejected and halved when it inflates the objective this
# much; the trial after the fifth halving is applied anyway
_DAMP_RATIO = 10.0
_MAX_HALVINGS = 5

# a bound on the scaled normal matrix's smallest eigenvalue above this
# certifies observability without a factorization; it sits four orders of
# magnitude above the 1e-12 pivot test, so rounding cannot flip the verdict
_CERTIFIED = 1e-8


class UnobservableError(RuntimeError):
    """The weighted normal matrix is singular for this measurement layout."""


class ConvergenceError(RuntimeError):
    """Gauss-Newton restoration stopped before its step fell below tol."""


@dataclass(frozen=True)
class WlsResult:
    state: StateVector
    residual: np.ndarray  # z - h(state)
    objective: float
    iterations: int
    converged: bool
    halvings: int  # steps halved over the run, by damping or to keep vm > 0
    boundary_halvings: int  # the part of halvings spent keeping every vm > 0
    objective_trace: tuple = ()  # the objective at the start and after each step
    state_trace: tuple = ()  # the state at the start and after each step


def check_weights(weights: np.ndarray, m: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.size != m:
        raise ValueError(f"{weights.size} weights for {m} measurements")
    bad = ~(np.isfinite(weights) & (weights >= W_FLOOR))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"weight {i} is {weights[i]}, want a finite value >= {W_FLOOR}")
    return weights


def normal_matrix(values: np.ndarray, weights: np.ndarray, layout: Layout) -> np.ndarray:
    """H' W H from the Jacobian's values at the compiled layout's pattern.

    Entries of H outside the pattern are zero at every state, so the sum
    runs over the pattern only: w h_a h_b for every pair of entries in one
    row, summed into the upper triangle, which is then mirrored.
    """
    n = 2 * layout.n_bus - 1
    pattern = layout.pattern
    if values.shape != pattern.entries.shape:
        raise MeasurementError(
            f"{values.size} Jacobian values for a layout of {pattern.entries.size} "
            f"pattern entries"
        )
    weighted = values * weights[pattern.rows]
    upper = np.bincount(pattern.target, weighted[pattern.first] * values[pattern.second],
                        minlength=n * n).reshape(n, n)
    normal = upper + upper.T
    np.fill_diagonal(normal, upper.diagonal())
    return normal


def solve_normal(values: np.ndarray, weights: np.ndarray, rhs: np.ndarray,
                 network: Network, layout: Layout) -> np.ndarray:
    """Solve (H' W H) x = rhs for a vector or a matrix right-hand side.

    H is the Jacobian of the compiled `layout` for the network, given by its
    values at the layout's pattern (`acpf.jacobian_values`), and the normal
    matrix is formed over that pattern (`normal_matrix`). It is
    Jacobi-scaled to unit diagonal. Each direct vm or va row adds its weight
    to one diagonal entry and nothing else, so the direct weight on column j
    over N_jj bounds the scaled matrix's smallest eigenvalue from below
    (Weyl's inequality); a bound above 1e-8 at every column certifies
    observability without factoring. Otherwise its Cholesky factorization
    decides: a failed factorization always raises UnobservableError, naming
    the unobservable direction; so does a smallest pivot squared at or
    below 1e-12, an upper bound on the smallest eigenvalue.
    """
    normal = normal_matrix(values, weights, layout)
    diag = np.diag(normal).copy()
    singular = diag <= 0.0
    if singular.any():
        j = int(np.flatnonzero(singular)[0])
        raise UnobservableError(
            f"no measurement weight acts on state entry {network.state_labels()[j]}"
        )
    scale = 1.0 / np.sqrt(diag)
    scaled = normal
    scaled *= scale[:, None]
    scaled *= scale[None, :]
    # the direct entries (value 1, pool position 0) bound the smallest eigenvalue
    pattern = layout.pattern
    direct = pattern.source == 0
    bound = np.bincount(pattern.cols[direct], weights[pattern.rows[direct]],
                        minlength=diag.size) / diag
    observable = bound.min() > _CERTIFIED
    if not observable:
        try:
            observable = np.diag(np.linalg.cholesky(scaled)).min() ** 2 > 1e-12
        except np.linalg.LinAlgError:
            pass
    if not observable:
        null = np.linalg.eigh(scaled)[1][:, 0]
        labels = network.state_labels()
        order = np.argsort(-np.abs(null))[:3]
        dominant = ", ".join(f"{labels[j]} ({null[j]:+.2f})" for j in order)
        raise UnobservableError(
            "singular normal matrix; unobservable direction dominated by " + dominant
        )
    d = scale if rhs.ndim == 1 else scale[:, None]
    return np.linalg.solve(scaled, rhs * d) * d


def wls_restore(
    network: Network,
    z: MeasurementSet,
    weights: np.ndarray,
    x0: StateVector | None = None,
    tol: float = 1e-8,
    max_iter: int = 50,
    layout: Layout | None = None,
) -> WlsResult:
    """Iterate Gauss-Newton steps on the weighted least squares objective.

    Starts from a flat state unless x0 is given. Convergence means the
    applied step fell below tol in max-norm; non-convergence is reported in
    the result flag rather than raised. The step direction is invariant to
    uniform scaling of the weights. Each step passes three stages: a step
    that is not finite ends the run; a step that would take a magnitude to
    zero or below is halved until every vm stays positive, and its
    iteration does not count as convergence, since the boundary, not the
    objective, cut it short; then the first of at most six trials whose
    objective is at most 10x the current one is applied, each failed trial
    halving the step, and the sixth is applied even if it fails.

    `layout` is the compiled layout of z.kinds, when the caller has one;
    it is compiled here otherwise. A layout compiled for other kinds or
    another topology raises MeasurementError.
    """
    layout = compile_layout(network, z.kinds if layout is None else layout)
    layout.check_kinds(z.kinds)
    weights = check_weights(weights, z.m)
    if z.m < network.n_state:
        raise UnobservableError(
            f"{z.m} measurements cannot determine {network.n_state} states"
        )
    # the step is homogeneous of degree zero in the weights; dividing by the
    # largest weight up front makes that invariance hold in floating point
    # and keeps the normal matrix well scaled
    w_scale = float(weights.max())
    weights = weights / w_scale

    state = x0 if x0 is not None else StateVector.flat(network)
    residual = z.values - eval_h(network, state, layout)
    objective = float(residual @ (weights * residual))
    obj_trace, state_trace = [objective], [state]
    converged = False
    iterations = damped = boundary = 0

    for iterations in range(1, max_iter + 1):
        values = jacobian_values(network, state, layout)
        grad = jacobian_transpose_product(layout, values, weights * residual)
        step = solve_normal(values, weights, grad, network, layout)
        if not np.isfinite(step).all():
            break

        x_vec = state.as_vector()
        moved = x_vec + step
        cuts = 0  # halvings that keep every magnitude positive
        while (moved[:network.n_bus] <= 0.0).any():
            step = step / 2.0
            moved = x_vec + step
            cuts += 1
        boundary += cuts
        for _ in range(_MAX_HALVINGS + 1):
            trial = StateVector.from_vector(moved, state.slack)
            trial_residual = z.values - eval_h(network, trial, layout)
            trial_objective = float(trial_residual @ (weights * trial_residual))
            if trial_objective <= _DAMP_RATIO * objective:
                break
            step = step / 2.0
            moved = x_vec + step
            damped += 1

        state, residual, objective = trial, trial_residual, trial_objective
        obj_trace.append(objective)
        state_trace.append(state)
        if np.max(np.abs(step)) < tol and not cuts:
            converged = True
            break

    return WlsResult(
        state=state,
        residual=residual,
        objective=objective * w_scale,
        iterations=iterations,
        converged=converged,
        halvings=damped + boundary,
        boundary_halvings=boundary,
        objective_trace=tuple(value * w_scale for value in obj_trace),
        state_trace=tuple(state_trace),
    )

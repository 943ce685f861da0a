"""Analytic sensitivity of the restored state to the diagonal weights.

Evaluated at a converged restoration with the measurement Jacobian held
fixed there. With N = H' W H and the projected residual
rho = r - H N^-1 H' W r, the derivative of the state with respect to weight
i is the i-th column of S = N^-1 H' diag(rho). Training only needs the
product S' D with a few state-space vectors D (the adjoint, or
implicit-function, gradient through the argmin), and that product is
rho * (H N^-1 D): one normal-equation solve with right-hand side
[H' W r | D], so 1 + k columns instead of one per measurement. The full
matrix is the same product with D = I, transposed. When the converged
residual is zero the sensitivity vanishes.

H is carried as its values at the layout's sparsity pattern
(`acpf.jacobian_values`), never as a dense m x n array: H' W r and H N^-1
[H' W r | D] are `np.bincount` products over the pattern's entries. N is
formed over the same pattern and factored by the normal-equation solver of
`wls` (`solve_normal`), so an unobservable layout raises the same
UnobservableError, naming the unobservable direction, as the restoration
does. Like the restoration, each call takes the compiled layout of z.kinds:
z.kinds itself when it is a Layout, compiled once otherwise.
"""

from __future__ import annotations

import numpy as np

from .acpf import (
    MeasurementSet,
    StateVector,
    compile_layout,
    eval_H,  # noqa: F401  unused; perfbench/tracer.py rebinds sens.eval_H by name
    eval_h,
    jacobian_product,
    jacobian_transpose_product,
    jacobian_values,
)
from .netmodel import Network
from .wls import check_weights, solve_normal


def solution_sensitivity(
    network: Network,
    z: MeasurementSet,
    weights: np.ndarray,
    x_r: StateVector,
    d: np.ndarray | None = None,
) -> np.ndarray:
    """Sensitivity S (n_state, m) at x_r, or its product S' d with d given.

    d is a state-space vector (n_state,) or matrix (n_state, k); the product
    has shape (m,) or (m, k). x_r must be a converged restoration for
    (z, weights); the result is homogeneous of degree -1 in the weights.
    z.kinds is compiled as for `wls_restore`.
    """
    layout = compile_layout(network, z.kinds)
    weights = check_weights(weights, z.m)
    residual = z.values - eval_h(network, x_r, layout)
    values = jacobian_values(network, x_r, layout)
    d_mat = np.eye(network.n_state) if d is None else np.asarray(d, dtype=float)
    rhs = np.column_stack([jacobian_transpose_product(layout, values, weights * residual),
                           d_mat])
    h_solved = jacobian_product(layout, values, solve_normal(values, weights, rhs, network, layout))
    product = (residual - h_solved[:, 0])[:, None] * h_solved[:, 1:]
    if d is None:
        return product.T
    return product[:, 0] if d_mat.ndim == 1 else product

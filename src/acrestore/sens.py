"""Analytic sensitivity of the restored state to the diagonal weights.

Evaluated at a converged restoration with the measurement Jacobian held
fixed there. With A = (H' W H)^-1 H' and the projected residual
rho = r - H A W r, the derivative of the state with respect to weight i is
the i-th column of A scaled by rho_i. Only the diagonal-weight slice is
computed; when the converged residual is zero the sensitivity vanishes.
A is formed with the normal-equation solver of `wls` (`solve_normal`), so
an unobservable layout raises the same UnobservableError, naming the
unobservable direction, as the restoration does. Like the restoration, each
call validates and compiles its measurement layout once.
"""

from __future__ import annotations

import numpy as np

from .acpf import MeasurementSet, StateVector, compile_layout, eval_H, eval_h
from .netmodel import Network
from .wls import check_weights, solve_normal


def solution_sensitivity(
    network: Network,
    z: MeasurementSet,
    weights: np.ndarray,
    x_r: StateVector,
) -> np.ndarray:
    """Sensitivity matrix of shape (n_state, m measurements) at x_r.

    x_r must be a converged restoration for (z, weights); the result is
    homogeneous of degree -1 in the weights.
    """
    layout = compile_layout(network, z.kinds)
    weights = check_weights(weights, z.m)
    residual = z.values - eval_h(network, x_r, layout)
    h_mat = eval_H(network, x_r, layout)
    a_mat = solve_normal(h_mat, weights, h_mat.T, network)
    projected = residual - h_mat @ (a_mat @ (weights * residual))
    return a_mat * projected[None, :]

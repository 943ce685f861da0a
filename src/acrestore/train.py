"""Offline weight training: loss, gradient accumulation, and Adam updates.

Training minimizes the squared voltage-space distance between restored
states and ground-truth states over a scenario dataset by adjusting the
diagonal measurement weights. It is full batch: every Adam iteration
restores every record, and Adam's constants (moment decays, epsilon, and
the weight floor) are fixed. Each record's gradient is the adjoint product
S' (x_r - x_ac) of the weight sensitivity with its state mismatch, computed
by `solution_sensitivity` without forming S. `train_weights` warm-starts
each record's restoration from the state it converged to on the previous
Adam iteration; the first iteration, and a record skipped on the previous
one, start flat, as does every restoration in `accumulate_gradient`.

All records share one measurement layout, so a training job (or one
`accumulate_gradient` call) compiles it once and hands each record's
values on with that Layout as their kinds to every restoration and
sensitivity; its sparsity pattern, which the normal products sum over, is
then built once per job instead of once per call. A gradient pass restores
the records one after another and adds each record's gradient as it
returns, in record order, so a run is deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .acpf import MeasurementSet, StateVector, compile_layout
from .netmodel import Network
from .sens import solution_sensitivity
from .wls import W_FLOOR, ConvergenceError, wls_restore

logger = logging.getLogger(__name__)

VOLTAGE_INIT_WEIGHT = 1e4
POWER_INIT_WEIGHT = 1e3


class TrainingError(RuntimeError):
    """Too many per-record solver failures to trust the gradient."""


@dataclass(frozen=True)
class ScenarioRecord:
    """One training/test sample: perturbed loads, ground truth, measurements."""

    p_load: np.ndarray
    q_load: np.ndarray
    x_ac: StateVector
    z: MeasurementSet
    source_tag: str = "synthetic"
    index: int = 0


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch Adam: learning rate, iterations and starting weights (None =
    `default_initial_weights`). Adam's constants and the weight floor are
    fixed class constants, not options. `threads` must be 1: training runs
    one sequential loop, and the field goes with the next benchmark change,
    whose workload still passes it."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8
    w_floor: ClassVar[float] = W_FLOOR

    eta: float = 10.0
    max_iter: int = 200
    w_init: np.ndarray | None = None
    threads: int = 1

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.threads != 1:
            raise ValueError("training is sequential: threads must be 1")


@dataclass
class TrainTrace:
    """Per-iteration loss, gradient max-norm, Gauss-Newton iterations summed
    over the records used, the number of records used, and the records
    skipped, as (record index, reason) pairs in record order."""

    loss: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    gn_iters: list = field(default_factory=list)
    records_used: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def record(self, loss_value: float, grad: np.ndarray, gn_iters: int = 0,
               records_used: int = 0, skipped: list | None = None):
        self.loss.append(loss_value)
        self.grad_norm.append(float(np.max(np.abs(grad))) if grad.size else 0.0)
        self.gn_iters.append(gn_iters)
        self.records_used.append(records_used)
        self.skipped.append([] if skipped is None else skipped)


def check_layout(dataset: list[ScenarioRecord]) -> tuple:
    """All records of a dataset must share one measurement-kind layout."""
    if not dataset:
        raise ValueError("empty dataset")
    layout = dataset[0].z.kinds
    for rec in dataset[1:]:
        if rec.z.kinds != layout:
            raise ValueError(
                f"record {rec.index}: measurement layout differs from the first record"
            )
    return layout


def _compiled(network: Network, dataset: list[ScenarioRecord]) -> list[ScenarioRecord]:
    """The records, each with its values under the one compiled layout."""
    layout = compile_layout(network, check_layout(dataset))
    return [rec if rec.z.kinds is layout else replace(rec, z=MeasurementSet(layout, rec.z.values))
            for rec in dataset]


def default_initial_weights(kinds) -> np.ndarray:
    """Heuristic starting weights: 1e4 on voltage entries, 1e3 on power entries."""
    return np.array(
        [VOLTAGE_INIT_WEIGHT if k.is_voltage() else POWER_INIT_WEIGHT for k in kinds]
    )


def loss(dataset: list[ScenarioRecord], restored: list[StateVector]) -> float:
    """Summed squared voltage distance, normalized by the state dimension.

    Magnitudes in per-unit and angles in radians contribute alike.
    """
    if len(dataset) != len(restored):
        raise ValueError("one restored state per record required")
    total = 0.0
    denom = None
    for rec, state in zip(dataset, restored):
        diff = state.as_vector() - rec.x_ac.as_vector()
        if denom is None:
            denom = diff.size
        elif diff.size != denom:
            raise ValueError("state dimension differs between records")
        total += float(diff @ diff)
    return total / denom


def _restore_and_weigh(network, rec, weights, x0):
    result = wls_restore(network, rec.z, weights, x0=x0)
    if not result.converged:
        raise ConvergenceError(
            f"restoration did not converge in {result.iterations} iterations"
        )
    mismatch = result.state.as_vector() - rec.x_ac.as_vector()
    grad = solution_sensitivity(network, rec.z, weights, result.state, mismatch)
    return grad, result.state, result.iterations


def _gradient_pass(
    network: Network,
    dataset: list[ScenarioRecord],
    weights: np.ndarray,
    starts: list | None = None,
):
    """Gradient over the dataset, the restored state of each record (None
    where it was skipped), the Gauss-Newton iterations of the records used,
    and the (record index, reason) of each record skipped. Record i starts
    from starts[i], or flat where that is None.

    A record whose solver fails (a RuntimeError: unobservable, not
    converged) is skipped with a log entry; more than 10% failures aborts.
    Any other exception propagates.
    """
    starts = starts if starts is not None else [None] * len(dataset)
    grad = np.zeros(weights.size)
    states, skipped = [], []
    gn_iters = 0
    for rec, x0 in zip(dataset, starts):
        try:
            rec_grad, state, iterations = _restore_and_weigh(network, rec, weights, x0)
        except RuntimeError as exc:
            logger.warning("record %d skipped: %s", rec.index, exc)
            states.append(None)
            skipped.append((rec.index, str(exc)))
            continue
        grad += rec_grad
        gn_iters += iterations
        states.append(state)

    if len(skipped) > 0.10 * len(dataset):
        raise TrainingError(
            f"{len(skipped)} of {len(dataset)} records failed restoration"
        )
    return grad, states, gn_iters, skipped


def accumulate_gradient(
    network: Network,
    dataset: list[ScenarioRecord],
    weights: np.ndarray,
) -> np.ndarray:
    """Summed loss gradient with respect to the weights over the dataset,
    every record restored from a flat start."""
    return _gradient_pass(network, _compiled(network, dataset), weights)[0]


def adam_step(
    w: np.ndarray,
    m_t: np.ndarray,
    v_t: np.ndarray,
    g: np.ndarray,
    t: int,
    config: TrainConfig,
):
    """One Adam update of the weights; returns (w, m_t, v_t) at step t >= 1."""
    if t < 1:
        raise ValueError("Adam step index starts at 1")
    m_t = config.beta1 * m_t + (1.0 - config.beta1) * g
    v_t = config.beta2 * v_t + (1.0 - config.beta2) * g * g
    m_hat = m_t / (1.0 - config.beta1**t)
    v_hat = v_t / (1.0 - config.beta2**t)
    w = w - config.eta * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return np.maximum(w, config.w_floor), m_t, v_t


def train_weights(
    network: Network,
    train_set: list[ScenarioRecord],
    config: TrainConfig,
) -> tuple[np.ndarray, TrainTrace]:
    """Run the full-batch gradient-descent training loop.

    Each outer iteration restores every record with the current weights,
    starting from the state the record converged to on its last
    restoration (flat on the first, and after a skip), accumulates the
    analytic gradient, applies one Adam update, and records the loss of the
    restorations that produced the gradient.
    """
    train_set = _compiled(network, train_set)
    kinds = train_set[0].z.kinds
    w = (
        np.asarray(config.w_init, dtype=float).copy()
        if config.w_init is not None
        else default_initial_weights(kinds)
    )
    if w.size != len(kinds):
        raise ValueError(f"{w.size} initial weights for {len(kinds)} measurements")
    m_t = np.zeros_like(w)
    v_t = np.zeros_like(w)
    trace = TrainTrace()
    states = None  # last restored state of each record, None where skipped

    for t in range(1, config.max_iter + 1):
        grad, states, gn_iters, skipped = _gradient_pass(
            network, train_set, w, starts=states
        )
        survivors = [rec for rec, state in zip(train_set, states) if state is not None]
        restored = [state for state in states if state is not None]
        trace.record(loss(survivors, restored), grad, gn_iters, len(survivors), skipped)
        w, m_t, v_t = adam_step(w, m_t, v_t, grad, t, config)

    return w, trace

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

All records share one measurement layout, so a gradient pass compiles it
once and hands the compiled layout to every restoration and sensitivity;
its sparsity pattern, which the normal products sum over, is then built
once per pass instead of once per call. Per-record restorations are
independent, so the gradient pass can fan out over threads; the reduction
is performed in record order, making results identical in sequential and
threaded runs.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
    """Full-batch Adam: learning rate, iterations, starting weights (None =
    `default_initial_weights`) and gradient-pass threads. Adam's constants
    and the weight floor are fixed class constants, not options."""

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


@dataclass
class TrainTrace:
    """Per-iteration loss, gradient max-norm, Gauss-Newton iterations summed
    over the records used, and the number of records used."""

    loss: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    gn_iters: list = field(default_factory=list)
    records_used: list = field(default_factory=list)

    def record(self, loss_value: float, grad: np.ndarray, gn_iters: int = 0,
               records_used: int = 0):
        self.loss.append(loss_value)
        self.grad_norm.append(float(np.max(np.abs(grad))) if grad.size else 0.0)
        self.gn_iters.append(gn_iters)
        self.records_used.append(records_used)


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


def _restore_and_weigh(network, rec, weights, x0, layout):
    result = wls_restore(network, rec.z, weights, x0=x0, layout=layout)
    if not result.converged:
        raise ConvergenceError(
            f"restoration did not converge in {result.iterations} iterations"
        )
    mismatch = result.state.as_vector() - rec.x_ac.as_vector()
    grad = solution_sensitivity(network, rec.z, weights, result.state, mismatch,
                                layout=layout)
    return grad, result.state, result.iterations


def _gradient_pass(
    network: Network,
    dataset: list[ScenarioRecord],
    weights: np.ndarray,
    threads: int = 1,
    starts: list | None = None,
):
    """Gradient over the dataset, the restored state of each record (None
    where it was skipped), and the Gauss-Newton iterations of the records
    used. Record i starts from starts[i], or flat where that is None.

    Failed records are skipped with a log entry; more than 10% failures
    aborts. Contributions are reduced in record order so threaded and
    sequential runs agree exactly.
    """
    layout = compile_layout(network, check_layout(dataset))
    starts = starts if starts is not None else [None] * len(dataset)
    per_record: list = [None] * len(dataset)

    def work(i):
        try:
            per_record[i] = _restore_and_weigh(network, dataset[i], weights, starts[i], layout)
        except Exception as exc:  # noqa: BLE001 - any solver failure skips the record
            logger.warning("record %d skipped: %s", dataset[i].index, exc)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(dataset))))
    else:
        for i in range(len(dataset)):
            work(i)

    failures = sum(1 for item in per_record if item is None)
    if failures > 0.10 * len(dataset):
        raise TrainingError(
            f"{failures} of {len(dataset)} records failed restoration"
        )

    grad = np.zeros(weights.size)
    gn_iters = 0
    for item in per_record:
        if item is not None:
            grad += item[0]
            gn_iters += item[2]
    states = [None if item is None else item[1] for item in per_record]
    return grad, states, gn_iters


def accumulate_gradient(
    network: Network,
    dataset: list[ScenarioRecord],
    weights: np.ndarray,
    threads: int = 1,
) -> np.ndarray:
    """Summed loss gradient with respect to the weights over the dataset,
    every record restored from a flat start."""
    grad, _, _ = _gradient_pass(network, dataset, weights, threads=threads)
    return grad


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
    layout = check_layout(train_set)
    w = (
        np.asarray(config.w_init, dtype=float).copy()
        if config.w_init is not None
        else default_initial_weights(layout)
    )
    if w.size != len(layout):
        raise ValueError(f"{w.size} initial weights for {len(layout)} measurements")
    m_t = np.zeros_like(w)
    v_t = np.zeros_like(w)
    trace = TrainTrace()
    states = None  # last restored state of each record, None where skipped

    for t in range(1, config.max_iter + 1):
        grad, states, gn_iters = _gradient_pass(
            network, train_set, w, threads=config.threads, starts=states
        )
        survivors = [rec for rec, state in zip(train_set, states) if state is not None]
        restored = [state for state in states if state is not None]
        trace.record(loss(survivors, restored), grad, gn_iters, len(survivors))
        w, m_t, v_t = adam_step(w, m_t, v_t, grad, t, config)

    return w, trace

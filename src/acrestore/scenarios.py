"""Load-scenario generation and dataset synthesis.

Scenarios multiply each bus load by an independent normal factor (one
factor per bus, scaling active and reactive power together). Per-scenario
random streams are spawned from a root seed, so results are identical
whatever order scenarios are generated or processed in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .acpf import (
    BUS_KINDS,
    MeasurementError,
    MeasurementSet,
    PfSpec,
    PowerFlowError,
    StateVector,
    benchmark_restore,
    canonical_kinds,
    eval_h,
    generator_bus_spec,
    newton_pf,
)
from .netmodel import Network
from .train import ScenarioRecord

logger = logging.getLogger(__name__)

MIN_LOAD_FACTOR = 0.1


@dataclass(frozen=True)
class ScenarioSpec:
    count: int
    sigma: float = 0.1
    seed: int = 0
    train_fraction: float = 0.8

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not (0.0 <= self.train_fraction <= 1.0):
            raise ValueError("train_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class NoiseProfile:
    """Per-family standard deviations for synthetic measurement errors.

    The defaults are deliberately heterogeneous, mimicking sources whose
    active injections and magnitudes are nearly right while angles and
    reactive quantities carry most of the inconsistency; learning to
    reweight families is then worthwhile.
    """

    vm: float = 5e-4
    va: float = 0.01
    pinj: float = 1e-4
    qinj: float = 0.02
    flow: float = 5e-3

    def std_for(self, kind: str) -> float:
        if kind in BUS_KINDS:
            return getattr(self, kind)
        return self.flow


def _scenario_rngs(seed: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def gen_load_scenarios(network: Network, spec: ScenarioSpec) -> list:
    """Per-scenario (p_load, q_load) arrays from multiplicative perturbation."""
    out = []
    for rng in _scenario_rngs(spec.seed, spec.count):
        factors = np.maximum(
            rng.normal(1.0, spec.sigma, network.n_bus), MIN_LOAD_FACTOR
        )
        out.append((network.p_load * factors, network.q_load * factors))
    return out


def split_indices(spec: ScenarioSpec) -> tuple[list[int], list[int]]:
    """Disjoint, exhaustive train/test index split (leading block trains)."""
    cut = round(spec.count * spec.train_fraction)
    return list(range(cut)), list(range(cut, spec.count))


def proportional_dispatch(network: Network) -> np.ndarray:
    """Per-generator output meeting total load, scaled inside [p_min, p_max]."""
    caps = np.array([g.p_max for g in network.generators])
    mins = np.array([g.p_min for g in network.generators])
    room = caps.sum() - mins.sum()
    t = 0.0 if room <= 0 else np.clip(
        (network.p_load.sum() - mins.sum()) / room, 0.0, 1.0
    )
    return mins + t * (caps - mins)


def _merit_order(network: Network) -> tuple:
    """economic_dispatch's merit-order grid per topology: the unit bounds and
    their sums; at each breakpoint the outputs below it, the fleet's at it,
    and the residual's weights above and below, each with its sum."""
    mins, caps, c1, c2 = (
        np.array([getattr(g, name) for g in network.generators])
        for name in ("p_min", "p_max", "c1", "c2")
    )
    quadratic = c2 > 0
    curvature = np.where(quadratic, 2.0 * c2, 1.0)
    floor, ceiling = c1 + 2.0 * c2 * mins, c1 + 2.0 * c2 * caps
    points = np.unique(np.concatenate([floor, ceiling]))
    grid = points[:, None]
    # output just below each breakpoint, and at it, where linear units step up
    below = np.clip(
        np.where(quadratic, (grid - c1) / curvature, np.where(grid > c1, caps, mins)), mins, caps
    )
    at = np.where(~quadratic & (grid == c1), caps, below)
    up = np.where(~quadratic & (c1 == grid), caps - mins, 0.0)
    down = np.where(quadratic & (floor < grid) & (grid <= ceiling), 1.0 / curvature, 0.0)
    return (mins, caps, (mins.sum(), caps.sum()), below, below.sum(axis=1), at.sum(axis=1),
            (up, up.sum(axis=1)), (down, down.sum(axis=1)))


def economic_dispatch(network: Network) -> np.ndarray:
    """Equal-marginal-cost dispatch meeting total load inside unit bounds.

    The exact lambda-iteration (merit-order) solve: each unit's output is
    piecewise linear in the marginal price, (price - c1) / 2 c2 clipped to
    its bounds for a quadratic unit and a step from p_min to p_max at c1 for
    a linear one. The first breakpoint where the fleet's output reaches the
    load (clipped to the fleet's range) bounds the price. Below it the
    price lies on a linear segment, which the units free there close by
    their slopes at one common price; at it the price sits on a step, whose
    linear units share the residual in proportion to p_max - p_min. Network
    limits are not considered; the slack absorbs losses.
    """
    mins, caps, fleet, below, below_sum, at_sum, up, down = network.per_topology(
        "merit_order", lambda: _merit_order(network))
    target = float(np.clip(network.p_load.sum(), *fleet))
    # rounding may leave the fleet's top just short of a target at full capacity
    k = min(int(np.searchsorted(at_sum, target)), at_sum.size - 1)
    gap = target - below_sum[k]
    weight, total = up if gap > 0 else down
    if total[k] > 0:
        return np.clip(below[k] + gap * weight[k] / total[k], mins, caps)
    return below[k].copy()


def dispatch_spec(network: Network, p_gen: np.ndarray | None = None) -> PfSpec:
    """PV/PQ/slack power-flow targets for a given dispatch at flat voltage goals."""
    if p_gen is None:
        p_gen = proportional_dispatch(network)
    p_bus = np.bincount(network.gen_bus, p_gen, minlength=network.n_bus)
    return generator_bus_spec(network, p_bus - network.p_load, np.ones(network.n_bus))


def _case_power_flow(network: Network) -> StateVector | None:
    """The dispatch power flow at the case's own loads, None if it fails."""
    case = network.with_loads(*network.case_loads)
    try:
        return newton_pf(case, dispatch_spec(case, economic_dispatch(case)))
    except PowerFlowError as exc:
        logger.warning("case power flow failed, scenarios start flat: %s", exc)
        return None


def ground_truth_states(network: Network, loads: list) -> list[StateVector | None]:
    """Cost-aware dispatch ground truth: one solved power flow per scenario.

    Stands in for externally solved OPF states when none are supplied: units
    are committed by marginal cost and the resulting power flow is solved at
    flat voltage targets, starting from the case's own dispatch power flow
    (solved once per topology at `Network.case_loads`; flat if that fails),
    so a state depends on its own scenario only. Unsolvable scenarios yield
    None and are skipped downstream.
    """
    start = network.per_topology("dispatch_power_flow", lambda: _case_power_flow(network))
    states: list[StateVector | None] = []
    for s, (p_load, q_load) in enumerate(loads):
        scen_net = network.with_loads(p_load, q_load)
        try:
            spec = dispatch_spec(scen_net, economic_dispatch(scen_net))
            states.append(newton_pf(scen_net, spec, x0=start))
        except PowerFlowError as exc:
            logger.warning("scenario %d: ground-truth power flow failed: %s", s, exc)
            states.append(None)
    return states


def synth_dataset(
    network: Network,
    loads: list,
    noise: NoiseProfile | None = None,
    seed: int = 0,
) -> list[ScenarioRecord]:
    """Solved power-flow ground truth plus measurements with structured noise.

    Emulates a relaxation whose inconsistency differs by quantity family;
    records are tagged `synthetic`. Scenarios whose power flow fails are
    skipped with a log entry.
    """
    noise = noise or NoiseProfile()
    kinds = canonical_kinds(network)
    stds = np.array([noise.std_for(k.kind) for k in kinds])
    records = []
    rngs = _scenario_rngs(seed, len(loads))
    for s, (p_load, q_load) in enumerate(loads):
        scen_net = network.with_loads(p_load, q_load)
        try:
            x_ac = newton_pf(scen_net, dispatch_spec(scen_net))
        except PowerFlowError as exc:
            logger.warning("scenario %d skipped (power flow): %s", s, exc)
            continue
        values = eval_h(scen_net, x_ac, kinds) + rngs[s].normal(0.0, 1.0, len(kinds)) * stds
        records.append(
            ScenarioRecord(
                p_load=p_load.copy(),
                q_load=q_load.copy(),
                x_ac=x_ac,
                z=MeasurementSet(kinds, values),
                source_tag="synthetic",
                index=s,
            )
        )
    return records


def build_lpac_dataset(
    network: Network,
    loads: list,
    ground_truth: list | None = None,
) -> list[ScenarioRecord]:
    """Measurements from the linear approximation, per load scenario.

    Ground truth defaults to the benchmark-restored operating point of each
    approximation; externally supplied states (one per scenario, None for
    missing) override it. Scenarios whose approximation fails to solve or
    to certify (lpac.verify_certificates), or whose power flow fails, are
    skipped with a log entry.
    """
    from .lpac import SimplexError, lpac_to_measurements, solve_lpac

    records = []
    for s, (p_load, q_load) in enumerate(loads):
        scen_net = network.with_loads(p_load, q_load)
        try:
            sol = solve_lpac(scen_net, check=True)
        except SimplexError as exc:
            logger.warning("scenario %d skipped (approximation): %s", s, exc)
            continue
        z = lpac_to_measurements(scen_net, sol)
        try:
            if ground_truth is not None:
                x_ac = ground_truth[s]
                if x_ac is None:
                    logger.warning("scenario %d skipped (no ground truth)", s)
                    continue
            else:
                x_ac = benchmark_restore(scen_net, z).state
        except (MeasurementError, PowerFlowError) as exc:
            logger.warning("scenario %d skipped (ground truth): %s", s, exc)
            continue
        records.append(
            ScenarioRecord(
                p_load=p_load.copy(),
                q_load=q_load.copy(),
                x_ac=x_ac,
                z=z,
                source_tag="lpac",
                index=s,
            )
        )
    return records

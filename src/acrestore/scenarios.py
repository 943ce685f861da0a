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
    newton_pf,
)
from .netmodel import Network, PQ, PV, SLACK
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


def economic_dispatch(network: Network) -> np.ndarray:
    """Equal-marginal-cost dispatch meeting total load inside unit bounds.

    Solves the classic single-balance dispatch by bisecting the marginal
    price; network limits are not considered, the slack absorbs losses.
    """
    gens = network.generators
    mins = np.array([g.p_min for g in gens])
    caps = np.array([g.p_max for g in gens])
    c1 = np.array([g.c1 for g in gens])
    c2 = np.array([g.c2 for g in gens])
    target = float(np.clip(network.p_load.sum(), mins.sum(), caps.sum()))

    def output(price):
        p = np.where(
            c2 > 0,
            (price - c1) / np.maximum(2.0 * c2, 1e-300),
            np.where(price >= c1, caps, mins),
        )
        return np.clip(p, mins, caps)

    lo = float(c1.min()) - 1.0
    hi = float((c1 + 2.0 * c2 * caps).max()) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if output(mid).sum() < target:
            lo = mid
        else:
            hi = mid
    p = output(hi)
    # distribute the residual over units marginal at the clearing price
    gap = target - p.sum()
    if abs(gap) > 1e-12:
        marginal = np.flatnonzero(
            (c2 == 0) & (np.abs(c1 - hi) <= (hi - lo) + 1e-9) & (caps > mins)
        )
        if marginal.size == 0:
            marginal = np.flatnonzero(caps > mins)
        room = (caps - mins)[marginal]
        share = room / room.sum()
        p[marginal] = np.clip(p[marginal] + gap * share, mins[marginal], caps[marginal])
    return p


def dispatch_spec(network: Network, p_gen: np.ndarray | None = None) -> PfSpec:
    """PV/PQ/slack power-flow targets for a given dispatch at flat voltage goals."""
    if p_gen is None:
        p_gen = proportional_dispatch(network)
    p_bus = np.zeros(network.n_bus)
    for g, bus in zip(p_gen, network.gen_bus):
        p_bus[bus] += g
    gen_buses = set(int(b) for b in network.gen_buses())
    types = tuple(
        SLACK if i == network.slack else PV if i in gen_buses else PQ
        for i in range(network.n_bus)
    )
    return PfSpec(
        types,
        p_bus - network.p_load,
        -network.q_load,
        np.ones(network.n_bus),
    )


def ground_truth_states(network: Network, loads: list) -> list[StateVector | None]:
    """Cost-aware dispatch ground truth: one solved power flow per scenario.

    Stands in for externally solved OPF states when none are supplied: units
    are committed by marginal cost and the resulting power flow is solved at
    flat voltage targets. Unsolvable scenarios yield None and are skipped
    downstream.
    """
    states: list[StateVector | None] = []
    for s, (p_load, q_load) in enumerate(loads):
        scen_net = network.with_loads(p_load, q_load)
        try:
            spec = dispatch_spec(scen_net, economic_dispatch(scen_net))
            states.append(newton_pf(scen_net, spec))
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
    missing) override it. Scenarios whose approximation or power flow fails
    are skipped with a log entry.
    """
    from .lpac import SimplexError, lpac_to_measurements, solve_lpac

    records = []
    for s, (p_load, q_load) in enumerate(loads):
        scen_net = network.with_loads(p_load, q_load)
        try:
            sol = solve_lpac(scen_net)
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

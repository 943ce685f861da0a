"""AC power-flow measurement model, Jacobian, Newton solver, and reports.

The voltage state is polar: one magnitude per bus plus one angle per
non-slack bus (the slack angle is the zero reference), so the state
dimension is 2*n_bus - 1. Measurement functions map a state to voltage
magnitudes, angles, net bus injections, and directed branch flows, all in
per-unit and radians.

A measurement layout is a sequence of MeasurementKind. `compile_layout`
validates one once into a Layout, the tuple of those kinds with their rows
grouped by kind family, where each row's value lies in the pool of
quantities a state implies (`h_source`), and the topology (slack bus,
branch endpoints) it was compiled for; `canonical_kinds` is the canonical
one, compiled once per topology. `eval_h`, `jacobian_values` and `eval_H`
take a plain sequence, compiled on each call, or a Layout, used as is.
`eval_h` fills that pool and gathers the rows from it, as
`jacobian_values` gathers the Jacobian from its derivative pool.

A Layout also carries the sparsity pattern of its Jacobian: the positions
the topology allows to be nonzero at any state, where each one's value
comes from, and the pairs of entries that share a row, which is what the
normal product H' W H sums over. The pattern is built on first use, so a
layout that only evaluates h never pays for it. The Jacobian is carried as
its values at the pattern's entries: `jacobian_values` computes them from
per-bus-pair injection and per-branch flow derivatives, so its work
follows the nonzeros, and `jacobian_product` and
`jacobian_transpose_product` multiply with it by `np.bincount`. `eval_H` is
the dense m x n view, those values scattered into zeros. Everything here
is a pure function of the (immutable) network, a state and a layout, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .netmodel import Network, PQ, PV, SLACK

BUS_KINDS = ("vm", "va", "pinj", "qinj")
BRANCH_KINDS = ("pf", "qf", "pt", "qt")
ALL_KINDS = BUS_KINDS + BRANCH_KINDS


class MeasurementError(ValueError):
    """Invalid measurement kind, reference, or layout."""


class PowerFlowError(RuntimeError):
    """Newton power flow failed (non-convergence or singular Jacobian)."""


@dataclass(frozen=True)
class MeasurementKind:
    """One scalar observable: kind name plus a bus or branch position.

    Bus kinds (vm, va, pinj, qinj) use the bus position; flow kinds use the
    branch position, with pf/qf taken at the from terminal and pt/qt at the
    to terminal.
    """

    kind: str
    index: int

    def is_voltage(self) -> bool:
        return self.kind in ("vm", "va")


@dataclass(frozen=True)
class MeasurementSet:
    """Tagged values taken from a relaxed/approximated solution."""

    kinds: tuple[MeasurementKind, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if len(self.kinds) != values.size:
            raise MeasurementError(
                f"{len(self.kinds)} kinds but {values.size} values"
            )

    @property
    def m(self) -> int:
        return len(self.kinds)

    def subset(self, keep) -> "MeasurementSet":
        keep = list(keep)
        return MeasurementSet(
            tuple(self.kinds[i] for i in keep), self.values[keep]
        )


def canonical_kinds(network: Network) -> Layout:
    """The canonical layout: vm, va, pinj, qinj by bus, then flows by branch.

    It is compiled once per topology, so every `with_loads` copy returns the
    same Layout, and so does `compile_layout` for any sequence equal to it.
    """
    return network.per_topology("canonical_kinds", lambda: _compile(network, tuple(
        [MeasurementKind(name, i) for name in BUS_KINDS for i in range(network.n_bus)]
        + [MeasurementKind(name, e) for name in BRANCH_KINDS for e in range(network.n_branch)]
    )))


@dataclass(frozen=True)
class StateVector:
    """Polar voltage state; the slack angle is pinned to zero."""

    vm: np.ndarray
    va: np.ndarray
    slack: int

    def __post_init__(self):
        vm = np.asarray(self.vm, dtype=float)
        va = np.asarray(self.va, dtype=float)
        object.__setattr__(self, "vm", vm)
        object.__setattr__(self, "va", va)
        if vm.shape != va.shape:
            raise ValueError("vm and va must have equal length")
        if not np.all(vm > 0.0):
            raise ValueError("voltage magnitudes must be strictly positive")
        if not np.all(np.isfinite(va)):
            raise ValueError("voltage angles must be finite")
        if va[self.slack] != 0.0:
            raise ValueError("slack angle must be zero")

    @property
    def n(self) -> int:
        return 2 * self.vm.size - 1

    def as_vector(self) -> np.ndarray:
        return np.concatenate((self.vm, self.va[:self.slack], self.va[self.slack + 1:]))

    @classmethod
    def from_vector(cls, vec: np.ndarray, slack: int) -> "StateVector":
        vec = np.asarray(vec, dtype=float)
        nb = (vec.size + 1) // 2
        va = np.empty(nb)
        va[:slack] = vec[nb:nb + slack]
        va[slack] = 0.0
        va[slack + 1:] = vec[nb + slack:]
        return cls(vec[:nb].copy(), va, slack)

    @classmethod
    def flat(cls, network: Network) -> "StateVector":
        return cls(np.ones(network.n_bus), np.zeros(network.n_bus), network.slack)

    def voltages(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.va)


_KIND_CODE = {name: code for code, name in enumerate(ALL_KINDS)}


class JacobianPattern(NamedTuple):
    """Where H may be nonzero, where its values come from, and which
    products H' W H sums.

    `entries` are flat positions in the m x n_state Jacobian, sorted by row
    and, within a row, by column; `rows` and `cols` are the row and column
    of each entry. `source` is where each entry's value lies in the real
    view of the derivative pool `jacobian_values` fills, whose complex
    elements are: 1 (the vm and va rows), dS/dvm then dS/dva of the bus
    injections at each bus pair (`pair_bus`, `pair_other`; `diagonal` marks
    each bus's pair with itself, in bus order), then the eight per-branch
    flow derivatives dS_side/d(vm_f, vm_t, va_f, va_t), from side first.
    The bus pairs are every pair a branch joins plus each bus with itself
    when the layout has injection rows, none otherwise. Each pair (first,
    second) of entries in one row, second's column not left of first's,
    adds to the upper-triangle position `target` of the n_state x n_state
    normal matrix, as a flat index.
    """

    entries: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    source: np.ndarray
    pair_bus: np.ndarray
    pair_other: np.ndarray
    diagonal: np.ndarray
    first: np.ndarray
    second: np.ndarray
    target: np.ndarray


class Layout(tuple):
    """A validated measurement layout: the tuple of its MeasurementKinds,
    compiled once and reused as is.

    `groups` maps each kind family present to its row positions and its bus
    or branch indices. `h_source` is where each row's value lies in the real
    view of the pool `eval_h` fills at a state: vm, va, then the complex bus
    injections, from-side flows and to-side flows, real and imaginary parts
    interleaved. A layout fits the networks with the slack bus and branch
    endpoints (`f_idx`, `t_idx`) it was compiled for. It compares equal to
    any sequence of the same kinds, and a copy or pickle of it is a plain
    tuple of them; only `compile_layout` makes one.
    """

    def __new__(cls, kinds, network: Network, groups: dict, h_source: np.ndarray):
        self = super().__new__(cls, kinds)
        self.m, self.groups, self.h_source = len(kinds), groups, h_source
        self.n_bus, self.n_branch, self.slack = network.n_bus, network.n_branch, network.slack
        self.f_idx, self.t_idx = network.f_idx, network.t_idx
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)

    @cached_property
    def pattern(self) -> JacobianPattern:
        """The Jacobian's sparsity pattern, built on first use.

        It follows from the groups and the topology, never from the values
        at one state (some derivatives are exactly zero at a flat start): a
        vm or va row touches its bus's column, a flow row the columns of its
        two terminals, and an injection row those of its bus and every bus
        a branch joins to it. Each row lists a column once, so parallel
        branches count once.
        """
        nb, n = self.n_bus, 2 * self.n_bus - 1
        angle_col = nb + np.arange(nb) - (np.arange(nb) > self.slack)
        if "pinj" in self.groups or "qinj" in self.groups:
            pair_bus, pair_other, diagonal = _bus_pairs(nb, self.f_idx, self.t_idx)
        else:
            pair_bus = pair_other = diagonal = np.empty(0, np.intp)
        n_pairs = pair_bus.size
        flow_offset = 1 + 2 * n_pairs
        # pool element -> real-view position: 2 * element (+1 for the imaginary part)
        rows, cols, source = ([np.empty(0, np.intp)] for _ in range(3))

        def add(entry_rows, entry_cols, element, imag):
            rows.append(entry_rows)
            cols.append(entry_cols)
            source.append(2 * element + imag)

        for name, (group_rows, idx) in self.groups.items():
            imag = int(name in ("qinj", "qf", "qt"))
            if name == "vm":
                add(group_rows, idx, np.zeros_like(idx), 0)
            elif name in ("pinj", "qinj"):
                # the pairs of each row's bus, a contiguous run since pairs are row-major
                start = np.searchsorted(pair_bus, idx)
                count = np.searchsorted(pair_bus, idx, side="right") - start
                at = np.repeat(np.arange(idx.size), count)
                pair = np.arange(at.size) + np.repeat(start - np.cumsum(count) + count, count)
                bus = pair_other[pair]
                angle = bus != self.slack
                add(group_rows[at], bus, 1 + pair, imag)
                add(group_rows[at][angle], angle_col[bus[angle]], 1 + n_pairs + pair[angle], imag)
            elif name == "va":
                angle = idx != self.slack
                add(group_rows[angle], angle_col[idx[angle]], np.zeros_like(idx[angle]), 0)
            else:
                # the pool holds the from side's four derivatives, then the to side's
                side = flow_offset + 4 * self.n_branch * (name in ("pt", "qt"))
                for terminal, ends in enumerate((self.f_idx, self.t_idx)):
                    vm_at = side + terminal * self.n_branch
                    bus = ends[idx]
                    angle = bus != self.slack
                    add(group_rows, bus, vm_at + idx, imag)
                    add(group_rows[angle], angle_col[bus[angle]],
                        vm_at + 2 * self.n_branch + idx[angle], imag)
        # no position repeats: each bus pair is listed once and a branch joins two buses
        key = np.concatenate(rows) * n + np.concatenate(cols)
        order = np.argsort(key)
        key = key[order]
        entry_rows, entry_cols = np.divmod(key, n)
        # pair each entry with itself and every later entry of its row
        count = np.bincount(entry_rows, minlength=self.m)
        later = np.cumsum(count)[entry_rows] - np.arange(key.size)
        first = np.repeat(np.arange(key.size), later)
        second = first + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        # indices stay intp: numpy converts narrower index arrays on every
        # gather, which doubled the time of the product on case118
        return JacobianPattern(key, entry_rows, entry_cols, np.concatenate(source)[order],
                               pair_bus, pair_other, diagonal,
                               first, second, entry_cols[first] * n + entry_cols[second])


def _bus_pairs(n_bus: int, f_idx: np.ndarray, t_idx: np.ndarray):
    """Each bus with itself and every bus a branch joins to it, once each
    and row-major: (bus, other, diagonal), where `diagonal` indexes each
    bus's pair with itself, in bus order. These are the positions where the
    bus admittance matrix may be nonzero."""
    adjacent = np.eye(n_bus, dtype=bool)
    adjacent[f_idx, t_idx] = True
    adjacent[t_idx, f_idx] = True
    bus, other = np.nonzero(adjacent)
    return bus, other, np.flatnonzero(bus == other)


def _check_topology(layout: Layout, network: Network):
    if (layout.n_bus, layout.n_branch) != (network.n_bus, network.n_branch):
        raise MeasurementError(
            f"layout for {layout.n_bus} buses and {layout.n_branch} branches "
            f"used with {network.n_bus} buses and {network.n_branch} branches"
        )
    same_ends = all(
        mine is theirs or np.array_equal(mine, theirs)
        for mine, theirs in ((layout.f_idx, network.f_idx), (layout.t_idx, network.t_idx))
    )
    if layout.slack != network.slack or not same_ends:
        raise MeasurementError(
            "layout compiled for a network with another slack bus or other branch endpoints"
        )


def compile_layout(network: Network, kinds) -> Layout:
    """Validate a sequence of MeasurementKind for the network and group it.

    Raises MeasurementError for the first faulty entry in layout order,
    checking at each position the kind, then the index range, then whether
    the entry repeats an earlier one. A sequence equal to the canonical
    kinds returns `canonical_kinds(network)`. A Layout is returned unchanged
    when it was compiled for the network's bus and branch counts, slack bus
    and branch endpoints; otherwise MeasurementError is raised.
    """
    if isinstance(kinds, Layout):
        _check_topology(kinds, network)
        return kinds
    return _compile(network, tuple(kinds))


def _compile(network: Network, kinds: tuple) -> Layout:
    m = len(kinds)
    codes = np.array([_KIND_CODE.get(k.kind, -1) for k in kinds], dtype=int)
    index = np.array([k.index for k in kinds], dtype=int)
    nb, ne = network.n_bus, network.n_branch
    # per-code index limit; the last entry, 0, serves unknown kinds (code -1)
    limits = np.array([nb] * len(BUS_KINDS) + [ne] * len(BRANCH_KINDS) + [0])
    valid = (index >= 0) & (index < limits[codes])
    # a repeat is an entry whose key was first seen at an earlier position;
    # invalid entries share the key -1, the last slot of `first`, and the
    # first of them is reported before any repeat that key produces
    width = max(nb, ne)
    key = codes * width + index
    key[~valid] = -1
    position = np.arange(m)
    first = np.full(len(ALL_KINDS) * width + 1, m)
    np.minimum.at(first, key, position)
    faulty = ~valid | (first[key] < position)
    if faulty.any():
        i = int(faulty.argmax())
        k = kinds[i]
        if codes[i] < 0:
            raise MeasurementError(f"unknown measurement kind {k.kind!r}")
        if not valid[i]:
            raise MeasurementError(f"{k.kind}[{k.index}] out of range")
        raise MeasurementError(f"duplicate measurement {k.kind}[{k.index}]")

    def build():
        groups = {}
        for code, name in enumerate(ALL_KINDS):
            rows = np.flatnonzero(codes == code)
            if rows.size:
                groups[name] = (rows, index[rows])
        # per kind code, the offset of its block in eval_h's pool and the step per index
        offset = np.array([0, nb, 2 * nb, 2 * nb + 1, 4 * nb, 4 * nb + 1,
                           4 * nb + 2 * ne, 4 * nb + 2 * ne + 1])
        stride = np.array([1, 1, 2, 2, 2, 2, 2, 2])
        return Layout(kinds, network, groups, offset[codes] + stride[codes] * index)

    # every measurement once and in key order is the canonical layout; its
    # first compilation, from canonical_kinds or not, is the one stored
    if m == len(BUS_KINDS) * nb + len(BRANCH_KINDS) * ne and (key[1:] > key[:-1]).all():
        return network.per_topology("canonical_kinds", build)
    return build()


def _branch_flows(network: Network, v: np.ndarray):
    vf, vt = v[network.f_idx], v[network.t_idx]
    s_from = vf * np.conj(network.y_ff * vf + network.y_ft * vt)
    s_to = vt * np.conj(network.y_tf * vf + network.y_tt * vt)
    return s_from, s_to


def eval_h(network: Network, state: StateVector, kinds) -> np.ndarray:
    """Evaluate the measurement functions at the given state.

    `kinds` is a sequence of MeasurementKind, validated and compiled on this
    call, or a Layout from `compile_layout`, used as is. Every injection and
    flow is computed, and the rows are read at the layout's `h_source`.
    """
    layout = compile_layout(network, kinds)
    v = state.voltages()
    s_inj = v * np.conj(network.ybus @ v)
    s_from, s_to = _branch_flows(network, v)
    pool = np.concatenate((state.vm, state.va, s_inj.view(float), s_from.view(float),
                           s_to.view(float)))
    return pool.take(layout.h_source)


def _injection_derivatives(network: Network, v: np.ndarray, bus: np.ndarray,
                           other: np.ndarray, diagonal: np.ndarray):
    """dS/dvm and dS/dva of the bus injections at the bus pairs (bus, other):
    the injection at `bus` by the voltage at `other`. `diagonal` indexes the
    pair of each bus with itself, in bus order."""
    y = network.ybus[bus, other]
    v_bus = v[bus]
    i_inj = network.ybus @ v
    v_norm = np.exp(1j * np.angle(v))
    ds_dvm = v_bus * np.conj(y * v_norm[other])
    ds_dvm[diagonal] += np.conj(i_inj) * v_norm
    own = np.zeros(bus.size, dtype=complex)
    own[diagonal] = i_inj
    return ds_dvm, 1j * v_bus * np.conj(own - y * v[other])


def jacobian_values(network: Network, state: StateVector, kinds) -> np.ndarray:
    """The measurement Jacobian at the entries of its layout's pattern.

    `kinds` is a sequence of MeasurementKind or a compiled Layout, as for
    `eval_h`. Returns H at `layout.pattern.entries`, in pattern order. The
    work follows the pattern: injection derivatives are taken at the bus
    pairs a branch joins (and each bus with itself), flow derivatives per
    branch, and each value is read from that pool at the entry's `source`.
    """
    layout = compile_layout(network, kinds)
    pattern = layout.pattern
    v = state.voltages()
    pool = [np.ones(1, dtype=complex)]
    if pattern.pair_bus.size:
        pool += _injection_derivatives(network, v, pattern.pair_bus, pattern.pair_other,
                                       pattern.diagonal)
    if any(name in layout.groups for name in BRANCH_KINDS):
        f, t = network.f_idx, network.t_idx
        v_norm = np.exp(1j * state.va)
        vf, vt = v[f], v[t]
        i_from = network.y_ff * vf + network.y_ft * vt
        i_to = network.y_tf * vf + network.y_tt * vt
        pool += [
            # from side: d/dvm_f, d/dvm_t, d/dva_f, d/dva_t
            v_norm[f] * np.conj(i_from) + vf * np.conj(network.y_ff) * np.conj(v_norm[f]),
            vf * np.conj(network.y_ft) * np.conj(v_norm[t]),
            1j * (vf * np.conj(i_from) - vf * np.conj(network.y_ff * vf)),
            -1j * vf * np.conj(network.y_ft * vt),
            # to side, in the same order
            vt * np.conj(network.y_tf) * np.conj(v_norm[f]),
            v_norm[t] * np.conj(i_to) + vt * np.conj(network.y_tt) * np.conj(v_norm[t]),
            -1j * vt * np.conj(network.y_tf * vf),
            1j * (vt * np.conj(i_to) - vt * np.conj(network.y_tt * vt)),
        ]
    return np.concatenate(pool).view(float).take(pattern.source)


def eval_H(network: Network, state: StateVector, kinds) -> np.ndarray:
    """Measurement Jacobian (m x n) in the [vm, non-slack va] column order.

    `kinds` is a sequence of MeasurementKind or a compiled Layout, as for
    `eval_h`. This is the dense view of `jacobian_values`, scattered into
    zeros. Derivatives with respect to the slack angle are dropped, so a
    va row of the slack bus is all zeros.
    """
    layout = compile_layout(network, kinds)
    h_mat = np.zeros(layout.m * network.n_state)
    h_mat[layout.pattern.entries] = jacobian_values(network, state, layout)
    return h_mat.reshape(layout.m, network.n_state)


def jacobian_product(layout: Layout, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H X from the Jacobian's pattern values, for X of shape (n_state, k):
    one bincount over (entry row, column of X) slots, each row summing its
    entries in pattern order."""
    pattern = layout.pattern
    k = x.shape[1]
    slots = (pattern.rows[:, None] * k + np.arange(k)).ravel()
    products = (values[:, None] * x[pattern.cols]).ravel()
    return np.bincount(slots, products, minlength=layout.m * k).reshape(layout.m, k)


def jacobian_transpose_product(layout: Layout, values: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H' y from the Jacobian's pattern values, for y of shape (m,)."""
    pattern = layout.pattern
    return np.bincount(pattern.cols, values * y[pattern.rows], minlength=2 * layout.n_bus - 1)


# ---------------------------------------------------------------------------
# Conventional Newton power flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PfSpec:
    """Per-bus fixed quantities: (p, vm) at PV, (p, q) at PQ, vm at slack.

    p/q targets are net injections (generation minus load) in per-unit.
    """

    bus_type: tuple[str, ...]
    p_set: np.ndarray
    q_set: np.ndarray
    vm_set: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bus_type", tuple(self.bus_type))  # newton_pf's key
        if self.bus_type.count(SLACK) != 1:
            raise ValueError("exactly one slack bus required")
        for name in ("p_set", "q_set", "vm_set"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def _newton_index(network: Network, bus_type: tuple[str, ...]) -> tuple:
    """newton_pf's index per topology and bus types: the slack, PV, PQ and
    PV+PQ positions, the reduced size, each reduced-Jacobian entry's flat
    target and its source in the derivative pool's float view, the pairs."""
    pairs = _bus_pairs(network.n_bus, network.f_idx, network.t_idx)
    types = np.array(bus_type)
    slack = int(np.flatnonzero(types == SLACK)[0])
    pv = np.flatnonzero(types == PV)
    pq = np.flatnonzero(types == PQ)
    pvpq = np.concatenate([pv, pq])
    nr = pvpq.size + pq.size
    n_pairs = pairs[0].size
    # each bus's reduced position as a P row or va column (at[0]) and as a
    # Q row or vm column (at[1]); -1 where it has none
    at = np.full((2, network.n_bus), -1)
    at[0, pvpq] = np.arange(pvpq.size)
    at[1, pq] = pvpq.size + np.arange(pq.size)
    rows, cols = at[:, None, pairs[0]], at[None, :, pairs[1]]
    # the float view of the derivative pool holds dS/dvm, then dS/dva, at
    # each pair, real and imaginary parts interleaved: P rows read real
    # parts and Q rows imaginary ones, va columns dS/dva and vm columns dS/dvm
    source = 2 * (np.arange(n_pairs) + np.array([[n_pairs], [0]])) + np.arange(2)[:, None, None]
    keep = (rows >= 0) & (cols >= 0)
    return slack, pv, pq, pvpq, nr, (rows * nr + cols)[keep], source[keep], pairs


def newton_pf(
    network: Network,
    spec: PfSpec,
    x0: StateVector | None = None,
    tol: float = 1e-8,
    max_iter: int = 30,
) -> StateVector:
    """Full Newton power flow; returns a state with mismatch below tol.

    Starts from x0 (flat when None). Each step fills the reduced Jacobian,
    [P at PV and PQ, Q at PQ] by [va at PV and PQ, vm at PQ], with one
    scatter of the injection derivatives at the bus pairs. Raises
    PowerFlowError on non-convergence within max_iter or on a singular
    Jacobian.
    """
    slack, pv, pq, pvpq, nr, target, source, pairs = network.per_topology(
        ("newton_index", spec.bus_type), lambda: _newton_index(network, spec.bus_type))

    if x0 is None:
        x0 = StateVector.flat(network)
    vm = x0.vm.copy()
    va = x0.va.copy()
    vm[slack] = spec.vm_set[slack]
    vm[pv] = spec.vm_set[pv]
    va[slack] = 0.0

    s_target = spec.p_set + 1j * spec.q_set

    for iteration in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        s_calc = v * np.conj(network.ybus @ v)
        mism = s_calc - s_target
        f = np.concatenate([mism[pvpq].real, mism[pq].imag])
        if f.size == 0 or np.max(np.abs(f)) < tol:
            return StateVector(vm, va, slack)
        if iteration == max_iter or not np.all(np.isfinite(f)):
            raise PowerFlowError(
                f"power flow did not converge in {max_iter} iterations "
                f"(max mismatch {np.max(np.abs(f)):.3e} p.u.)"
            )

        pool = np.concatenate(_injection_derivatives(network, v, *pairs))
        jac = np.zeros(nr * nr)
        jac[target] = pool.view(float)[source]
        try:
            dx = np.linalg.solve(jac.reshape(nr, nr), -f)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError("singular power-flow Jacobian") from exc
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size:]
        if np.any(vm <= 0.0):
            raise PowerFlowError("power flow diverged (non-positive magnitude)")

    raise PowerFlowError("unreachable")


def _generator_bus_types(network: Network) -> tuple:
    """Whether each bus hosts a unit, and generator_bus_spec's bus types."""
    has_unit = np.bincount(network.gen_bus, minlength=network.n_bus) > 0
    return has_unit, tuple(SLACK if k == network.slack else PV if unit else PQ
                           for k, unit in enumerate(has_unit.tolist()))


def generator_bus_spec(network: Network, p_set: np.ndarray, vm_set: np.ndarray) -> PfSpec:
    """The slack at the slack bus, PV at every other bus with a generating
    unit, PQ elsewhere.

    `p_set` (net injections) is read at the PV buses and `vm_set` at the
    slack and PV buses; each PQ bus injects minus its load.
    """
    has_unit, bus_type = network.per_topology("generator_bus_types",
                                              lambda: _generator_bus_types(network))
    return PfSpec(
        bus_type,
        np.where(has_unit, p_set, -network.p_load),
        np.where(has_unit, 0.0, -network.q_load),
        np.where(has_unit, vm_set, 1.0),
    )


# ---------------------------------------------------------------------------
# Operating points, benchmark restoration, constraint reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatingPoint:
    """A state together with the injections and flows it implies."""

    state: StateVector
    p_inj: np.ndarray
    q_inj: np.ndarray
    flows: np.ndarray  # (n_branch, 4): p_from, q_from, p_to, q_to
    p_gen: np.ndarray
    q_gen: np.ndarray


def _split_bus_generation(network: Network, p_bus: np.ndarray, q_bus: np.ndarray):
    """Distribute bus-level generation over co-located units.

    The split is proportional to each unit's p_max (|q_max| for reactive),
    falling back to an equal split when all capacities at the bus are zero.
    """
    at = network.gen_bus
    equal = 1.0 / np.bincount(at)[at]

    def share(caps):
        total = np.bincount(at, caps, minlength=network.n_bus)[at]
        return np.divide(caps, total, out=equal.copy(), where=total > 0)

    p_share = share(np.array([g.p_max for g in network.generators]))
    q_share = share(np.array([abs(g.q_max) for g in network.generators]))
    return p_share * p_bus[at], q_share * q_bus[at]


def operating_point(network: Network, state: StateVector) -> OperatingPoint:
    """Injections, flows, and generator outputs implied by a state."""
    v = state.voltages()
    s_inj = v * np.conj(network.ybus @ v)
    s_from, s_to = _branch_flows(network, v)
    flows = np.column_stack([s_from.real, s_from.imag, s_to.real, s_to.imag])
    p_bus_gen = s_inj.real + network.p_load
    q_bus_gen = s_inj.imag + network.q_load
    p_gen, q_gen = _split_bus_generation(network, p_bus_gen, q_bus_gen)
    return OperatingPoint(state, s_inj.real, s_inj.imag, flows, p_gen, q_gen)


def benchmark_missing(network: Network, kinds) -> list[str]:
    """The rows `benchmark_restore` needs that the layout `kinds` lacks, by
    bus id: vm of every generator bus and pinj of every non-slack one."""
    have = {(k.kind, k.index) for k in kinds}
    return [f"{kind}[bus {network.buses[bus].id}]" for bus in network.gen_buses().tolist()
            for kind in ("vm", "pinj")
            if (kind, bus) not in have and (kind == "vm" or bus != network.slack)]


def benchmark_restore(network: Network, z: MeasurementSet) -> OperatingPoint:
    """Restore by fixing generator-bus voltage magnitudes and non-slack
    generator active injections from z, then solving a power flow.

    Loads at the remaining (PQ) buses come from the network. Requires a vm
    entry for every generator bus and a pinj entry for every non-slack
    generator bus.
    """
    compile_layout(network, z.kinds)
    missing = benchmark_missing(network, z.kinds)
    if missing:
        raise MeasurementError("benchmark restoration needs " + ", ".join(missing))
    table = {(k.kind, k.index): value for k, value in zip(z.kinds, z.values)}
    gen_buses = network.gen_buses().tolist()
    pv_buses = [bus for bus in gen_buses if bus != network.slack]
    vm_set = np.ones(network.n_bus)
    vm_set[gen_buses] = [table[("vm", bus)] for bus in gen_buses]
    p_set = np.zeros(network.n_bus)
    p_set[pv_buses] = [table[("pinj", bus)] for bus in pv_buses]
    state = newton_pf(network, generator_bus_spec(network, p_set, vm_set))
    return operating_point(network, state)


@dataclass(frozen=True)
class ViolationReport:
    """Per-family maximum constraint violation of an operating point.

    Restored points are not forced to satisfy the operating limits, so this
    reports rather than enforces. Generator bounds are checked on bus-level
    aggregate generation; buses without generators count as zero-capacity.
    """

    voltage: float
    generator: float
    flow: float
    angle: float
    worst: dict = field(default_factory=dict)

    def max_violation(self) -> float:
        return max(self.voltage, self.generator, self.flow, self.angle)


def constraint_report(network: Network, op: OperatingPoint) -> ViolationReport:
    vm = op.state.vm
    v_lo = np.array([b.v_min for b in network.buses])
    v_hi = np.array([b.v_max for b in network.buses])
    v_viol = np.maximum(np.maximum(v_lo - vm, vm - v_hi), 0.0)

    p_bus = op.p_inj + network.p_load
    q_bus = op.q_inj + network.q_load
    p_lo, p_hi, q_lo, q_hi = (
        np.bincount(network.gen_bus, [getattr(g, name) for g in network.generators],
                    minlength=network.n_bus)
        for name in ("p_min", "p_max", "q_min", "q_max")
    )
    g_viol = np.maximum.reduce(
        [p_lo - p_bus, p_bus - p_hi, q_lo - q_bus, q_bus - q_hi, np.zeros(network.n_bus)]
    )

    s_from = np.hypot(op.flows[:, 0], op.flows[:, 1])
    s_to = np.hypot(op.flows[:, 2], op.flows[:, 3])
    s_max = np.array([br.s_max for br in network.branches])
    limited = s_max > 0
    f_viol = np.zeros(network.n_branch)
    f_viol[limited] = np.maximum(
        np.maximum(s_from[limited], s_to[limited]) - s_max[limited], 0.0
    )

    dtheta = np.abs(op.state.va[network.f_idx] - op.state.va[network.t_idx])
    t_max = np.array([br.theta_max for br in network.branches])
    a_viol = np.maximum(dtheta - t_max, 0.0)

    def _worst(values, describe):
        if values.size == 0 or values.max() <= 0:
            return None
        return describe(int(values.argmax()))

    worst = {
        "voltage": _worst(v_viol, lambda i: f"bus {network.buses[i].id}"),
        "generator": _worst(g_viol, lambda i: f"bus {network.buses[i].id}"),
        "flow": _worst(
            f_viol,
            lambda e: f"branch {network.branches[e].from_bus}-{network.branches[e].to_bus}",
        ),
        "angle": _worst(
            a_viol,
            lambda e: f"branch {network.branches[e].from_bus}-{network.branches[e].to_bus}",
        ),
    }
    return ViolationReport(
        voltage=float(v_viol.max(initial=0.0)),
        generator=float(g_viol.max(initial=0.0)),
        flow=float(f_viol.max(initial=0.0)),
        angle=float(a_viol.max(initial=0.0)),
        worst=worst,
    )

"""Power network model: case parsing, validation, and branch admittances.

The supported case format is a subset of the MATPOWER-style text layout
(bus/gen/branch/gencost tables). All power quantities are converted to
per-unit on the system MVA base at parse time. Networks are immutable
after construction; the LPAC LPs of one topology share a solver (see lpac).

A network's topology is everything but its loads. `Network.with_loads`
copies a network for one load scenario without validating or deriving the
topology again: the copy shares its parent's read-only topology arrays and
one per-topology store, where `per_topology` keeps values that depend only
on the topology and the loads it was built with, `case_loads` (the
canonical measurement layout with its compilation, bus types, Newton
indices, merit-order grid, the LPAC model with its solver and start basis,
the case's own power flow), for every copy to reuse.
"""

from __future__ import annotations

import cmath
import hashlib
import importlib.resources
import logging
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_THETA_MAX = math.pi / 3.0

SLACK, PV, PQ = "slack", "pv", "pq"


class CaseError(Exception):
    """Base class for case-file problems."""


class CaseSyntaxError(CaseError):
    """Malformed case text. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CaseSemanticError(CaseError):
    """Structurally valid case text describing an invalid network."""


class DuplicateBusError(CaseSemanticError):
    pass


class DanglingEndpointError(CaseSemanticError):
    """Branch or generator references a bus id that does not exist."""


class SlackError(CaseSemanticError):
    """No slack bus, more than one, or a slack bus without a generator."""


class DisconnectedError(CaseSemanticError):
    """The graph of in-service branches does not connect all buses."""


@dataclass(frozen=True)
class Bus:
    id: int
    type: str  # slack | pv | pq
    v_min: float
    v_max: float
    p_load: float = 0.0
    q_load: float = 0.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.v_min <= self.v_max):
            raise CaseSemanticError(
                f"bus {self.id}: voltage bounds must satisfy 0 < v_min <= v_max"
            )
        if self.type not in (SLACK, PV, PQ):
            raise CaseSemanticError(f"bus {self.id}: unknown type {self.type!r}")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charge: float = 0.0
    tap: float = 1.0
    shift: float = 0.0
    s_max: float = 0.0  # 0 means unlimited
    theta_max: float = DEFAULT_THETA_MAX

    def __post_init__(self):
        if self.r * self.r + self.x * self.x <= 0.0:
            raise CaseSemanticError(
                f"branch {self.from_bus}-{self.to_bus}: zero series impedance"
            )
        if self.tap <= 0.0:
            raise CaseSemanticError(
                f"branch {self.from_bus}-{self.to_bus}: tap must be positive"
            )
        if self.from_bus == self.to_bus:
            raise CaseSemanticError(f"branch {self.from_bus}: self loop")


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    c2: float = 0.0
    c1: float = 0.0
    c0: float = 0.0

    def __post_init__(self):
        if self.p_min > self.p_max or self.q_min > self.q_max:
            raise CaseSemanticError(f"generator at bus {self.bus}: empty output range")

    def cost(self, p: float) -> float:
        return self.c2 * p * p + self.c1 * p + self.c0


def branch_two_port(branch: Branch) -> tuple[complex, complex, complex, complex]:
    """Two-port admittances (y_ff, y_ft, y_tf, y_tt) of the branch pi model.

    The series admittance is y = 1/(r + jx); half the charging susceptance
    sits at each terminal and the off-nominal tap (with phase shift) is on
    the from side.
    """
    y = 1.0 / complex(branch.r, branch.x)
    y_sh = complex(0.0, branch.b_charge / 2.0)
    t = branch.tap * cmath.exp(1j * branch.shift)
    y_ff = (y + y_sh) / (branch.tap * branch.tap)
    y_ft = -y / t.conjugate()
    y_tf = -y / t
    y_tt = y + y_sh
    return y_ff, y_ft, y_tf, y_tt


@dataclass(frozen=True)
class Network:
    """Validated electrical model with precomputed admittance arrays.

    Index-based arrays (loads, shunts, two-port admittances, the dense bus
    admittance matrix) are derived once in __post_init__ and reused by all
    downstream evaluations; all but the loads are read-only, since
    `with_loads` copies share them. Bus ids are arbitrary integers;
    positions are 0-based and follow the case-file order.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    name: str = "network"

    # derived, filled in __post_init__
    bus_index: dict = field(init=False, repr=False, compare=False)
    slack: int = field(init=False, repr=False, compare=False)
    f_idx: np.ndarray = field(init=False, repr=False, compare=False)
    t_idx: np.ndarray = field(init=False, repr=False, compare=False)
    y_ff: np.ndarray = field(init=False, repr=False, compare=False)
    y_ft: np.ndarray = field(init=False, repr=False, compare=False)
    y_tf: np.ndarray = field(init=False, repr=False, compare=False)
    y_tt: np.ndarray = field(init=False, repr=False, compare=False)
    y_shunt: np.ndarray = field(init=False, repr=False, compare=False)
    ybus: np.ndarray = field(init=False, repr=False, compare=False)
    p_load: np.ndarray = field(init=False, repr=False, compare=False)
    q_load: np.ndarray = field(init=False, repr=False, compare=False)
    gen_bus: np.ndarray = field(init=False, repr=False, compare=False)
    _topology: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        seen = set()
        for i in ids:
            if i in seen:
                raise DuplicateBusError(f"duplicate bus id {i}")
            seen.add(i)
        index = {b.id: k for k, b in enumerate(self.buses)}
        object.__setattr__(self, "bus_index", index)

        slack_positions = [k for k, b in enumerate(self.buses) if b.type == SLACK]
        if not slack_positions:
            raise SlackError("no slack bus")
        if len(slack_positions) > 1:
            raise SlackError(f"{len(slack_positions)} slack buses, expected exactly one")
        object.__setattr__(self, "slack", slack_positions[0])

        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                if end not in index:
                    raise DanglingEndpointError(
                        f"branch {br.from_bus}-{br.to_bus}: unknown bus {end}"
                    )
        for g in self.generators:
            if g.bus not in index:
                raise DanglingEndpointError(f"generator references unknown bus {g.bus}")
        if not any(g.bus == self.buses[self.slack].id for g in self.generators):
            raise SlackError(f"slack bus {self.buses[self.slack].id} has no generator")

        nb = len(self.buses)
        f_idx = np.array([index[br.from_bus] for br in self.branches], dtype=int)
        t_idx = np.array([index[br.to_bus] for br in self.branches], dtype=int)
        two_ports = [branch_two_port(br) for br in self.branches]
        y_ff = np.array([tp[0] for tp in two_ports], dtype=complex)
        y_ft = np.array([tp[1] for tp in two_ports], dtype=complex)
        y_tf = np.array([tp[2] for tp in two_ports], dtype=complex)
        y_tt = np.array([tp[3] for tp in two_ports], dtype=complex)
        y_shunt = np.array([complex(b.g_shunt, b.b_shunt) for b in self.buses])

        # one unbuffered add in branch order, each branch adding ff, ft, tf, tt,
        # so every element sums its terms in the same order as a loop would
        ybus = np.zeros((nb, nb), dtype=complex)
        np.add.at(
            ybus,
            (np.column_stack([f_idx, f_idx, t_idx, t_idx]).ravel(),
             np.column_stack([f_idx, t_idx, f_idx, t_idx]).ravel()),
            np.column_stack([y_ff, y_ft, y_tf, y_tt]).ravel(),
        )
        ybus[np.arange(nb), np.arange(nb)] += y_shunt

        gen_bus = np.array([index[g.bus] for g in self.generators], dtype=int)
        shared = dict(f_idx=f_idx, t_idx=t_idx, y_ff=y_ff, y_ft=y_ft, y_tf=y_tf, y_tt=y_tt,
                      y_shunt=y_shunt, ybus=ybus, gen_bus=gen_bus)
        for name, array in shared.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "p_load", np.array([b.p_load for b in self.buses]))
        object.__setattr__(self, "q_load", np.array([b.q_load for b in self.buses]))
        case_loads = (self.p_load.copy(), self.q_load.copy())
        for array in case_loads:
            array.flags.writeable = False
        object.__setattr__(self, "_topology", {"case_loads": case_loads})

        self._check_connected()

    def _check_connected(self):
        nb = len(self.buses)
        adjacency = [[] for _ in range(nb)]
        for f, t in zip(self.f_idx, self.t_idx):
            adjacency[f].append(t)
            adjacency[t].append(f)
        reached = np.zeros(nb, dtype=bool)
        stack = [self.slack]
        reached[self.slack] = True
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not reached[v]:
                    reached[v] = True
                    stack.append(v)
        if not reached.all():
            missing = [self.buses[k].id for k in np.flatnonzero(~reached)]
            raise DisconnectedError(
                f"buses {missing} are not connected to the slack bus"
            )

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    @property
    def n_gen(self) -> int:
        return len(self.generators)

    @property
    def n_state(self) -> int:
        """Dimension of the voltage state: all magnitudes plus non-slack angles."""
        return 2 * self.n_bus - 1

    def gen_buses(self) -> np.ndarray:
        """Positions of buses that host at least one generator, ascending."""
        return np.unique(self.gen_bus)

    def with_loads(self, p_load: np.ndarray, q_load: np.ndarray) -> "Network":
        """A copy of this network with replaced per-bus loads (per-unit).

        The copy equals `Network(base_mva, buses, branches, generators,
        name)` built from its buses, but shares this network's validated
        topology, derived arrays and per-topology store; its buses are copied
        with the new loads, not validated again. Raises ValueError unless
        each load vector has one finite entry per bus.
        """
        loads = {}
        for name, values in (("p_load", p_load), ("q_load", q_load)):
            values = np.array(values, dtype=float)
            if values.shape != (self.n_bus,):
                raise ValueError(
                    f"{name}: expected {self.n_bus} per-bus loads, got shape {values.shape}"
                )
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}] = {values[bad[0]]} is not finite")
            loads[name] = values
        buses = tuple(object.__new__(Bus) for _ in self.buses)
        for bus, b, p, q in zip(buses, self.buses, *(v.tolist() for v in loads.values())):
            vars(bus).update(vars(b), p_load=p, q_load=q)
        copy = object.__new__(Network)
        # every field but the loads, and no cached case hash
        state = {k: v for k, v in vars(self).items() if k != "case_hash"}
        vars(copy).update(state, buses=buses, **loads)
        return copy

    @property
    def case_loads(self) -> tuple[np.ndarray, np.ndarray]:
        """(p_load, q_load), read-only, of the network this topology was
        built with: its own loads, or its parent's `case_loads` if it is a
        `with_loads` copy. A per-topology value that needs loads takes these."""
        return self._topology["case_loads"]

    def per_topology(self, key, build):
        """The value stored under key for this network's topology, made by
        build() on first use. Every `with_loads` copy shares the store, so
        build() must depend only on the topology, `case_loads` and key."""
        store = self._topology
        if key not in store:
            store.setdefault(key, build())
        return store[key]

    @cached_property
    def case_hash(self) -> str:
        """SHA-256 of the canonical case text, computed on first use only:
        the network is immutable, and scenario copies that are never written
        or checked against a file never pay for it."""
        digest = hashlib.sha256(serialize_case(self).encode("utf-8")).hexdigest()
        return f"sha256:{digest}"

    def state_labels(self) -> list[str]:
        labels = [f"vm[bus {b.id}]" for b in self.buses]
        labels += [
            f"va[bus {b.id}]" for k, b in enumerate(self.buses) if k != self.slack
        ]
        return labels


# ---------------------------------------------------------------------------
# Case-file parsing
# ---------------------------------------------------------------------------

_BUS_TYPE_CODES = {1: PQ, 2: PV, 3: SLACK}


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _parse_tables(text: str) -> dict:
    """Split case text into named numeric tables plus scalar assignments."""
    tables: dict[str, list[tuple[list[float], int]]] = {}
    scalars: dict[str, float] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is None:
            if line.startswith("function") or line.startswith("mpc.version"):
                continue
            m = re.match(r"mpc\.(\w+)\s*=\s*\[", line)
            if m:
                current = m.group(1)
                tables.setdefault(current, [])
                rest = line[m.end():]
                if rest.strip():
                    current = _consume_rows(tables, current, rest, lineno)
                continue
            m = re.match(r"mpc\.(\w+)\s*=\s*([-\d.eE+]+)\s*;?$", line)
            if m:
                scalars[m.group(1)] = float(m.group(2))
                continue
            raise CaseSyntaxError(f"unrecognized statement {line!r}", lineno)
        else:
            current = _consume_rows(tables, current, line, lineno)
    if current is not None:
        raise CaseSyntaxError(f"table {current!r} not closed with '];'", lineno)
    return {"tables": tables, "scalars": scalars}


def _consume_rows(tables, current, chunk, lineno):
    """Parse one line of table content; returns the still-open table name."""
    closed = False
    if "]" in chunk:
        chunk, _, trailing = chunk.partition("]")
        if trailing.strip() not in ("", ";"):
            raise CaseSyntaxError(f"unexpected text after ']': {trailing!r}", lineno)
        closed = True
    for row_text in chunk.split(";"):
        row_text = row_text.strip()
        if not row_text:
            continue
        try:
            row = [float(tok) for tok in row_text.split()]
        except ValueError as exc:
            raise CaseSyntaxError(f"bad numeric value in row {row_text!r}", lineno) from exc
        if any(math.isnan(value) for value in row):  # float() reads "nan"; inf may mean no limit
            raise CaseSyntaxError(f"NaN value in row {row_text!r}", lineno)
        tables[current].append((row, lineno))
    return None if closed else current


def _angle_limit(ang_min: float, ang_max: float) -> float:
    """Angle-difference limit in radians; wide-open file values use the default."""
    bound = max(abs(ang_min), abs(ang_max))
    if bound == 0.0 or bound >= 360.0:
        return DEFAULT_THETA_MAX
    return math.radians(bound)


def parse_case(text: str, name: str = "network") -> Network:
    """Parse MATPOWER-style case text into a validated per-unit Network.

    Reads the documented column subset of the bus/gen/branch/gencost tables;
    out-of-service rows are dropped and unknown tables are ignored, each with
    a logged warning. Raises CaseSyntaxError or a CaseSemanticError subclass.
    """
    parsed = _parse_tables(text)
    tables, scalars = parsed["tables"], parsed["scalars"]

    known = {"bus", "gen", "branch", "gencost"}
    for extra in set(tables) - known:
        logger.warning("ignoring unsupported table mpc.%s", extra)

    if "baseMVA" not in scalars:
        raise CaseSemanticError("missing mpc.baseMVA")
    base = scalars["baseMVA"]
    if base <= 0:
        raise CaseSemanticError("baseMVA must be positive")
    for required in ("bus", "gen", "branch"):
        if required not in tables or not tables[required]:
            raise CaseSemanticError(f"missing mpc.{required} table")

    buses = []
    for row, lineno in tables["bus"]:
        if len(row) < 13:
            raise CaseSyntaxError(f"bus row needs 13 columns, got {len(row)}", lineno)
        code = int(row[1])
        if code == 4:
            logger.warning("dropping isolated bus %d", int(row[0]))
            continue
        if code not in _BUS_TYPE_CODES:
            raise CaseSyntaxError(f"unknown bus type code {code}", lineno)
        buses.append(
            Bus(
                id=int(row[0]),
                type=_BUS_TYPE_CODES[code],
                v_min=row[12],
                v_max=row[11],
                p_load=row[2] / base,
                q_load=row[3] / base,
                g_shunt=row[4] / base,
                b_shunt=row[5] / base,
            )
        )

    gens = []
    gen_rows = []
    for row, lineno in tables["gen"]:
        if len(row) < 10:
            raise CaseSyntaxError(f"gen row needs 10 columns, got {len(row)}", lineno)
        if int(row[7]) == 0:
            logger.warning("dropping out-of-service generator at bus %d", int(row[0]))
            continue
        gen_rows.append(row)

    costs = []
    if "gencost" in tables:
        cost_rows = tables["gencost"]
        if len(cost_rows) > len(gen_rows):
            logger.warning(
                "gencost has %d rows for %d generators; extra rows ignored",
                len(cost_rows),
                len(gen_rows),
            )
            cost_rows = cost_rows[: len(gen_rows)]
        for row, lineno in cost_rows:
            if int(row[0]) != 2:
                raise CaseSemanticError(
                    "only polynomial gencost rows (model 2) are supported"
                )
            ncost = int(row[3])
            if ncost > 3 or len(row) < 4 + ncost:
                raise CaseSemanticError(
                    "gencost rows must carry at most quadratic coefficients"
                )
            coef = [0.0] * (3 - ncost) + row[4 : 4 + ncost]
            costs.append(tuple(coef))
    costs += [(0.0, 0.0, 0.0)] * (len(gen_rows) - len(costs))

    for row, (c2, c1, c0) in zip(gen_rows, costs):
        gens.append(
            Generator(
                bus=int(row[0]),
                p_min=row[9] / base,
                p_max=row[8] / base,
                q_min=row[4] / base,
                q_max=row[3] / base,
                # cost rows are in $/MWh of MW output; keep per-unit power
                c2=c2 * base * base,
                c1=c1 * base,
                c0=c0,
            )
        )

    branches = []
    for row, lineno in tables["branch"]:
        if len(row) < 13:
            raise CaseSyntaxError(f"branch row needs 13 columns, got {len(row)}", lineno)
        if int(row[10]) == 0:
            logger.warning(
                "dropping out-of-service branch %d-%d", int(row[0]), int(row[1])
            )
            continue
        branches.append(
            Branch(
                from_bus=int(row[0]),
                to_bus=int(row[1]),
                r=row[2],
                x=row[3],
                b_charge=row[4],
                s_max=row[5] / base,
                tap=row[8] if row[8] != 0.0 else 1.0,
                shift=math.radians(row[9]),
                theta_max=_angle_limit(row[11], row[12]),
            )
        )

    return Network(base, tuple(buses), tuple(branches), tuple(gens), name=name)


def serialize_case(network: Network) -> str:
    """Canonical case text for the network; parse_case(serialize_case(n)) == n."""
    base = network.base_mva
    type_code = {PQ: 1, PV: 2, SLACK: 3}
    out = [f"function mpc = {network.name}", "mpc.version = '2';"]
    out.append(f"mpc.baseMVA = {base:.17g};")

    out.append("mpc.bus = [")
    for b in network.buses:
        out.append(
            f"\t{b.id}\t{type_code[b.type]}\t{b.p_load * base:.17g}\t{b.q_load * base:.17g}"
            f"\t{b.g_shunt * base:.17g}\t{b.b_shunt * base:.17g}\t1\t1\t0\t0\t1"
            f"\t{b.v_max:.17g}\t{b.v_min:.17g};"
        )
    out.append("];")

    out.append("mpc.gen = [")
    for g in network.generators:
        out.append(
            f"\t{g.bus}\t0\t0\t{g.q_max * base:.17g}\t{g.q_min * base:.17g}\t1\t{base:.17g}"
            f"\t1\t{g.p_max * base:.17g}\t{g.p_min * base:.17g};"
        )
    out.append("];")

    out.append("mpc.branch = [")
    for br in network.branches:
        ang = math.degrees(br.theta_max)
        out.append(
            f"\t{br.from_bus}\t{br.to_bus}\t{br.r:.17g}\t{br.x:.17g}\t{br.b_charge:.17g}"
            f"\t{br.s_max * base:.17g}\t0\t0\t{br.tap:.17g}\t{math.degrees(br.shift):.17g}"
            f"\t1\t{-ang:.17g}\t{ang:.17g};"
        )
    out.append("];")

    out.append("mpc.gencost = [")
    for g in network.generators:
        out.append(
            f"\t2\t0\t0\t3\t{g.c2 / (base * base):.17g}\t{g.c1 / base:.17g}\t{g.c0:.17g};"
        )
    out.append("];")
    return "\n".join(out) + "\n"


def load_case(path) -> Network:
    """Parse a case file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    return parse_case(text, name=os.path.splitext(os.path.basename(path))[0])


def bundled_case_names() -> list[str]:
    files = importlib.resources.files("acrestore") / "cases"
    return sorted(p.name[:-2] for p in files.iterdir() if p.name.endswith(".m"))


def load_bundled_case(name: str) -> Network:
    """Load one of the case files shipped with the package (e.g. 'case5')."""
    resource = importlib.resources.files("acrestore") / "cases" / f"{name}.m"
    return parse_case(resource.read_text(encoding="utf-8"), name=name)

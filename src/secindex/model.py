"""Structured system descriptions and their attack graphs.

A structured system records only the sparsity pattern of the dynamics,
input, and output matrices: every listed edge is a free parameter, and
everything else is a fixed zero.  The attack graph extends the system
graph with one dedicated attack vertex per unprotected sensor, so that
linking computations can treat compromised actuators and compromised
sensors uniformly as sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, NamedTuple


class InvalidSystemError(ValueError):
    """The system description violates a structural invariant."""


class DuplicateNameError(InvalidSystemError):
    """A vertex name is declared more than once."""


class DanglingEndpointError(InvalidSystemError):
    """An edge references a vertex that was never declared."""


class UnknownVertexError(ValueError):
    """A vertex (or vertex name) does not exist in the graph."""


class VertexKind(IntEnum):
    STATE = 0
    ACTUATOR = 1
    SENSOR = 2
    SENSOR_ATTACK = 3


class VertexId(NamedTuple):
    """Positional vertex identity: (kind, ordinal within its kind).

    Sensor-attack vertices reuse the ordinal of the sensor they target,
    so resolution back to a name never needs a side table.
    """

    kind: VertexKind
    ordinal: int


class Sensor(NamedTuple):
    name: str
    protected: bool = False


Edge = tuple[VertexId, VertexId]

# Prefix used to derive the display name of a sensor-attack vertex.
ATTACK_NAME_PREFIX = "a_"


def _as_name_pairs(edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    out = set()
    for pair in edges:
        src, dst = pair
        out.add((str(src), str(dst)))
    return frozenset(out)


@dataclass(frozen=True)
class StructuredSystem:
    """Sparsity pattern of a linear network system with named components.

    ``w_edges`` are state-to-state couplings, ``b_edges`` actuator-to-state,
    ``c_edges`` state-to-sensor.  Self-loops and cycles in ``w_edges`` are
    allowed.  Validation happens at construction; instances are immutable
    and hashable.
    """

    states: tuple[str, ...]
    actuators: tuple[str, ...]
    sensors: tuple[Sensor, ...]
    w_edges: frozenset[tuple[str, str]]
    b_edges: frozenset[tuple[str, str]]
    c_edges: frozenset[tuple[str, str]]

    def __init__(
        self,
        states: Iterable[str],
        actuators: Iterable[str] = (),
        sensors: Iterable[Sensor | tuple[str, bool]] = (),
        w_edges: Iterable[tuple[str, str]] = (),
        b_edges: Iterable[tuple[str, str]] = (),
        c_edges: Iterable[tuple[str, str]] = (),
    ):
        object.__setattr__(self, "states", tuple(str(s) for s in states))
        object.__setattr__(self, "actuators", tuple(str(a) for a in actuators))
        object.__setattr__(
            self, "sensors", tuple(Sensor(str(n), p) for n, p in sensors)
        )
        object.__setattr__(self, "w_edges", _as_name_pairs(w_edges))
        object.__setattr__(self, "b_edges", _as_name_pairs(b_edges))
        object.__setattr__(self, "c_edges", _as_name_pairs(c_edges))
        self._validate()

    def _validate(self) -> None:
        if not self.states:
            raise InvalidSystemError("a system needs at least one state")
        if not self.sensors:
            raise InvalidSystemError("a system needs at least one sensor")

        seen: set[str] = set()
        for name in (*self.states, *self.actuators, *(s.name for s in self.sensors)):
            if name in seen:
                raise DuplicateNameError(f"name declared twice: {name!r}")
            seen.add(name)
        # Derived attack-vertex names must stay resolvable alongside the
        # declared ones.
        for s in self.sensors:
            if not isinstance(s.protected, bool):
                raise InvalidSystemError(
                    f"protected flag of sensor {s.name!r} must be a bool, got {s.protected!r}"
                )
            derived = ATTACK_NAME_PREFIX + s.name
            if derived in seen:
                raise DuplicateNameError(
                    f"name {derived!r} collides with the attack vertex of sensor {s.name!r}"
                )

        states = set(self.states)
        actuators = set(self.actuators)
        sensors = {s.name for s in self.sensors}
        for src, dst in self.w_edges:
            if src not in states:
                raise DanglingEndpointError(f"w edge from undeclared state {src!r}")
            if dst not in states:
                raise DanglingEndpointError(f"w edge to undeclared state {dst!r}")
        for src, dst in self.b_edges:
            if src not in actuators:
                raise DanglingEndpointError(f"b edge from undeclared actuator {src!r}")
            if dst not in states:
                raise DanglingEndpointError(f"b edge to undeclared state {dst!r}")
        for src, dst in self.c_edges:
            if src not in states:
                raise DanglingEndpointError(f"c edge from undeclared state {src!r}")
            if dst not in sensors:
                raise DanglingEndpointError(f"c edge to undeclared sensor {dst!r}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actuators(self) -> int:
        return len(self.actuators)

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.states)}

    @cached_property
    def actuator_index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.actuators)}

    @cached_property
    def sensor_index(self) -> dict[str, int]:
        return {s.name: k for k, s in enumerate(self.sensors)}

    @property
    def unprotected_sensors(self) -> tuple[int, ...]:
        """Ordinals of sensors an attacker may compromise, in declaration order."""
        return tuple(k for k, s in enumerate(self.sensors) if not s.protected)

    @property
    def attack_width(self) -> int:
        """Number of attackable components (actuators plus unprotected sensors)."""
        return self.n_actuators + len(self.unprotected_sensors)

    def with_protected(self, *names: str) -> "StructuredSystem":
        """Return a copy with the named sensors additionally marked protected."""
        extra = set(names)
        unknown = extra - {s.name for s in self.sensors}
        if unknown:
            raise UnknownVertexError(f"not a sensor: {sorted(unknown)[0]!r}")
        return StructuredSystem(
            states=self.states,
            actuators=self.actuators,
            sensors=tuple(
                Sensor(s.name, s.protected or s.name in extra) for s in self.sensors
            ),
            w_edges=self.w_edges,
            b_edges=self.b_edges,
            c_edges=self.c_edges,
        )


@dataclass(frozen=True)
class AttackGraph:
    """Directed graph over state, actuator, sensor, and sensor-attack vertices.

    ``attack_set`` lists the attackable components: actuators in declaration
    order, then one attack vertex per unprotected sensor in sensor
    declaration order.  ``targets`` is the full sensor set (protected
    sensors still constrain detectability).  All fields are canonical
    tuples, so equal graphs compare and hash equal.
    """

    state_names: tuple[str, ...]
    actuator_names: tuple[str, ...]
    sensor_names: tuple[str, ...]
    protected: tuple[bool, ...]
    edges: tuple[Edge, ...]
    attack_set: tuple[VertexId, ...]
    targets: tuple[VertexId, ...]

    def __post_init__(self):
        if len(self.protected) != len(self.sensor_names):
            raise InvalidSystemError("one protected flag per sensor required")
        known = self.vertex_set
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise UnknownVertexError(f"edge endpoint outside graph: {src} -> {dst}")

    @cached_property
    def vertices(self) -> tuple[VertexId, ...]:
        """All vertices in canonical (kind, ordinal) order."""
        out = [VertexId(VertexKind.STATE, k) for k in range(len(self.state_names))]
        out += [VertexId(VertexKind.ACTUATOR, k) for k in range(len(self.actuator_names))]
        out += [VertexId(VertexKind.SENSOR, k) for k in range(len(self.sensor_names))]
        out += [
            VertexId(VertexKind.SENSOR_ATTACK, k)
            for k, is_protected in enumerate(self.protected)
            if not is_protected
        ]
        return tuple(out)

    @cached_property
    def vertex_set(self) -> frozenset[VertexId]:
        return frozenset(self.vertices)

    @cached_property
    def successors(self) -> dict[VertexId, tuple[VertexId, ...]]:
        adj: dict[VertexId, list[VertexId]] = {v: [] for v in self.vertices}
        for src, dst in self.edges:
            adj[src].append(dst)
        return {v: tuple(sorted(out)) for v, out in adj.items()}

    def name_of(self, v: VertexId) -> str:
        try:
            if v.kind == VertexKind.STATE:
                return self.state_names[v.ordinal]
            if v.kind == VertexKind.ACTUATOR:
                return self.actuator_names[v.ordinal]
            if v.kind == VertexKind.SENSOR:
                return self.sensor_names[v.ordinal]
            if v.kind == VertexKind.SENSOR_ATTACK:
                return ATTACK_NAME_PREFIX + self.sensor_names[v.ordinal]
        except IndexError:
            pass
        raise UnknownVertexError(f"no such vertex: {v}")

    @cached_property
    def _name_table(self) -> dict[str, VertexId]:
        return {self.name_of(v): v for v in self.vertices}

    def vertex_named(self, name: str) -> VertexId:
        try:
            return self._name_table[name]
        except KeyError:
            raise UnknownVertexError(f"no vertex named {name!r}") from None


def build_attack_graph(system: StructuredSystem) -> AttackGraph:
    """Translate a structured system into its attack graph.

    Adds one dedicated attack vertex per unprotected sensor, with a single
    edge into that sensor, and rewrites all name-keyed edges to positional
    vertex ids.  Deterministic: identical systems yield identical graphs.
    """
    si, ai, yi = system.state_index, system.actuator_index, system.sensor_index
    edges: list[Edge] = []
    for src, dst in system.w_edges:
        edges.append(
            (VertexId(VertexKind.STATE, si[src]), VertexId(VertexKind.STATE, si[dst]))
        )
    for src, dst in system.b_edges:
        edges.append(
            (VertexId(VertexKind.ACTUATOR, ai[src]), VertexId(VertexKind.STATE, si[dst]))
        )
    for src, dst in system.c_edges:
        edges.append(
            (VertexId(VertexKind.STATE, si[src]), VertexId(VertexKind.SENSOR, yi[dst]))
        )
    for k in system.unprotected_sensors:
        edges.append(
            (VertexId(VertexKind.SENSOR_ATTACK, k), VertexId(VertexKind.SENSOR, k))
        )

    attack_set = tuple(
        VertexId(VertexKind.ACTUATOR, k) for k in range(system.n_actuators)
    ) + tuple(VertexId(VertexKind.SENSOR_ATTACK, k) for k in system.unprotected_sensors)

    return AttackGraph(
        state_names=system.states,
        actuator_names=system.actuators,
        sensor_names=tuple(s.name for s in system.sensors),
        protected=tuple(s.protected for s in system.sensors),
        edges=tuple(sorted(edges)),
        attack_set=attack_set,
        targets=tuple(VertexId(VertexKind.SENSOR, k) for k in range(system.n_sensors)),
    )


@dataclass(frozen=True)
class AssumptionViolation:
    """One non-degeneracy violation: a dangling actuator or an unobserved state."""

    kind: str  # "actuator-dangling" | "state-unobserved"
    vertex: VertexId
    name: str


def validate_assumptions(graph: AttackGraph) -> list[AssumptionViolation]:
    """Check the non-degeneracy assumptions; empty list means both hold.

    (i) every actuator drives at least one state, and (ii) every state has
    a directed path to some sensor.  Violations are warnings, not errors:
    index computations remain meaningful on violating graphs (a dangling
    actuator simply gets index 1).
    """
    violations: list[AssumptionViolation] = []
    for k in range(len(graph.actuator_names)):
        v = VertexId(VertexKind.ACTUATOR, k)
        if not graph.successors.get(v, ()):
            violations.append(AssumptionViolation("actuator-dangling", v, graph.name_of(v)))

    # Reverse reachability from the sensors.
    predecessors: dict[VertexId, list[VertexId]] = {v: [] for v in graph.vertices}
    for src, dst in graph.edges:
        predecessors[dst].append(src)
    reached: set[VertexId] = set()
    frontier = [VertexId(VertexKind.SENSOR, k) for k in range(len(graph.sensor_names))]
    while frontier:
        v = frontier.pop()
        if v in reached:
            continue
        reached.add(v)
        frontier.extend(predecessors[v])
    for k in range(len(graph.state_names)):
        v = VertexId(VertexKind.STATE, k)
        if v not in reached:
            violations.append(AssumptionViolation("state-unobserved", v, graph.name_of(v)))
    return violations


def random_structured_system(
    seed: int,
    *,
    max_states: int = 8,
    max_actuators: int = 3,
    max_sensors: int = 3,
) -> StructuredSystem:
    """Sample a random sparsity pattern, for validation sweeps and tests."""
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    q = rng.randint(1, max_actuators)
    m = rng.randint(1, max_sensors)
    states = tuple(f"x{k + 1}" for k in range(n))
    actuators = tuple(f"u{k + 1}" for k in range(q))
    sensors = tuple(Sensor(f"y{k + 1}", rng.random() < 0.4) for k in range(m))

    w_prob = min(1.0, 1.5 / n)
    w_edges = {
        (a, b) for a in states for b in states if rng.random() < w_prob
    }
    b_edges = {
        (u, x) for u in actuators for x in states if rng.random() < min(1.0, 1.4 / n)
    }
    c_edges = {
        (x, s.name) for x in states for s in sensors if rng.random() < min(1.0, 1.4 / n)
    }

    return StructuredSystem(
        states=states,
        actuators=actuators,
        sensors=sensors,
        w_edges=w_edges,
        b_edges=b_edges,
        c_edges=c_edges,
    )

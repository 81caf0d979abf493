"""Hypothesis strategies for random digraphs and sparsity patterns, and fixed families of systems."""

from __future__ import annotations

from hypothesis import strategies as st

from secindex.model import AttackGraph, Sensor, StructuredSystem, VertexId, VertexKind


def state_only_graph(n: int, arcs: set[tuple[int, int]]) -> AttackGraph:
    """A bare digraph wrapped as an attack graph of state vertices."""
    return AttackGraph(
        state_names=tuple(f"v{k}" for k in range(n)),
        actuator_names=(),
        sensor_names=(),
        protected=(),
        edges=tuple(
            sorted(
                (VertexId(VertexKind.STATE, a), VertexId(VertexKind.STATE, b))
                for a, b in arcs
            )
        ),
        attack_set=(),
        targets=(),
    )


@st.composite
def digraph_instances(draw, max_vertices: int = 7, max_terminals: int = 4):
    """(graph, sources, targets) with sparse random arcs; sets may overlap."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    all_arcs = [(a, b) for a in range(n) for b in range(n)]
    arcs = draw(st.sets(st.sampled_from(all_arcs), max_size=2 * n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    sources = draw(st.sets(vertex, max_size=max_terminals))
    targets = draw(st.sets(vertex, max_size=max_terminals))
    graph = state_only_graph(n, arcs)

    def to_ids(ordinals):
        return frozenset(VertexId(VertexKind.STATE, k) for k in ordinals)

    return graph, to_ids(sources), to_ids(targets)


@st.composite
def structured_systems(
    draw,
    max_states: int = 5,
    max_actuators: int = 3,
    max_sensors: int = 3,
    ensure_assumptions: bool = False,
    require_unprotected: bool = False,
):
    n = draw(st.integers(min_value=1, max_value=max_states))
    q = draw(st.integers(min_value=1 if ensure_assumptions else 0, max_value=max_actuators))
    m = draw(st.integers(min_value=1, max_value=max_sensors))
    states = tuple(f"x{k + 1}" for k in range(n))
    actuators = tuple(f"u{k + 1}" for k in range(q))
    flags = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    if require_unprotected and all(flags):
        flags[draw(st.integers(min_value=0, max_value=m - 1))] = False
    sensors = tuple(Sensor(f"y{k + 1}", flags[k]) for k in range(m))

    w_pairs = [(a, b) for a in states for b in states]
    b_pairs = [(u, x) for u in actuators for x in states]
    c_pairs = [(x, s.name) for x in states for s in sensors]
    w_edges = set(draw(st.sets(st.sampled_from(w_pairs), max_size=2 * n)))
    b_edges = set(draw(st.sets(st.sampled_from(b_pairs), max_size=2 * q))) if b_pairs else set()
    c_edges = set(draw(st.sets(st.sampled_from(c_pairs), max_size=n + m)))

    if ensure_assumptions:
        for u in actuators:
            if not any(src == u for src, _ in b_edges):
                x = states[draw(st.integers(min_value=0, max_value=n - 1))]
                b_edges.add((u, x))
        observed = {src for src, _ in c_edges}
        changed = True
        while changed:
            changed = False
            for src, dst in w_edges:
                if dst in observed and src not in observed:
                    observed.add(src)
                    changed = True
        for x in states:
            if x not in observed:
                y = sensors[draw(st.integers(min_value=0, max_value=m - 1))].name
                c_edges.add((x, y))
                observed.add(x)

    return StructuredSystem(
        states=states,
        actuators=actuators,
        sensors=sensors,
        w_edges=w_edges,
        b_edges=b_edges,
        c_edges=c_edges,
    )


@st.composite
def systems_with_loops_and_coloops(draw, max_extra: int = 2):
    """``structured_systems`` plus actuators that reach no sensor or a private one.

    A silent actuator drives a state no sensor reads; a private one drives a
    fresh state read only by a fresh sensor, which may itself be attackable.
    """
    base = draw(structured_systems(max_states=4, max_actuators=3, max_sensors=2))
    silent = draw(st.integers(min_value=0, max_value=max_extra))
    private = draw(st.integers(min_value=0, max_value=max_extra))
    protected = draw(st.lists(st.booleans(), min_size=private, max_size=private))
    return StructuredSystem(
        states=base.states
        + tuple(f"s{k}" for k in range(silent))
        + tuple(f"p{k}" for k in range(private)),
        actuators=base.actuators
        + tuple(f"v{k}" for k in range(silent))
        + tuple(f"w{k}" for k in range(private)),
        sensors=base.sensors + tuple(Sensor(f"z{k}", protected[k]) for k in range(private)),
        w_edges=base.w_edges,
        b_edges=base.b_edges
        | {(f"v{k}", f"s{k}") for k in range(silent)}
        | {(f"w{k}", f"p{k}") for k in range(private)},
        c_edges=base.c_edges | {(f"p{k}", f"z{k}") for k in range(private)},
    )


def parallel_pairs(h):
    """h states, each driven by two actuators and read by its own protected sensor.

    The core is all 2h actuators, of rank h, and every index is 2.
    """
    states = [f"x{k}" for k in range(1, h + 1)]
    return StructuredSystem(
        states=states,
        actuators=[f"u{k}" for k in range(1, 2 * h + 1)],
        sensors=[Sensor(f"y{k}", True) for k in range(1, h + 1)],
        b_edges=[(f"u{k}", states[(k - 1) // 2]) for k in range(1, 2 * h + 1)],
        c_edges=[(x, f"y{k}") for k, x in enumerate(states, 1)],
    )


def everyone_reads_everything(width, sensors):
    """``width`` actuators on their own states, each read by all ``sensors`` protected sensors.

    The core is every actuator, of rank ``sensors``, and every index is
    ``sensors`` + 1.
    """
    states = [f"x{k}" for k in range(1, width + 1)]
    return StructuredSystem(
        states=states,
        actuators=[f"u{k}" for k in range(1, width + 1)],
        sensors=[Sensor(f"y{k}", True) for k in range(1, sensors + 1)],
        b_edges=[(f"u{k}", x) for k, x in enumerate(states, 1)],
        c_edges=[(x, f"y{k}") for x in states for k in range(1, sensors + 1)],
    )

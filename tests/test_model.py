import pytest
from hypothesis import given

from secindex.model import (
    AttackGraph,
    DanglingEndpointError,
    DuplicateNameError,
    InvalidSystemError,
    Sensor,
    StructuredSystem,
    UnknownVertexError,
    VertexId,
    VertexKind,
    build_attack_graph,
    random_structured_system,
    validate_assumptions,
)

from .strategies import structured_systems


def test_chain_attack_graph_layout(chain_graph):
    assert [chain_graph.name_of(v) for v in chain_graph.attack_set] == ["u1", "u2", "a_y1"]
    assert [chain_graph.name_of(v) for v in chain_graph.targets] == ["y1", "y2", "y3"]
    assert len(chain_graph.vertices) == 10
    assert len(chain_graph.edges) == 9
    attack_edge = (VertexId(VertexKind.SENSOR_ATTACK, 0), VertexId(VertexKind.SENSOR, 0))
    assert attack_edge in chain_graph.edges


def test_sensor_attack_vertices_are_dedicated(chain_graph):
    for v in chain_graph.vertices:
        if v.kind != VertexKind.SENSOR_ATTACK:
            continue
        out = chain_graph.successors[v]
        assert out == (VertexId(VertexKind.SENSOR, v.ordinal),)
        assert all(dst != v for _, dst in chain_graph.edges)


def test_actuators_no_incoming_sensors_no_outgoing(chain_graph, collider_graph):
    for graph in (chain_graph, collider_graph):
        for src, dst in graph.edges:
            assert dst.kind != VertexKind.ACTUATOR
            assert src.kind != VertexKind.SENSOR


def test_all_sensors_protected_drops_attack_vertices(chain_system):
    locked = chain_system.with_protected("y1")
    graph = build_attack_graph(locked)
    assert [graph.name_of(v) for v in graph.attack_set] == ["u1", "u2"]
    assert all(v.kind == VertexKind.ACTUATOR for v in graph.attack_set)


def test_collider_attack_set(collider_graph):
    assert [collider_graph.name_of(v) for v in collider_graph.attack_set] == ["u1", "u2", "u3"]
    assert not any(v.kind == VertexKind.SENSOR_ATTACK for v in collider_graph.vertices)


def test_build_is_deterministic(chain_system):
    assert build_attack_graph(chain_system) == build_attack_graph(chain_system)


def test_vertex_names_round_trip(chain_graph):
    for v in chain_graph.vertices:
        assert chain_graph.vertex_named(chain_graph.name_of(v)) == v
    with pytest.raises(UnknownVertexError):
        chain_graph.vertex_named("u9")


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateNameError, match="x1"):
        StructuredSystem(states=["x1", "x1"], sensors=[("y1", False)])


def test_name_colliding_with_attack_vertex_rejected():
    with pytest.raises(DuplicateNameError, match="a_y1"):
        StructuredSystem(states=["x1", "a_y1"], sensors=[("y1", False)])


def test_dangling_endpoints_rejected():
    with pytest.raises(DanglingEndpointError, match="x9"):
        StructuredSystem(states=["x1"], sensors=[("y1", False)], w_edges=[("x1", "x9")])
    with pytest.raises(DanglingEndpointError, match="u7"):
        StructuredSystem(states=["x1"], sensors=[("y1", False)], b_edges=[("u7", "x1")])
    with pytest.raises(DanglingEndpointError, match="y9"):
        StructuredSystem(states=["x1"], sensors=[("y1", False)], c_edges=[("x1", "y9")])


def test_empty_systems_rejected():
    with pytest.raises(InvalidSystemError):
        StructuredSystem(states=[], sensors=[("y1", False)])
    with pytest.raises(InvalidSystemError):
        StructuredSystem(states=["x1"], sensors=[])


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_non_bool_sensor_flag_rejected(flag):
    # bool("false") is True: coercing would protect the sensor silently.
    with pytest.raises(InvalidSystemError, match="y1"):
        StructuredSystem(states=["x1"], sensors=[("y1", flag)])


def test_with_protected_unknown_sensor(chain_system):
    with pytest.raises(UnknownVertexError):
        chain_system.with_protected("x1")


def test_assumptions_hold_on_fixtures(chain_graph, collider_graph):
    assert validate_assumptions(chain_graph) == []
    assert validate_assumptions(collider_graph) == []


def test_unobserved_state_reported():
    system = StructuredSystem(
        states=["x1", "x5"],
        actuators=["u1"],
        sensors=[("y1", False)],
        b_edges=[("u1", "x1")],
        c_edges=[("x1", "y1")],
    )
    violations = validate_assumptions(build_attack_graph(system))
    assert len(violations) == 1
    assert violations[0].kind == "state-unobserved"
    assert violations[0].name == "x5"


def test_dangling_actuator_reported():
    system = StructuredSystem(
        states=["x1"],
        actuators=["u1", "u3"],
        sensors=[("y1", False)],
        b_edges=[("u1", "x1")],
        c_edges=[("x1", "y1")],
    )
    violations = validate_assumptions(build_attack_graph(system))
    assert [(v.kind, v.name) for v in violations] == [("actuator-dangling", "u3")]


def test_state_observed_through_chain_is_fine():
    system = StructuredSystem(
        states=["x1", "x2"],
        sensors=[("y1", False)],
        w_edges=[("x2", "x1")],
        c_edges=[("x1", "y1")],
    )
    assert validate_assumptions(build_attack_graph(system)) == []


@given(structured_systems())
def test_edge_count_matches_free_parameters(system):
    graph = build_attack_graph(system)
    expected = (
        len(system.w_edges)
        + len(system.b_edges)
        + len(system.c_edges)
        + len(system.unprotected_sensors)
    )
    assert len(graph.edges) == expected
    assert len(graph.attack_set) == system.attack_width


@given(structured_systems())
def test_attack_set_ordering_actuators_then_sensors(system):
    graph = build_attack_graph(system)
    kinds = [v.kind for v in graph.attack_set]
    assert kinds == sorted(kinds)  # actuators strictly before sensor attacks
    ordinals_by_kind = {}
    for v in graph.attack_set:
        ordinals_by_kind.setdefault(v.kind, []).append(v.ordinal)
    for ordinals in ordinals_by_kind.values():
        assert ordinals == sorted(ordinals)


def test_random_structured_system_is_deterministic():
    assert random_structured_system(42) == random_structured_system(42)


def test_attack_graph_rejects_foreign_edges():
    with pytest.raises(UnknownVertexError):
        AttackGraph(
            state_names=("x1",),
            actuator_names=(),
            sensor_names=(),
            protected=(),
            edges=((VertexId(VertexKind.STATE, 0), VertexId(VertexKind.STATE, 5)),),
            attack_set=(),
            targets=(),
        )


def test_sensor_tuple_coercion():
    system = StructuredSystem(states=["x1"], sensors=[("y1", True)])
    assert system.sensors == (Sensor("y1", True),)
    assert system.unprotected_sensors == ()

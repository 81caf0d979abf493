import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from secindex.index import all_indices
from secindex.io import (
    DocumentError,
    DocumentSyntaxError,
    DuplicateEdgeError,
    MalformedFieldError,
    SchemaVersionError,
    UnknownFieldError,
    emit_report,
    emit_system,
    export_dot,
    parse_system,
)
from secindex.linking import Linking, find_max_linking
from secindex.model import (
    AttackGraph,
    DanglingEndpointError,
    DuplicateNameError,
    InvalidSystemError,
    VertexId,
    VertexKind,
    build_attack_graph,
)

from .conftest import FIXTURES
from .strategies import structured_systems

GOLDEN = Path(__file__).resolve().parent / "golden"

MINIMAL_DOC = """
{
  "schema_version": "1",
  "states": ["x1"],
  "sensors": [{"name": "y1", "protected": true}]
}
"""


def test_parse_chain_fixture(chain_system):
    assert chain_system.n_states == 4
    assert chain_system.n_actuators == 2
    assert chain_system.n_sensors == 3
    assert chain_system.unprotected_sensors == (0,)
    assert ("x2", "x3") in chain_system.w_edges


def test_parse_minimal_document():
    system = parse_system(MINIMAL_DOC)
    assert system.n_states == 1
    assert system.attack_width == 0
    graph = build_attack_graph(system)
    assert graph.edges == ()


def test_dangling_endpoint_named():
    doc = json.loads(MINIMAL_DOC)
    doc["edges"] = {"state_to_state": [["x1", "x9"]]}
    with pytest.raises(DanglingEndpointError, match="x9"):
        parse_system(json.dumps(doc))


def test_duplicate_name_detected():
    doc = json.loads(MINIMAL_DOC)
    doc["states"] = ["x1", "x1"]
    with pytest.raises(DuplicateNameError, match="x1"):
        parse_system(json.dumps(doc))


def test_duplicate_edge_detected():
    doc = json.loads(MINIMAL_DOC)
    doc["states"] = ["x1", "x2"]
    doc["edges"] = {"state_to_state": [["x1", "x2"], ["x1", "x2"]]}
    with pytest.raises(DuplicateEdgeError):
        parse_system(json.dumps(doc))


def test_syntax_error_reported():
    with pytest.raises(DocumentSyntaxError):
        parse_system("{not json")


def test_deeply_nested_document_is_a_syntax_error():
    with pytest.raises(DocumentSyntaxError, match="nested too deeply"):
        parse_system("[" * 200000)


def test_oversized_integer_is_a_syntax_error():
    with pytest.raises(DocumentSyntaxError, match="integer string conversion"):
        parse_system('{"states": ' + "1" * 5000 + "}")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _slots(node, path=()):
    """Every path into a JSON tree, the root's empty path first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _slots(value, (*path, key))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _slots(value, (*path, k))


@st.composite
def mutated_documents(draw):
    """The chain fixture with values replaced or deleted, then optionally spliced as text."""
    doc = json.loads((FIXTURES / "chain.json").read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_slots(doc))))
        value = draw(json_values)
        if not path:
            doc = value
            continue
        parent = reduce(getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    text = json.dumps(doc)
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=0, max_value=len(text)))
        dropped = draw(st.integers(min_value=0, max_value=4))
        text = text[:cut] + draw(st.text(max_size=4)) + text[cut + dropped :]
    return text


def _parse_or_reject(text: str) -> None:
    try:
        parse_system(text)
    except (DocumentError, InvalidSystemError):
        pass  # the only failures a document may cause


@given(st.text())
@example('{"states": ' + "1" * 5000 + "}")
def test_arbitrary_text_raises_only_document_errors(text):
    _parse_or_reject(text)


@given(mutated_documents())
def test_mutated_documents_raise_only_document_errors(text):
    _parse_or_reject(text)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(flux="?"),
        lambda d: d["edges"].update(sensor_to_state=[]),
        lambda d: d["sensors"][0].update(secure=True),
    ],
)
def test_unknown_fields_rejected(mutate):
    doc = json.loads(MINIMAL_DOC)
    doc.setdefault("edges", {})
    mutate(doc)
    with pytest.raises(UnknownFieldError):
        parse_system(json.dumps(doc))


def test_schema_version_checked():
    doc = json.loads(MINIMAL_DOC)
    doc["schema_version"] = "2"
    with pytest.raises(SchemaVersionError):
        parse_system(json.dumps(doc))
    del doc["schema_version"]
    with pytest.raises(SchemaVersionError):
        parse_system(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__("states", "x1"),
        lambda d: d.__setitem__("sensors", ["y1"]),
        lambda d: d["sensors"][0].__setitem__("protected", "yes"),
        lambda d: d.__setitem__("edges", {"state_to_state": [["x1"]]}),
        lambda d: d.__setitem__("edges", {"state_to_state": "x1,x1"}),
        lambda d: d.__setitem__("description", 5),
    ],
)
def test_malformed_fields_rejected(mutate):
    doc = json.loads(MINIMAL_DOC)
    mutate(doc)
    with pytest.raises(MalformedFieldError):
        parse_system(json.dumps(doc))


def test_top_level_must_be_object():
    with pytest.raises(MalformedFieldError):
        parse_system("[1, 2]")


def test_round_trip_fixtures(chain_system, collider_system):
    for system in (chain_system, collider_system):
        reparsed = parse_system(emit_system(system))
        assert reparsed == system
        # Graphs rebuilt from the round-tripped document keep identical
        # orderings, not just isomorphism.
        assert build_attack_graph(reparsed) == build_attack_graph(system)


@given(structured_systems())
def test_round_trip_random_systems(system):
    assert parse_system(emit_system(system)) == system


def test_report_golden_file(chain_graph):
    produced = emit_report(all_indices(chain_graph))
    expected = (GOLDEN / "chain_report.json").read_text(encoding="utf-8")
    assert produced == expected


def test_report_is_byte_stable(collider_graph):
    report = all_indices(collider_graph)
    assert emit_report(report) == emit_report(report)


def test_report_structure_for_collider(collider_graph):
    doc = json.loads(emit_report(all_indices(collider_graph)))
    entries = {entry["name"]: entry for entry in doc["results"]}
    assert entries["u1"]["index"] == "inf"
    assert "witness" not in entries["u1"]
    assert entries["u2"]["index"] == 2
    assert entries["u2"]["witness"] == ["u2", "u3"]
    assert doc["graph"]["attack_vertices"] == 0
    assert doc["errors"] == []


def test_report_for_empty_attack_set():
    system = parse_system(MINIMAL_DOC)
    doc = json.loads(emit_report(all_indices(build_attack_graph(system))))
    assert doc["results"] == []


def test_export_dot_counts(chain_graph):
    dot = export_dot(chain_graph)
    node_lines = [line for line in dot.splitlines() if "shape=" in line]
    edge_lines = [line for line in dot.splitlines() if " -> " in line]
    assert len(node_lines) == 10
    assert len(edge_lines) == 9
    assert dot == export_dot(chain_graph)


def test_export_dot_highlights_linking(chain_graph):
    linking = find_max_linking(
        chain_graph, {chain_graph.vertex_named("a_y1")}, chain_graph.targets
    )
    dot = export_dot(chain_graph, highlight=linking)
    assert '"a_y1" -> "y1" [color=crimson, penwidth=2.0];' in dot
    assert dot.count("crimson") == 1


def test_export_dot_rejects_foreign_highlight(chain_graph):
    foreign = Linking([(VertexId(VertexKind.STATE, 42),)])
    with pytest.raises(Exception, match="highlight"):
        export_dot(chain_graph, highlight=foreign)
    not_an_edge = Linking(
        [(chain_graph.vertex_named("u1"), chain_graph.vertex_named("y3"))]
    )
    with pytest.raises(Exception, match="highlight"):
        export_dot(chain_graph, highlight=not_an_edge)


def test_export_dot_empty_graph():
    empty = AttackGraph(
        state_names=(),
        actuator_names=(),
        sensor_names=(),
        protected=(),
        edges=(),
        attack_set=(),
        targets=(),
    )
    dot = export_dot(empty)
    body = dot.splitlines()[1:-1]
    assert all("shape=" not in line and "->" not in line for line in body)


def test_fixture_files_carry_schema_version():
    for name in ("chain.json", "collider.json"):
        doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        assert doc["schema_version"] == "1"

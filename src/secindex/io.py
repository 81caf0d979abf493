"""File formats: system documents, index reports, DOT export.

Systems are stored as a small JSON tree keyed by component names, since a
sparsity pattern is naturally an edge list and names review better than
matrix indices.  Reports are JSON with a stable key order, so they are
safe to diff and to pin as golden files.  Infinite indices serialize as
the string "inf", never as a sentinel number.
"""

from __future__ import annotations

import json
from typing import Any

from secindex.index import IndexReport
from secindex.linking import Linking
from secindex.model import (
    AttackGraph,
    Sensor,
    StructuredSystem,
    UnknownVertexError,
    VertexId,
    validate_assumptions,
)

SCHEMA_VERSION = "1"

_TOP_LEVEL_FIELDS = {"schema_version", "description", "states", "actuators", "sensors", "edges"}
_SENSOR_FIELDS = {"name", "protected"}
_EDGE_FIELDS = {"state_to_state", "actuator_to_state", "state_to_sensor"}


class DocumentError(ValueError):
    """Base class for system-document problems."""


class DocumentSyntaxError(DocumentError):
    """The document is not well-formed JSON."""


class UnknownFieldError(DocumentError):
    """The document carries a field the schema does not define."""


class SchemaVersionError(DocumentError):
    """The document declares an unsupported schema version."""


class MalformedFieldError(DocumentError):
    """A field has the wrong shape or type."""


class DuplicateEdgeError(DocumentError):
    """The same edge is listed twice."""


def parse_system(text: str) -> StructuredSystem:
    """Parse and validate a system document.

    Raises a distinct error kind per failure mode; model-level validation
    (duplicate names, dangling endpoints) propagates unchanged.
    """
    try:
        raw = json.loads(text)
    except RecursionError:
        raise DocumentSyntaxError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise DocumentSyntaxError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise MalformedFieldError("top level must be an object")
    for key in raw:
        if key not in _TOP_LEVEL_FIELDS:
            raise UnknownFieldError(f"unknown field {key!r}")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(f"unsupported schema_version {version!r}")
    if not isinstance(raw.get("description", ""), str):
        raise MalformedFieldError("'description' must be a string")

    states = _name_list(raw, "states")
    actuators = _name_list(raw, "actuators", required=False)
    sensors = _sensor_list(raw)
    edges_raw = raw.get("edges", {})
    if not isinstance(edges_raw, dict):
        raise MalformedFieldError("'edges' must be an object")
    for key in edges_raw:
        if key not in _EDGE_FIELDS:
            raise UnknownFieldError(f"unknown field 'edges.{key}'")
    w_edges = _edge_list(edges_raw, "state_to_state")
    b_edges = _edge_list(edges_raw, "actuator_to_state")
    c_edges = _edge_list(edges_raw, "state_to_sensor")

    return StructuredSystem(
        states=states,
        actuators=actuators,
        sensors=sensors,
        w_edges=w_edges,
        b_edges=b_edges,
        c_edges=c_edges,
    )


def _name_list(raw: dict, field: str, required: bool = True) -> list[str]:
    if field not in raw:
        if required:
            raise MalformedFieldError(f"missing field {field!r}")
        return []
    value = raw[field]
    if not isinstance(value, list) or any(not isinstance(x, str) for x in value):
        raise MalformedFieldError(f"{field!r} must be a list of strings")
    return value


def _sensor_list(raw: dict) -> list[Sensor]:
    value = raw.get("sensors")
    if not isinstance(value, list):
        raise MalformedFieldError("'sensors' must be a list of objects")
    sensors = []
    for k, entry in enumerate(value):
        where = f"sensors[{k}]"
        if not isinstance(entry, dict):
            raise MalformedFieldError(f"{where} must be an object")
        for key in entry:
            if key not in _SENSOR_FIELDS:
                raise UnknownFieldError(f"unknown field '{where}.{key}'")
        name = entry.get("name")
        if not isinstance(name, str):
            raise MalformedFieldError(f"{where} needs a string 'name'")
        protected = entry.get("protected", False)
        if not isinstance(protected, bool):
            raise MalformedFieldError(f"'{where}.protected' must be a boolean")
        sensors.append(Sensor(name, protected))
    return sensors


def _edge_list(edges_raw: dict, field: str) -> list[tuple[str, str]]:
    value = edges_raw.get(field, [])
    if not isinstance(value, list):
        raise MalformedFieldError(f"'edges.{field}' must be a list of pairs")
    seen: set[tuple[str, str]] = set()
    out = []
    for k, entry in enumerate(value):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(not isinstance(x, str) for x in entry)
        ):
            raise MalformedFieldError(f"'edges.{field}[{k}]' must be a [from, to] string pair")
        pair = (entry[0], entry[1])
        if pair in seen:
            raise DuplicateEdgeError(f"edge listed twice in 'edges.{field}': {pair}")
        seen.add(pair)
        out.append(pair)
    return out


def emit_system(system: StructuredSystem) -> str:
    """Serialize a system to the document format; inverse of parse_system."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "states": list(system.states),
        "actuators": list(system.actuators),
        "sensors": [{"name": s.name, "protected": s.protected} for s in system.sensors],
        "edges": {
            "state_to_state": [list(e) for e in sorted(system.w_edges)],
            "actuator_to_state": [list(e) for e in sorted(system.b_edges)],
            "state_to_sensor": [list(e) for e in sorted(system.c_edges)],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_report(report: IndexReport) -> str:
    """Serialize an index report with stable key order.

    Finite indices are integers, infinite ones the string "inf"; the
    witness key is present only for finite indices, and "errors" is
    always empty.  Byte-stable for a fixed report.
    """
    graph = report.graph
    results: list[dict[str, Any]] = []
    for r in report.results:
        entry: dict[str, Any] = {
            "name": graph.name_of(r.component),
            "index": int(r.index) if r.is_finite else "inf",
        }
        if r.witness is not None:
            entry["witness"] = [graph.name_of(v) for v in r.witness]
        entry["subsets_examined"] = r.subsets_examined
        results.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "graph": {
            "states": len(graph.state_names),
            "actuators": len(graph.actuator_names),
            "sensors": len(graph.sensor_names),
            "attack_vertices": sum(1 for p in graph.protected if not p),
            "edges": len(graph.edges),
        },
        "assumption_violations": [
            {"kind": v.kind, "name": v.name} for v in validate_assumptions(graph)
        ],
        "results": results,
        # Always empty: a report is whole or not written.  Schema 1 keeps
        # the key, so pinned reports and digests stay byte-identical.
        "errors": [],
    }
    return json.dumps(doc, indent=2) + "\n"


_NODE_STYLE = {
    0: 'shape=ellipse',                      # states
    1: 'shape=box',                          # actuators
    2: 'shape=ellipse, peripheries=2',       # sensors
    3: 'shape=diamond, style=dashed',        # sensor-attack nodes
}
_HIGHLIGHT = "color=crimson, penwidth=2.0"


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: AttackGraph, highlight: Linking | None = None) -> str:
    """Render the attack graph as a DOT digraph.

    Vertex classes get distinct shapes; when a linking is supplied, its
    edges are drawn highlighted.  Output is deterministic.
    """
    highlighted: set[tuple[VertexId, VertexId]] = set()
    if highlight is not None:
        edge_set = set(graph.edges)
        for path in highlight.paths:
            for v in path:
                if v not in graph.vertex_set:
                    raise UnknownVertexError(f"highlight vertex not in graph: {v}")
            for pair in zip(path, path[1:]):
                if pair not in edge_set:
                    raise UnknownVertexError(f"highlight edge not in graph: {pair}")
                highlighted.add(pair)

    lines = ["digraph attack_structure {", "  rankdir=LR;"]
    for v in graph.vertices:
        lines.append(f"  {_quote(graph.name_of(v))} [{_NODE_STYLE[v.kind]}];")
    for src, dst in graph.edges:
        attrs = f" [{_HIGHLIGHT}]" if (src, dst) in highlighted else ""
        lines.append(f"  {_quote(graph.name_of(src))} -> {_quote(graph.name_of(dst))}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"

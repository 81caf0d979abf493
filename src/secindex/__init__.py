"""Structural actuator security indices for networked control systems."""

from secindex.index import (
    INFINITE,
    IndexReport,
    SecurityIndexResult,
    all_indices,
    is_generically_left_invertible,
    security_index,
)
from secindex.linking import (
    Linking,
    find_max_linking,
    max_linking_size,
    saturated_by_all_max_linkings,
)
from secindex.model import (
    AttackGraph,
    Sensor,
    StructuredSystem,
    VertexId,
    VertexKind,
    build_attack_graph,
    random_structured_system,
    validate_assumptions,
)
from secindex.oracle import (
    RankProbe,
    Realization,
    default_probe,
    generic_normal_rank,
    numeric_index_vector,
    numeric_index_vectors,
    sample_realization,
    transfer_rank,
)

__all__ = [
    "INFINITE",
    "AttackGraph",
    "IndexReport",
    "Linking",
    "RankProbe",
    "Realization",
    "SecurityIndexResult",
    "Sensor",
    "StructuredSystem",
    "VertexId",
    "VertexKind",
    "all_indices",
    "build_attack_graph",
    "default_probe",
    "find_max_linking",
    "generic_normal_rank",
    "is_generically_left_invertible",
    "max_linking_size",
    "numeric_index_vector",
    "numeric_index_vectors",
    "random_structured_system",
    "sample_realization",
    "saturated_by_all_max_linkings",
    "security_index",
    "transfer_rank",
    "validate_assumptions",
]

__version__ = "0.1.0"

"""Security indices of attackable components, by subset enumeration.

The index of a component i is the smallest number of components an
attacker must control so that, for almost every realization of the free
parameters, an attack through i leaves no trace at the sensors.  It
equals the size of the smallest attack subset containing i for which some
maximum linking to the sensor set misses i; if i is essential to every
subset it belongs to, the index is infinite.

The search enumerates subsets by cardinality, lexicographically over
attack-set positions, so the reported witness is the lexicographically
smallest qualifying subset of minimal size.  The cost is combinatorial,
which is why ``security_index`` refuses attack sets wider than its cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from secindex.linking import max_linking_size, saturated_by_all_max_linkings
from secindex.model import AttackGraph, UnknownVertexError, VertexId

DEFAULT_SUBSET_CAP = 20

INFINITE = math.inf


class EnumerationCapError(RuntimeError):
    """The attack set is too large for exhaustive subset enumeration."""

    def __init__(self, width: int, cap: int):
        super().__init__(
            f"attack set has {width} components, above the enumeration cap of {cap}; "
            f"raise the cap explicitly to accept the exponential cost"
        )
        self.width = width
        self.cap = cap


@dataclass(frozen=True)
class SecurityIndexResult:
    """Index of one attackable component, with a witness when finite."""

    component: VertexId
    index: int | float
    witness: tuple[VertexId, ...] | None
    subsets_examined: int

    @property
    def is_finite(self) -> bool:
        return self.index != INFINITE


@dataclass(frozen=True)
class IndexReport:
    """Per-component indices for a whole attack graph; the rest derives from ``graph``."""

    graph: AttackGraph
    results: tuple[SecurityIndexResult, ...]


def first_redundant_subset(
    width: int,
    member: int,
    redundant: Callable[[tuple[int, ...]], bool],
) -> tuple[int | float, tuple[int, ...] | None, int]:
    """Smallest subset of range(width) containing ``member`` that passes ``redundant``.

    Subsets are tried by size, then lexicographically, and handed to
    ``redundant`` as sorted position tuples.  Returns ``(size, positions,
    subsets_examined)``, or ``(INFINITE, None, 2**(width - 1))`` when no
    subset qualifies.
    """
    examined = 0
    for size in range(1, width + 1):
        for positions in itertools.combinations(range(width), size):
            if member not in positions:
                continue
            examined += 1
            if redundant(positions):
                return size, positions, examined
    return INFINITE, None, examined


def classify_columns(singles, deletions, full):
    """Columns settled by a few ranks, and the core left to search.

    ``singles[i, f]``, ``deletions[i, f]`` and ``full[f]`` are the ranks of
    {i}, of A \\ {i} and of the whole attack set A under F rank functions
    (F probe frequencies; F = 1 for the linking size), as numpy arrays of
    shape (w, F), (w, F) and (1, F) or (F,).  Returns three boolean masks
    of length w, for rank functions of matroids:

    - ``infinite``: a coloop (r(A \\ {i}) < r(A)) under some function.  It
      is redundant in no subset there, while any other column is
      redundant in A under every function.
    - ``single``: a loop (r({i}) = 0) under every function; index 1.
    - ``core``: not a loop or a coloop under each function.  Dropping a
      column outside the core from a redundant subset keeps it redundant,
      so no smallest one holds such a column.
    """
    loop = singles == 0
    coloop = deletions < full
    return coloop.any(axis=1), loop.all(axis=1), ~(loop | coloop).all(axis=1)


def security_index(
    graph: AttackGraph, component: VertexId, cap: int = DEFAULT_SUBSET_CAP
) -> SecurityIndexResult:
    """Index of one component, enumerating attack subsets of growing size.

    A subset qualifies when the component is not saturated by all of its
    maximum linkings to the sensors.  Enumeration starts at size 1 so that
    graphs violating the non-degeneracy assumptions still get meaningful
    answers (a dangling actuator has index 1).  Raises
    ``EnumerationCapError`` when the attack set is wider than ``cap``.
    """
    attack_set = graph.attack_set
    if component not in attack_set:
        raise UnknownVertexError(f"not an attackable component: {graph.name_of(component)}")
    if len(attack_set) > cap:
        raise EnumerationCapError(len(attack_set), cap)

    def avoidable(positions: tuple[int, ...]) -> bool:
        subset = tuple(attack_set[k] for k in positions)
        return not saturated_by_all_max_linkings(graph, subset, component)

    size, positions, examined = first_redundant_subset(
        len(attack_set), attack_set.index(component), avoidable
    )
    return SecurityIndexResult(
        component=component,
        index=size,
        witness=None if positions is None else tuple(attack_set[k] for k in positions),
        subsets_examined=examined,
    )


def all_indices(graph: AttackGraph, cap: int = DEFAULT_SUBSET_CAP) -> IndexReport:
    """Indices for every attackable component, in attack-set order.

    Raises ``EnumerationCapError`` when the attack set is wider than ``cap``.
    """
    return IndexReport(
        graph=graph,
        results=tuple(security_index(graph, c, cap) for c in graph.attack_set),
    )


def is_generically_left_invertible(graph: AttackGraph) -> bool:
    """Whether the attack-to-sensor map generically loses no information.

    Holds exactly when the full attack set admits a linking to the sensors
    with one disjoint path per component, and that happens exactly when
    every index is infinite: a full linking of the attack set restricts to
    a full linking of every subset, and a rank-deficient attack set has a
    minimal rank-deficient subset, in which every member is avoidable.
    """
    return max_linking_size(graph, graph.attack_set, graph.targets) == len(graph.attack_set)

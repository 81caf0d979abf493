"""Security indices of attackable components, by a reduced subset search.

The index of a component i is the smallest number of components an
attacker must control so that, for almost every realization of the free
parameters, an attack through i leaves no trace at the sensors.  It
equals the size of the smallest attack subset containing i for which some
maximum linking to the sensor set misses i; if i is essential to every
subset it belongs to, the index is infinite.

Linking size to the sensors is the rank function of a gammoid on the
attack set (Perfect 1968; Mason 1972), and a subset S containing i
qualifies exactly when r(S) = r(S \\ {i}).  The smallest such subsets are
the smallest circuits through i.  So the search first settles i from a
few ranks: a coloop lies on no circuit (infinite index), a loop is a
circuit by itself (index 1).  Otherwise it enumerates only subsets of the
core, the components that are neither loops nor coloops, since no
smallest circuit through i holds any other.  Subsets are tried by
cardinality, lexicographically over attack-set positions, so the
reported witness is the lexicographically smallest qualifying subset of
minimal size.  The cost is still combinatorial, which is why
``security_index`` refuses attack sets wider than its cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

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
    """Index of one attackable component, with a witness when finite.

    ``subsets_examined`` counts the subsets a plain sweep over every
    attack subset, by size and then lexicographically, examines up to
    and including the witness (all 2**(w - 1) subsets holding the
    component when the index is infinite).  The reduced search examines
    far fewer; the count is computed in closed form by
    ``plain_sweep_count``, so reports do not depend on the reduction.
    """

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


def plain_sweep_count(width: int, member: int, positions: tuple[int, ...] | None) -> int:
    """Subsets ``first_redundant_subset(width, member, ...)`` examines to reach ``positions``.

    ``positions`` is a sorted tuple holding ``member``, or None for a sweep
    that accepts nothing (2**(width - 1)).  The k-subsets holding
    ``member`` come after every smaller one, and dropping ``member`` and
    shifting the later positions down by one maps them, in order, onto
    the (k - 1)-subsets of range(width - 1) in lexicographic order.
    """
    if positions is None:
        return 2 ** (width - 1)
    n, k = width - 1, len(positions) - 1
    rest = [p - (p > member) for p in positions if p != member]
    smaller = sum(math.comb(n, s) for s in range(k))
    # Lexicographic rank of ``rest``: the k-subsets of range(n) after it
    # are counted by the combinatorial number system.
    after = sum(math.comb(n - 1 - c, k - j) for j, c in enumerate(rest))
    return smaller + math.comb(n, k) - after


# The graph settled last, with its coloop and loop flags and its core
# positions.  Like ``linking``'s network slot, holding the graph keeps it
# alive, so a new graph is never mistaken for it, and the slot is module
# state, not thread-safe.
_last: tuple[AttackGraph, tuple[list[bool], list[bool], list[int]]] | None = None


def _settled(graph: AttackGraph) -> tuple[list[bool], list[bool], list[int]]:
    """Coloop and loop flags of the attack set, and the core positions.

    From the linking sizes to the sensors of the whole attack set A, of
    each A minus one component and of each single component, computed
    once per graph and classified by ``classify_columns`` with F = 1.
    """
    global _last
    if _last is None or _last[0] is not graph:
        attack_set = graph.attack_set

        def rank(subset: Iterable[VertexId]) -> int:
            return max_linking_size(graph, subset, graph.targets)

        full = rank(attack_set)
        deletions = [rank(attack_set[:k] + attack_set[k + 1 :]) for k in range(len(attack_set))]
        singles = [rank((v,)) for v in attack_set]
        infinite, single, in_core = classify_columns(
            np.array(singles)[:, None], np.array(deletions)[:, None], np.array([full])
        )
        _last = (graph, (infinite.tolist(), single.tolist(), np.flatnonzero(in_core).tolist()))
    return _last[1]


def security_index(
    graph: AttackGraph, component: VertexId, cap: int = DEFAULT_SUBSET_CAP
) -> SecurityIndexResult:
    """Index of one component: settled by a few ranks, else by a sweep of the core.

    The linking sizes of the whole attack set A, of each A minus one
    component and of each single component, classified by
    ``classify_columns`` once per graph, settle a coloop (infinite, no
    witness) and a loop (index 1, witness the component alone).
    Otherwise ``first_redundant_subset`` sweeps the core, where a subset
    qualifies when the component is not saturated by all of its maximum
    linkings to the sensors.  A dangling actuator, which violates the
    non-degeneracy assumptions, is a loop and gets index 1.  Raises
    ``EnumerationCapError`` when the attack set is wider than ``cap``.
    """
    attack_set = graph.attack_set
    if component not in attack_set:
        raise UnknownVertexError(f"not an attackable component: {graph.name_of(component)}")
    width = len(attack_set)
    if width > cap:
        raise EnumerationCapError(width, cap)
    member = attack_set.index(component)
    infinite, single, core = _settled(graph)
    if infinite[member]:
        positions = None
    elif single[member]:
        positions = (member,)
    else:

        def avoidable(core_positions: tuple[int, ...]) -> bool:
            subset = tuple(attack_set[core[k]] for k in core_positions)
            return not saturated_by_all_max_linkings(graph, subset, component)

        _, found, _ = first_redundant_subset(len(core), core.index(member), avoidable)
        positions = tuple(core[k] for k in found)
    return SecurityIndexResult(
        component=component,
        index=INFINITE if positions is None else len(positions),
        witness=None if positions is None else tuple(attack_set[k] for k in positions),
        subsets_examined=plain_sweep_count(width, member, positions),
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

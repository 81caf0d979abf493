"""Security indices of attackable components, from level r of the core.

The index of a component i is the smallest number of components an
attacker must control so that, for almost every realization of the free
parameters, an attack through i leaves no trace at the sensors.  It
equals the size of the smallest attack subset containing i for which some
maximum linking to the sensor set misses i; if i is essential to every
subset it belongs to, the index is infinite.

Linking size to the sensors is the rank function of a gammoid on the
attack set (Perfect 1968; Mason 1972), and a subset S containing i
qualifies exactly when r(S) = r(S \\ {i}).  The smallest such subsets are
the smallest circuits through i.  Both index routes, the structural one
over linking sizes and the numerical oracle over SVD ranks of
transfer-matrix columns, run one engine, ``witness_sets``, on a rank
function given as ranks of whole batches of position sets, for several
independent groups of rank functions at once (one group per
realization).  It first settles each column from a few ranks
(``settle_ranks``, ``classify_columns``): a coloop lies on no circuit
(infinite index), a loop is a circuit by itself (index 1).  The core, the
columns that are neither, has rank r = r(A) less the number of coloops,
and no smallest circuit through a core column holds any other column.
Every circuit is the fundamental circuit of a basis among the core's
r-subsets (level r), so ``circuit_keys`` reads each core column's
smallest circuit off level r, under all the groups that share a core and
r at once.  Circuits are keyed by size, then lexicographically over
attack-set positions, so each witness is the lexicographically smallest
qualifying subset of minimal size.  A core of nullity 1 whose level r is
all bases is a single circuit, the witness of every member.  One loop
ranks a core bottom-up, one subset size at a time from size 2, and keeps
each column's least key (``_level_keys``): ``circuit_keys`` runs it while
the low levels hold fewer sets than level r, and the engine runs it until
every column is resolved for a group whose ranks do not behave as a
matroid's, on that group's own core.  The cost is still combinatorial,
which is why both routes refuse attack sets wider than their cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from secindex.linking import max_linking_size
from secindex.model import AttackGraph, UnknownVertexError, VertexId

DEFAULT_SUBSET_CAP = 20

# Sets of a level compared with their subsets per step, times the rank
# functions of all groups (in ``circuit_keys``, level-r sets times the
# columns outside them times the groups); bounds the memory of the comparison.
COMPARE_CHUNK = 1 << 14

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


def classify_columns(singles, deletions, full):
    """Columns settled by a few ranks, and the core left to search.

    ``singles[i, ..., f]``, ``deletions[i, ..., f]`` and ``full[..., f]``
    are the ranks of {i}, of A \\ {i} and of the whole attack set A under
    F rank functions (F probe frequencies; F = 1 for the linking size), as
    numpy arrays whose last axis runs over the functions and whose middle
    axes, if any, over independent groups of functions (realizations):
    shapes (w, ..., F), (w, ..., F) and (1, ..., F) or (..., F).  Returns
    three boolean masks of shape (w, ...), for rank functions of matroids:

    - ``infinite``: a coloop (r(A \\ {i}) < r(A)) under some function.  It
      is redundant in no subset there, while any other column is
      redundant in A under every function.
    - ``single``: a loop (r({i}) = 0) under every function; index 1.
    - ``core``: neither a loop nor a coloop under some function.  A column
      outside the core is a loop or a coloop under each function, so
      dropping it from a redundant subset keeps it redundant, and no
      smallest one holds such a column.
    """
    loop = singles == 0
    coloop = deletions < full
    return coloop.any(axis=-1), loop.all(axis=-1), ~(loop | coloop).all(axis=-1)


def plain_sweep_count(width: int, member: int, positions: tuple[int, ...] | None) -> int:
    """Subsets a plain sweep for ``member`` examines to reach ``positions``.

    The plain sweep tries every subset of range(width) holding ``member``,
    by size and then lexicographically.  ``positions`` is a sorted tuple
    holding ``member``, or None for a sweep that accepts nothing
    (2**(width - 1)).  The k-subsets holding ``member`` come after every
    smaller one, and dropping ``member`` and shifting the later positions
    down by one maps them, in order, onto the (k - 1)-subsets of
    range(width - 1) in lexicographic order.
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


def settle_ranks(width: int, rank: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, ...]:
    """Ranks of each {k}, of the whole attack set A and of each A \\ {k}.

    ``rank`` is ``circuit_keys``' over attack-set positions; the three
    arrays are (w, G, F), (1, G, F) and (w, G, F), and the singles are
    ranked first.  When r(A) = w under every function, the
    w deletions are not ranked: r(A \\ {k}) <= w - 1 for any rank with
    r(S) <= |S| (linking sizes, SVD counts), so every column is a coloop,
    and w - 1 stands in for each of their ranks.
    """
    every = np.arange(width)
    singles = rank(every[:, None])
    full = rank(every[None, :])
    if (full == width).all():
        return singles, full, np.broadcast_to(full - 1, (width, *full.shape[1:]))
    rest = np.arange(width - 1)
    return singles, full, rank(rest + (rest >= every[:, None]))  # row k: every position but k


def _lex_sets(count: int, size: int) -> np.ndarray:
    """Every ``size``-subset of range(count), one sorted row each, in lexicographic order."""
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(count), size)),
        dtype=np.intp,
        count=math.comb(count, size) * size,
    ).reshape(-1, size)


def _next_level(
    rank: Callable[[np.ndarray], np.ndarray],
    count: int,
    size: int,
    below: np.ndarray,
    row: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank level ``size`` of ``count`` columns and compare it with the level below.

    ``rank`` takes sets of positions in range(count), ``below`` holds the
    (N', G, F) ranks of level ``size`` - 1 and ``row`` its rows by bit
    mask, which are then overwritten with this level's.  Returns the
    level's sets, (N, size), its ranks, (N, G, F), and ``redundant``,
    (N, size, G): under group g, set n has the ranks of set n without its
    j-th member.  The comparison runs in chunks of ``COMPARE_CHUNK`` sets
    times functions.
    """
    sets = _lex_sets(count, size)
    bits = 1 << sets
    masks = bits.sum(axis=1)
    level = rank(sets)
    groups = level.shape[1]
    step = max(1, COMPARE_CHUNK // below[0].size)  # below[0] is (G, F)
    redundant = np.empty((len(sets), size, groups), dtype=bool)
    for start in range(0, len(sets), step):
        part = slice(start, start + step)
        lower = below[row[masks[part, None] - bits[part]]]
        redundant[part] = (lower == level[part, None]).all(axis=3)
    row[masks] = np.arange(len(masks))
    return sets, level, redundant


def _level_keys(
    rank: Callable[[np.ndarray], np.ndarray],
    singles: np.ndarray,
    pending: np.ndarray | slice,
    budget: float = math.inf,
) -> np.ndarray:
    """Least key of a redundant set through each column, per group, from levels 2, 3, ...

    ``rank`` takes sets of positions in range(c), ``singles`` holds their
    ranks, (c, G, F), and ``pending`` indexes the (c, G) keys still to
    resolve: a (c, G) mask, or a mask or slice over the columns.  A set
    is redundant for a member k in group g when it has the ranks of itself
    less k under each of g's functions.  Levels are ranked bottom-up until
    every pending column has a key, or until the sets ranked, with the
    next level, would reach ``budget``; the last level ranked is at most
    c - 1.  Keys are ``circuit_keys``', and each column keeps its least
    one: keys grow with the level, and within a level the least key is the
    lexicographically first set.  Returns (c, G) keys, 0 where no redundant
    set was found.
    """
    count, groups = singles.shape[:2]
    if count < 3 or math.comb(count, 2) >= budget:  # no level to rank
        return np.zeros((count, groups), dtype=np.int64)
    low = (1 << count) - 1
    revbit = 1 << (count - 1 - np.arange(count, dtype=np.int64))
    none = (count + 1) << count  # above every set's key
    best = np.full((count, groups), none)
    row = np.empty(1 << count, dtype=np.intp)  # a set's row in its level, by bit mask
    row[1 << np.arange(count)] = np.arange(count)
    below, ranked = singles, 0
    for size in range(2, count):
        ranked += math.comb(count, size)
        if ranked >= budget or (best[pending] < none).all():
            break
        sets, below, redundant = _next_level(rank, count, size, below, row)
        rows, places, owners = redundant.nonzero()
        set_keys = size << count | low - revbit[sets].sum(axis=1)
        np.minimum.at(best, (sets[rows, places], owners), set_keys[rows])
    return np.where(best < none, best, 0)


def circuit_keys(
    rank: Callable[[np.ndarray], np.ndarray],
    singles: np.ndarray,
    r: int,
    wanted: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """Smallest circuit through each column of a core of rank ``r``, per group, as a key.

    ``rank`` takes N equal-size sets of positions in range(c), one sorted
    row each of an (N, s) array, and returns their ranks as an (N, G, F)
    array: G independent groups (realizations) of F rank functions each,
    every position in each group's core.  ``singles`` holds the positions'
    ranks, (c, G, F).  Returns (c, G) keys, 0 where a column is left
    unresolved.  The search stops once the ``wanted`` columns (all by
    default) are resolved, which can leave the others unresolved.
    A circuit's key is its size << c | (2**c - 1 - revmask), where
    ``revmask`` puts column i on bit c - 1 - i: a smaller key is a smaller
    circuit, and of two circuits of one size the lexicographically first,
    so the least key through a column is its index (``key >> c``) and its
    witness.  The answer comes from the cheaper of two exact routes for a
    matroid with no loop or coloop.  The guard is the bottom-up loop
    (``_level_keys``), with a budget: it ranks levels 2, 3, ... and keeps
    each column's least key over the redundant sets through it, the first
    such set of the first level holding one.  Level r gives every circuit:
    for a basis B (an r-set of rank r) and e outside it, B + e holds one
    circuit, the fundamental circuit
    C(e, B) = {e} + {j in B : B - j + e is a basis}, and every circuit is
    one of these (Oxley, *Matroid Theory*, ch. 1).  The guard runs while
    the sets it has ranked, with the next level, stay fewer than the
    C(c, r) sets of level r; the columns still pending then take their
    least key over the fundamental circuits of level r.  So the sets
    ranked are at most twice those of the cheaper route; at a tie level r
    is ranked, since it settles every column.  At nullity 1 (r = c - 1)
    the guard ranks nothing, and when every level-r set is a basis under
    every function, each C(e, B) is the whole core, whose key every
    pending column takes.  A group whose F functions disagree on some
    level-r set, or a pending column on no fundamental circuit, is left
    unresolved: its ranks are not those of one matroid, and only a full
    sweep defines its answer.
    """
    count, groups = singles.shape[:2]
    if not 0 < r < count:
        return np.zeros((count, groups), dtype=np.int64)
    keys = _level_keys(rank, singles, wanted, math.comb(count, r))
    pending = keys == 0
    if not pending[wanted].any():
        return keys
    sets = _lex_sets(count, r)
    level = rank(sets)
    if r == count - 1 and (level == r).all():
        keys[pending] = count << count
        return keys
    low = (1 << count) - 1
    revbit = 1 << (count - 1 - np.arange(count, dtype=np.int64))
    none = (count + 1) << count  # above every circuit's key
    best = np.full((count, groups), none)
    agree = (level == level[..., :1]).all(axis=(0, 2))
    basis = level[..., 0] == r  # (N, G)
    masks = (1 << sets).sum(axis=1)
    row = np.empty(1 << count, dtype=np.intp)  # a level-r set's row, by bit mask
    row[masks] = np.arange(len(sets))
    inside = (masks[:, None] >> np.arange(count) & 1).astype(bool)  # (N, c)
    outside = (~inside).nonzero()[1].reshape(len(sets), count - r)
    step = max(1, COMPARE_CHUNK // ((count - r) * groups))
    for start in range(0, len(sets), step):
        part = slice(start, start + step)
        # [n, j, e, g]: under group g, B (set n) is a basis and so is B
        # less its j-th member plus its e-th outside column.
        swapped = masks[part, None, None] - (1 << sets[part, :, None]) + (1 << outside[part, None, :])
        exchange = basis[row[swapped]] & basis[part, None, None, :]
        # (n, e, g): the key of C(e, B); none when B is no basis or e a loop.
        size = 1 + exchange.sum(axis=1)
        revmask = revbit[outside[part], None] + (exchange * revbit[sets[part], None, None]).sum(axis=1)
        key = np.where(size > 1, size << count | low - revmask, none)
        through = np.empty((len(key), count, groups), dtype=np.int64)
        through[~inside[part]] = key.reshape(-1, groups)
        through[inside[part]] = np.where(exchange, key[:, None], none).min(axis=2).reshape(-1, groups)
        np.minimum(best, through.min(axis=0), out=best)
    solved = pending & agree & (best < none)
    keys[solved] = best[solved]
    return keys


def _circuit(core: np.ndarray, key: int) -> tuple[int, ...]:
    """The attack-set positions of the circuit of ``circuit_keys`` key ``key`` in ``core``."""
    count = len(core)
    revmask = ~key & (1 << count) - 1
    return tuple(k for i, k in enumerate(core.tolist()) if revmask >> (count - 1 - i) & 1)


def witness_sets(
    width: int,
    ranks: Callable[[list[int] | slice], Callable[[np.ndarray], np.ndarray]],
    member: int | None = None,
) -> list[list[tuple[int, ...] | None]]:
    """Each group's witness positions for each attack-set position, None for an infinite index.

    ``ranks(among)`` is the rank of the groups ``among``, a list of group
    numbers or ``slice(None)`` for all G of them: it takes N equal-size
    sets of attack-set positions, one sorted row each of an (N, s) array,
    and returns their ranks as an (N, G', F) array, F rank functions per
    group.  Each group is answered on its own ranks.  The settle step
    (``settle_ranks``, ``classify_columns``) gives a loop under every
    function (k,) and a coloop under some function None.  A group whose
    functions agree on the settle step has a core of rank r = r(A) less
    its coloops; the groups are bucketed by their own core and r, with
    r = -1 where they disagree, and each bucket is ranked together, on
    sets inside its core only.  ``circuit_keys`` answers the bucket's
    groups; one left with a wanted column unresolved, or whose functions
    disagree, is swept by ``_level_keys`` with no budget.  A sweep defines
    the answer of any rank, matroid or not: a column's witness is the
    lexicographically first redundant set of the first level holding one,
    and a column still pending after level c - 1 gets its group's whole
    core, in which it is redundant, being a coloop under none of its
    group's functions.  With ``member`` given, the search stops once that
    position is resolved, and only its entry is sure to be right.
    """
    singles, full, deletions = settle_ranks(width, ranks(slice(None)))
    infinite, single, in_core = classify_columns(singles, deletions, full)
    core_rank = full[0, :, 0] - infinite.sum(axis=0)
    if singles.shape[2] > 1:  # a lone function agrees with itself
        settled = np.concatenate((singles, full, deletions))
        core_rank[(settled != settled[..., :1]).any(axis=(0, 2))] = -1
    found = [[(k,) if loop else None for k, loop in enumerate(column)] for column in single.T.tolist()]
    buckets: dict[tuple[bytes, int], list[int]] = {}
    for g in in_core.any(axis=0).nonzero()[0].tolist():
        buckets.setdefault((in_core[:, g].tobytes(), int(core_rank[g])), []).append(g)
    for (_, r), members in buckets.items():
        core = in_core[:, members[0]].nonzero()[0]
        wanted = slice(None) if member is None else core == member
        bucket, below = ranks(members), singles[core][:, members]
        keys = circuit_keys(lambda sets: bucket(core[sets]), below, r, wanted)
        if not keys[wanted].all():
            swept = (keys[wanted] == 0).any(axis=0).nonzero()[0]
            among = [members[i] for i in swept.tolist()]
            chosen, pending = ranks(among), ~infinite[core][:, among]
            swept_keys = _level_keys(lambda sets: chosen(core[sets]), below[:, swept], pending)
            keys[:, swept] = np.where(pending, swept_keys, -1)
        whole = tuple(core.tolist())
        circuits = {-1: None, 0: whole}  # -1: a coloop under some function
        for g, column in zip(members, keys.T.tolist()):
            for k, key in zip(whole, column):
                if key not in circuits:
                    circuits[key] = _circuit(core, key)
                found[g][k] = circuits[key]
    return found


def _witnesses(graph: AttackGraph, cap: int, member: int | None = None) -> list[tuple[int, ...] | None]:
    """Each attack-set position's witness positions, None for an infinite index.

    ``witness_sets`` for the one group of the linking size to the sensors
    (G = F = 1).  Linking sizes are the ranks of a matroid, so
    ``circuit_keys`` resolves every core column and nothing is swept.
    With ``member`` given, only its entry is sure to be filled.
    """
    width = len(graph.attack_set)
    if width > cap:
        raise EnumerationCapError(width, cap)
    if not width:
        return []
    attack_set, targets = graph.attack_set, graph.targets

    def rank(sets: np.ndarray) -> np.ndarray:
        sizes = [max_linking_size(graph, [attack_set[k] for k in s], targets) for s in sets.tolist()]
        return np.array(sizes, dtype=np.intp).reshape(len(sizes), 1, 1)

    (found,) = witness_sets(width, lambda among: rank, member)
    return found


def _result(graph: AttackGraph, member: int, positions: tuple[int, ...] | None) -> SecurityIndexResult:
    attack_set = graph.attack_set
    return SecurityIndexResult(
        component=attack_set[member],
        index=INFINITE if positions is None else len(positions),
        witness=None if positions is None else tuple(attack_set[k] for k in positions),
        subsets_examined=plain_sweep_count(len(attack_set), member, positions),
    )


def security_index(
    graph: AttackGraph, component: VertexId, cap: int = DEFAULT_SUBSET_CAP
) -> SecurityIndexResult:
    """Index of one component, read off the same search as ``all_indices``.

    A coloop of the gammoid gets an infinite index and no witness, and a
    loop index 1 with the component alone as witness; a core member gets
    its smallest circuit, from level r of the core, or from the guard's low
    levels, which stop once they resolve it.  A dangling actuator,
    which violates the non-degeneracy assumptions, is a loop and gets
    index 1.  Raises ``EnumerationCapError`` when the attack set is wider
    than ``cap``.
    """
    attack_set = graph.attack_set
    if component not in attack_set:
        raise UnknownVertexError(f"not an attackable component: {graph.name_of(component)}")
    member = attack_set.index(component)
    return _result(graph, member, _witnesses(graph, cap, member)[member])


def all_indices(graph: AttackGraph, cap: int = DEFAULT_SUBSET_CAP) -> IndexReport:
    """Indices for every attackable component, in attack-set order, from one search.

    The settle step settles loops and coloops; each core member's index
    and witness is its lexicographically first smallest circuit, from
    ``circuit_keys`` (``witness_sets``).  Raises
    ``EnumerationCapError`` when the attack set is wider than ``cap``.
    """
    found = _witnesses(graph, cap)
    return IndexReport(graph=graph, results=tuple(_result(graph, k, p) for k, p in enumerate(found)))


def is_generically_left_invertible(graph: AttackGraph) -> bool:
    """Whether the attack-to-sensor map generically loses no information.

    Holds exactly when the full attack set admits a linking to the sensors
    with one disjoint path per component, and that happens exactly when
    every index is infinite: a full linking of the attack set restricts to
    a full linking of every subset, and a rank-deficient attack set has a
    minimal rank-deficient subset, in which every member is avoidable.
    """
    return max_linking_size(graph, graph.attack_set, graph.targets) == len(graph.attack_set)

"""Slow references for the library's fast paths, kept only for tests.

``first_redundant_subset`` is the plain sweep: it tries every subset
holding one position, by size and then lexicographically, until one passes
a test.  ``security_index`` and ``numeric_witness`` run it, so the
library's search of the core from level r must find the same witnesses.
Every linking query builds its own split network from scratch, with
exactly the super-source and super-sink edges it needs, and runs
``_Dinic`` on it.  No network is shared between queries, so the library's
one-network-per-graph path and its size memo must agree with these
functions exactly, down to the witness paths; ``security_indices`` runs
``security_index`` for every component of a graph with one memo of these
fresh-network sizes, which keeps the plain sweep affordable at widths
12-14.  The generic normal rank of one column set is the public
``transfer_rank`` maximized over freshly drawn realizations and the
probe's frequencies, so the library's batched rank must agree with it set
by set.  A realization's indices rank each subset with one
``transfer_rank`` call per probe frequency, so the library's reduced,
level-at-a-time sweep must agree with them exactly; ``numeric_witness``
also gives the witness behind each index.  ``swept_index_vectors``
ranks every subset under every realization of a stack and answers each
realization by ``own_core_sweep``, a plain sweep of its own core, with no
library sweep code; the library reads most indices off level r of each
core and sweeps only the rest.  ``rank`` is the one-matrix rank rule the
stacked kernel must reproduce, ``transfer_matrices`` solves one frequency
at a time where the library solves them all at once, and ``pencil_rank``
checks ``transfer_rank`` through the system pencil.
``sample_realization`` draws each free parameter with two scalar
generator calls, where the library draws a whole stack of realizations
from one array call per seed, and ``probe_frequencies`` resamples one
realization's colliding frequencies one at a time, where the library
finds the colliding realizations of a stack with one eigenvalue call.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from secindex.index import INFINITE, SecurityIndexResult
from secindex.linking import Linking, _Dinic
from secindex.model import AttackGraph, StructuredSystem, VertexId
from secindex.oracle import (
    ANNULUS,
    DEFAULT_TOLERANCE,
    EIGENVALUE_MARGIN,
    MAGNITUDES,
    RANK_TRIALS,
    RankProbe,
    Realization,
    _column_ranks,
    _Stack,
    _transfers,
    transfer_rank,
)


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


def split_network(
    graph: AttackGraph, sources: Iterable[VertexId], targets: Iterable[VertexId]
) -> tuple[_Dinic, int, int]:
    """A fresh split network feeding ``sources`` and draining ``targets``."""
    idx = {v: k for k, v in enumerate(graph.vertices)}
    n = len(idx)
    source, sink = 2 * n, 2 * n + 1
    net = _Dinic(2 * n + 2)
    for k in range(n):
        net.add_edge(2 * k, 2 * k + 1, 1)
    for u, w in graph.edges:
        net.add_edge(2 * idx[u] + 1, 2 * idx[w], 1)
    for v in sorted(set(sources)):
        net.add_edge(source, 2 * idx[v], 1)
    for v in sorted(set(targets)):
        net.add_edge(2 * idx[v] + 1, sink, 1)
    return net, source, sink


def max_linking_size(
    graph: AttackGraph, sources: Iterable[VertexId], targets: Iterable[VertexId]
) -> int:
    net, source, sink = split_network(graph, sources, targets)
    return net.max_flow(source, sink)


def find_max_linking(
    graph: AttackGraph, sources: Iterable[VertexId], targets: Iterable[VertexId]
) -> Linking:
    """Walk saturated edges from each used source to the sink."""
    net, source, sink = split_network(graph, sources, targets)
    net.max_flow(source, sink)
    paths = []
    for e in net.adj[source]:
        if e % 2 or net.cap[e] != 0:
            continue  # reverse edge, or source not used
        node = net.to[e]
        path = []
        while node != sink:
            path.append(graph.vertices[node // 2])
            node = next(
                net.to[e2] for e2 in net.adj[node + 1] if e2 % 2 == 0 and net.cap[e2] == 0
            )
        paths.append(path)
    return Linking(paths)


def security_index(
    graph: AttackGraph, component: VertexId, sizes: dict[frozenset, int] | None = None
) -> SecurityIndexResult:
    """One component's index by the plain sweep, with a fresh-network flow per subset.

    ``sizes`` keeps each subset's linking size once it is taken; one dict
    shared by the calls for a graph runs each subset's flow once.
    """
    attack_set = graph.attack_set
    sizes = {} if sizes is None else sizes

    def size(subset: frozenset) -> int:
        if subset not in sizes:
            sizes[subset] = max_linking_size(graph, subset, graph.targets)
        return sizes[subset]

    def avoidable(positions: tuple[int, ...]) -> bool:
        subset = frozenset(attack_set[k] for k in positions)
        return size(subset) == size(subset - {component})

    index, positions, examined = first_redundant_subset(
        len(attack_set), attack_set.index(component), avoidable
    )
    return SecurityIndexResult(
        component=component,
        index=index,
        witness=None if positions is None else tuple(attack_set[k] for k in positions),
        subsets_examined=examined,
    )


def security_indices(graph: AttackGraph) -> tuple[SecurityIndexResult, ...]:
    """``security_index`` of every attack component, in attack-set order, sharing one size memo."""
    sizes: dict[frozenset, int] = {}
    return tuple(security_index(graph, component, sizes) for component in graph.attack_set)


def sample_realization(system: StructuredSystem, seed: int) -> Realization:
    """One realization, each free parameter drawn by two scalar generator calls.

    A uniform magnitude on ``MAGNITUDES``, then a sign, negative when a
    uniform draw is at least 0.5; parameters in the order of the sorted W
    edges, then the sorted b edges, then the sorted c edges.
    """
    rng = np.random.default_rng(seed)
    low, high = MAGNITUDES

    def draw() -> float:
        magnitude = rng.uniform(low, high)
        return magnitude if rng.random() < 0.5 else -magnitude

    n, q, m = system.n_states, system.n_actuators, system.n_sensors
    unprotected = system.unprotected_sensors
    p = q + len(unprotected)
    si, ai, yi = system.state_index, system.actuator_index, system.sensor_index

    W = np.zeros((n, n))
    for src, dst in sorted(system.w_edges):
        W[si[dst], si[src]] = draw()
    B_a = np.zeros((n, p))
    for src, dst in sorted(system.b_edges):
        B_a[si[dst], ai[src]] = draw()
    C = np.zeros((m, n))
    for src, dst in sorted(system.c_edges):
        C[yi[dst], si[src]] = draw()
    D_a = np.zeros((m, p))
    for col, sensor_ordinal in enumerate(unprotected):
        D_a[sensor_ordinal, q + col] = 1.0
    return Realization(W=W, B_a=B_a, C=C, D_a=D_a, seed=seed)


def probe_frequencies(realization: Realization, probe: RankProbe, stream: int) -> tuple[complex, ...]:
    """The probe's frequencies for one realization, resampled one at a time.

    A frequency within ``EIGENVALUE_MARGIN`` of an eigenvalue of the
    realization's W is replaced by annulus draws from ``stream`` until it
    is not.
    """
    eigenvalues = np.linalg.eigvals(realization.W)
    rng = np.random.default_rng((probe.seed, stream, 0xA17))
    low, high = ANNULUS
    frequencies = []
    for z in probe.frequencies:
        while np.min(np.abs(eigenvalues - z)) < EIGENVALUE_MARGIN:
            radius = np.sqrt(rng.uniform(low**2, high**2))
            z = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        frequencies.append(complex(z))
    return tuple(frequencies)


def generic_normal_rank(system: StructuredSystem, columns: Sequence[int], probe: RankProbe) -> int:
    """One column set's rank, redrawing every realization for it."""
    return max(
        transfer_rank(sample_realization(system, probe.seed + t), columns, z, probe.tolerance)
        for t in range(RANK_TRIALS)
        for z in probe.frequencies
    )


def rank(matrix: np.ndarray, tolerance: float) -> int:
    """Singular values of one matrix above ``tolerance`` times the largest."""
    if matrix.size == 0:
        return 0
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    if singular_values[0] == 0.0:
        return 0
    return int(np.count_nonzero(singular_values > tolerance * singular_values[0]))


def numeric_witness(
    realization: Realization, probe: RankProbe, column: int
) -> tuple[int | float, tuple[int, ...] | None, int]:
    """One column's ``first_redundant_subset`` under the per-subset rank test."""

    def ranks(cols: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            transfer_rank(realization, cols, z, probe.tolerance) for z in probe.frequencies
        )

    def redundant(positions: tuple[int, ...]) -> bool:
        return ranks(positions) == ranks(tuple(k for k in positions if k != column))

    return first_redundant_subset(realization.attack_width, column, redundant)


def numeric_index_vector(
    realization: Realization, probe: RankProbe, columns: Sequence[int] | None = None
) -> tuple[int | float, ...]:
    """Realization-level indices, one ``transfer_rank`` call per subset and frequency."""
    wanted = range(realization.attack_width) if columns is None else columns
    return tuple(numeric_witness(realization, probe, c)[0] for c in wanted)


def own_core(width: int, table: Sequence[tuple[int, ...]]) -> list[int]:
    """The positions that are neither a loop nor a coloop under some function.

    ``table[mask]`` holds the F ranks of the set of positions whose bits
    are set in ``mask``.
    """
    full = (1 << width) - 1
    return [
        k
        for k in range(width)
        if any(one and rest >= whole for one, rest, whole in zip(table[1 << k], table[full & ~(1 << k)], table[full]))
    ]


def own_core_sweep(width: int, table: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...] | None, ...]:
    """One group's witness positions for each position, from a plain sweep of its own core.

    ``table`` is ``own_core``'s.  A loop under every function gets (k,); a
    coloop under some function, or a column outside the core (a loop or a
    coloop under each function), gets None; any other column gets its
    first redundant set of two or more columns inside the core, by size
    and then lexicographically, or the whole core when there is none.
    """
    full = (1 << width) - 1
    core = own_core(width, table)

    def answer(k: int) -> tuple[int, ...] | None:
        if not any(table[1 << k]):
            return (k,)
        if k not in core or any(rest < whole for rest, whole in zip(table[full & ~(1 << k)], table[full])):
            return None

        def redundant(positions: tuple[int, ...]) -> bool:
            mask = sum(1 << p for p in positions)
            return len(positions) > 1 and set(positions) <= set(core) and table[mask] == table[mask & ~(1 << k)]

        _, positions, _ = first_redundant_subset(width, k, redundant)
        return tuple(core) if positions is None else positions

    return tuple(answer(k) for k in range(width))


def rank_tables(system: StructuredSystem, seeds: Sequence[int], probe: RankProbe) -> list[list[tuple[int, ...]]]:
    """Each seed's realization's ranks of every attack subset at the probe frequencies, by bit mask.

    Every subset is ranked under every realization and frequency, one set
    size at a time.
    """
    width = system.attack_width
    transfer = _transfers(_Stack.drawn(system, seeds), probe, seeds)
    tables: list[list[tuple[int, ...]]] = [[()] * (1 << width) for _ in seeds]
    for size in range(width + 1):
        sets = np.array(list(itertools.combinations(range(width), size)), dtype=np.intp)
        sets = sets.reshape(math.comb(width, size), size)
        ranks = _column_ranks(transfer, sets, probe.tolerance)
        for positions, by_seed in zip(sets.tolist(), ranks.tolist()):
            mask = sum(1 << k for k in positions)
            for table, functions in zip(tables, by_seed):
                table[mask] = tuple(functions)
    return tables


def swept_index_vectors(
    system: StructuredSystem, seeds: Sequence[int], probe: RankProbe
) -> tuple[tuple[int | float, ...], ...]:
    """Each seed's realization-level indices, from ``own_core_sweep`` of its ``rank_tables`` table."""
    width = system.attack_width
    if not width:
        return ((),) * len(seeds)
    return tuple(
        tuple(INFINITE if p is None else len(p) for p in own_core_sweep(width, table))
        for table in rank_tables(system, seeds, probe)
    )


def transfer_matrices(realization: Realization, frequencies: Iterable[complex]) -> np.ndarray:
    """The transfer matrices at ``frequencies``, one solve each, stacked (F, m, p)."""
    out = []
    for z in frequencies:
        x = np.linalg.solve(z * np.eye(realization.W.shape[0]) - realization.W, realization.B_a)
        g = realization.C @ x + realization.D_a
        g[~realization._support] = 0.0
        out.append(g)
    return np.stack(out)


def pencil_rank(
    realization: Realization,
    columns: Iterable[int],
    z: complex,
    tolerance: float = DEFAULT_TOLERANCE,
) -> int:
    """Numerical rank of the system pencil restricted to attack columns.

    Equals n + ``transfer_rank`` whenever z is not an eigenvalue of W
    (Rosenbrock), so it checks ``transfer_rank`` by another route.
    """
    cols = sorted(set(columns))
    top = np.hstack([realization.W - z * np.eye(realization.W.shape[0]), realization.B_a[:, cols]])
    bottom = np.hstack([realization.C.astype(complex), realization.D_a[:, cols]])
    return rank(np.vstack([top, bottom]), tolerance)

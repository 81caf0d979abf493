"""Maximum linkings: vertex-disjoint path sets between vertex sets.

The maximum number of vertex-disjoint paths from a source set to a target
set is computed by max-flow on a unit-capacity split network: every vertex
v becomes v_in -> v_out with capacity 1, every original edge u -> w becomes
u_out -> w_in, a super-source feeds each source's v_in and each target's
v_out feeds a super-sink.  By Menger's theorem the max-flow value equals
the maximum linking size.  Dinic's algorithm on unit capacities runs in
O(E * sqrt(V)); the index search asks for one size per attack subset it
ranks.

The split network is built once per graph, with a closed (capacity 0)
super-source and super-sink edge for every vertex.  Linking sizes are
memoized per (sources, targets), so a set asked again on the same graph
costs no flow: a core's level r can repeat the settle step's singletons
or deletions, and ``verify``'s rank check asks again for some sets
already asked.  A size query that misses the memo resumes from the
maximum flow the network holds from the graph's previous query: it cancels
the unit path of each source it drops, opens the edges of the sources it
adds, and augments from there.  The index search asks for each level's
source sets in lexicographic order, so consecutive sets usually differ in
a vertex or two, and each miss is a few augmenting paths from its
answer.  A new target set starts over from the closed network, and
``find_max_linking`` always starts over from it, so a witness depends
only on its query.  Only the graph queried last keeps its
network, flow and memo, matched by identity, so memory stays bounded by one
graph.  That slot is module state: the functions here are not thread-safe.

Determinism: vertices are processed in canonical (kind, ordinal) order and
adjacency lists keep insertion order, so the extracted witness linking is
reproducible across runs.  Closed edges are never traversed, so the flow
takes the same steps as on a network holding only the open edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from secindex.model import AttackGraph, UnknownVertexError, VertexId


@dataclass(frozen=True)
class Linking:
    """A set of pairwise vertex-disjoint simple paths."""

    paths: tuple[tuple[VertexId, ...], ...]

    def __init__(self, paths: Iterable[Iterable[VertexId]] = ()):
        object.__setattr__(self, "paths", tuple(tuple(p) for p in paths))
        seen: set[VertexId] = set()
        for path in self.paths:
            if not path:
                raise ValueError("a linking path cannot be empty")
            if len(set(path)) != len(path):
                raise ValueError(f"path repeats a vertex: {path}")
            overlap = seen.intersection(path)
            if overlap:
                raise ValueError(f"paths share vertex {sorted(overlap)[0]}")
            seen.update(path)

    @property
    def size(self) -> int:
        return len(self.paths)


class _Dinic:
    """Max-flow over an explicit edge list; forward edges at even indices."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        e = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((cap, 0))
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                flow += pushed

    def _levels(self, s: int, t: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        # Iterative DFS for one augmenting path in the level graph.
        path: list[int] = []
        u = s
        while True:
            if u == t:
                for e in path:
                    self.cap[e] -= 1
                    self.cap[e ^ 1] += 1
                return 1
            advanced = False
            while it[u] < len(self.adj[u]):
                e = self.adj[u][it[u]]
                v = self.to[e]
                if self.cap[e] > 0 and level[v] == level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    return 0
                level[u] = -1  # dead end; prune
                e = path.pop()
                u = self.to[e ^ 1]
                it[u] += 1


def _check_members(graph: AttackGraph, vertices: Iterable[VertexId], role: str) -> tuple[VertexId, ...]:
    members = tuple(sorted(set(vertices)))
    if not graph.vertex_set.issuperset(members):
        missing = next(v for v in members if v not in graph.vertex_set)
        raise UnknownVertexError(f"{role} vertex not in graph: {missing}")
    return members


class _Flows:
    """The split network of one graph, its terminal edges closed, and a size memo.

    The network's capacities hold a maximum flow, as residual capacities,
    for the sources ``flow_srcs`` and targets ``flow_tgts`` of the last
    flow run on it.
    """

    def __init__(self, graph: AttackGraph):
        self.order = graph.vertices
        idx = {v: k for k, v in enumerate(self.order)}
        n = len(self.order)
        self.source, self.sink = 2 * n, 2 * n + 1
        self.net = _Dinic(2 * n + 2)
        for k in range(n):
            self.net.add_edge(2 * k, 2 * k + 1, 1)
        for u, w in graph.edges:
            self.net.add_edge(2 * idx[u] + 1, 2 * idx[w], 1)
        self.feed = {v: self.net.add_edge(self.source, 2 * k, 0) for v, k in idx.items()}
        self.drain = {v: self.net.add_edge(2 * k + 1, self.sink, 0) for v, k in idx.items()}
        self.template = tuple(self.net.cap)
        self.sizes: dict[tuple[tuple[VertexId, ...], tuple[VertexId, ...]], int] = {}
        self.flow_srcs: tuple[VertexId, ...] = ()
        self.flow_tgts: tuple[VertexId, ...] = ()

    def reset(self, tgts: tuple[VertexId, ...]) -> None:
        """Drop the flow and close every terminal edge but the drains of ``tgts``."""
        cap = self.net.cap
        cap[:] = self.template
        for v in tgts:
            cap[self.drain[v]] = 1
        self.flow_srcs, self.flow_tgts = (), tgts

    def resume(self, srcs: tuple[VertexId, ...], tgts: tuple[VertexId, ...]) -> int:
        """Max-flow value for ``srcs`` and ``tgts``, resumed from the current flow.

        Cancelling the unit path of each dropped source leaves a valid flow
        for the sources kept, so augmenting from there after opening the
        added sources reaches a maximum flow.  A new target set starts over
        from the closed network.
        """
        if tgts != self.flow_tgts:
            self.reset(tgts)
        cap = self.net.cap
        kept, before = set(srcs), set(self.flow_srcs)
        for v in self.flow_srcs:
            if v in kept:
                continue
            e = self.feed[v]
            if cap[e ^ 1]:
                for e2 in self.flow_path(v):
                    cap[e2] += 1
                    cap[e2 ^ 1] -= 1
            cap[e] = 0
        for v in srcs:
            if v not in before:
                cap[self.feed[v]] = 1
        self.flow_srcs = srcs
        self.net.max_flow(self.source, self.sink)
        return sum(cap[self.feed[v] ^ 1] for v in srcs)

    def flow_path(self, v: VertexId) -> list[int]:
        """The flow-carrying edges from the super-source through source ``v`` to the sink.

        Capacities are 0 or 1, so a forward edge carries flow exactly when
        its reverse edge has residual capacity 1, and unit vertex
        capacities make the path unique.  It runs feed edge, vertex edge,
        out edge, ..., vertex edge, drain edge; the vertex edge of vertex k
        is edge 2k, so the odd positions name the path's vertices.
        """
        net = self.net
        e = self.feed[v]
        path = [e]
        node = net.to[e]  # some v_in
        while node != self.sink:
            path.append(node)
            for e2 in net.adj[node + 1]:
                if e2 % 2 == 0 and net.cap[e2 ^ 1]:
                    path.append(e2)
                    node = net.to[e2]
                    break
            else:  # pragma: no cover - flow conservation guarantees an exit
                raise AssertionError("flow walk hit a dead end")
        return path


# The graph queried last and its network.  Holding the graph keeps it alive,
# so a new graph can never be mistaken for it at a reused address.
_last: tuple[AttackGraph, _Flows] | None = None


def _flows_for(graph: AttackGraph) -> _Flows:
    global _last
    if _last is None or _last[0] is not graph:
        _last = (graph, _Flows(graph))
    return _last[1]


def max_linking_size(
    graph: AttackGraph, sources: Iterable[VertexId], targets: Iterable[VertexId]
) -> int:
    """Size of a maximum linking from ``sources`` to ``targets``."""
    srcs = _check_members(graph, sources, "source")
    tgts = _check_members(graph, targets, "target")
    if not srcs or not tgts:
        return 0
    flows = _flows_for(graph)
    size = flows.sizes.get((srcs, tgts))
    if size is None:
        size = flows.sizes[srcs, tgts] = flows.resume(srcs, tgts)
    return size


def find_max_linking(
    graph: AttackGraph, sources: Iterable[VertexId], targets: Iterable[VertexId]
) -> Linking:
    """One maximum linking, as explicit vertex paths.

    The flow starts cold, not resumed, so the witness depends
    only on the query.  The integral flow decomposes into source-to-target
    paths plus possibly flow cycles; cycles never touch the unique path
    through each source, so a walk along saturated edges from each used
    source recovers the linking and drops the cycles.
    """
    srcs = _check_members(graph, sources, "source")
    tgts = _check_members(graph, targets, "target")
    if not srcs or not tgts:
        return Linking()
    flows = _flows_for(graph)
    flows.reset(tgts)
    flows.resume(srcs, tgts)
    paths = [
        [flows.order[e // 2] for e in flows.flow_path(v)[1::2]]
        for v in srcs
        if flows.net.cap[flows.feed[v] ^ 1]  # source used
    ]
    return Linking(paths)


def saturated_by_all_max_linkings(
    graph: AttackGraph, attack_subset: Iterable[VertexId], component: VertexId
) -> bool:
    """Whether every maximum linking from ``attack_subset`` to Y uses ``component``.

    A source is saturated by every maximum linking exactly when dropping it
    from the source set shrinks the maximum linking by one, so two max-flow
    evaluations decide the question.
    """
    subset = frozenset(attack_subset)
    if component not in subset:
        raise ValueError(f"component {graph.name_of(component)} not in the attack subset")
    extra = subset.difference(graph.attack_set)
    if extra:
        raise ValueError(f"not an attackable component: {graph.name_of(min(extra))}")
    with_component = max_linking_size(graph, subset, graph.targets)
    without = max_linking_size(graph, subset - {component}, graph.targets)
    return with_component == without + 1

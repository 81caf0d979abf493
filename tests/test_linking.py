import gc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from secindex.linking import (
    Linking,
    find_max_linking,
    max_linking_size,
    saturated_by_all_max_linkings,
)
from secindex.model import UnknownVertexError, VertexId, VertexKind, build_attack_graph

from . import reference
from .bruteforce import brute_force_max_linking
from .strategies import digraph_instances, state_only_graph

# All source-to-sensor paths that can appear in a maximum linking of the
# chain fixture's full attack set.
CHAIN_MAX_LINKING_PATHS = {
    ("u1", "x1", "y1"),
    ("a_y1", "y1"),
    ("u2", "x2", "y2"),
    ("u2", "x2", "x3", "y3"),
    ("u2", "x2", "x3", "x4", "y3"),
}


def names(graph, path):
    return tuple(graph.name_of(v) for v in path)


def test_chain_linking_sizes(chain_graph):
    g = chain_graph
    u1, u2, ay1 = (g.vertex_named(n) for n in ("u1", "u2", "a_y1"))
    assert max_linking_size(g, {u1, ay1}, g.targets) == 1
    assert max_linking_size(g, {u1, u2, ay1}, g.targets) == 2
    assert max_linking_size(g, set(), g.targets) == 0
    assert max_linking_size(g, {u1, u2}, g.targets) == 2


def test_collider_linking_size(collider_graph):
    g = collider_graph
    assert max_linking_size(g, g.attack_set, g.targets) == 2


def test_witness_for_single_attack_vertex(chain_graph):
    g = chain_graph
    linking = find_max_linking(g, {g.vertex_named("a_y1")}, g.targets)
    assert [names(g, p) for p in linking.paths] == [("a_y1", "y1")]


def test_witness_for_full_attack_set(chain_graph):
    g = chain_graph
    linking = find_max_linking(g, g.attack_set, g.targets)
    assert linking.size == 2
    for path in linking.paths:
        assert names(g, path) in CHAIN_MAX_LINKING_PATHS


def test_empty_sources_give_empty_linking(chain_graph):
    linking = find_max_linking(chain_graph, set(), chain_graph.targets)
    assert linking == Linking()
    assert linking.size == 0


def test_witness_size_matches_max(chain_graph, collider_graph):
    for g in (chain_graph, collider_graph):
        linking = find_max_linking(g, g.attack_set, g.targets)
        assert linking.size == max_linking_size(g, g.attack_set, g.targets)


def test_find_max_linking_is_deterministic(chain_graph):
    g = chain_graph
    first = find_max_linking(g, g.attack_set, g.targets)
    second = find_max_linking(g, g.attack_set, g.targets)
    assert first == second


def test_unknown_vertices_rejected(chain_graph):
    ghost = VertexId(VertexKind.STATE, 99)
    with pytest.raises(UnknownVertexError):
        max_linking_size(chain_graph, {ghost}, chain_graph.targets)
    with pytest.raises(UnknownVertexError):
        max_linking_size(chain_graph, chain_graph.attack_set, {ghost})


def test_linking_type_rejects_bad_paths():
    a, b = VertexId(VertexKind.STATE, 0), VertexId(VertexKind.STATE, 1)
    with pytest.raises(ValueError):
        Linking([(a, b, a)])  # repeated vertex
    with pytest.raises(ValueError):
        Linking([(a, b), (b,)])  # shared vertex
    with pytest.raises(ValueError):
        Linking([()])  # empty path


def test_saturation_on_chain(chain_graph):
    g = chain_graph
    u1, u2, ay1 = (g.vertex_named(n) for n in ("u1", "u2", "a_y1"))
    assert saturated_by_all_max_linkings(g, {u1, ay1}, u1) is False
    assert saturated_by_all_max_linkings(g, {u1, u2, ay1}, u2) is True
    # A lone source that reaches the sensors is in every maximum linking.
    assert saturated_by_all_max_linkings(g, {u1}, u1) is True


def test_saturation_validates_membership(chain_graph):
    g = chain_graph
    u1, u2 = g.vertex_named("u1"), g.vertex_named("u2")
    with pytest.raises(ValueError):
        saturated_by_all_max_linkings(g, {u2}, u1)
    with pytest.raises(ValueError):
        saturated_by_all_max_linkings(g, {u1, g.vertex_named("x1")}, u1)


def test_saturation_errors_name_the_vertex(chain_graph):
    g = chain_graph
    u1, u2 = g.vertex_named("u1"), g.vertex_named("u2")
    with pytest.raises(ValueError, match="^component u1 not in the attack subset$"):
        saturated_by_all_max_linkings(g, {u2}, u1)
    with pytest.raises(ValueError, match="^not an attackable component: x1$"):
        saturated_by_all_max_linkings(g, {u1, g.vertex_named("x1")}, u1)


def _successor_ordinals(graph):
    return {
        src.ordinal: {dst.ordinal for s, dst in graph.edges if s == src}
        for src in graph.vertices
    }


@given(digraph_instances())
def test_max_linking_matches_exhaustive_enumeration(instance):
    graph, sources, targets = instance
    expected = brute_force_max_linking(
        _successor_ordinals(graph),
        {v.ordinal for v in sources},
        {v.ordinal for v in targets},
    )
    assert max_linking_size(graph, sources, targets) == expected


@given(digraph_instances())
def test_witness_is_a_valid_linking_of_maximum_size(instance):
    graph, sources, targets = instance
    linking = find_max_linking(graph, sources, targets)
    assert linking.size == max_linking_size(graph, sources, targets)
    for path in linking.paths:
        assert path[0] in sources
        assert path[-1] in targets
        edge_set = set(graph.edges)
        for pair in zip(path, path[1:]):
            assert pair in edge_set


@given(digraph_instances(), st.randoms(use_true_random=False))
def test_single_source_removal_drops_at_most_one(instance, rnd):
    graph, sources, targets = instance
    if not sources:
        return
    v = rnd.choice(sorted(sources))
    full = max_linking_size(graph, sources, targets)
    reduced = max_linking_size(graph, sources - {v}, targets)
    assert reduced in (full - 1, full)


@st.composite
def interleaved_queries(draw, max_vertices: int = 7):
    """Two graphs and a query sequence that alternates between them and repeats itself.

    Sources and targets come from a small pool of vertex sets per graph, so
    one source set often meets several target sets and the other way round.
    """
    distinct = []
    for _ in range(2):
        n = draw(st.integers(min_value=1, max_value=max_vertices))
        arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        graph = state_only_graph(n, arcs)
        pool = st.sampled_from(
            draw(st.lists(st.frozensets(st.sampled_from(graph.vertices), max_size=4), min_size=1, max_size=3))
        )
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            distinct.append((graph, draw(pool), draw(pool)))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    return [distinct[k] for k in order]


@given(interleaved_queries(), st.lists(st.booleans(), min_size=12, max_size=12))
def test_shared_network_matches_fresh_network_per_query(queries, sizes_first):
    for (graph, sources, targets), size_first in zip(queries, sizes_first):
        expected = reference.find_max_linking(graph, sources, targets)
        if size_first:
            size = max_linking_size(graph, sources, targets)
            paths = find_max_linking(graph, sources, targets).paths
        else:
            paths = find_max_linking(graph, sources, targets).paths
            size = max_linking_size(graph, sources, targets)
        assert size == reference.max_linking_size(graph, sources, targets) == expected.size
        assert paths == expected.paths


def test_only_the_last_graph_keeps_its_network(chain_system, collider_graph):
    a = build_attack_graph(chain_system)
    assert max_linking_size(a, a.attack_set, a.targets) == 2
    a_ref = weakref.ref(a)
    del a
    assert max_linking_size(collider_graph, collider_graph.attack_set, collider_graph.targets) == 2
    gc.collect()
    assert a_ref() is None


@st.composite
def query_walks(draw, max_vertices: int = 7, min_steps: int = 30):
    """A walk of size and witness queries over two graphs with cycles and self-loops.

    Each step toggles up to three sources of the graph in use at once, so
    sources leave while their paths carry flow, and now and then draws a
    new target set or moves to the other graph.  Steps are
    ``(graph, sources, targets, witness_first)``.
    """
    graphs = []
    for _ in range(2):
        n = draw(st.integers(min_value=2, max_value=max_vertices))
        cycle = draw(st.integers(min_value=2, max_value=n))
        arcs = {(k, (k + 1) % cycle) for k in range(cycle)}
        arcs |= {(k, k) for k in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))}
        arcs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        graphs.append(state_only_graph(n, arcs))

    def terminals(graph):
        return draw(st.frozensets(st.sampled_from(graph.vertices), min_size=1, max_size=4))

    current = 0
    sources = [frozenset(), frozenset()]
    targets = [terminals(g) for g in graphs]
    steps = []
    for _ in range(draw(st.integers(min_value=min_steps, max_value=min_steps + 10))):
        if draw(st.integers(0, 7)) == 0:
            current = 1 - current
        graph = graphs[current]
        if draw(st.integers(0, 3)) == 0:
            targets[current] = terminals(graph)
        toggled = draw(st.frozensets(st.sampled_from(graph.vertices), min_size=1, max_size=3))
        sources[current] ^= toggled
        steps.append((graph, sources[current], targets[current], draw(st.integers(0, 4)) == 0))
    return steps


@given(query_walks())
def test_resumed_sizes_match_fresh_network_over_long_query_walks(steps):
    for graph, sources, targets, witness_first in steps:
        if witness_first:
            assert find_max_linking(graph, sources, targets) == reference.find_max_linking(
                graph, sources, targets
            )
        assert max_linking_size(graph, sources, targets) == reference.max_linking_size(
            graph, sources, targets
        )

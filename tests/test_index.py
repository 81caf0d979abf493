import itertools
import json
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from secindex.index import (
    DEFAULT_SUBSET_CAP,
    INFINITE,
    EnumerationCapError,
    all_indices,
    circuit_sizes,
    is_generically_left_invertible,
    plain_sweep_count,
    redundancy_sweep,
    security_index,
)
from secindex.io import emit_report
from secindex.linking import _flows_for, max_linking_size, saturated_by_all_max_linkings
from secindex.model import (
    Sensor,
    StructuredSystem,
    UnknownVertexError,
    build_attack_graph,
)

from . import reference
from .bruteforce import brute_force_max_linking
from .reference import first_redundant_subset
from .strategies import structured_systems, systems_with_loops_and_coloops


def by_name(graph, report):
    return {graph.name_of(r.component): r for r in report.results}


def test_chain_indices(chain_graph):
    g = chain_graph
    report = all_indices(g)
    results = by_name(g, report)
    assert results["u1"].index == 2
    assert [g.name_of(v) for v in results["u1"].witness] == ["u1", "a_y1"]
    assert results["a_y1"].index == 2
    assert results["u2"].index == INFINITE
    assert results["u2"].witness is None


def test_chain_subsets_examined(chain_graph):
    # Enumeration order is pinned, so the examined counts are exact.
    g = chain_graph
    results = by_name(g, all_indices(g))
    assert results["u1"].subsets_examined == 3
    assert results["u2"].subsets_examined == 4
    assert results["a_y1"].subsets_examined == 2


def test_collider_indices(collider_graph):
    g = collider_graph
    results = by_name(g, all_indices(g))
    assert results["u1"].index == INFINITE
    assert results["u2"].index == 2
    assert [g.name_of(v) for v in results["u2"].witness] == ["u2", "u3"]
    assert results["u3"].index == 2
    assert [g.name_of(v) for v in results["u3"].witness] == ["u2", "u3"]


def test_single_chain_with_protected_sensor_is_unattackable():
    system = StructuredSystem(
        states=["x1"],
        actuators=["u1"],
        sensors=[("y1", True)],
        b_edges=[("u1", "x1")],
        c_edges=[("x1", "y1")],
    )
    graph = build_attack_graph(system)
    result = security_index(graph, graph.vertex_named("u1"))
    assert result.index == INFINITE
    assert is_generically_left_invertible(graph) is True


def test_dangling_actuator_has_index_one():
    system = StructuredSystem(
        states=["x1"],
        actuators=["u1", "u2"],
        sensors=[("y1", True)],
        b_edges=[("u1", "x1")],
        c_edges=[("x1", "y1")],
    )
    graph = build_attack_graph(system)
    result = security_index(graph, graph.vertex_named("u2"))
    assert result.index == 1
    assert [graph.name_of(v) for v in result.witness] == ["u2"]


def test_report_order_matches_attack_set(chain_graph):
    report = all_indices(chain_graph)
    assert tuple(r.component for r in report.results) == chain_graph.attack_set
    doc = json.loads(emit_report(report))
    assert doc["graph"]["states"] == 4
    assert doc["graph"]["edges"] == 9
    assert doc["assumption_violations"] == []


def test_empty_attack_set_gives_empty_report():
    system = StructuredSystem(states=["x1"], sensors=[("y1", True)])
    report = all_indices(build_attack_graph(system))
    assert report.results == ()


def test_left_invertibility_on_fixtures(chain_graph, collider_graph):
    assert is_generically_left_invertible(chain_graph) is False
    assert is_generically_left_invertible(collider_graph) is False


def test_cap_enforced(chain_graph):
    u1 = chain_graph.vertex_named("u1")
    with pytest.raises(EnumerationCapError, match="cap"):
        security_index(chain_graph, u1, cap=2)
    with pytest.raises(EnumerationCapError, match="cap"):
        all_indices(chain_graph, cap=2)


def test_unknown_component_rejected(chain_graph):
    with pytest.raises(UnknownVertexError):
        security_index(chain_graph, chain_graph.vertex_named("x1"))


def test_infinite_is_not_an_integer(chain_graph):
    result = security_index(chain_graph, chain_graph.vertex_named("u2"))
    assert result.index == math.inf
    assert not result.is_finite
    assert not isinstance(result.index, int)


@pytest.mark.parametrize("fixture", ["chain_graph", "collider_graph"])
def test_search_consistency_with_saturation_conditions(fixture, request):
    # Re-check the minimality contract by independent enumeration: below
    # the returned index every subset is saturating, at it the witness is
    # not, and the witness is the lexicographically first such subset.
    graph = request.getfixturevalue(fixture)
    attack_set = graph.attack_set
    for result in all_indices(graph).results:
        i = result.component
        bound = result.index if result.is_finite else len(attack_set) + 1
        first_hit = None
        for p in range(1, min(int(bound), len(attack_set)) + 1):
            for combo in itertools.combinations(attack_set, p):
                if i not in combo:
                    continue
                if not saturated_by_all_max_linkings(graph, combo, i):
                    first_hit = (p, combo)
                    break
            if first_hit:
                break
        if result.is_finite:
            assert first_hit == (result.index, result.witness)
        else:
            assert first_hit is None


@given(st.data())
def test_engine_sweeps_subsets_by_size_then_lexicographically(data):
    width = data.draw(st.integers(min_value=1, max_value=7))
    member = data.draw(st.integers(min_value=0, max_value=width - 1))
    seen = []

    def record(positions):
        seen.append(positions)
        return False

    _, _, examined = first_redundant_subset(width, member, record)
    reference = [
        combo
        for size in range(1, width + 1)
        for combo in itertools.combinations(range(width), size)
        if member in combo
    ]
    assert seen == reference  # same subsets, same (size, then lexicographic) order
    assert examined == 2 ** (width - 1)


@given(st.data())
def test_engine_matches_plain_enumeration(data):
    width = data.draw(st.integers(min_value=1, max_value=6))
    member = data.draw(st.integers(min_value=0, max_value=width - 1))
    containing = [
        combo
        for size in range(1, width + 1)
        for combo in itertools.combinations(range(width), size)
        if member in combo
    ]
    accepted = data.draw(st.sets(st.sampled_from(containing)))
    reference = next(
        ((len(c), c, rank) for rank, c in enumerate(containing, 1) if c in accepted),
        (INFINITE, None, 2 ** (width - 1)),
    )
    assert first_redundant_subset(width, member, accepted.__contains__) == reference


@given(st.data())
def test_plain_sweep_count_matches_the_engine(data):
    width = data.draw(st.integers(min_value=1, max_value=10))
    for member in range(width):
        chosen = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
        witness = tuple(k for k in range(width) if chosen[k] or k == member)
        _, found, examined = first_redundant_subset(width, member, witness.__eq__)
        assert found == witness
        assert plain_sweep_count(width, member, witness) == examined
        _, _, examined = first_redundant_subset(width, member, lambda positions: False)
        assert plain_sweep_count(width, member, None) == examined == 2 ** (width - 1)


def reference_core(graph):
    """The attack components that are neither loops nor coloops, by fresh-network ranks.

    A loop has rank 0 alone; without a coloop the attack set loses rank.
    """
    attack_set, targets = graph.attack_set, graph.targets
    full = reference.max_linking_size(graph, attack_set, targets)
    return {
        v
        for v in attack_set
        if reference.max_linking_size(graph, {v}, targets) > 0
        and reference.max_linking_size(graph, set(attack_set) - {v}, targets) == full
    }


def swept_sets(graph, call):
    """``call()``'s result and the attack subsets its sweep ranked.

    Every linking size ``index`` asks for is recorded.  The first sets
    must be the settle step's: each singleton, the attack set A, then each
    A minus one component unless r(A) = w.  The rest are the sweep's.
    """
    ranked = []

    def record(graph, sources, targets):
        ranked.append(frozenset(sources))
        return max_linking_size(graph, sources, targets)

    with mock.patch("secindex.index.max_linking_size", record):
        result = call()
    attack_set = frozenset(graph.attack_set)
    settle = [frozenset({v}) for v in attack_set] + [attack_set]
    if reference.max_linking_size(graph, attack_set, graph.targets) < len(attack_set):
        settle += [attack_set - {v} for v in attack_set]
    settle = settle if attack_set else []
    assert Counter(ranked[: len(settle)]) == Counter(settle)
    return result, ranked[len(settle) :]


def assert_sweeps_core_levels(swept, core, indices):
    """The sweep stays in the core and ranks exactly the levels it needs.

    Those are sizes 2 up to the largest of ``indices`` (the wanted core
    components' indices), or up to one below the core's size, which is
    never ranked.  So a core of 3 or more members is always swept.
    """
    assert all(subset <= core for subset in swept)
    top = min(max(indices, default=0), len(core) - 1)
    assert {len(subset) for subset in swept} == set(range(2, top + 1))


def reduced_indices(graph):
    """``all_indices(graph)``, checking that its sweep stays in the core."""
    report, swept = swept_sets(graph, lambda: all_indices(graph))
    core = reference_core(graph)
    assert_sweeps_core_levels(swept, core, [r.index for r in report.results if r.component in core])
    return report


def assert_matches_plain_sweep(graph):
    expected = tuple(reference.security_index(graph, c) for c in graph.attack_set)
    assert reduced_indices(graph).results == expected


@given(structured_systems())
def test_reduced_search_matches_plain_sweep(system):
    assert_matches_plain_sweep(build_attack_graph(system))


@given(systems_with_loops_and_coloops())
def test_reduced_search_matches_plain_sweep_with_loops_and_coloops(system):
    assert_matches_plain_sweep(build_attack_graph(system))


@pytest.mark.parametrize(
    "seed, q, indices",
    [
        (8, 5, [1, 2, 2, 5, 2, INFINITE, 5, 5, 5]),
        (5, 6, [1, 5, 5, 2, 2, 1, 5, INFINITE, 5, 5]),
        (6, 6, [1, 3, 4, 3, 1, 3, 4, INFINITE, 4, INFINITE]),
    ],
)
def test_reduced_search_matches_plain_sweep_on_wide_systems(seed, q, indices):
    # Widths 9 and 10, with loops, coloops and finite indices of 3 to 5.
    graph = build_attack_graph(wide_system(seed, q=q, m=5, unprotected=4))
    assert [r.index for r in all_indices(graph).results] == indices
    assert_matches_plain_sweep(graph)


@given(st.one_of(structured_systems(), systems_with_loops_and_coloops()))
def test_one_component_search_matches_all_indices(system):
    # ``security_index`` sweeps for its component alone and stops at its index.
    graph = build_attack_graph(system)
    report = all_indices(graph)
    core = reference_core(graph)
    for component, expected in zip(graph.attack_set, report.results):
        result, swept = swept_sets(graph, lambda: security_index(graph, component))
        assert result == expected
        assert_sweeps_core_levels(swept, core, [result.index] if component in core else [])


@given(structured_systems(max_states=4, max_actuators=2, max_sensors=2))
def test_left_invertible_implies_all_indices_infinite(system):
    # Both directions: left-invertible exactly when no index is finite.
    graph = build_attack_graph(system)
    all_infinite = all(r.index == INFINITE for r in all_indices(graph).results)
    assert is_generically_left_invertible(graph) == all_infinite


@given(structured_systems(max_states=4, max_actuators=2, max_sensors=2))
def test_finite_witnesses_satisfy_their_contract(system):
    graph = build_attack_graph(system)
    for result in all_indices(graph).results:
        if result.is_finite:
            assert len(result.witness) == result.index
            assert result.component in result.witness
            assert not saturated_by_all_max_linkings(
                graph, result.witness, result.component
            )


def wide_system(seed: int, n: int = 30, q: int = 7, m: int = 4, unprotected: int = 3) -> StructuredSystem:
    """n states with about 2 state edges each, q actuators and ``unprotected`` of m sensors open."""
    rng = random.Random(seed)
    states = tuple(f"x{k + 1}" for k in range(n))
    actuators = tuple(f"u{k + 1}" for k in range(q))
    sensors = tuple(Sensor(f"y{k + 1}", k >= unprotected) for k in range(m))
    w_edges = {(a, b) for a in states for b in states if a != b and rng.random() < 2 / n}
    b_edges = {(u, rng.choice(states)) for u in actuators}
    c_edges = {(rng.choice(states), s.name) for s in sensors}
    return StructuredSystem(states, actuators, sensors, w_edges, b_edges, c_edges)


def test_width_ten_search_matches_fresh_network_reference():
    graph = build_attack_graph(wide_system(6))
    assert len(graph.attack_set) == 10
    report = all_indices(graph)
    examined = sum(r.subsets_examined for r in report.results)
    # The sweep ranks each core set at most once, and only up to the largest
    # index, so far fewer linking sizes reach the memo than a plain sweep
    # examines subsets.
    assert len(_flows_for(graph).sizes) < examined
    assert {r.index for r in report.results} == {1, 3, INFINITE}
    assert report.results == tuple(reference.security_index(graph, c) for c in graph.attack_set)


def table_rank(tables):
    """``redundancy_sweep``'s rank from one table per group.

    ``tables[g][mask]`` holds the F ranks of the set of positions whose
    bits are set in ``mask``.
    """
    functions = len(tables[0][0])

    def rank(sets):
        masks = (1 << sets).sum(axis=1).tolist()
        ranks = [[table[mask] for table in tables] for mask in masks]
        return np.array(ranks, dtype=np.intp).reshape(len(masks), len(tables), functions)

    return rank


def assert_groups_sweep_alone(width, tables, wanted):
    """A sweep over all the groups answers each group as a sweep of that group alone."""
    grouped = redundancy_sweep(width, table_rank(tables), wanted, DEFAULT_SUBSET_CAP)
    alone = [redundancy_sweep(width, table_rank([t]), wanted, DEFAULT_SUBSET_CAP) for t in tables]
    assert all(len(answer) == 1 for answer in alone)
    assert grouped == tuple(answer for (answer,) in alone)
    return grouped


def test_grouped_sweep_of_linking_ranks_equals_one_sweep_per_graph():
    # Twelve width-6 graphs, ranked by fresh-network linking sizes: their
    # cores differ, so the sweep runs the union of the cores and each graph
    # must take only the sets inside its own.
    graphs = [build_attack_graph(wide_system(seed, n=10, q=4, m=4, unprotected=2)) for seed in range(12)]
    width = 6
    tables = []
    for graph in graphs:
        attack_set, targets = graph.attack_set, graph.targets
        assert len(attack_set) == width
        tables.append(
            [
                (reference.max_linking_size(graph, [attack_set[k] for k in range(width) if mask >> k & 1], targets),)
                for mask in range(1 << width)
            ]
        )
    cores = {frozenset(graph.attack_set.index(v) for v in reference_core(graph)) for graph in graphs}
    assert len(cores) > 1 and max(len(core) for core in cores) >= 4
    grouped = assert_groups_sweep_alone(width, tables, range(width))
    for graph, found in zip(graphs, grouped):
        assert found == tuple(
            None if r.witness is None else tuple(graph.attack_set.index(v) for v in r.witness)
            for r in all_indices(graph).results
        )


@given(st.data())
def test_grouped_sweep_of_non_matroid_ranks_equals_one_sweep_per_group(data):
    # Arbitrary rank tables, mostly not those of matroids: a set redundant
    # in one group's ranks can hold a column outside that group's core,
    # which only the own-core rule keeps out of its answer.
    width = data.draw(st.integers(min_value=1, max_value=6), label="width")
    groups = data.draw(st.integers(min_value=1, max_value=4), label="groups")
    functions = data.draw(st.integers(min_value=1, max_value=2), label="functions")
    # Tables come from a drawn seed, so a failure shrinks in a few steps.
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32), label="seed"))
    tables = [
        [
            tuple(rng.randint(0, bin(mask).count("1")) for _ in range(functions))
            for mask in range(1 << width)
        ]
        for _ in range(groups)
    ]
    wanted = data.draw(
        st.lists(st.integers(min_value=0, max_value=width - 1), min_size=1, unique=True), label="wanted"
    )
    assert_groups_sweep_alone(width, tables, wanted)


def members(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@given(st.one_of(structured_systems(max_states=4), systems_with_loops_and_coloops(max_extra=1)))
def test_fundamental_circuits_of_level_r_bases_are_the_circuits(system):
    # Exhaustive linking sizes of every attack subset, by bit mask.
    graph = build_attack_graph(system)
    width = len(graph.attack_set)
    table = [
        brute_force_max_linking(graph.successors, [graph.attack_set[k] for k in members(mask)], graph.targets)
        for mask in range(1 << width)
    ]
    r = table[-1]
    circuits = {
        mask
        for mask in range(1, 1 << width)
        if all(table[mask & ~(1 << k)] == len(members(mask)) - 1 == table[mask] for k in members(mask))
    }
    bases = [mask for mask in range(1 << width) if len(members(mask)) == r == table[mask]]
    fundamental = {
        1 << e | sum(1 << j for j in members(basis) if table[basis & ~(1 << j) | 1 << e] == r)
        for basis in bases
        for e in range(width)
        if not basis >> e & 1
    }
    assert fundamental == circuits

    # On the core, of rank r(A) less the coloops, the smallest of them
    # through each column is its index.
    every = (1 << width) - 1
    core = sorted(graph.attack_set.index(v) for v in reference_core(graph))
    coloops = sum(table[every ^ 1 << k] < r for k in range(width))

    def rank(sets):
        masks = [sum(1 << core[k] for k in row) for row in sets.tolist()]
        return np.array([table[mask] for mask in masks], dtype=np.intp).reshape(len(masks), 1, 1)

    sizes = circuit_sizes(rank, rank(np.arange(len(core))[:, None]), r - coloops)
    assert sizes[:, 0].tolist() == [all_indices(graph).results[k].index for k in core]


def uniform_table(width, r):
    """Ranks of the uniform matroid U(r, width), by bit mask: min(|S|, r)."""
    return [(min(bin(mask).count("1"), r),) for mask in range(1 << width)]


def test_circuit_sizes_of_uniform_matroids():
    # Every r + 1 columns of U(r, c) form a circuit.  The guard sweeps
    # level 2 of U(2, 4) (6 sets, as many as level r) and reuses it; U(3, 6)
    # goes from level 2 (15 sets) to level 3 (20), and U(4, 5) ranks level
    # 4 alone (5 sets, against 10 in level 2).
    for width, r in ((4, 2), (6, 3), (5, 4)):
        table = uniform_table(width, r)
        rank = table_rank([table, table])
        sizes = circuit_sizes(rank, rank(np.arange(width)[:, None]), r)
        assert sizes.tolist() == [[r + 1, r + 1]] * width


def test_circuit_sizes_leave_non_matroid_groups_unresolved():
    # Both groups have the ranks of U(2, 4) under their first function, but
    # group 1's second function ranks {0, 1} at 1: its functions disagree
    # on level r = 2, so none of its columns is resolved there.
    width = 4
    uniform = [(f, f) for (f,) in uniform_table(width, 2)]
    split = [(f, 1 if mask == 0b11 else f) for mask, (f, _) in enumerate(uniform)]
    rank = table_rank([uniform, split])
    singles = rank(np.arange(width)[:, None])
    assert circuit_sizes(rank, singles, 2).tolist() == [[3, 0]] * width
    # Taken to have rank 3, U(2, 4) has no basis in level 3, so no column
    # lies on a fundamental circuit.
    assert circuit_sizes(rank, singles, 3).tolist() == [[0, 0]] * width

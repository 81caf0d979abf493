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
    INFINITE,
    EnumerationCapError,
    all_indices,
    circuit_keys,
    is_generically_left_invertible,
    plain_sweep_count,
    security_index,
    witness_sets,
)
from secindex.io import emit_report, parse_system
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
from .strategies import parallel_pairs, structured_systems, systems_with_loops_and_coloops
from .test_catalog import generate


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
    """``call()``'s result and the attack subsets its core search ranked.

    Every linking size ``index`` asks for is recorded.  The first sets
    must be the settle step's: each singleton, the attack set A, then each
    A minus one component unless r(A) = w.  The rest are the core's.
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


def assert_ranks_within_the_cheaper_route(graph, swept, core, indices):
    """The core search stays in the core and ranks at most twice the cheaper route's sets.

    The bottom-up sweep would rank sizes 2 up to the largest of
    ``indices`` (the asked core components' indices), or up to one below
    the core's size; level r holds C(c, r) sets.  With no core component
    asked, nothing is ranked past the settle step; a core of nullity 1
    (rank c - 1), which is one circuit, ranks its level r alone.
    """
    assert all(subset <= core for subset in swept)
    if not indices:
        assert not swept
        return
    c, r = len(core), reference.max_linking_size(graph, core, graph.targets)
    if r == c - 1:
        assert Counter(swept) == Counter(frozenset(core - {v}) for v in core)
        return
    top = min(max(indices), c - 1)
    sweep = sum(math.comb(c, size) for size in range(2, top + 1))
    assert len(swept) <= 2 * min(sweep, math.comb(c, r))


def reduced_indices(graph):
    """``all_indices(graph)``, checking that its core search stays in the core and its bound."""
    report, swept = swept_sets(graph, lambda: all_indices(graph))
    core = reference_core(graph)
    indices = [r.index for r in report.results if r.component in core]
    assert_ranks_within_the_cheaper_route(graph, swept, core, indices)
    return report


def assert_matches_plain_sweep(graph):
    assert reduced_indices(graph).results == reference.security_indices(graph)


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
    # ``security_index`` runs the search of ``all_indices`` until its own
    # component is resolved.
    graph = build_attack_graph(system)
    report = all_indices(graph)
    core = reference_core(graph)
    for component, expected in zip(graph.attack_set, report.results):
        result, swept = swept_sets(graph, lambda: security_index(graph, component))
        assert result == expected
        assert_ranks_within_the_cheaper_route(graph, swept, core, [result.index] if component in core else [])


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
    # The core search ranks each core set at most once, so far fewer
    # linking sizes reach the memo than a plain sweep examines subsets.
    assert len(_flows_for(graph).sizes) < examined
    assert {r.index for r in report.results} == {1, 3, INFINITE}
    assert report.results == reference.security_indices(graph)


def table_rank(tables):
    """``circuit_keys``' rank from one table per group.

    ``tables[g][mask]`` holds the F ranks of the set of positions whose
    bits are set in ``mask``.
    """
    functions = len(tables[0][0])

    def rank(sets):
        masks = (1 << sets).sum(axis=1).tolist()
        ranks = [[table[mask] for table in tables] for mask in masks]
        return np.array(ranks, dtype=np.intp).reshape(len(masks), len(tables), functions)

    return rank


def table_witnesses(width, tables):
    """``witness_sets`` of one table per group, as a tuple of answers per group."""

    def ranks(among):
        return table_rank(tables[among] if isinstance(among, slice) else [tables[g] for g in among])

    return tuple(tuple(found) for found in witness_sets(width, ranks))


def assert_groups_answered_alone(width, tables):
    """The engine over all the groups answers each group as it answers that group alone."""
    grouped = table_witnesses(width, tables)
    alone = [table_witnesses(width, [t]) for t in tables]
    assert all(len(answer) == 1 for answer in alone)
    assert grouped == tuple(answer for (answer,) in alone)
    return grouped


def test_grouped_sweep_of_linking_ranks_equals_one_sweep_per_graph():
    # Twelve width-6 graphs, ranked by fresh-network linking sizes: their
    # cores differ, so the engine ranks them in several buckets, each on
    # its own core, and must answer each graph as its structural index.
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
    grouped = assert_groups_answered_alone(width, tables)
    for graph, found in zip(graphs, grouped):
        assert found == tuple(
            None if r.witness is None else tuple(graph.attack_set.index(v) for v in r.witness)
            for r in all_indices(graph).results
        )


def unresolved_keys(rank, singles, r, wanted=slice(None)):
    """A ``circuit_keys`` that resolves nothing, so every group is swept."""
    return np.zeros(singles.shape[:2], dtype=np.int64)


@given(st.data())
def test_grouped_sweep_of_non_matroid_ranks_equals_one_sweep_per_group(data):
    # Arbitrary rank tables, mostly not those of matroids, and every group
    # swept: a set redundant in one group's ranks can hold a column outside
    # that group's core, which only a sweep of its own core keeps out.
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
    with mock.patch("secindex.index.circuit_keys", unresolved_keys):
        grouped = assert_groups_answered_alone(width, tables)
    assert grouped == tuple(reference.own_core_sweep(width, table) for table in tables)
    # Through ``circuit_keys`` too, each group's answer is its own.
    assert_groups_answered_alone(width, tables)


def members(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def linking_table(graph):
    """Exhaustive linking sizes of every attack subset, by bit mask of attack-set positions."""
    return [
        brute_force_max_linking(graph.successors, [graph.attack_set[k] for k in members(mask)], graph.targets)
        for mask in range(1 << len(graph.attack_set))
    ]


def circuits_of(table):
    """The circuits of the matroid with rank ``table``, as bit masks."""
    return {
        mask
        for mask in range(1, len(table))
        if all(table[mask & ~(1 << k)] == len(members(mask)) - 1 == table[mask] for k in members(mask))
    }


def table_core_rank(table, core):
    """``circuit_keys``' rank over the ``core`` positions, from a linking table."""

    def rank(sets):
        masks = [sum(1 << core[k] for k in row) for row in sets.tolist()]
        return np.array([table[mask] for mask in masks], dtype=np.intp).reshape(len(masks), 1, 1)

    return rank


@given(st.one_of(structured_systems(max_states=4), systems_with_loops_and_coloops(max_extra=1)))
def test_fundamental_circuits_of_level_r_bases_are_the_circuits(system):
    graph = build_attack_graph(system)
    width = len(graph.attack_set)
    table = linking_table(graph)
    r = table[-1]
    bases = [mask for mask in range(1 << width) if len(members(mask)) == r == table[mask]]
    fundamental = {
        1 << e | sum(1 << j for j in members(basis) if table[basis & ~(1 << j) | 1 << e] == r)
        for basis in bases
        for e in range(width)
        if not basis >> e & 1
    }
    assert fundamental == circuits_of(table)

    # On the core, of rank r(A) less the coloops, the smallest of them
    # through each column is its index.
    every = (1 << width) - 1
    core = sorted(graph.attack_set.index(v) for v in reference_core(graph))
    coloops = sum(table[every ^ 1 << k] < r for k in range(width))
    rank = table_core_rank(table, core)
    keys = circuit_keys(rank, rank(np.arange(len(core))[:, None]), r - coloops)
    assert (keys[:, 0] >> len(core)).tolist() == [all_indices(graph).results[k].index for k in core]


def assert_core_facts(graph):
    """The core facts the structural route relies on, on exhaustive linking sizes.

    The core's rank is r(A) less the number of coloops, with no flow; a
    core of nullity 1 is a single circuit; and the least ``circuit_keys``
    key through each core column is its lexicographically first smallest
    circuit, which ``all_indices`` reports as its witness.
    """
    width = len(graph.attack_set)
    table = linking_table(graph)
    every = (1 << width) - 1
    coloops = sum(table[every ^ 1 << k] < table[every] for k in range(width))
    core = sorted(graph.attack_set.index(v) for v in reference_core(graph))
    c, core_mask = len(core), sum(1 << k for k in core)
    r = table[core_mask]
    assert r == table[every] - coloops
    if not c:
        return
    circuits = circuits_of(table)
    if r == c - 1:
        assert {mask for mask in circuits if mask & core_mask == mask} == {core_mask}
    rank = table_core_rank(table, core)
    keys = circuit_keys(rank, rank(np.arange(c)[:, None]), r)[:, 0].tolist()
    results = all_indices(graph).results
    for i, k in enumerate(core):
        size, first = min((len(members(mask)), members(mask)) for mask in circuits if mask >> k & 1)
        revmask = sum(1 << (c - 1 - core.index(j)) for j in first)
        assert keys[i] == size << c | (1 << c) - 1 - revmask
        assert results[k].witness == tuple(graph.attack_set[j] for j in first)


@given(st.one_of(structured_systems(max_states=4), systems_with_loops_and_coloops(max_extra=1)))
def test_core_rank_nullity_one_and_least_keys_on_brute_force_ranks(system):
    assert_core_facts(build_attack_graph(system))


@pytest.mark.parametrize("fixture", ["chain_graph", "collider_graph"])
def test_fixture_cores_are_single_circuits(fixture, request):
    # Both fixtures' cores have nullity 1: {u1, a_y1} and {u2, u3}, each of
    # rank 1.  Level r, the two singletons, is all the core search ranks.
    graph = request.getfixturevalue(fixture)
    _, swept = swept_sets(graph, lambda: all_indices(graph))
    core = reference_core(graph)
    assert len(core) == 2
    assert Counter(swept) == Counter(frozenset({v}) for v in core)
    assert_core_facts(graph)


def uniform_table(width, r):
    """Ranks of the uniform matroid U(r, width), by bit mask: min(|S|, r)."""
    return [(min(bin(mask).count("1"), r),) for mask in range(1 << width)]


def test_circuit_sizes_of_uniform_matroids():
    # Every r + 1 columns of U(r, c) form a circuit, so the lexicographically
    # first one through column k is 0 .. r, or 0 .. r - 1 and k.  U(2, 4)
    # ranks its level 2 once, as level r; U(3, 6) goes from level 2 (15
    # sets) to level 3 (20), and U(4, 5) ranks level 4 alone (5 sets,
    # against 10 in level 2).
    for width, r in ((4, 2), (6, 3), (5, 4)):
        table = uniform_table(width, r)
        rank = table_rank([table, table])
        keys = circuit_keys(rank, rank(np.arange(width)[:, None]), r)
        first = [list(range(r + 1)) if k <= r else [*range(r), k] for k in range(width)]
        expected = [(r + 1) << width | (1 << width) - 1 - sum(1 << (width - 1 - j) for j in c) for c in first]
        assert keys.tolist() == [[key, key] for key in expected]


def test_circuit_sizes_leave_non_matroid_groups_unresolved():
    # Both groups have the ranks of U(2, 4) under their first function, but
    # group 1's second function ranks {0, 1} at 1: its functions disagree
    # on level r = 2, so none of its columns is resolved there.
    width = 4
    uniform = [(f, f) for (f,) in uniform_table(width, 2)]
    split = [(f, 1 if mask == 0b11 else f) for mask, (f, _) in enumerate(uniform)]
    rank = table_rank([uniform, split])
    singles = rank(np.arange(width)[:, None])
    assert (circuit_keys(rank, singles, 2) >> width).tolist() == [[3, 0]] * width
    # Taken to have rank 3, U(2, 4) has no basis in level 3, so no column
    # lies on a fundamental circuit.
    assert circuit_keys(rank, singles, 3).tolist() == [[0, 0]] * width


def test_nullity_one_takes_the_whole_core_only_when_level_r_is_all_bases():
    # Four columns of rank 3 with {0, 1, 2} of rank 2, against the other
    # three 3-sets of rank 3: the fundamental circuit of every basis is
    # {0, 1, 2} (key 3 << 4 | 0b0001), and column 3 lies on none, so the
    # general level-r keys hold, not the whole core's (4 << 4).
    table = [(min(bin(mask).count("1"), 2 if mask == 0b0111 else 3),) for mask in range(16)]
    rank = table_rank([table])
    keys = circuit_keys(rank, rank(np.arange(4)[:, None]), 3)
    assert keys[:, 0].tolist() == [3 << 4 | 0b0001] * 3 + [0]


@pytest.mark.parametrize("width", [2, 3, 5])
def test_nullity_one_matroid_ranks_only_level_r(width):
    # U(c - 1, c) is one circuit, the whole core: level r, its c sets of
    # c - 1 columns, is all that is ranked.
    rank = table_rank([uniform_table(width, width - 1)])
    singles = rank(np.arange(width)[:, None])
    ranked = []

    def counting(sets):
        ranked.extend(map(tuple, sets.tolist()))
        return rank(sets)

    keys = circuit_keys(counting, singles, width - 1)
    assert keys.tolist() == [[width << width]] * width
    assert sorted(ranked) == sorted(itertools.combinations(range(width), width - 1))


def test_parallel_pairs_never_rank_level_r():
    # Twelve actuators in six parallel pairs: the core is all of them, of
    # rank 6, and every index is 2.  The guard's level 2 (66 sets) resolves
    # every column, so level r (924 sets) is never ranked.
    graph = build_attack_graph(parallel_pairs(6))
    report, swept = swept_sets(graph, lambda: all_indices(graph))
    assert [r.index for r in report.results] == [2] * 12
    assert len(swept) == math.comb(12, 2)
    assert report.results == reference.security_indices(graph)


def hard_system(width, seed):
    """A system of the "hard" family: width - 2 actuators and 2 of 6-10 sensors unprotected.

    30-45 states of out-degree 2.5, drawn from ``random.Random(f"hard/{width}/{seed}")``
    through the benchmark's document generator.
    """
    rng = random.Random(f"hard/{width}/{seed}")
    n, m = rng.randint(30, 45), rng.randint(6, 10)
    return parse_system(generate._document(rng, n, width - 2, m, 2, 2.5, f"hard width {width} seed {seed}"))


@pytest.mark.parametrize(
    "seed, indices",
    [
        (3, [6, 2, 2, 2, 6, 2, 3, 2, 5, 5, 2, 5, 6]),
        (4, [7, 4, 7, 2, 2, 4, 4, 7, 7, 2, 7, 2, 7]),
    ],
)
def test_level_r_matches_plain_sweep_on_hard_systems(seed, indices):
    # Width 13: the whole attack set is the core, of rank 6 (1,716 sets in
    # level r), and the indices reach r + 1.  These two seeds are the hard
    # systems of width 12-14 whose plain sweep takes about a second or less.
    graph = build_attack_graph(hard_system(13, seed))
    assert [r.index for r in all_indices(graph).results] == indices
    assert_matches_plain_sweep(graph)

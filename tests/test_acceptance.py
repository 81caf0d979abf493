"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  Every tolerance and budget is pinned here; nothing is
deferred to later calibration.
"""

import random
import time
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from secindex.cli import main
from secindex.index import INFINITE, all_indices, is_generically_left_invertible
from secindex.io import parse_system
from secindex.linking import max_linking_size
from secindex.model import (
    build_attack_graph,
    random_structured_system,
    validate_assumptions,
)
from secindex.oracle import default_probe, generic_normal_rank, numeric_index_vector, sample_realization

from .bruteforce import brute_force_max_linking
from .conftest import FIXTURES
from .strategies import digraph_instances, structured_systems
from .test_linking import _successor_ordinals


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    notes: list[str] = []
    start = time.monotonic()
    try:
        yield notes
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"[criterion {number}] {name}: FAIL ({elapsed:.1f}s over {budget_seconds:.0f}s budget)")
        raise AssertionError(
            f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s >= {budget_seconds}s"
        )
    detail = f"; {', '.join(notes)}" if notes else ""
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s{detail})")


def load_graph(name):
    system = parse_system((FIXTURES / name).read_text(encoding="utf-8"))
    return system, build_attack_graph(system)


def index_by_name(graph):
    return {
        graph.name_of(r.component): r for r in all_indices(graph).results
    }


def test_criterion_1_running_example_regression():
    with criterion(1, "running-example regression", budget_seconds=1.0):
        _, graph = load_graph("chain.json")
        results = index_by_name(graph)
        assert results["u1"].index == 2
        assert [graph.name_of(v) for v in results["u1"].witness] == ["u1", "a_y1"]
        assert results["a_y1"].index == 2
        assert results["u2"].index == INFINITE


def test_criterion_2_counterexample_regression():
    with criterion(2, "counterexample regression", budget_seconds=1.0):
        _, graph = load_graph("collider.json")
        results = index_by_name(graph)
        assert results["u1"].index == INFINITE
        assert max_linking_size(graph, graph.attack_set, graph.targets) == 2
        assert is_generically_left_invertible(graph) is False


def test_criterion_3_linking_oracle_equivalence():
    from .strategies import state_only_graph
    from secindex.model import VertexId, VertexKind

    with criterion(3, "linking oracle equivalence (500 digraphs)", budget_seconds=60.0) as notes:
        rng = random.Random(20250811)
        notes.append("500 graphs vs exhaustive enumeration")
        mismatches = 0
        for _ in range(500):
            n = rng.randint(1, 10)
            possible = [(a, b) for a in range(n) for b in range(n)]
            arcs = set(rng.sample(possible, rng.randint(0, min(2 * n, len(possible)))))
            sources = set(rng.sample(range(n), rng.randint(0, min(4, n))))
            targets = set(rng.sample(range(n), rng.randint(0, min(4, n))))
            graph = state_only_graph(n, arcs)
            flow = max_linking_size(
                graph,
                {VertexId(VertexKind.STATE, k) for k in sources},
                {VertexId(VertexKind.STATE, k) for k in targets},
            )
            exhaustive = brute_force_max_linking(
                _successor_ordinals(graph), sources, targets
            )
            mismatches += flow != exhaustive
        assert mismatches == 0


def test_criterion_4_rank_linking_agreement():
    with criterion(4, "rank/linking agreement on every subset", budget_seconds=120.0) as notes:
        cases = [load_graph("chain.json"), load_graph("collider.json")]
        cases += [
            (system, build_attack_graph(system))
            for system in (random_structured_system(41000 + k) for k in range(100))
        ]
        mismatches = 0
        checked = 0
        for case_number, (system, graph) in enumerate(cases):
            probe = default_probe(freqs=3, tolerance=1e-9, seed=61000 + case_number)
            width = len(graph.attack_set)
            column_sets = [
                [k for k in range(width) if (mask >> k) & 1] for mask in range(2**width)
            ]
            ranks = generic_normal_rank(system, column_sets, probe)
            for columns, rank in zip(column_sets, ranks):
                expected = max_linking_size(
                    graph, [graph.attack_set[k] for k in columns], graph.targets
                )
                checked += 1
                mismatches += rank != expected
        assert checked > 2 * 100
        assert mismatches == 0
        notes.append(f"{checked} subsets across {len(cases)} structures, all exact")


def test_criterion_5_genericity_of_the_index():
    with criterion(5, "index genericity over seeded realizations", budget_seconds=600.0) as notes:
        cases = [load_graph("chain.json"), load_graph("collider.json")]
        cases += [
            (system, build_attack_graph(system))
            for system in (random_structured_system(52000 + k) for k in range(50))
        ]
        realizations_each = 50
        pair_hits = 0
        pair_total = 0
        for case_number, (system, graph) in enumerate(cases):
            probe = default_probe(freqs=3, tolerance=1e-9, seed=73000 + case_number)
            structural = tuple(r.index for r in all_indices(graph).results)
            width = len(structural)
            identical_vectors = 0
            for trial in range(realizations_each):
                realization = sample_realization(
                    system, seed=7_000_000 + 1000 * case_number + trial
                )
                numeric = numeric_index_vector(realization, probe)
                hits = sum(1 for a, b in zip(numeric, structural) if a == b)
                pair_hits += hits
                pair_total += width
                identical_vectors += hits == width
            assert identical_vectors >= realizations_each - 1, (
                f"structure {case_number}: only {identical_vectors}/{realizations_each} "
                f"realizations reproduced the structural index vector"
            )
        assert pair_hits / pair_total >= 0.98
        notes.append(f"{pair_hits}/{pair_total} component-realization pairs agree")


def test_criterion_6_structural_invariants():
    cases_run = [0]

    @settings(max_examples=220)
    @given(digraph_instances())
    def check_flow_bounds(instance):
        graph, sources, targets = instance
        size = max_linking_size(graph, sources, targets)
        assert 0 <= size <= min(len(sources), len(targets))
        cases_run[0] += 1

    @settings(max_examples=220)
    @given(digraph_instances(), st.integers(min_value=0, max_value=10**6))
    def check_source_removal_drop(instance, pick):
        graph, sources, targets = instance
        cases_run[0] += 1
        if not sources:
            return
        v = sorted(sources)[pick % len(sources)]
        full = max_linking_size(graph, sources, targets)
        reduced = max_linking_size(graph, sources - {v}, targets)
        assert reduced in (full - 1, full)

    @settings(max_examples=220)
    @given(digraph_instances(), st.integers(min_value=0, max_value=2**16))
    def check_monotone_in_sources(instance, bits):
        graph, sources, targets = instance
        ordered = sorted(sources)
        subset = {v for k, v in enumerate(ordered) if (bits >> k) & 1}
        assert max_linking_size(graph, subset, targets) <= max_linking_size(
            graph, sources, targets
        )
        cases_run[0] += 1

    @settings(max_examples=200)
    @given(
        structured_systems(
            max_states=5, max_actuators=2, max_sensors=2, ensure_assumptions=True
        )
    )
    def check_index_at_least_two_under_assumptions(system):
        graph = build_attack_graph(system)
        assert validate_assumptions(graph) == []
        for result in all_indices(graph).results:
            assert result.index >= 2
        cases_run[0] += 1

    @settings(max_examples=200)
    @given(
        structured_systems(
            max_states=5, max_actuators=2, max_sensors=2, require_unprotected=True
        ),
        st.integers(min_value=0, max_value=10**6),
    )
    def check_protection_never_lowers_indices(system, pick):
        unprotected = system.unprotected_sensors
        chosen = system.sensors[unprotected[pick % len(unprotected)]].name
        before = {
            r.component: r.index for r in all_indices(build_attack_graph(system)).results
        }
        after_graph = build_attack_graph(system.with_protected(chosen))
        for result in all_indices(after_graph).results:
            assert result.index >= before[result.component]
        cases_run[0] += 1

    with criterion(6, "structural invariants (>= 1000 generated cases)") as notes:
        check_flow_bounds()
        check_source_removal_drop()
        check_monotone_in_sources()
        check_index_at_least_two_under_assumptions()
        check_protection_never_lowers_indices()
        assert cases_run[0] >= 1000, f"only {cases_run[0]} generated cases ran"
        notes.append(f"{cases_run[0]} cases, zero violations")


def test_criterion_7_deterministic_invocations(capsys):
    chain = str(FIXTURES / "chain.json")

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out.encode()

    with criterion(7, "byte-identical repeated invocations"):
        first = run("index", "--input", chain)
        second = run("index", "--input", chain)
        assert first == second
        first = run("verify", "--input", chain, "--trials", "8", "--seed", "11")
        second = run("verify", "--input", chain, "--trials", "8", "--seed", "11")
        assert first == second
        assert first[0] == 0

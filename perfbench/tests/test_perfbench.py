"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

run.import_program()

import numpy.linalg  # noqa: E402
import secindex  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("family", sorted(generate.FAMILIES))
def test_documents_are_deterministic_per_entry(family):
    entries = range(0, generate.FAMILIES[family]["catalog"], 7)
    first = [generate.document(family, e) for e in entries]
    assert first == [generate.document(family, e) for e in entries]
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("family", sorted(generate.FAMILIES))
def test_selection_is_deterministic_per_seed_and_differs_across_seeds(family):
    seconds = run.load_pinned(family).get("seconds")
    picks = {seed: generate.select(family, seed, seconds) for seed in range(20)}
    assert picks == {seed: generate.select(family, seed, seconds) for seed in range(20)}
    assert all(picks[seed] != picks[seed + 1] for seed in range(19))
    assert len({tuple(entries) for entries in picks.values()}) >= 15
    for entries in picks.values():
        assert len(set(entries)) == len(entries)


def test_documents_parse_with_the_declared_width():
    for family in generate.FAMILIES:
        for entry in range(0, generate.FAMILIES[family]["catalog"], 11):
            system = secindex.io.parse_system(generate.document(family, entry))
            assert system.attack_width == generate.width_of(family, entry)


def test_gauge_scales_a_span_by_the_samples_around_it():
    gauge = reference.Gauge()
    gauge.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    gauge.slowdown = [9.0, 2.0, 2.0, 1.0, 9.0]
    # Inside: the sample at 2.0; around: those at 1.0 and 3.0.
    assert gauge.at_nominal(1.5, 2.5) == pytest.approx(1.0 * 3 / 5)
    assert gauge.at_nominal(1.2, 1.4) == pytest.approx(0.2 * 2 / 4)


def test_gauge_samples_during_work_and_restores_the_signal_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Gauge() as gauge:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * reference.INTERVAL_S:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.slowdown) >= 3
    assert 0 < gauge.spent < time.perf_counter() - start


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "secindex"
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_count_calls_and_are_removed_afterwards():
    before = _bindings()
    svd = numpy.linalg.svd
    spans = tracer.Tracer()
    spans.install()
    try:
        assert secindex.cli.all_indices is not before[("secindex.cli", "all_indices")]
        assert secindex.index.saturated_by_all_max_linkings is not before[
            ("secindex.index", "saturated_by_all_max_linkings")
        ]
        text = (ROOT / "fixtures" / "chain.json").read_text(encoding="utf-8")
        workloads.batch_op(text)
    finally:
        spans.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert numpy.linalg.svd is svd

    values = spans.metrics()
    assert values["io.parse_system.calls"] == 1
    assert values["index.security_index.calls"] == 3
    assert values["linking.flows_per_subset"] == 2.0
    assert values["oracle.svd.calls"] == 0
    assert values["cli.main.calls"] == 0


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(secindex.linking, "saturated_by_all_max_linkings")
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.absent == ["linking.saturated_by_all_max_linkings"]
    assert "linking.saturated_by_all_max_linkings.calls" not in spans.metrics()


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def test_declared_metrics_match_the_tables():
    end_to_end, per_layer, names = _declared()
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    assert names == list(generate.FAMILIES)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "batch-small",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 602
    declared = _declared()[trace]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared

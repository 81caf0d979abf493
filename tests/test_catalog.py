"""Reports on the benchmark catalogs equal the digests pinned from the program.

The documents and the operations come from ``perfbench/generate.py`` and
``perfbench/workloads.py`` and the digests from ``perfbench/pinned/``; all
three are only read, so any change to a report, a verify output, a witness
or a ``subsets_examined`` count on these systems fails here.  The names
that ``perfbench/tracer.py`` wraps are checked here too: a traced run of a
program missing one still exits 0, but lacks that span's metrics.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_catalog_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = _load("generate")
workloads = _load("workloads")
tracer = _load("tracer")


def pinned(family):
    return json.loads((BENCH / "pinned" / f"{family}.json").read_text(encoding="utf-8"))


def test_index_wide_reports_match_pinned_digests(tmp_path):
    expected = pinned("index-wide")["digests"]
    assert len(expected) == generate.FAMILIES["index-wide"]["catalog"] == 40
    for entry, digest in enumerate(expected):
        path = tmp_path / f"{entry}.json"
        path.write_text(generate.document("index-wide", entry), encoding="utf-8")
        assert workloads.digest(workloads.index_op(str(path))) == digest, entry


def test_verify_mid_outputs_match_pinned_digests(tmp_path):
    # Every other entry: 30 documents, which still cycle through all three
    # widths, for half the time of the whole catalog.  Every entry of the
    # pools the benchmark draws its timed documents from is added.
    recorded = pinned("verify-mid")
    expected = recorded["digests"]
    assert len(expected) == generate.FAMILIES["verify-mid"]["catalog"] == 60
    timed = {e for pool in generate.pools("verify-mid", recorded["seconds"]).values() for e in pool}
    entries = sorted(set(range(0, len(expected), 2)) | timed)
    assert {generate.width_of("verify-mid", e) for e in entries} == {7, 8, 9}
    assert len(entries) == 35
    for entry in entries:
        path = tmp_path / f"{entry}.json"
        path.write_text(generate.document("verify-mid", entry), encoding="utf-8")
        assert workloads.digest(workloads.verify_op(str(path))) == expected[entry], entry


@pytest.mark.parametrize("name", ["chain", "collider"])
def test_batch_small_fixture_outputs_match_pinned_digests(name):
    text = (BENCH.parent / "fixtures" / f"{name}.json").read_text(encoding="utf-8")
    assert workloads.digest(workloads.batch_op(text).text()) == pinned("batch-small")["fixtures"][name]


def test_batch_small_reports_and_dot_match_pinned_digests():
    expected = pinned("batch-small")["digests"]
    assert len(expected) == generate.FAMILIES["batch-small"]["catalog"] == 1024
    for entry, digest in enumerate(expected):
        out = workloads.batch_op(generate.document("batch-small", entry))
        workloads.check_linking(out)
        assert workloads.digest(out.text()) == digest, entry


def test_every_traced_name_is_a_function_of_its_layer():
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"secindex.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_traced_batch_op_yields_every_declared_per_layer_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # The tracing overhead is computed by the run, not by the tracer.
    wanted = {m["name"] for m in declared} - {"trace.overhead_s"}
    text = (BENCH.parent / "fixtures" / "chain.json").read_text(encoding="utf-8")
    spans = tracer.Tracer()
    spans.install()
    try:
        workloads.batch_op(text)
    finally:
        spans.uninstall()
    assert spans.absent == []
    assert wanted <= spans.metrics().keys()

#!/usr/bin/env python3
"""The secindex benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload index-wide --seed 1 --seconds 40 --trace 0

Everything runs in this one process on one thread, with string hashing
fixed (the script re-executes itself once to set ``PYTHONHASHSEED``).
Set-up imports the program from ``src/``, builds the seed's documents and
runs one warm-up operation; it is repeated and its median reported.  The
timed passes then repeat over the documents until ``--seconds`` is spent
(at least one).  Each document's latency is its median over the passes:
``run_s`` is their sum, ``op_p50_ms`` their median (``op_p90_ms``,
printed on the line before the result where there are at least 100
documents, their 90th percentile).

All reported times are stated at nominal host speed: the shared host's
speed swings by 20-40% within a run, so fixed reference kernels
(``reference.py``) are timed every 50 ms, also during operations, and
each operation's time is divided by the slowdown they showed meanwhile.
The line before the result also gives the unscaled times (``wall_*``).
Every output is checked against digests recorded from the program
(``pinned/``), the chain fixture's report against its golden file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes, then runs one pass with spans around the
program's public functions (``tracer.py``) and prints the per-layer
metrics, including the tracing overhead.  The last stdout line is the
result; the line before it describes the run and its environment.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import generate
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# Per-layer metric -> unit; the names ``tracer.Tracer.metrics`` produces,
# plus the tracing overhead computed here.
PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "io.parse_system.self_s": "s",
    "io.emit_report.self_s": "s",
    "io.export_dot.self_s": "s",
    "io.input_bytes": "B",
    "io.report_bytes": "B",
    "model.build_attack_graph.self_s": "s",
    "model.validate_assumptions.self_s": "s",
    "model.graph_vertices": "count",
    "model.graph_edges": "count",
    "index.all_indices.self_s": "s",
    "index.security_index.calls": "count",
    "index.security_index.self_s": "s",
    "index.subsets_examined": "count",
    "index.witness_yield": "ratio",
    "linking.saturated_by_all_max_linkings.calls": "count",
    "linking.saturated_by_all_max_linkings.self_s": "s",
    "linking.max_linking_size.calls": "count",
    "linking.max_linking_size.self_s": "s",
    "linking.find_max_linking.self_s": "s",
    "linking.flows_per_subset": "ratio",
    "oracle.sample_realization.self_s": "s",
    "oracle.transfer_matrix.calls": "count",
    "oracle.transfer_matrix.self_s": "s",
    "oracle.generic_normal_rank.self_s": "s",
    "oracle.numeric_index_vector.self_s": "s",
    "oracle.svd.calls": "count",
    "oracle.svd.self_s": "s",
    "trace.overhead_s": "s",
}


def import_program() -> None:
    """Import the program from ``src/``."""
    src = ROOT / "src"
    if not (src / "secindex" / "__init__.py").is_file():
        raise SystemExit(f"error: no secindex sources under {src}")
    sys.path.insert(0, str(src))
    import secindex.cli  # noqa: F401  (pulls in every module and numpy)


def work_dir(workload: str) -> Path:
    path = HERE / ".work" / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_document(work: Path, entry: int, text: str) -> str:
    """Write a document for the CLI; returns its path relative to the cwd."""
    path = work / f"{entry}.json"
    path.write_text(text, encoding="utf-8")
    return os.path.relpath(path)


def load_pinned(workload: str) -> dict:
    return json.loads((HERE / "pinned" / f"{workload}.json").read_text(encoding="utf-8"))


class Run:
    """A workload's inputs for one seed, its operation and its output check."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.workload = workload
        self.pinned = load_pinned(workload)
        self.golden = workloads.golden_chain(ROOT)
        entries = generate.select(workload, seed, self.pinned.get("seconds"))
        texts = [(entry, generate.document(workload, entry)) for entry in entries]
        if workload == "batch-small":
            for name in ("chain", "collider"):
                texts.append((name, (ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8")))
            self.inputs = texts
        else:
            work = work_dir(workload)
            self.inputs = [(entry, write_document(work, entry, text)) for entry, text in texts]
        self.op = workloads.OPS[workload]

    def expected(self, key) -> str:
        if isinstance(key, int):
            return self.pinned["digests"][key]
        return self.pinned["fixtures"][key]

    def check(self, key, output) -> None:
        """Raise ``CheckFailed`` unless ``output`` is what the pinned program gave."""
        import workloads

        if self.workload == "batch-small":
            workloads.check_linking(output)
            if key == "chain" and output.report != self.golden:
                raise workloads.CheckFailed("chain report differs from tests/golden/chain_report.json")
            output = output.text()
        if workloads.digest(output) != self.expected(key):
            raise workloads.CheckFailed(f"{self.workload} output for {key} differs from its pinned digest")

    def warm_up(self) -> None:
        """One operation on the chain fixture, checked."""
        import workloads

        chain = ROOT / "fixtures" / "chain.json"
        if self.workload == "batch-small":
            self.check("chain", self.op(chain.read_text(encoding="utf-8")))
        elif self.workload == "index-wide":
            if self.op(os.path.relpath(chain)) != self.golden:
                raise workloads.CheckFailed("chain report differs from tests/golden/chain_report.json")
        else:
            self.op(os.path.relpath(chain))


class Tally:
    """Operation timings, plus attempted and failed operations."""

    def __init__(self, gauge: reference.Gauge):
        self.gauge = gauge
        self.passes: list[float] = []
        self.pass_ops: list[list[float]] = []  # per pass, one raw latency per input
        self.pass_scaled: list[list[float]] = []  # the same, at nominal host speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_passes(self, run: Run, budget: float, max_passes: int | None = None, before_checks=None) -> None:
        """Timed passes until ``budget`` seconds would be exceeded (at least one).

        Outputs are checked after each pass, outside its timing, with
        tracing removed first by ``before_checks`` when one is given.
        """
        clock = self.gauge.clock
        start = time.perf_counter()
        while True:
            outputs, spans = [], []
            pass_start = time.perf_counter()
            for key, arg in run.inputs:
                op_start = clock()
                try:
                    outputs.append((key, run.op(arg), None))
                except Exception as exc:  # an operation that raises counts as failed
                    outputs.append((key, None, exc))
                spans.append((op_start, clock()))
            self.gauge.sample()
            self.passes.append(time.perf_counter() - pass_start)
            self.pass_ops.append([end - begin for begin, end in spans])
            self.pass_scaled.append([self.gauge.at_nominal(*span) for span in spans])
            if before_checks is not None:
                before_checks()
            for key, output, exc in outputs:
                self.attempted += 1
                if exc is None:
                    try:
                        run.check(key, output)
                    except Exception as check_exc:
                        exc = check_exc
                if exc is not None:
                    self.failed += 1
                    self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            spent = time.perf_counter() - start
            if (max_passes is not None and len(self.passes) >= max_passes) or (
                spent + self.passes[-1] > budget
            ):
                return

    def latencies(self, passes: slice = slice(None), raw: bool = False) -> list[float]:
        """Each input's median latency over the passes, at nominal host speed unless ``raw``."""
        table = self.pass_ops if raw else self.pass_scaled
        return [statistics.median(col) for col in zip(*table[passes])]


def setup(workload: str, seed: int, gauge: reference.Gauge) -> tuple[Run, float, float]:
    """Build the run ``SETUP_REPEATS`` times.

    Returns it and the median seconds, at nominal host speed and raw.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        start = gauge.clock()
        run = Run(workload, seed)
        run.warm_up()
        spans.append((start, gauge.clock()))
    gauge.sample()
    scaled = statistics.median(gauge.at_nominal(*span) for span in spans)
    return run, scaled, statistics.median(end - start for start, end in spans)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(generate.FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with reference.Gauge() as gauge:
        return measure(args, gauge)


def measure(args: argparse.Namespace, gauge: reference.Gauge) -> int:
    """Set up, run the passes and print the result; ``gauge`` is sampling."""
    start = gauge.clock()
    import_program()
    import_span = (start, gauge.clock())
    gauge.sample()
    import_s = gauge.at_nominal(*import_span)
    import_raw_s = import_span[1] - import_span[0]
    gauge.kernels = reference.with_numpy()
    import numpy
    import tracer

    run, setup_median, setup_raw_median = setup(args.workload, args.seed, gauge)
    tally = Tally(gauge)
    if args.trace == 0:
        tally.run_passes(run, args.seconds)
        values = {
            "setup_s": import_s + setup_median,
            "run_s": sum(tally.latencies()),
            "op_p50_ms": 1000 * statistics.median(tally.latencies()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        tally.run_passes(run, args.seconds / 2)
        untraced_run_s = sum(tally.latencies())
        spans = tracer.Tracer(clock=gauge.clock)
        spans.install()
        try:
            tally.run_passes(run, 0.0, max_passes=1, before_checks=spans.uninstall)
        finally:
            spans.uninstall()
        values = spans.metrics()
        values["trace.overhead_s"] = sum(tally.latencies(slice(-1, None))) - untraced_run_s
        units = PER_LAYER_UNITS
        for name in spans.absent:
            print(f"note: {name} no longer exists; its metrics are absent", file=sys.stderr)

    best = tally.latencies()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(tally.passes),
        "op_samples": len(best),
        "error_rate": tally.failed / tally.attempted,
        # The same timings as measured, before scaling to nominal host speed.
        "wall_setup_s": import_raw_s + setup_raw_median,
        "wall_run_s": sum(tally.latencies(raw=True)),
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "threads": "1 (BLAS/OpenMP pinned)",
        },
    }
    if len(best) >= 100:
        info["op_p90_ms"] = 1000 * statistics.quantiles(best, n=10)[-1]
    for failure in tally.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(info))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so set and dict orders, and with them the
        # program's paths through its searches, repeat from run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    raise SystemExit(main())

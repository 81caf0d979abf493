#!/usr/bin/env python3
"""Record the program's outputs on every catalog document.

Writes ``perfbench/pinned/<family>.json``: a digest of each entry's
output (what ``run.py`` checks against) and, for the slotted families,
the median seconds each entry took, from which ``generate.pools`` picks
the entries a run draws from.

Run it only to re-pin on purpose, from the repository root:

    python3 perfbench/pin.py --family verify-mid
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Timed families are timed in interleaved rounds, at the reference
# kernel's nominal speed (``reference.py``), and the median kept, because
# the host's speed swings by 10-40% over seconds to minutes.
TIMING_ROUNDS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    import run  # pins thread pools and puts src/ on the path

    run.import_program()
    import generate
    import numpy
    import reference
    import workloads

    family = args.family
    params = generate.FAMILIES[family]
    entries = range(params["catalog"])
    rounds = 1 if family == "batch-small" else TIMING_ROUNDS
    work = run.work_dir(family)
    inputs = []
    for entry in entries:
        text = generate.document(family, entry)
        inputs.append(text if family == "batch-small" else run.write_document(work, entry, text))
    digests: list[str | None] = [None] * len(inputs)
    times: list[list[float]] = [[] for _ in inputs]
    with reference.Gauge(reference.with_numpy()) as gauge:
        for _ in range(rounds):
            for entry, arg in enumerate(inputs):
                start = gauge.clock()
                produced = workloads.OPS[family](arg)
                span = (start, gauge.clock())
                gauge.sample()
                times[entry].append(gauge.at_nominal(*span))
                if family == "batch-small":
                    workloads.check_linking(produced)
                    produced = produced.text()
                if digests[entry] not in (None, workloads.digest(produced)):
                    raise SystemExit(f"{family} entry {entry}: output changed between rounds")
                digests[entry] = workloads.digest(produced)
                print(f"{family} {entry}: {times[entry][-1]:.3f}s", file=sys.stderr, flush=True)
    seconds = [round(statistics.median(t), 4) for t in times]

    pinned = {
        "family": family,
        "recorded_with": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "digests": digests,
    }
    if family == "batch-small":
        pinned["fixtures"] = {
            name: workloads.digest(
                workloads.batch_op((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8")).text()
            )
            for name in ("chain", "collider")
        }
    else:
        pinned["seconds"] = seconds
    out_dir = HERE / "pinned"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{family}.json").write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

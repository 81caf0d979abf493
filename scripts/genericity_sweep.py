#!/usr/bin/env python3
"""Sweep random sparsity patterns and measure structural/numerical agreement.

For each sampled structure this runs ``oracle.agreement``, the check
behind ``secindex verify``: (a) the empirical generic normal rank of every
attack-column subset must equal the maximum linking size to the sensors,
and (b) the realization-level security index vector must match the
structural one across seeded realizations.  The counts are summed over
the structures and judged by the same fixed gate as ``verify``.  A wider,
slower companion to the packaged acceptance gate, for exploring other
sizes.

Usage:
    python scripts/genericity_sweep.py --structures 200 --realizations 100
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from secindex.cli import _nonnegative_int, _positive_int, _tolerance
from secindex.model import build_attack_graph, random_structured_system
from secindex.oracle import Agreement, agreement, default_probe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--structures", type=_positive_int, default=100)
    parser.add_argument("--realizations", type=_positive_int, default=50)
    parser.add_argument("--max-states", type=int, default=8, help="at least 2")
    parser.add_argument("--seed", type=_nonnegative_int, default=0)
    parser.add_argument("--tol", type=_tolerance, default=1e-9)
    parser.add_argument("--freqs", type=_positive_int, default=3)
    parser.add_argument(
        "--verbose", action="store_true", help="one line per structure instead of dots"
    )
    args = parser.parse_args()
    if args.max_states < 2:
        parser.error(f"argument --max-states: must be at least 2, got {args.max_states}")

    total = Agreement(0, 0, 0, 0, 0)
    worst_structure: tuple[float, int] = (1.0, -1)
    started = time.monotonic()

    for k in range(args.structures):
        system = random_structured_system(args.seed + 10_000 + k, max_states=args.max_states)
        graph = build_attack_graph(system)
        probe = default_probe(freqs=args.freqs, tolerance=args.tol, seed=args.seed + k)
        seeds = [args.seed + 1_000_000 + 1000 * k + trial for trial in range(args.realizations)]
        found = agreement(system, graph, probe, seeds)
        total = Agreement(*(a + b for a, b in zip(total, found)))
        structure_rate = found.identical_vectors / args.realizations
        if structure_rate < worst_structure[0]:
            worst_structure = (structure_rate, k)
        if args.verbose:
            print(
                f"structure {k:4d}: width={len(graph.attack_set)} "
                f"identical-vectors={found.identical_vectors}/{args.realizations}"
            )
        else:
            print(".", end="", flush=True)

    if not args.verbose:
        print()
    elapsed = time.monotonic() - started
    print(f"structures: {args.structures}, realizations each: {args.realizations}")
    print(f"rank/linking agreement: {total.rank_hits}/{total.subsets} subsets ({total.rank_rate:.4%})")
    print(f"index agreement: {total.pair_hits}/{total.pairs} pairs ({total.pair_rate:.4%})")
    if worst_structure[1] >= 0:
        print(
            f"worst structure: #{worst_structure[1]} "
            f"(identical-vector rate {worst_structure[0]:.2%})"
        )
    print(f"elapsed: {elapsed:.1f}s")

    print(f"verdict: {'PASS' if total.passed else 'FAIL'}")
    return 0 if total.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

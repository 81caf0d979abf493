#!/usr/bin/env python3
"""Sweep random sparsity patterns and measure structural/numerical agreement.

For each sampled structure this checks, (a) that the empirical generic
normal rank of every attack-column subset equals the maximum linking size
to the sensors, and (b) that the realization-level security index vector
matches the structural one across seeded realizations, all of a
structure's realizations computed as one batch.  A wider, slower
companion to the packaged acceptance gate, for exploring other sizes.

Usage:
    python scripts/genericity_sweep.py --structures 200 --realizations 100
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from secindex.index import all_indices
from secindex.linking import max_linking_size
from secindex.model import build_attack_graph, random_structured_system
from secindex.oracle import default_probe, generic_normal_rank, numeric_index_vectors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--structures", type=int, default=100)
    parser.add_argument("--realizations", type=int, default=50)
    parser.add_argument("--max-states", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--freqs", type=int, default=3)
    parser.add_argument(
        "--verbose", action="store_true", help="one line per structure instead of dots"
    )
    args = parser.parse_args()

    rank_checked = rank_hits = 0
    pair_checked = pair_hits = 0
    worst_structure: tuple[float, int] = (1.0, -1)
    started = time.monotonic()

    for k in range(args.structures):
        system = random_structured_system(args.seed + 10_000 + k, max_states=args.max_states)
        graph = build_attack_graph(system)
        width = len(graph.attack_set)
        probe = default_probe(freqs=args.freqs, trials=3, tolerance=args.tol, seed=args.seed + k)

        column_sets = [
            [c for c in range(width) if (mask >> c) & 1] for mask in range(2**width)
        ]
        ranks = generic_normal_rank(system, column_sets, probe)
        for columns, rank in zip(column_sets, ranks):
            expected = max_linking_size(
                graph, [graph.attack_set[c] for c in columns], graph.targets
            )
            rank_checked += 1
            rank_hits += rank == expected

        structural = tuple(r.index for r in all_indices(graph).results)
        structure_hits = 0
        seeds = [args.seed + 1_000_000 + 1000 * k + trial for trial in range(args.realizations)]
        for numeric in numeric_index_vectors(system, seeds, probe):
            agree = sum(1 for a, b in zip(numeric, structural) if a == b)
            pair_hits += agree
            pair_checked += width
            structure_hits += agree == width
        structure_rate = structure_hits / args.realizations
        if structure_rate < worst_structure[0]:
            worst_structure = (structure_rate, k)
        if args.verbose:
            print(
                f"structure {k:4d}: width={width} "
                f"identical-vectors={structure_hits}/{args.realizations}"
            )
        else:
            print(".", end="", flush=True)

    if not args.verbose:
        print()
    elapsed = time.monotonic() - started
    rank_rate = rank_hits / rank_checked if rank_checked else 1.0
    pair_rate = pair_hits / pair_checked if pair_checked else 1.0
    print(f"structures: {args.structures}, realizations each: {args.realizations}")
    print(f"rank/linking agreement: {rank_hits}/{rank_checked} subsets ({rank_rate:.4%})")
    print(f"index agreement: {pair_hits}/{pair_checked} pairs ({pair_rate:.4%})")
    if worst_structure[1] >= 0:
        print(
            f"worst structure: #{worst_structure[1]} "
            f"(identical-vector rate {worst_structure[0]:.2%})"
        )
    print(f"elapsed: {elapsed:.1f}s")

    ok = rank_rate == 1.0 and pair_rate >= 0.98
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

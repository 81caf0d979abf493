"""Command-line surface: parse a system, compute, report.

Subcommands: ``index`` (security indices as a JSON report), ``linking``
(maximum linking size and one witness), ``verify`` (``oracle.agreement``,
the numerical check of the graph computations, with its fixed pass gate),
``export-dot`` (render the attack graph).  Exit codes: 0 success, 1 data
error, 2 usage error, 3 verification below the gate.  Identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from secindex import io
from secindex.index import (
    DEFAULT_SUBSET_CAP,
    EnumerationCapError,
    IndexReport,
    all_indices,
    security_index,
)
from secindex.linking import find_max_linking
from secindex.model import (
    AttackGraph,
    InvalidSystemError,
    StructuredSystem,
    UnknownVertexError,
    build_attack_graph,
)
from secindex.oracle import DEFAULT_TOLERANCE, agreement, default_probe

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3


def _checked(text: str, kind: type, accepts: Callable[[Any], bool], wanted: str):
    """``kind(text)`` if it parses and ``accepts`` it, else a usage error saying what it ``wanted``."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not accepts(value):
        raise argparse.ArgumentTypeError(f"must {wanted}, got {text}")
    return value


def _positive_int(text: str) -> int:
    return _checked(text, int, lambda value: value > 0, "be a positive integer")


def _nonnegative_int(text: str) -> int:
    return _checked(text, int, lambda value: value >= 0, "be a non-negative integer")


def _tolerance(text: str) -> float:
    return _checked(text, float, lambda value: 0.0 < value < 1.0, "lie in (0, 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secindex",
        description="Structural actuator security indices for networked control systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cap_help = "max attack-set width: bounds the cost of the settle step plus level r of the core"

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="system document (JSON)")
        p.add_argument("--output", help="write the result here instead of stdout")

    p_index = sub.add_parser("index", help="compute security indices")
    add_common(p_index)
    p_index.add_argument("--component", help="restrict to one attackable component")
    p_index.add_argument("--cap", type=_positive_int, default=DEFAULT_SUBSET_CAP, help=cap_help)

    p_linking = sub.add_parser("linking", help="maximum linking between vertex sets")
    add_common(p_linking)
    p_linking.add_argument(
        "--sources", required=True, help="comma-separated source vertex names"
    )
    p_linking.add_argument(
        "--targets", help="comma-separated target names (default: all sensors)"
    )

    p_verify = sub.add_parser(
        "verify", help="cross-check graph results against numerical rank probes"
    )
    add_common(p_verify)
    p_verify.add_argument(
        "--trials",
        type=_positive_int,
        default=50,
        help="realizations for the index agreement check",
    )
    p_verify.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="seeds the frequencies and realizations"
    )
    p_verify.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOLERANCE, help="relative singular-value rank cut"
    )
    p_verify.add_argument(
        "--freqs", type=_positive_int, default=3, help="probe frequencies per rank test"
    )
    p_verify.add_argument("--cap", type=_positive_int, default=DEFAULT_SUBSET_CAP, help=cap_help)

    p_export = sub.add_parser("export-dot", help="render the attack graph as DOT")
    add_common(p_export)
    p_export.add_argument(
        "--highlight-sources",
        help="highlight one maximum linking from these comma-separated sources",
    )
    return parser


def _load(path: str) -> tuple[StructuredSystem, AttackGraph]:
    text = Path(path).read_text(encoding="utf-8")
    system = io.parse_system(text)
    return system, build_attack_graph(system)


def _names_to_vertices(graph: AttackGraph, raw: str) -> list:
    names = [name for name in raw.split(",") if name]
    return [graph.vertex_named(name) for name in names]


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_index(args: argparse.Namespace) -> int:
    _, graph = _load(args.input)
    if args.component is not None:
        component = graph.vertex_named(args.component)
        report = IndexReport(graph, (security_index(graph, component, args.cap),))
    else:
        report = all_indices(graph, cap=args.cap)
    _write(io.emit_report(report), args.output)
    return EXIT_OK


def _cmd_linking(args: argparse.Namespace) -> int:
    _, graph = _load(args.input)
    sources = _names_to_vertices(graph, args.sources)
    targets = (
        _names_to_vertices(graph, args.targets)
        if args.targets is not None
        else list(graph.targets)
    )
    linking = find_max_linking(graph, sources, targets)
    lines = [f"maximum linking size: {linking.size}"]
    for path in linking.paths:
        lines.append("path: " + " -> ".join(graph.name_of(v) for v in path))
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    system, graph = _load(args.input)
    component_names = [graph.name_of(v) for v in graph.attack_set]
    lines = [
        f"input: {args.input}",
        f"components: {' '.join(component_names) if component_names else '(none)'}",
    ]
    if not component_names:
        lines += ["nothing to verify", "verdict: PASS"]
        _write("\n".join(lines) + "\n", args.output)
        return EXIT_OK

    probe = default_probe(args.freqs, tolerance=args.tol, seed=args.seed)
    seeds = [args.seed + 1000 + trial for trial in range(args.trials)]
    found = agreement(system, graph, probe, seeds, args.cap)
    lines += [
        f"rank/linking agreement: {found.rank_hits}/{found.subsets} subsets ({found.rank_rate:.2%})",
        f"index agreement: {found.pair_hits}/{found.pairs} component-realization pairs"
        f" ({found.pair_rate:.2%})",
        f"identical index vectors: {found.identical_vectors}/{args.trials} realizations",
        f"verdict: {'PASS' if found.passed else 'FAIL'}",
    ]
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK if found.passed else EXIT_VERIFY_FAILED


def _cmd_export(args: argparse.Namespace) -> int:
    _, graph = _load(args.input)
    highlight = None
    if args.highlight_sources is not None:
        sources = _names_to_vertices(graph, args.highlight_sources)
        highlight = find_max_linking(graph, sources, graph.targets)
    _write(io.export_dot(graph, highlight), args.output)
    return EXIT_OK


_COMMANDS = {
    "index": _cmd_index,
    "linking": _cmd_linking,
    "verify": _cmd_verify,
    "export-dot": _cmd_export,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        io.DocumentError,
        InvalidSystemError,
        UnknownVertexError,
        EnumerationCapError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

"""One operation per workload, and the checks on its output.

An operation takes one document through the workload's pipeline and
returns the text it produced.  Library modules are reached through their
module objects at call time (``secindex.cli.main``, not a name imported
here), so the wrappers installed by ``tracer`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
from dataclasses import dataclass
from pathlib import Path

import secindex.cli
import secindex.index
import secindex.io
import secindex.linking
import secindex.model


class CheckFailed(AssertionError):
    """An operation ran but its output is wrong."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _cli(argv: list[str]) -> tuple[int, str]:
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = secindex.cli.main(argv)
    return code, out.getvalue()


def index_op(path: str) -> str:
    """``secindex index --input PATH``; returns the report text."""
    code, text = _cli(["index", "--input", path])
    if code != 0:
        raise CheckFailed(f"index exited {code} on {path}")
    return text


def verify_op(path: str) -> str:
    """``secindex verify --input PATH`` with the CLI defaults.

    Returns the verdict text with its ``input:`` line, which names the
    file, replaced by a fixed one so the digest depends on content only.
    """
    code, text = _cli(["verify", "--input", path])
    lines = text.splitlines()
    if code != 0 or not lines or lines[-1] != "verdict: PASS":
        raise CheckFailed(f"verify exited {code} on {path}: {lines[-1:]}")
    if lines[0] != f"input: {path}":
        raise CheckFailed(f"verify named another input: {lines[0]!r}")
    return "\n".join(["input: -", *lines[1:]]) + "\n"


@dataclass
class BatchOutput:
    report: str
    dot: str
    graph: object
    linking: object

    def text(self) -> str:
        return self.report + self.dot


def batch_op(text: str) -> BatchOutput:
    """The one-shot library pipeline on one document."""
    system = secindex.io.parse_system(text)
    graph = secindex.model.build_attack_graph(system)
    secindex.model.validate_assumptions(graph)
    report = secindex.io.emit_report(secindex.index.all_indices(graph))
    linking = secindex.linking.find_max_linking(graph, graph.attack_set, graph.targets)
    dot = secindex.io.export_dot(graph, linking)
    return BatchOutput(report, dot, graph, linking)


OPS = {"index-wide": index_op, "verify-mid": verify_op, "batch-small": batch_op}


def check_linking(out: BatchOutput) -> None:
    graph = out.graph
    size = secindex.linking.max_linking_size(graph, graph.attack_set, graph.targets)
    if out.linking.size != size:
        raise CheckFailed(f"find_max_linking gave {out.linking.size} paths, max_linking_size {size}")


def golden_chain(root: Path) -> str:
    return (root / "tests" / "golden" / "chain_report.json").read_text(encoding="utf-8")

import json
import shlex
from pathlib import Path

import pytest

from secindex import linking, oracle
from secindex.cli import (
    EXIT_DATA_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)

from .conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CHAIN = str(FIXTURES / "chain.json")
COLLIDER = str(FIXTURES / "collider.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_full_report(capsys):
    code, out, _ = run(capsys, "index", "--input", CHAIN)
    assert code == EXIT_OK
    doc = json.loads(out)
    entries = {e["name"]: e["index"] for e in doc["results"]}
    assert entries == {"u1": 2, "u2": "inf", "a_y1": 2}
    witness = {e["name"]: e.get("witness") for e in doc["results"]}
    assert witness["u1"] == ["u1", "a_y1"]


def test_index_single_component(capsys):
    code, out, _ = run(capsys, "index", "--input", CHAIN, "--component", "u1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [e["name"] for e in doc["results"]] == ["u1"]
    assert doc["results"][0]["index"] == 2


@pytest.mark.parametrize(
    "path, name",
    [(CHAIN, "u1"), (CHAIN, "u2"), (CHAIN, "a_y1"), (COLLIDER, "u1"), (COLLIDER, "u2"), (COLLIDER, "u3")],
)
def test_index_component_prints_its_entry_of_the_full_report(capsys, path, name):
    code, out, _ = run(capsys, "index", "--input", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    doc["results"] = [e for e in doc["results"] if e["name"] == name]
    assert len(doc["results"]) == 1
    code, out, _ = run(capsys, "index", "--input", path, "--component", name)
    assert code == EXIT_OK
    assert out == json.dumps(doc, indent=2) + "\n"


def test_index_unknown_component(capsys):
    code, out, err = run(capsys, "index", "--input", CHAIN, "--component", "u9")
    assert code == EXIT_DATA_ERROR
    assert out == ""
    assert "u9" in err


def test_index_non_attackable_component_is_named(capsys):
    code, out, err = run(capsys, "index", "--input", CHAIN, "--component", "x1")
    assert code == EXIT_DATA_ERROR
    assert out == ""
    assert err == "error: not an attackable component: x1\n"


def test_index_cap_exceeded(capsys):
    code, _, err = run(capsys, "index", "--input", CHAIN, "--component", "u1", "--cap", "1")
    assert code == EXIT_DATA_ERROR
    assert "cap" in err


def test_index_report_cap_exceeded_writes_one_error_line(capsys):
    code, out, err = run(capsys, "index", "--input", CHAIN, "--cap", "1")
    assert code == EXIT_DATA_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "above the enumeration cap of 1" in err


def test_verify_cap_exceeded_fails_before_the_rank_check(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the rank check ran above the cap")

    monkeypatch.setattr("secindex.oracle.generic_normal_rank", refuse)
    code, out, err = run(capsys, "verify", "--input", CHAIN, "--cap", "1")
    assert code == EXIT_DATA_ERROR
    assert out == ""
    assert "above the enumeration cap of 1" in err


def test_index_missing_file(capsys):
    code, _, err = run(capsys, "index", "--input", "no_such_file.json")
    assert code == EXIT_DATA_ERROR
    assert err


def test_index_unwritable_output(capsys):
    code, out, err = run(capsys, "index", "--input", CHAIN, "--output", CHAIN + "/report.json")
    assert code == EXIT_DATA_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_index_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "index", "--input", CHAIN, "--output", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(out_path.read_text())["graph"]["states"] == 4


def test_linking_chain_pair(capsys):
    code, out, _ = run(capsys, "linking", "--input", CHAIN, "--sources", "u1,a_y1")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "maximum linking size: 1"


def test_linking_collider_full(capsys):
    code, out, _ = run(capsys, "linking", "--input", COLLIDER, "--sources", "u1,u2,u3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "maximum linking size: 2"
    assert len(lines) == 3  # two witness paths


def test_linking_empty_sources(capsys):
    code, out, _ = run(capsys, "linking", "--input", CHAIN, "--sources", "")
    assert code == EXIT_OK
    assert out == "maximum linking size: 0\n"


def test_linking_explicit_targets(capsys):
    code, out, _ = run(
        capsys, "linking", "--input", CHAIN, "--sources", "u2", "--targets", "y3"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "maximum linking size: 1"


def test_linking_runs_one_max_flow(capsys, monkeypatch):
    resumes = []
    resume = linking._Flows.resume

    def counted(self, srcs, tgts):
        resumes.append(srcs)
        return resume(self, srcs, tgts)

    monkeypatch.setattr(linking._Flows, "resume", counted)
    code, out, _ = run(capsys, "linking", "--input", COLLIDER, "--sources", "u1,u2,u3")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "maximum linking size: 2"
    assert len(resumes) == 1


def test_linking_unknown_name(capsys):
    code, _, err = run(capsys, "linking", "--input", CHAIN, "--sources", "u1,ghost")
    assert code == EXIT_DATA_ERROR
    assert "ghost" in err


def test_verify_collider_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--input", COLLIDER, "--trials", "5", "--seed", "7"
    )
    assert code == EXIT_OK
    assert "verdict: PASS" in out
    assert "rank/linking agreement" in out
    assert "identical index vectors: 5/5" in out


def test_verify_rank_check_asks_linking_sizes_one_source_apart(capsys, monkeypatch):
    # Width 3 enumerates all eight subsets; in reflected Gray-code order each
    # query adds or drops one source of the one before it.
    asked = []

    def recorded(graph, sources, targets):
        asked.append(frozenset(sources))
        return linking.max_linking_size(graph, sources, targets)

    monkeypatch.setattr(oracle, "max_linking_size", recorded)
    code, out, _ = run(capsys, "verify", "--input", COLLIDER, "--trials", "2")
    assert code == EXIT_OK
    assert "rank/linking agreement: 8/8 subsets" in out
    assert len(set(asked)) == len(asked) == 8
    assert all(len(a ^ b) == 1 for a, b in zip(asked, asked[1:]))


def test_verify_samples_wide_rank_checks_in_gray_order(tmp_path, capsys, monkeypatch):
    # Width 9 has 512 subsets, over the budget of 256, so the rank check
    # draws 256 Gray-code words and asks them in ascending order.
    document = {
        "schema_version": "1",
        "states": ["x1", "x2", "x3", "x4"],
        "actuators": [f"u{i}" for i in range(1, 8)],
        "sensors": [
            {"name": "y1", "protected": False},
            {"name": "y2", "protected": False},
            {"name": "y3", "protected": True},
        ],
        "edges": {
            "state_to_state": [["x1", "x2"], ["x2", "x3"], ["x3", "x4"]],
            "actuator_to_state": [[f"u{i}", f"x{(i - 1) % 4 + 1}"] for i in range(1, 8)],
            "state_to_sensor": [["x2", "y1"], ["x4", "y2"], ["x3", "y3"]],
        },
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    gray_indices = []

    def recorded(graph, sources, targets):
        mask = sum(1 << graph.attack_set.index(v) for v in sources)
        index = 0
        while mask:
            index ^= mask
            mask >>= 1
        gray_indices.append(index)
        return linking.max_linking_size(graph, sources, targets)

    monkeypatch.setattr(oracle, "max_linking_size", recorded)
    code, out, _ = run(capsys, "verify", "--input", str(path), "--trials", "1", "--seed", "4")
    assert "components: u1 u2 u3 u4 u5 u6 u7 a_y1 a_y2" in out
    assert "rank/linking agreement: 256/256 subsets" in out
    assert code == EXIT_OK
    assert len(gray_indices) == 256
    assert gray_indices == sorted(gray_indices)


def test_readme_cli_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    prefix = "    secindex "
    examples = [
        line[len(prefix) :]
        for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        if line.startswith(prefix)
    ]
    assert examples
    failed = [example for example in examples if run(capsys, *shlex.split(example))[0] != EXIT_OK]
    assert failed == []


def test_verify_fails_with_broken_tolerance(capsys):
    # A tolerance of 0.99 collapses genuine singular values to zero, so the
    # rank checks must disagree with the linking sizes and the gate must trip.
    code, out, _ = run(
        capsys,
        "verify", "--input", CHAIN, "--trials", "2", "--seed", "7", "--tol", "0.99",
    )
    assert code == EXIT_VERIFY_FAILED
    assert "verdict: FAIL" in out


def test_verify_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--input", CHAIN, "--trials", "0"])
    assert excinfo.value.code == EXIT_USAGE


def test_verify_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--input", CHAIN, "--seed", "-1"])
    assert excinfo.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got -1" in err


@pytest.mark.parametrize(
    "option, value, wanted",
    [
        ("--trials", "x", "must be a positive integer"),
        ("--freqs", "2.5", "must be a positive integer"),
        ("--cap", "", "must be a positive integer"),
        ("--seed", "seven", "must be a non-negative integer"),
        ("--tol", "abc", "must lie in (0, 1)"),
    ],
)
def test_verify_non_numeric_option_names_the_option(capsys, option, value, wanted):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--input", CHAIN, option, value])
    assert excinfo.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {option}: {wanted}, got {value}" in err
    assert "_" not in err.split(f"argument {option}: ")[1]


def test_non_string_description_is_one_error_line(tmp_path, capsys):
    doc = json.loads(Path(CHAIN).read_text())
    doc["description"] = 5
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    for argv in (["index"], ["verify"], ["linking", "--sources", "u1"], ["export-dot"]):
        code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == EXIT_DATA_ERROR
        assert out == ""
        assert err == "error: 'description' must be a string\n"


def test_missing_input_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["index"])
    assert excinfo.value.code == EXIT_USAGE


def test_export_dot_stdout_and_highlight(capsys):
    code, out, _ = run(
        capsys, "export-dot", "--input", CHAIN, "--highlight-sources", "a_y1"
    )
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert '"a_y1" -> "y1" [color=crimson, penwidth=2.0];' in out


def test_export_dot_to_file(tmp_path, capsys):
    out_path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "export-dot", "--input", CHAIN, "--output", str(out_path))
    assert code == EXIT_OK
    assert out == ""
    assert out_path.read_text().startswith("digraph")


def test_repeated_invocations_are_byte_identical(capsys):
    _, first, _ = run(capsys, "index", "--input", CHAIN)
    _, second, _ = run(capsys, "index", "--input", CHAIN)
    assert first == second
    _, first, _ = run(capsys, "verify", "--input", COLLIDER, "--trials", "3", "--seed", "1")
    _, second, _ = run(capsys, "verify", "--input", COLLIDER, "--trials", "3", "--seed", "1")
    assert first == second


@pytest.mark.parametrize(
    "golden, argv, exit_code",
    [
        pytest.param("chain_verify", ["--input", "chain.json"], EXIT_OK, id="chain"),
        pytest.param("collider_verify", ["--input", "collider.json"], EXIT_OK, id="collider"),
        # So coarse a tolerance that the ranks are not a matroid's: 29 of the
        # 50 realizations take the bottom-up fallback sweep.
        pytest.param(
            "chain_verify_tol05",
            ["--input", "chain.json", "--tol", "0.5"],
            EXIT_VERIFY_FAILED,
            id="chain-tol05",
        ),
        pytest.param(
            "collider_verify_tol05",
            ["--input", "collider.json", "--tol", "0.5"],
            EXIT_VERIFY_FAILED,
            id="collider-tol05",
        ),
    ],
)
def test_verify_output_matches_golden_file(capsys, monkeypatch, golden, argv, exit_code):
    # Outputs of the plain per-subset search, with the CLI defaults unless
    # given; the input is named relative to the fixtures.
    monkeypatch.chdir(FIXTURES)
    code, out, _ = run(capsys, "verify", *argv)
    assert code == exit_code
    assert out.encode("utf-8") == (GOLDEN / f"{golden}.txt").read_bytes()

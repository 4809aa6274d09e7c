"""Command-line behavior: formats, exit codes, diagnostics."""

import io
import json

import pytest

from hgdet import cli
from hgdet.hypergraphs import write_hypergraph, Hypergraph
from hgdet.tensors import canonical_witness, write_basis, write_tensor
from hgdet.verify import random_tensor
import random


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "witness32.txt"
    with open(path, "w") as fh:
        write_basis(canonical_witness(3, 2), fh)
    return str(path)


def test_witness_then_det(tmp_path, capsys):
    out = tmp_path / "w.txt"
    assert cli.main(["witness", "3", "2", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["det", str(out)]) == 0
    text = capsys.readouterr().out
    assert "det: -1" in text
    assert "dimension: 20" in text


def test_det_on_tensor_file(tmp_path, capsys):
    rng = random.Random(1)
    t = random_tensor(2, 2, rng)
    path = tmp_path / "tensor.txt"
    with open(path, "w") as fh:
        write_tensor(t, fh)
    assert cli.main(["det", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["r"] == "2"
    assert "det" in payload["outputs"]


def test_det_json_and_text_agree(witness_file, capsys):
    assert cli.main(["det", witness_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outputs"]["det"] == "-1"
    assert cli.main(["det", witness_file, "--backend", "multimodular"]) == 0
    assert "det: -1" in capsys.readouterr().out


def test_det_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2 : 1 0\n1 3 : nonsense 0\n")
    assert cli.main(["det", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_det_rejects_threads_below_one(witness_file, capsys, threads):
    assert cli.main(["det", witness_file, "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err


def test_det_missing_file(capsys):
    assert cli.main(["det", "/nonexistent/path.txt"]) == 2


def test_witness_stdout(capsys):
    assert cli.main(["witness", "2", "2", "-"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 2 2"
    assert len(out.splitlines()) == 7


def test_matrix_dump(tmp_path, witness_file, capsys):
    out = tmp_path / "matrix.txt"
    assert cli.main(["matrix", witness_file, str(out)]) == 0
    head = out.read_text().splitlines()[0].split()
    assert head[0] == "20" and head[1] == "20"


def test_table_small(capsys):
    assert cli.main(["table", "--max-dim", "100"]) == 0
    out = capsys.readouterr().out
    assert "(2,2): dim=6 det=-1 known=-1 agree" in out
    assert "skipped" in out


def test_classify_witness_partition(witness_file, capsys):
    assert cli.main(["classify", witness_file]) == 0
    out = capsys.readouterr().out
    assert "det: -1" in out
    assert "homogeneous: true" in out
    assert "consistent: true" in out
    assert "betti-part-1: 0 0 0 0" in out


def test_classify_duplicate_assignment(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("4 2 2\n1 2 -> 1\n1 2 -> 2\n")
    assert cli.main(["classify", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_classify_non_prehomogeneous_reports_violation(tmp_path, capsys):
    from itertools import combinations
    lines = ["6 3 2"]
    for e in combinations(range(1, 7), 3):
        lines.append(f"{e[0]} {e[1]} {e[2]} -> {1 if 6 not in e else 2}")
    path = tmp_path / "lopsided.txt"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "det: 0" in out
    assert "skeleton-violation" in out


def test_betti_command(tmp_path, capsys):
    path = tmp_path / "k43.txt"
    with open(path, "w") as fh:
        write_hypergraph(Hypergraph.complete(4, 3), fh)
    assert cli.main(["betti", str(path)]) == 0
    out = capsys.readouterr().out
    assert "betti: 0 0 0 1" in out
    assert "euler-characteristic: -1" in out


def test_betti_empty_hypergraph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("5 3\n")
    assert cli.main(["betti", str(path)]) == 0
    assert "betti: 1 0 0 0" in capsys.readouterr().out


@pytest.mark.parametrize("text, line, message", [
    ("4\n", 1, "expected header 'n r'"),
    ("4 x\n", 1, "non-integer header '4 x'"),
    ("4 3\n1 2 3\n1 3 2\n", 3, "not an increasing 3-subset: (1, 3, 2)"),
    ("4 3\n1 2 3\n\n# comment\n1 2 x\n", 5, "bad hyperedge '1 2 x'"),
])
def test_betti_parse_error_names_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli.main(["betti", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"parse error: line {line}: {message}" in err


def test_verify_euler(capsys):
    assert cli.main(["verify", "euler-identity"]) == 0
    assert "passed: true" in capsys.readouterr().out


def test_verify_with_trials(capsys):
    assert cli.main(["verify", "vanishing", "--trials", "2", "--seed", "9"]) == 0


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "nope"]) == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    from hgdet.verify import SuiteResult

    def failing(seed, trials):
        return SuiteResult("relations", False, 1, failures=["boom"])

    monkeypatch.setitem(cli.SUITES, "relations", failing)
    assert cli.main(["verify", "relations"]) == 1


def test_resource_cap_exit_code(monkeypatch):
    from hgdet.hypergraphs import ResourceCapError

    def capped(seed, trials):
        raise ResourceCapError("too many")

    monkeypatch.setitem(cli.SUITES, "relations", capped)
    assert cli.main(["verify", "relations"]) == 3


def test_report_roundtrip_values(witness_file, capsys):
    """Exact values round-trip through the JSON report."""
    from fractions import Fraction
    assert cli.main(["det", witness_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert Fraction(payload["outputs"]["det"]) == Fraction(-1)


def test_det_same_on_label_file_and_expanded_tensor(tmp_path, capsys):
    from hgdet.tensors import tensor_from_basis
    basis = canonical_witness(2, 3)
    label_path = tmp_path / "labels.txt"
    with open(label_path, "w") as fh:
        write_basis(basis, fh)
    tensor_path = tmp_path / "expanded.txt"
    with open(tensor_path, "w") as fh:
        write_tensor(tensor_from_basis(basis), fh)
    assert cli.main(["det", str(label_path), "--format", "json"]) == 0
    from_labels = json.loads(capsys.readouterr().out)["outputs"]["det"]
    assert cli.main(["det", str(tensor_path), "--format", "json"]) == 0
    from_tensor = json.loads(capsys.readouterr().out)["outputs"]["det"]
    assert from_labels == from_tensor


def test_reports_byte_stable_modulo_timing(witness_file, capsys):
    def stripped():
        assert cli.main(["det", witness_file]) == 0
        out = capsys.readouterr().out
        return [l for l in out.splitlines() if not l.startswith("elapsed-ms")]

    assert stripped() == stripped()

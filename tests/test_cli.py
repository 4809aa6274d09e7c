"""Command-line behavior: formats, exit codes, diagnostics."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from hgdet import cli
from hgdet.hypergraphs import write_hypergraph, Hypergraph
from hgdet.reference import KNOWN_WITNESS_DETS
from hgdet.system import write_matrix
from hgdet.tensors import (TensorAssignment, canonical_witness, tensor_from_basis,
                           write_basis, write_tensor)
from hgdet.verify import random_tensor
import random

from test_system import oracle_matrix, sparse_rational_tensor


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


def pairs_with(stray, pair, line):
    """A file of (r, d) = (2, 2) whose six subset lines hold the pairs of
    1..4, ``pair`` replaced by ``stray``, each written by ``line``."""
    return "".join(line(stray if p == pair else p) + "\n"
                   for p in combinations(range(1, 5), 2))


def tensor_line(p):
    return f"{p[0]} {p[1]} : 1 0"


def label_line(p):
    return f"{p[0]} {p[1]} -> 1"


@pytest.mark.parametrize("command, text, line, message", [
    pytest.param("det", "2 2\n1 2 : 1 0\n1 3 : nonsense 0\n", 3,
                 "bad rational 'nonsense'", id="det-bad-rational"),
    *(pytest.param(command, "2 2\n" + pairs_with(stray, pair, tensor_line), 7,
                   f"{stray} is not one of the 2-subsets of 1..4",
                   id=f"{command}-tensor-{stray[0]}-{stray[1]}")
      for command in ("det", "matrix") for stray, pair in [((0, 1), (1, 2)),
                                                           ((3, 9), (3, 4))]),
    pytest.param("det", "4 2 2\n" + pairs_with((0, 1), (1, 2), label_line), 7,
                 "hyperedge (0, 1) is not one of the 2-subsets of 1..4",
                 id="det-label-0-1"),
    pytest.param("det", "4\n", 1, "expected a 2- or 3-integer header, got ['4']",
                 id="det-header-1"),
    pytest.param("det", "4 2 2 1\n", 1,
                 "expected a 2- or 3-integer header, got ['4', '2', '2', '1']",
                 id="det-header-4"),
    pytest.param("det", "2 2\n1 2 : 1 0\n1 x : 0 1\n", 3, "bad subset '1 x'",
                 id="det-bad-subset"),
    pytest.param("classify", "4 2 2\n1 2 -> 1\n1 3 1\n", 3, "missing '->' separator",
                 id="classify-missing-arrow"),
    pytest.param("classify", "4 2 2\n1 2 -> 1 2\n", 2, "bad assignment '1 2 -> 1 2'",
                 id="classify-bad-assignment"),
    # What the built object refuses is at the file's last line.
    pytest.param("betti", "4 3\n1 2 3\n1 2 9\n\n# the last line\n", 5,
                 "subset (1, 2, 9) out of range 1..4", id="betti-edge-outside"),
    *(pytest.param(command, header, 1, f"need n >= 0 and r >= 0, got {got}",
                   id=f"{command}-negative-{name}")
      for command in ("classify", "det")
      for header, got, name in [("-1 2 1\n", "n=-1, r=2", "n"),
                                ("4 -2 2\n", "n=4, r=-2", "r")]),
])
def test_det_parse_error_names_line(tmp_path, capsys, command, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    out = [str(tmp_path / "matrix.txt")] if command == "matrix" else []
    assert cli.main([command, str(path), *out]) == 2
    err = capsys.readouterr().err
    assert f"parse error: line {line}: {message}" in err


@pytest.mark.parametrize("text, r, d", [("2 0\n", 2, 0), ("0 2\n", 0, 2),
                                        ("0 2 0\n", 2, 0)],
                         ids=["tensor-d-0", "tensor-r-0", "labels-d-0"])
def test_det_refuses_r_or_d_below_one(tmp_path, capsys, text, r, d):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli.main(["det", str(path)]) == 2
    assert f"need r >= 1 and d >= 1, got r={r}, d={d}" in capsys.readouterr().err


def test_det_missing_file(capsys):
    assert cli.main(["det", "/nonexistent/path.txt"]) == 2


def test_det_on_directory_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["det", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_witness_into_directory_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["witness", "3", "2", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_witness_stdout(capsys):
    assert cli.main(["witness", "2", "2", "-"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 2 2"
    assert len(out.splitlines()) == 7


def test_matrix_dump(tmp_path, witness_file, capsys):
    """The whole dump, of a label file and of a rational tensor file with
    zero coordinates, is the oracle system built one equation at a time."""
    tensor = sparse_rational_tensor(3, 2, random.Random(6))
    assert any(0 in vec for vec in tensor.entries.values())
    tensor_file = tmp_path / "tensor.txt"
    with open(tensor_file, "w") as fh:
        write_tensor(tensor, fh)
    witness = tensor_from_basis(canonical_witness(3, 2))
    for path, source in ((witness_file, witness), (str(tensor_file), tensor)):
        out = tmp_path / "matrix.txt"
        assert cli.main(["matrix", path, str(out)]) == 0
        expected = io.StringIO()
        write_matrix(oracle_matrix(source, source.n - 1), expected)
        assert out.read_text() == expected.getvalue()
        assert out.read_text().splitlines()[0].split()[:2] == ["20", "20"]


# The sha256 of ``hgdet matrix`` on a seeded (3, 3) tensor of each kind
# of coordinate: recorded reference dumps, which a change to how a tensor
# becomes its value array must leave byte for byte.
MATRIX_DUMP_DIGESTS = {
    "rational": ("81d125250304dd02d933053f93ccd89c215dfc66a80b097ca2cf34138df8e5d2",
                 lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
    "integer": ("d99d83a6d4aeb3ed1e054fd163512004ff2bd8f46cff61a7c61886418a159837",
                lambda rng: rng.randint(-9, 9)),
    "beyond-int64": ("0cc6efedad748218f9cb4bcc6ea83f91d5a7f70f0322bdd65c27276e8a4652fb",
                     lambda rng: rng.choice((0, 1, -1, 2**63 - 1, -(2**63 - 1),
                                             -2**63, 2**63))),
}


@pytest.mark.parametrize("kind", MATRIX_DUMP_DIGESTS)
def test_matrix_dump_bytes_are_stable(tmp_path, capsys, kind):
    """The dump of a tensor file is byte for byte the recorded one: the
    rational tensor's column clearing is undone exactly, and int64 and
    Python-int values print alike."""
    digest, coordinate = MATRIX_DUMP_DIGESTS[kind]
    rng = random.Random(22)
    tensor = TensorAssignment(3, 3, {s: tuple(coordinate(rng) for _ in range(3))
                                     for s in combinations(range(1, 10), 3)})
    path, out = tmp_path / "tensor.txt", tmp_path / "matrix.txt"
    with open(path, "w") as fh:
        write_tensor(tensor, fh)
    assert cli.main(["matrix", str(path), str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_table_small(capsys):
    assert cli.main(["table", "--max-dim", "100"]) == 0
    out = capsys.readouterr().out
    assert "(2,2): dim=6 det=-1 known=-1 agree" in out
    assert "skipped" in out


# ``hgdet table --max-dim 100``: every cell of the grid and of the known
# values in order, computed up to dimension 100 and skipped beyond.
TABLE_100 = """\
command: table max-dim=100
input-digest: 38a128783114620d6ed96d58d4e13cf937a3a313713f333a2b5250607af92907
backend: auto
(2,2): dim=6 det=-1 known=-1 agree
(2,3): dim=15 det=1 known=1 agree
(2,4): dim=28 det=1 known=1 agree
(2,5): dim=45 det=1 known=1 agree
(2,6): dim=66 det=-1 known=-1 agree
(2,7): dim=91 det=1 known=1 agree
(2,8): dim=120 skipped
(2,9): dim=153 skipped
(2,10): dim=190 skipped
(3,2): dim=20 det=-1 known=-1 agree
(3,3): dim=84 det=-1 known=-1 agree
(3,4): dim=220 skipped
(3,5): dim=455 skipped
(3,6): dim=816 skipped
(3,7): dim=1330 skipped
(3,8): dim=2024 skipped
(3,9): dim=2925 skipped
(3,10): dim=4060 skipped
(4,2): dim=70 det=1 known=1 agree
(4,3): dim=495 skipped
(4,4): dim=1820 skipped
(4,5): dim=4845 skipped
(4,6): dim=10626 skipped
(4,7): dim=20475 skipped
(4,8): dim=35960 skipped
(4,9): dim=58905 skipped
(5,2): dim=252 skipped
(5,3): dim=3003 skipped
(5,4): dim=15504 skipped
(5,5): dim=53130 skipped
(6,2): dim=924 skipped
(6,3): dim=18564 skipped
(7,2): dim=3432 skipped
(8,2): dim=12870 skipped
"""


def without_elapsed(out):
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("elapsed-ms: "))


def test_table_report_bytes(capsys):
    assert cli.main(["table", "--max-dim", "100"]) == 0
    assert without_elapsed(capsys.readouterr().out) == TABLE_100


def test_verify_table_report_bytes(monkeypatch, capsys):
    """``verify table`` on the cells up to dimension 30: one check and one
    detail line per computed cell, in the order of ``hgdet table``."""
    from hgdet import verify
    from hgdet.reference import table_cells

    monkeypatch.setattr(verify, "table_cells", lambda max_dim: table_cells(30))
    assert cli.main(["verify", "table"]) == 0
    assert without_elapsed(capsys.readouterr().out) == """\
command: verify table
input-digest: 09275094e77f74b12aac35baa6c0399424e5003fc6644ed9b81d02287a0013d7
backend: auto
passed: true
checks: 4
detail-0: (2, 2) dim=6: computed=-1 known=-1 agree
detail-1: (2, 3) dim=15: computed=1 known=1 agree
detail-2: (2, 4) dim=28: computed=1 known=1 agree
detail-3: (3, 2) dim=20: computed=-1 known=-1 agree
"""


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


@pytest.mark.parametrize("command, header, code, shown", [
    ("det", "1000000000 2\n", 2,
     "line 1: expected C(2000000000, 1000000000) entries for (r, d)=(1000000000, 2), got 0"),
    ("classify", "2000000 1000000 2\n", 2,
     "line 1: parts hold 0 hyperedges, K^1000000_2000000 has C(2000000, 1000000)"),
    ("betti", "-1 2\n", 2, "line 1: need n >= 0 and r >= 0, got n=-1, r=2"),
    ("betti", "200000 100000\n", 0, "betti: 1" + " 0" * 100000 + "\n"),
], ids=["det-tensor", "classify", "betti-negative-n", "betti-empty"])
def test_one_line_header_exits_in_bounded_time(tmp_path, command, header, code, shown):
    """A header alone gets its exit code from ``cli.main`` in under 3 s: no
    binomial much above the file's count is computed, and an empty complex
    costs time linear in r.  The child times the call alone and writes it
    last on stderr; its 60 s timeout guards against a hang."""
    path = tmp_path / "header.txt"
    path.write_text(header)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import sys, time; from hgdet import cli; start = time.perf_counter(); "
              f"code = cli.main({[command, str(path)]!r}); "
              "print(time.perf_counter() - start, file=sys.stderr); sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == code, done.stderr
    assert float(done.stderr.split()[-1]) < 3
    assert shown in done.stdout + done.stderr


@pytest.mark.parametrize("text, line, message", [
    ("4\n", 1, "expected header 'n r'"),
    ("4 x\n", 1, "non-integer header '4 x'"),
    ("4 3\n1 2 3\n1 3 2\n", 3, "not an increasing 3-subset: (1, 3, 2)"),
    ("4 3\n1 2 3\n\n# comment\n1 2 x\n", 5, "bad hyperedge '1 2 x'"),
    ("4 3\n1 2 3\n1 2 3\n2 3 4\n", 3, "duplicate subset (1, 2, 3)"),
])
def test_betti_parse_error_names_line(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert cli.main(["betti", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"parse error: line {line}: {message}" in err


def test_reconstruction_error_exits_1(tmp_path, monkeypatch, capsys):
    """A safety prime that disagrees with the reconstruction, the first
    CRT residue corrupted, is an internal error: exit 1."""
    from hgdet import exactla

    path = tmp_path / "tensor.txt"
    with open(path, "w") as fh:
        write_tensor(random_tensor(2, 2, random.Random(5)), fh)
    original, calls = exactla._residue_mod_p, []

    def corrupt(a, q):
        calls.append(q)
        r = original(a, q)
        return r if len(calls) > 1 else (r + 1) % q

    monkeypatch.setattr(exactla, "_residue_mod_p", corrupt)
    assert cli.main(["det", str(path), "--backend", "multimodular"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: safety prime ") and "disagrees" in err


def one_edge(command, r):
    """A one-line file of the hyperedge 1..r: a hypergraph for ``betti``,
    a partition of K^r_r into one part for ``classify``."""
    edge = " ".join(map(str, range(1, r + 1)))
    return f"{r} {r}\n{edge}\n" if command == "betti" else f"{r} {r} 1\n{edge} -> 1\n"


@pytest.mark.parametrize("command", ["betti", "classify"])
def test_wide_hyperedge_hits_the_face_table_cap(tmp_path, capsys, command):
    """One hyperedge of 24 vertices would span 2**24 cells: exit 3 before
    any level is built, in under 1 s and 16 MB."""
    path = tmp_path / "wide.txt"
    path.write_text(one_edge(command, 24))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.main([command, str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == (
        "resource cap: face table of 1 24-uniform hyperedges on 24 vertices "
        "exceeds the cap of 262144 cells\n")
    assert elapsed < 1 and peak < 16 << 20


def test_verify_euler(capsys):
    assert cli.main(["verify", "euler-identity"]) == 0
    assert "passed: true" in capsys.readouterr().out


def test_verify_with_trials(capsys):
    assert cli.main(["verify", "vanishing", "--trials", "2", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "passed: true" in out and "checks: 10" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(capsys, trials):
    assert cli.main(["verify", "vanishing", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert "passed" not in captured.out


@pytest.mark.parametrize("argv, refused", [
    (["euler-identity", "--seed", "3"], "seed"),
    (["theorem-r2d2", "--trials", "2"], "trials"),
    (["table", "--seed", "3", "--trials", "2"], "seed or trials"),
])
def test_verify_refuses_options_a_suite_does_not_take(capsys, argv, refused):
    assert cli.main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: suite {argv[0]!r} takes no {refused}\n"
    assert captured.out == ""


def test_table_exits_1_when_a_value_differs(monkeypatch, capsys):
    assert cli.main(["table", "--max-dim", "30"]) == 0
    assert "DIFFER" not in capsys.readouterr().out
    monkeypatch.setitem(KNOWN_WITNESS_DETS, (2, 2), -KNOWN_WITNESS_DETS[(2, 2)])
    assert cli.main(["table", "--max-dim", "30"]) == 1
    assert "(2,2): dim=6 det=-1 known=1 DIFFER" in capsys.readouterr().out


def test_verify_table_exits_1_when_a_value_differs(monkeypatch, capsys):
    """``verify table`` on the cells up to dimension 30, so that it runs in
    well under a second: exit 0, and 1 with a flipped (2, 2) sign."""
    from hgdet import verify
    from hgdet.reference import table_cells

    monkeypatch.setattr(verify, "table_cells", lambda max_dim: table_cells(30))
    assert cli.main(["verify", "table"]) == 0
    assert "DIFFER" not in capsys.readouterr().out
    monkeypatch.setitem(KNOWN_WITNESS_DETS, (2, 2), -KNOWN_WITNESS_DETS[(2, 2)])
    assert cli.main(["verify", "table"]) == 1
    out = capsys.readouterr().out
    assert "(2, 2) dim=6: computed=-1 known=1 DIFFER" in out
    assert "(2, 2): computed -1, published 1" in out


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "nope"]) == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    from hgdet.verify import SuiteResult

    def failing(**options):
        return SuiteResult("relations", 1, failures=["boom"])

    monkeypatch.setitem(cli.SUITES, "relations", failing)
    assert cli.main(["verify", "relations"]) == 1


def test_resource_cap_exit_code(monkeypatch):
    from hgdet.hypergraphs import ResourceCapError

    def capped(**options):
        raise ResourceCapError("too many")

    monkeypatch.setitem(cli.SUITES, "relations", capped)
    assert cli.main(["verify", "relations"]) == 3


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 7.3 GiB"),
                                   MemoryError()])
def test_det_out_of_memory_is_a_resource_cap(monkeypatch, witness_file, capsys,
                                             error):
    def out_of_memory(*args, **kwargs):
        raise error

    # A label file takes the label-aware route, a tensor file the tensor one.
    monkeypatch.setattr(cli, "basis_det", out_of_memory)
    monkeypatch.setattr(cli, "tensor_det", out_of_memory)
    assert cli.main(["det", witness_file, "--backend", "multimodular"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ")
    assert (str(error) or "out of memory") in err


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


NON_DET_COMMANDS = [["betti", "x"], ["witness", "2", "2", "-"], ["matrix", "x", "y"],
                    ["verify", "euler-identity"]]
DET_COMMANDS = [["det", "x"], ["table"], ["classify", "x"]]


@pytest.mark.parametrize("argv", DET_COMMANDS)
def test_determinant_commands_default_to_auto(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.backend == "auto"
    assert not hasattr(args, "threads")


def test_det_on_tensor_file_reports_auto(tmp_path, capsys):
    path = tmp_path / "tensor.txt"
    with open(path, "w") as fh:
        write_tensor(random_tensor(2, 2, random.Random(2)), fh)
    assert cli.main(["det", str(path)]) == 0
    assert "backend: auto" in capsys.readouterr().out.splitlines()


def test_table_reports_auto(capsys):
    assert cli.main(["table", "--max-dim", "0"]) == 0
    assert "backend: auto" in capsys.readouterr().out.splitlines()


# --backend is taken by the determinant commands alone; --threads, removed,
# by none.
@pytest.mark.parametrize("argv", NON_DET_COMMANDS + DET_COMMANDS)
@pytest.mark.parametrize("option", [["--backend", "bareiss"], ["--threads", "2"]])
def test_backend_options_only_on_determinant_commands(argv, option, capsys):
    if argv in DET_COMMANDS and option[0] == "--backend":
        assert cli.build_parser().parse_args(argv + option).backend == "bareiss"
        return
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + option)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

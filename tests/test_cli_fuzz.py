"""A seeded fuzzer of the file commands: mutated tensor, label, partition
and hypergraph files through ``det``, ``matrix``, ``classify`` and
``betti``, each run by ``cli.main`` in this process.

Every run must return an exit code in {0, 1, 2, 3} within 2 s, with no
exception escaping.  A mutation that changes nothing a reader reads
(comment and blank lines after the header, spaces and tabs, CRLF line
ends) must give the unmutated file's report, apart from ``elapsed-ms``
and ``input-digest``, and the same matrix dump.

Tier-1 runs a fixed corpus (``derandomize``).  A longer random run:
``pytest tests/test_cli_fuzz.py --hypothesis-profile=fuzz``, the profile
registered in ``conftest.py``.
"""

import contextlib
import io
import random
import time
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import example, given, strategies as st

from hgdet import cli
from hgdet.hypergraphs import Hypergraph, write_hypergraph, write_partition
from hgdet.tensors import canonical_witness, write_basis, write_tensor
from hgdet.verify import random_partition, random_tensor

COMMANDS = ("det", "matrix", "classify", "betti")


def written(write, value):
    out = io.StringIO()
    write(value, out)
    return out.getvalue()


# The valid files every case starts from.
BASES = {
    "tensor": written(write_tensor, random_tensor(2, 3, random.Random(3))),
    "label": written(write_basis, canonical_witness(3, 2)),
    "partition": written(write_partition, random_partition(4, 2, 2, random.Random(4))),
    "hypergraph": written(write_hypergraph, Hypergraph(
        6, 3, frozenset(random.Random(6).sample(list(combinations(range(1, 7), 3)), 8)))),
}

HEADER_VALUES = ["0", "-1", "-3", "1", "2", "1000000", "1000000000000", str(2 ** 64),
                 "1" + "0" * 40, "0x10", "1e3", "2.0", "+2", "1_0", "٣", "Ⅷ", "x"]
TOKENS = ["0", "1", "-1", "2", "7", "1/2", "1/0", "-3/4", "99999999999999999999", "x",
          "->", ":", "#", "٣", "1e3"]
# Whitespace that str.split and str.strip read as a space; str.splitlines
# would read \f, \v and others as line ends.
BLANKS = [" ", "  ", "\t", " \t "]


def header(draw, lines):
    tokens = lines[0].split() or [""]
    tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(HEADER_VALUES))
    lines[0] = " ".join(tokens)


def edit_tokens(draw, lines, edit):
    """``edit(tokens, j)`` on the tokens of a line after the header, j
    the index of one of them."""
    i = draw(st.integers(1, len(lines) - 1))
    tokens = lines[i].split() or [""]
    edit(tokens, draw(st.integers(0, len(tokens) - 1)))
    lines[i] = " ".join(tokens)


def replace_token(draw, lines):
    def edit(tokens, j):
        tokens[j] = draw(st.sampled_from(TOKENS))
    edit_tokens(draw, lines, edit)


def drop_token(draw, lines):
    edit_tokens(draw, lines, lambda tokens, j: tokens.pop(j))


def repeat_token(draw, lines):
    edit_tokens(draw, lines, lambda tokens, j: tokens.insert(j, tokens[j]))


def repeat_line(draw, lines):
    i = draw(st.integers(1, len(lines) - 1))
    lines.insert(i, lines[i])


def drop_line(draw, lines):
    del lines[draw(st.integers(0, len(lines) - 1))]


def header_only(draw, lines):
    del lines[1:]


def latin1(draw, lines):
    """A Latin-1 letter in a line; the file keeps its Latin-1 byte, which
    is not UTF-8."""
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = lines[i].replace(" ", " \xe9", 1) if " " in lines[i] else lines[i] + "\xe9"


def comment(draw, lines):
    lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(
        ["#", "# a comment", "  # indented -> 1 : 2", "#1 2 3"])))


def blank(draw, lines):
    lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", *BLANKS])))


def spaces(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = (draw(st.sampled_from(["", *BLANKS]))
                + draw(st.sampled_from(BLANKS)).join(lines[i].split(" "))
                + draw(st.sampled_from(["", *BLANKS])))


NO_OPS = [comment, blank, spaces]
# Mutations that edit a line after the header, so need one.
ON_RECORDS = [replace_token, drop_token, repeat_token, repeat_line]
MUTATIONS = [header, drop_line, header_only, latin1, *ON_RECORDS, *NO_OPS]


@st.composite
def cases(draw):
    """(kind, file bytes, whether the mutation is a no-op)."""
    kind = draw(st.sampled_from(sorted(BASES)))
    lines = BASES[kind].splitlines()
    # One case in three changes nothing a reader reads, and one in four
    # starts with a byte order mark.
    pool = draw(st.sampled_from([MUTATIONS, MUTATIONS, NO_OPS]))
    steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    for step in steps:
        if len(lines) > (step in ON_RECORDS):
            step(draw, lines)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    data = (bom + "".join(line + ending for line in lines)).encode()
    if latin1 in steps:
        data = data.replace("\xe9".encode(), b"\xe9")
    return kind, data, not bom and all(step in NO_OPS for step in steps)


def run(command, path, out):
    """(exit code, report, stderr, matrix dump) of one command, which must
    end within 2 s with a documented exit code."""
    argv = [command, str(path)] + ([str(out)] if command == "matrix" else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert time.perf_counter() - start < 2, argv
    assert code in (0, 1, 2, 3), (argv, stderr.getvalue())
    report = "".join(line for line in stdout.getvalue().splitlines(keepends=True)
                     if not line.startswith(("elapsed-ms: ", "input-digest: ")))
    dump = out.read_bytes() if command == "matrix" and code == 0 else None
    return code, report, stderr.getvalue(), dump


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory, and each command's outcome on every unmutated file,
    written at the path the mutated files take."""
    root = tmp_path_factory.mktemp("fuzz")
    path, out = root / "input.txt", root / "matrix.txt"
    expected = {}
    for kind, text in BASES.items():
        path.write_text(text)
        for command in COMMANDS:
            expected[kind, command] = run(command, path, out)
    return path, out, expected


def test_unmutated_files_are_read(workdir):
    """Each base file gives its report to the commands of its format, and
    a parse error to the others."""
    _, _, expected = workdir
    for (kind, command), (code, report, err, _) in expected.items():
        takes = {"betti"} if kind == "hypergraph" else {"det", "matrix"} | (
            {"classify"} if kind != "tensor" else set())
        if command in takes:
            assert (code, err) == (0, "") and report.startswith(f"command: {command} ")
        else:
            assert code == 2 and err.startswith("parse error: line ")


CORPUS = settings(max_examples=100, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@(settings(deadline=None) if settings.get_current_profile_name() == "fuzz" else CORPUS)
@given(case=cases())
# The one-line headers that once ran without bound, and one past the face
# table's cap.
@example(case=("tensor", b"1000000000 2\n", False))
@example(case=("partition", b"2000000 1000000 2\n", False))
@example(case=("hypergraph", b"200000 100000\n", False))
@example(case=("hypergraph", b"1000000 1000000\n", False))
def test_mutated_files_get_an_exit_code(workdir, case):
    path, out, expected = workdir
    kind, data, no_op = case
    path.write_bytes(data)
    for command in COMMANDS:
        outcome = run(command, path, out)
        # A refusal may move with the lines; a report may not.
        if no_op and expected[kind, command][1]:
            assert outcome == expected[kind, command], (command, data)

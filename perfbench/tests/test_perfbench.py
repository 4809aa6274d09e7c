"""The benchmark run end to end on tiny inputs, its correctness gate, its
determinism check and its command line.

    python -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import run
from workloads import WORKLOADS, Classify, RationalAuto, SparseAuto, WitnessTable

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

TINY = [WitnessTable(cells=((3, 2), (2, 4))), SparseAuto(cells=((2, 3), (3, 2))),
        RationalAuto(shapes=((2, 2), (2, 3))), Classify(partitions=20)]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_tiny_workload_runs_end_to_end(wl, trace):
    result = harness.run(wl, seed=1, seconds=0.05, trace=trace)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.PER_LAYER if trace else harness.END_TO_END)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        own = sum(m[f"self.{layer}_s"] for layer in harness.LAYERS)
        assert own + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
        assert m["system.dim"] > 0 and m["system.nnz"] > 0
    else:
        assert all(v > 0 for v in m.values())


def test_gate_fails_on_a_wrong_known_value():
    wl = WitnessTable(cells=((3, 2),), known={(3, 2): 1})  # the witness gives -1
    result = harness.run(wl, seed=1, seconds=0.05, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "!= known 1" in result["errors"][0]


def test_gate_fails_on_a_wrong_reference_value():
    class OffByOne(SparseAuto):
        def expected(self, inputs):
            return [v + 1 for v in super().expected(inputs)]

    result = harness.run(OffByOne(cells=((2, 3),)), seed=1, seconds=0.05, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_gate_counts_exceptions_as_failures():
    class Raising(Classify):
        def call(self, p):
            raise RuntimeError("boom")

    result = harness.run(Raising(partitions=4), seed=1, seconds=0.05, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 4
    assert "boom" in result["errors"][0]


def test_gate_fails_when_the_traced_decomposition_disagrees():
    class Skewed(Classify):
        def traced_call(self, p, tr):
            det, deficiency, betti = super().traced_call(p, tr)
            return (det + 1, deficiency, betti)

    result = harness.run(Skewed(partitions=4), seed=1, seconds=0.05, trace=True)
    assert not result["correct"]
    assert result["failed"] == 4


def test_exact_counts_repeat_for_a_seed():
    runs = [harness.run(Classify(partitions=40), seed=5, seconds=0.05, trace=True)
            for _ in range(2)]
    _, problems = compare.compare(*runs)
    assert problems == []
    assert runs[0]["exact"]["exactla.rank_calls"] == 40 * 2 * 3


def test_compare_flags_kernel_and_count_mismatches():
    a = harness.run(Classify(partitions=4), seed=5, seconds=0.05, trace=False)
    b = copy.deepcopy(a)
    b["env"]["kernel"] = "other"
    b["exact"]["nonzero"] += 1
    _, problems = compare.compare(a, b)
    assert any("kernel backends differ" in p for p in problems)
    assert any("nonzero does not repeat" in p for p in problems)


def test_held_out_seed():
    args = run.parse_args(["--workload", "classify-r3d2", "--held-out"])
    assert args.seed == run.HELD_OUT_SEED != run.DEFAULT_SEED
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "classify-r3d2", "--held-out", "--seed", "3"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_cli_prints_the_result_line_last(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-r3d2",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert json.loads(out.read_text())["env"]["seed"] == 3


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

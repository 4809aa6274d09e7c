"""Closed-loop runner: one process, one caller, one call at a time, threads=1.

The untraced run repeats whole passes over the workload's inputs until the
next pass would overrun the requested seconds (at least one pass), then
gates every answer.  The traced run makes one traced pass and then one
untraced pass over the same inputs, whatever the requested seconds,
and derives the per-layer split from the spans.  Span times are raw; the
tracing overhead is at reference speed (see calib.py).
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

import numpy as np

from hgdet._kernels import KERNEL_BACKEND

from calib import SpeedSampler, speed_now
from spans import Tracer
from workloads import Workload, median, percentile

ROOT = Path(__file__).resolve().parent.parent

#: name -> unit, reported by every untraced run.  Times are at reference
#: speed (see calib.py); the raw ones are reported beside them.
END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "op_p99_norm_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, span name whose summed time it is).
SPAN_METRICS = {
    "tensors.witness_s": ("s", "tensors.canonical_witness"),
    "tensors.expand_s": ("s", "tensors.tensor_from_basis"),
    "system.assemble_s": ("s", "system.system_matrix"),
    "exactla.integer_form_s": ("s", "exactla.integer_form"),
    "exactla.bareiss_s": ("s", "exactla.det_bareiss"),
    "exactla.multimodular_s": ("s", "exactla.det_multimodular"),
    "exactla.det_exact_s": ("s", "exactla.det_exact"),
    "exactla.rank_s": ("s", "exactla.rank_exact"),
    "kernels.det_mod_p_s": ("s", "_kernels.det_mod_p"),
    "determinant.tensor_det_s": ("s", "determinant.tensor_det"),
    "hypergraphs.deficiency_s": ("s", "hypergraphs.skeleton_deficiency"),
    "hypergraphs.chain_complex_s": ("s", "hypergraphs.chain_complex"),
    "hypergraphs.betti_s": ("s", "hypergraphs.betti_numbers"),
}

#: Per-layer counts that must repeat exactly for a given seed.
EXACT_COUNTS = {
    "system.dim": "count",
    "system.nnz": "count",
    "exactla.hadamard_bits": "bits",
    "exactla.primes": "count",
    "exactla.rank_calls": "count",
    "kernels.ops": "ops",
    "kernels.bytes": "bytes",
    "hypergraphs.classified": "count",
    "hypergraphs.nonzero_share": "ratio",
    "hypergraphs.prehom_share": "ratio",
}

LAYERS = ("tensors", "system", "exactla", "determinant", "hypergraphs")

PER_LAYER = {
    **{name: unit for name, (unit, _) in SPAN_METRICS.items()},
    "exactla.eliminate_s": "s",
    "system.alloc_peak_mb": "MB",
    **EXACT_COUNTS,
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.speed": "ratio",
}

SETUP_REPEATS = 7

#: The hgdet modules the benchmark uses.
IMPORTED = ("hgdet", "hgdet.reference")


class Failed:
    """An operation that raised; stands in for its value."""

    def __init__(self, exc: BaseException):
        self.message = "".join(traceback.format_exception_only(exc)).strip()


def environment(seed: int) -> dict[str, Any]:
    return {
        "kernel": KERNEL_BACKEND,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout at ``root``, or "unknown" outside a git clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Time to import hgdet afresh in this process.  numpy stays loaded: it
    is imported once per process and is not hgdet's own set-up.  The
    modules in use are put back afterwards."""
    def ours() -> list[str]:
        return [k for k in sys.modules if k == "hgdet" or k.startswith("hgdet.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        t0 = perf_counter()
        for name in IMPORTED:
            importlib.import_module(name)
        return perf_counter() - t0
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def measure_setup(wl: Workload, seed: int) -> tuple[float, list, list[str]]:
    """Median import time plus median input-generation time over
    SETUP_REPEATS repeats, each at reference speed (see calib.py); every
    repeat must make the same inputs."""
    imports, gens, errors = [], [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        before = speed_now()
        imported = import_seconds()
        t0 = perf_counter()
        made = wl.make_inputs(seed)
        generated = perf_counter() - t0
        speed = (before + speed_now()) / 2
        imports.append(imported * speed)
        gens.append(generated * speed)
        if inputs is None:
            inputs = made
        elif made != inputs:
            errors.append("input generation is not deterministic")
    return median(imports) + median(gens), inputs, errors


@dataclass
class Pass:
    start: float
    end: float
    values: list
    ops: list[tuple[float, float]]


def one_pass(wl: Workload, inputs: Sequence) -> Pass:
    values, ops = [], []
    start = perf_counter()
    for inp in inputs:
        c0 = perf_counter()
        try:
            value = wl.call(inp)
        except Exception as exc:  # an operation failure is counted, not fatal
            value = Failed(exc)
        ops.append((c0, perf_counter()))
        values.append(value)
    return Pass(start, perf_counter(), values, ops)


def gate(wl: Workload, inputs: Sequence, passes: list[list],
         traced: list | None = None) -> list[str]:
    """One message per failed operation: raised, wrong, differing from the
    first pass, or (traced run) differing from its untraced call."""
    try:
        expected = wl.expected(inputs)
    except Exception as exc:
        return [f"reference computation failed: {Failed(exc).message}"] * (
            len(passes) * len(inputs) + len(traced or ()))
    errors = []
    first = [None if isinstance(v, Failed) else wl.summary(v) for v in passes[0]]
    for k, values in enumerate(passes):
        for i, (inp, value, exp) in enumerate(zip(inputs, values, expected)):
            if isinstance(value, Failed):
                msg = value.message
            else:
                msg = wl.check(inp, value, exp)
                if msg is None and wl.summary(value) != first[i]:
                    msg = "result differs from pass 1"
            if msg:
                errors.append(f"pass {k + 1}, input {i} {wl.label(inp)}: {msg}")
    for i, (inp, got) in enumerate(zip(inputs, traced or ())):
        if isinstance(got, Failed):
            msg = got.message
        elif got != first[i]:
            msg = "traced result differs from the untraced call"
        else:
            continue
        errors.append(f"traced, input {i} {wl.label(inp)}: {msg}")
    return errors


def results_digest(wl: Workload, values: list) -> str:
    text = repr([v.message if isinstance(v, Failed) else wl.summary(v)
                 for v in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_p99(latencies: list[list[float]]) -> float:
    """99th percentile over the inputs of each input's median time over the
    passes: a burst of the neighbours' load that slows one call in one pass
    does not move it, a slow input does."""
    return percentile([median(times) for times in zip(*latencies)], 99)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up, measure and gate one workload; returns the full result."""
    env = environment(seed)
    setup_s, inputs, errors = measure_setup(wl, seed)
    if trace:
        body = _traced(wl, inputs)
    else:
        body = _untraced(wl, inputs, seconds, setup_s)
    failures = body.pop("errors")
    result = {"workload": wl.name, "trace": int(trace), "env": env,
              "correct": not (errors or failures), "attempted": body.pop("attempted"),
              "failed": len(failures), "errors": errors + failures, **body}
    result["exact"]["inputs"] = len(inputs)
    return result


def _untraced(wl: Workload, inputs: list, seconds: float, setup_s: float) -> dict:
    passes = []
    with SpeedSampler(wl.calibration) as speed:
        start = perf_counter()
        while True:
            passes.append(one_pass(wl, inputs))
            p = passes[-1]
            if p.end - start + (p.end - p.start) > seconds:
                break
    walls = [speed.normalize(p.start, p.end) for p in passes]
    latencies = [[speed.normalize(*op) for op in p.ops] for p in passes]
    samples = [x for lat in latencies for x in lat]
    raw = [b - a for p in passes for a, b in p.ops]
    errors = gate(wl, inputs, [p.values for p in passes])
    values = {
        "setup_s": setup_s,
        "wall_norm_s": median(walls),
        "op_p99_norm_ms": 1000 * op_p99(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    counts = {"setup_s": SETUP_REPEATS, "wall_norm_s": len(walls),
              "op_p99_norm_ms": len(inputs), "peak_rss_mb": 1}
    exact = {"results": results_digest(wl, passes[0].values)}
    exact.update(wl.exact([v for v in passes[0].values if not isinstance(v, Failed)]))
    named = wl.named(inputs, walls, latencies)
    return {
        "attempted": len(samples),
        "errors": errors,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
        "samples": counts,
        "named": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in named.items()},
        "raw": {
            "wall_s": median([p.end - p.start for p in passes]),
            "op_p50_ms": 1000 * median(raw),
            "op_p99_ms": 1000 * percentile(raw, 99),
            "speed": speed.speed(passes[0].start, passes[-1].end),
        },
        "exact": exact,
    }


def _traced(wl: Workload, inputs: list) -> dict:
    tr = Tracer()
    summaries = []
    with SpeedSampler(wl.calibration) as speed:
        # The traced pass goes first, so any cold-start cost counts as
        # tracing overhead rather than hiding it.
        p0 = perf_counter()
        for i, inp in enumerate(inputs):
            tr.op = i
            try:
                summaries.append(wl.traced_call(inp, tr))
            except Exception as exc:  # an operation failure is counted, not fatal
                summaries.append(Failed(exc))
        p1 = perf_counter()
        untraced = one_pass(wl, inputs)
    errors = gate(wl, inputs, [untraced.values], summaries)
    probes = [s for s in tr.spans if s.probe]
    wall = p1 - p0 - sum(s.seconds for s in probes)
    # Overhead at reference speed: both passes net of the speed chunks, the
    # traced one also net of its probes (chunks inside probes are in them).
    chunks = speed.overhead(p0, p1) - sum(speed.overhead(s.start, s.end) for s in probes)
    overhead = ((wall - chunks) * speed.speed(p0, p1)
                - speed.normalize(untraced.start, untraced.end))
    wl.alloc_probe(inputs, tr)
    metrics = layer_metrics(tr, wall, untraced.end - untraced.start)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.speed"] = speed.speed(p0, untraced.end)
    exact = {"results": results_digest(wl, untraced.values)}
    exact.update({k: metrics[k] for k in EXACT_COUNTS})
    return {
        "attempted": 2 * len(inputs),
        "errors": errors,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()},
        "exact": exact,
        "spans": tr.to_json(),
    }


def layer_metrics(tr: Tracer, wall: float, untraced_wall: float) -> dict[str, float]:
    m: dict[str, float] = {k: tr.total(span) for k, (_, span) in SPAN_METRICS.items()}
    # Derived: elimination is det_bareiss minus its integer_form step, both
    # measured on the same matrices.
    m["exactla.eliminate_s"] = m["exactla.bareiss_s"] - m["exactla.integer_form_s"]
    m["system.alloc_peak_mb"] = tr.counts["system.alloc_peak_bytes"] / 2 ** 20
    for key in ("system.dim", "system.nnz", "exactla.hadamard_bits", "exactla.primes",
                "kernels.ops", "kernels.bytes", "hypergraphs.classified"):
        m[key] = tr.counts[key]
    m["exactla.rank_calls"] = tr.calls("exactla.rank_exact")
    base = tr.counts["hypergraphs.classified"]
    m["hypergraphs.nonzero_share"] = tr.counts["hypergraphs.nonzero"] / base if base else 0
    m["hypergraphs.prehom_share"] = (tr.counts["hypergraphs.prehomogeneous"] / base
                                     if base else 0)
    own = tr.self_seconds()
    for layer in LAYERS:
        m[f"self.{layer}_s"] = own.get(layer, 0.0)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.unattributed_s"] = wall - tr.covered_seconds()
    return m

"""The benchmark's workloads.

Each workload makes its inputs from a seed, issues one public hgdet call per
operation, checks every answer, and decomposes that call into the public
calls of each layer for the traced run.  README.md next to this file says
why each workload was chosen.
"""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Sequence

import numpy as np

from hgdet import (canonical_witness, chain_complex, classify_partition,
                   det_bareiss, det_exact, det_multimodular, rank_exact,
                   tensor_det, tensor_from_basis, witness_det)
from hgdet._kernels import det_mod_p
from hgdet.exactla import ExactMatrix, hadamard_bound, modular_primes
from hgdet.hypergraphs import (basis_from_partition, partition_from_labels,
                               skeleton_deficiency)
from hgdet.reference import KNOWN_WITNESS_DETS
from hgdet.system import system_matrix
from hgdet.tensors import TensorAssignment, subsets

from spans import Tracer


class WrongAnswer(Exception):
    """Two computations of the same exact value disagreed."""


def system_size(r: int, d: int) -> int:
    return d * comb(r * d - 1, r - 1)


def count_system(tr: Tracer, matrix: ExactMatrix) -> None:
    tr.count("system.dim", matrix.rows)
    tr.count("system.nnz", len(matrix.entries))


def primes_needed(bound: int) -> int:
    """Primes det_multimodular uses for a Hadamard bound: the shortest prefix
    of modular_primes whose product exceeds twice the bound, plus the
    safety prime."""
    if bound == 0:
        return 0
    target = 2 * bound
    product = 1
    # Every prime exceeds 2**30, so this many always suffice.
    for k, p in enumerate(modular_primes(target.bit_length() // 30 + 1), 1):
        product *= p
        if product > target:
            return k + 1
    raise AssertionError("prime batch too short")


class Workload:
    """One set of inputs and the public call made on each of them."""

    name = ""
    #: Calibration chunk matching where the time goes (see calib.py).
    calibration = "python"

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def label(self, inp) -> str:
        return f"({inp.r}, {inp.d})"

    def call(self, inp) -> Any:
        """The timed public call."""
        raise NotImplementedError

    def summary(self, value) -> Any:
        """The exact part of a call's result, compared across passes."""
        return value

    def expected(self, inputs: Sequence) -> list:
        """Reference values, computed outside the timed section."""
        return [None] * len(inputs)

    def check(self, inp, value, expected) -> str | None:
        """Why ``value`` is wrong, or None when it passes the gate."""
        raise NotImplementedError

    def traced_call(self, inp, tr: Tracer) -> Any:
        """The same call decomposed into spanned public calls; returns the
        summary of its result."""
        raise NotImplementedError

    def tensor_of(self, inp) -> TensorAssignment:
        raise NotImplementedError

    def alloc_probe(self, inputs: Sequence, tr: Tracer) -> None:
        """Peak traced allocation while assembling the largest system."""
        inp = max(inputs, key=lambda x: system_size(x.r, x.d))
        tensor = self.tensor_of(inp)
        tracemalloc.start()
        try:
            with tr.span("system.alloc_probe", probe=True):
                system_matrix(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tr.count("system.alloc_peak_bytes", peak)

    def exact(self, values: Sequence) -> dict[str, int]:
        """Counts over one pass's results that must repeat for a given seed."""
        return {}

    def named(self, inputs: Sequence, walls: list[float],
              latencies: list[list[float]]) -> dict[str, tuple[float, str, int]]:
        """This workload's own headline figures: name -> (value, unit, samples)."""
        return {}


# --- witness-table ---------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    r: int
    d: int


WITNESS_CELLS = ((8, 2), (6, 3), (5, 5), (5, 6))


class WitnessTable(Workload):
    """witness_det(r, d, backend="bareiss") on the large witness cells, the
    path of ``hgdet table``.  Cells outside the known-values table are gated
    on magnitude 1."""

    name = "witness-table"

    def __init__(self, cells: Sequence[tuple[int, int]] = WITNESS_CELLS,
                 known: dict[tuple[int, int], int] = KNOWN_WITNESS_DETS):
        self.cells = cells
        self.known = known

    def make_inputs(self, seed):
        # One witness per cell: the seed has nothing to vary.
        return [Cell(r, d) for r, d in self.cells]

    def call(self, cell):
        return witness_det(cell.r, cell.d, backend="bareiss", threads=1)

    def expected(self, inputs):
        return [self.known.get((c.r, c.d)) for c in inputs]

    def check(self, cell, value, expected):
        if expected is None:
            return None if abs(value) == 1 else f"value {value} is not +-1"
        return None if value == expected else f"value {value} != known {expected}"

    def traced_call(self, cell, tr):
        with tr.span("determinant.witness_det"):
            with tr.span("tensors.canonical_witness"):
                basis = canonical_witness(cell.r, cell.d)
            with tr.span("tensors.tensor_from_basis"):
                tensor = tensor_from_basis(basis)
            with tr.span("system.system_matrix"):
                matrix = system_matrix(tensor).matrix
            with tr.span("exactla.det_bareiss"):
                value = det_bareiss(matrix)
        count_system(tr, matrix)
        with tr.span("exactla.integer_form", probe=True):
            matrix.integer_form()
        return value

    def tensor_of(self, cell):
        return tensor_from_basis(canonical_witness(cell.r, cell.d))

    def named(self, inputs, walls, latencies):
        out = {}
        for i, cell in enumerate(inputs):
            if (cell.r, cell.d) == (5, 6):
                samples = [lat[i] for lat in latencies]
                out["witness_5_6_s"] = (median(samples), "s", len(samples))
        return out


# --- det-auto --------------------------------------------------------------


class DetAuto(Workload):
    """tensor_det with the default backend "auto".  Each answer is checked
    against a fixed reference backend: the one "auto" did not pick for this
    input class when the benchmark was defined."""

    reference = ""
    headline = ""

    def call(self, tensor):
        return tensor_det(tensor, threads=1)

    def expected(self, inputs):
        return [det_exact(system_matrix(t).matrix, backend=self.reference, threads=1)
                for t in inputs]

    def check(self, tensor, value, expected):
        return None if value == expected else (
            f"auto gave {value}, {self.reference} gave {expected}")

    def traced_call(self, tensor, tr):
        with tr.span("determinant.tensor_det"):
            with tr.span("system.system_matrix"):
                matrix = system_matrix(tensor).matrix
            with tr.span("exactla.det_exact"):
                value = det_exact(matrix, threads=1)
        count_system(tr, matrix)
        # Both backends on every input: the cost of either dispatch.
        with tr.span("exactla.integer_form", probe=True):
            ints, _ = matrix.integer_form()
        with tr.span("exactla.det_bareiss", probe=True):
            by_bareiss = det_bareiss(matrix)
        with tr.span("exactla.det_multimodular", probe=True):
            by_crt = det_multimodular(matrix, threads=1)
        if not value == by_bareiss == by_crt:
            raise WrongAnswer(f"auto {value}, bareiss {by_bareiss}, "
                              f"multimodular {by_crt}")
        n = matrix.rows
        bound = hadamard_bound(ints, n)
        tr.count("exactla.hadamard_bits", bound.bit_length())
        tr.count("exactla.primes", primes_needed(bound))
        # One prime of the dense modular kernel, on the array the
        # multimodular backend would build.
        p = modular_primes(1)[0]
        dense = np.zeros((n, n), dtype=np.int64)
        for (i, j), v in ints.items():
            dense[i, j] = v % p
        with tr.span("_kernels.det_mod_p", probe=True):
            det_mod_p(dense, p)
        tr.count("kernels.ops", n ** 3 // 3)
        tr.count("kernels.bytes", 8 * n * n)
        return value

    def tensor_of(self, tensor):
        return tensor

    def named(self, inputs, walls, latencies):
        return {self.headline: (median(walls), "s", len(walls))}


class SparseAuto(DetAuto):
    """Witness cells: sparse +-1 systems, which "auto" sends to the dense
    multimodular path at 400 rows and above."""

    name = "det-auto-sparse"
    calibration = "numpy"
    reference = "bareiss"
    headline = "sparse_auto_s"

    def __init__(self, cells: Sequence[tuple[int, int]] = ((3, 5), (4, 3))):
        self.cells = cells

    def make_inputs(self, seed):
        # One witness per cell: the seed has nothing to vary.
        return [tensor_from_basis(canonical_witness(r, d)) for r, d in self.cells]


def random_rational_tensor(r: int, d: int, rng: random.Random) -> TensorAssignment:
    """Entries p/q with |p| <= 9 and 1 <= q <= 9."""
    return TensorAssignment(r, d, {
        s: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))
        for s in subsets(r, r * d)})


class RationalAuto(DetAuto):
    """Random rational tensors below 400 rows: "auto" keeps them on
    fraction-free elimination, where integer bit growth dominates.  Three
    tensors of each shape, since bit growth varies with the draw."""

    name = "det-auto-rational"
    reference = "multimodular"
    headline = "rational_auto_s"

    def __init__(self, shapes: Sequence[tuple[int, int]] = ((2, 8), (2, 10), (3, 4)) * 3):
        self.shapes = shapes

    def make_inputs(self, seed):
        rng = random.Random(seed)
        return [random_rational_tensor(r, d, rng) for r, d in self.shapes]


# --- classify-r3d2 ---------------------------------------------------------


class Classify(Workload):
    """classify_partition on seeded 2-partitions of K^3_6: the first half
    uniform, the second half with equal part sizes."""

    name = "classify-r3d2"

    def __init__(self, partitions: int = 2000):
        self.partitions = partitions

    def make_inputs(self, seed):
        rng = random.Random(seed)
        m = comb(6, 3)
        out = []
        for k in range(self.partitions):
            if k < self.partitions // 2:
                labels = [rng.randint(1, 2) for _ in range(m)]
            else:
                labels = [1, 2] * (m // 2)
                rng.shuffle(labels)
            out.append(partition_from_labels(6, 3, 2, labels))
        return out

    def label(self, p):
        return "K^3_6 2-partition"

    def call(self, p):
        return classify_partition(p, threads=1)

    def summary(self, report):
        return (report.det, report.deficiency,
                tuple(b.values for b in report.betti))

    def check(self, p, report, expected):
        if not report.consistent:
            return "determinant and homology verdicts disagree"
        if report.det != 0 and not report.homogeneous:
            return "nonzero determinant on an inhomogeneous partition"
        return None

    def traced_call(self, p, tr):
        with tr.span("hypergraphs.classify_partition"):
            with tr.span("determinant.tensor_det"):
                with tr.span("hypergraphs.basis_from_partition"):
                    basis = basis_from_partition(p)
                with tr.span("tensors.tensor_from_basis"):
                    tensor = tensor_from_basis(basis)
                with tr.span("system.system_matrix"):
                    matrix = system_matrix(tensor).matrix
                with tr.span("exactla.det_exact"):
                    det = det_exact(matrix, threads=1)
            with tr.span("hypergraphs.skeleton_deficiency"):
                deficiency = skeleton_deficiency(p)
            betti = []
            for i in range(p.d):
                with tr.span("hypergraphs.betti_numbers"):
                    h = p.part_hypergraph(i)
                    with tr.span("hypergraphs.chain_complex"):
                        cx = chain_complex(h)
                    ranks = {}
                    for k, boundary in cx.boundary.items():
                        with tr.span("exactla.rank_exact"):
                            ranks[k] = rank_exact(boundary)
                    betti.append(tuple(
                        len(cx.generators[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                        for k in range(-1, p.r)))
        count_system(tr, matrix)
        tr.count("hypergraphs.classified")
        tr.count("hypergraphs.nonzero", det != 0)
        tr.count("hypergraphs.prehomogeneous", deficiency is None)
        return (det, deficiency, tuple(betti))

    def tensor_of(self, p):
        return tensor_from_basis(basis_from_partition(p))

    def exact(self, values):
        return {"nonzero": sum(1 for report in values if report.det != 0)}

    def named(self, inputs, walls, latencies):
        samples = [x for lat in latencies for x in lat]
        per_input = [median(times) for times in zip(*latencies)]
        return {
            "classify_per_s": (len(samples) / sum(walls), "1/s", len(samples)),
            "classify_p50_ms": (1000 * median(per_input), "ms", len(per_input)),
            "classify_p99_ms": (1000 * percentile(per_input, 99), "ms", len(per_input)),
        }


def median(xs: Sequence[float]) -> float:
    return percentile(xs, 50)


def percentile(xs: Sequence[float], q: int) -> float:
    """Linear interpolation between closest ranks; exact for one sample."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


WORKLOADS = {w.name: w for w in (WitnessTable, SparseAuto, RationalAuto, Classify)}

"""Seeded verification suites for the algebraic and combinatorial laws.

Each suite draws its randomness from an explicit seed (default
:data:`DEFAULT_SEED`), checks one family of exact identities, and returns a
:class:`SuiteResult`.  The suites double as the acceptance harness: the
degeneracy vanishing law, linear-map equivariance, the equation relations,
the rank comparison with the top boundary map, the determinant/homology
equivalence, backend agreement, the Euler-characteristic identity, and the
reproduction of the known witness determinants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from inspect import signature
from itertools import combinations
from math import comb
from typing import Iterator

from .combi import euler_identity_holds
from .determinant import tensor_det, witness_det
from .exactla import ExactMatrix, det_bareiss, det_multimodular
from .hypergraphs import (DPartition, boundary_rank_matches_system,
                          classify_partition, enumerate_partitions,
                          is_prehomogeneous, partition_from_basis,
                          partition_from_labels, partition_is_cycle_free)
from .reference import KNOWN_WITNESS_DETS, system_dimension, table_cells
from .system import relation_holds
from .tensors import (BasisAssignment, TensorAssignment, apply_matrix,
                      canonical_witness, subsets, tensor_from_basis)

DEFAULT_SEED = 20250808


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.trials} checks)"


# --- random generators --------------------------------------------------------


def random_vector(d: int, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))


def random_tensor(r: int, d: int, rng: random.Random) -> TensorAssignment:
    entries = {s: random_vector(d, rng) for s in subsets(r, r * d)}
    return TensorAssignment(r, d, entries)


def plant_degenerate_simplex(tensor: TensorAssignment,
                             rng: random.Random) -> TensorAssignment:
    """Force one random (r+1)-subset to carry equal vectors on all facets."""
    n, r = tensor.n, tensor.r
    simplex = tuple(sorted(rng.sample(range(1, n + 1), r + 1)))
    common = random_vector(tensor.d, rng)
    entries = dict(tensor.entries)
    for facet in combinations(simplex, r):
        entries[facet] = common
    return TensorAssignment(tensor.r, tensor.d, entries)


def random_int_matrix(d: int, rng: random.Random) -> list[list[int]]:
    return [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]


def random_partition(n: int, r: int, d: int, rng: random.Random,
                     equal_sizes: bool = False) -> DPartition:
    m = comb(n, r)
    if equal_sizes:
        labels = [i for i in range(1, d + 1) for _ in range(m // d)]
        rng.shuffle(labels)
    else:
        labels = [rng.randint(1, d) for _ in range(m)]
    return partition_from_labels(n, r, d, labels)


def random_sparse_matrix(n: int, rng: random.Random) -> ExactMatrix:
    """Sparse square matrix with entries in {-1, 0, 1}, a few per row.

    Half the draws carry a full signed diagonal so that nonsingular
    instances appear alongside the (otherwise dominant) singular ones.
    """
    entries: dict[tuple[int, int], int] = {}
    if rng.random() < 0.5:
        for i in range(n):
            entries[(i, i)] = rng.choice((-1, 1))
    for i in range(n):
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(n)
            entries[(i, j)] = rng.choice((-1, 1))
    return ExactMatrix(n, n, entries)


# --- suites ------------------------------------------------------------------


def suite_euler_identity(max_r: int = 12, max_d: int = 12) -> SuiteResult:
    res = SuiteResult("euler-identity", 0)
    for r in range(1, max_r + 1):
        for d in range(1, max_d + 1):
            res.trials += 1
            if not euler_identity_holds(r, d):
                res.failures.append(f"identity fails at (r, d)=({r}, {d})")
    return res


def suite_relations(seed: int = DEFAULT_SEED, trials: int = 100,
                    pairs: tuple[tuple[int, int], ...] = ((2, 2), (3, 2), (3, 3), (4, 2)),
                    ) -> SuiteResult:
    rng = random.Random(seed)
    res = SuiteResult("relations", 0)
    for r, d in pairs:
        n = r * d
        for t in range(trials):
            tensor = random_tensor(r, d, rng)
            for base in combinations(range(1, n + 1), r - 2):
                res.trials += 1
                if not relation_holds(tensor, base):
                    res.failures.append(
                        f"relation {base} violated at (r, d)=({r}, {d}), trial {t}")
    return res


def suite_vanishing(seed: int = DEFAULT_SEED, trials: int = 100,
                    pairs: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2),
                                                          (3, 3), (4, 2)),
                    backend: str = "auto") -> SuiteResult:
    rng = random.Random(seed)
    res = SuiteResult("vanishing", 0)
    for r, d in pairs:
        for t in range(trials):
            tensor = plant_degenerate_simplex(random_tensor(r, d, rng), rng)
            res.trials += 1
            value = tensor_det(tensor, backend=backend)
            if value != 0:
                res.failures.append(
                    f"degenerate tensor has det {value} at (r, d)=({r}, {d}), trial {t}")
    return res


def suite_sl_invariance(seed: int = DEFAULT_SEED, trials: int = 50,
                        pairs: tuple[tuple[int, int], ...] = ((2, 2), (3, 2), (2, 3)),
                        ) -> SuiteResult:
    rng = random.Random(seed)
    res = SuiteResult("sl-invariance", 0)
    for r, d in pairs:
        exponent = comb(r * d - 1, r - 1)
        for t in range(trials):
            tensor = random_tensor(r, d, rng)
            m = random_int_matrix(d, rng)
            res.trials += 1
            det_m = det_bareiss(ExactMatrix.from_rows(m))
            lhs = tensor_det(apply_matrix(m, tensor))
            rhs = det_m ** exponent * tensor_det(tensor)
            if lhs != rhs:
                res.failures.append(
                    f"equivariance broken at (r, d)=({r}, {d}), trial {t}")
    return res


def suite_backend_agreement(seed: int = DEFAULT_SEED, trials: int = 500,
                            max_size: int = 200,
                            min_singular: int = 50) -> SuiteResult:
    rng = random.Random(seed)
    res = SuiteResult("backend-agreement", 0)
    singular = 0
    for t in range(trials):
        n = rng.randint(2, max_size)
        m = random_sparse_matrix(n, rng)
        if t % 8 == 0 and n >= 3:
            # force a singular instance: overwrite row 1 with a copy of row 0
            dup = {k: v for k, v in m.entries.items() if k[0] != 1}
            for (i, j), v in m.entries.items():
                if i == 0:
                    dup[(1, j)] = v
            m = ExactMatrix(n, n, dup)
        res.trials += 1
        b = det_bareiss(m)
        mm = det_multimodular(m)
        if b != mm:
            res.failures.append(f"backends disagree on trial {t} (n={n}): {b} vs {mm}")
        if b == 0:
            singular += 1
    required = min(min_singular, max(1, trials // 8))
    res.details.append(f"singular instances: {singular}")
    if singular < required:
        res.failures.append(f"only {singular} singular instances, need {required}")
    return res


def suite_rank_equality(seed: int = DEFAULT_SEED, trials: int = 200) -> SuiteResult:
    rng = random.Random(seed)
    res = SuiteResult("rank-equality", 0)
    checked = 0
    while checked < trials:
        p = random_partition(6, 3, 2, rng)
        if not is_prehomogeneous(p):
            continue
        checked += 1
        res.trials += 1
        if not boundary_rank_matches_system(p):
            res.failures.append(f"rank mismatch on sampled partition {checked}")
    witness = partition_from_basis(canonical_witness(3, 2))
    res.trials += 1
    if not boundary_rank_matches_system(witness):
        res.failures.append("rank mismatch on the canonical witness partition")
    return res


def suite_theorem_r2d2() -> SuiteResult:
    """Exhaustive dual classification of all 64 ordered 2-partitions of the
    complete graph on 4 vertices, against the forest-and-coverage oracle."""
    res = SuiteResult("theorem-r2d2", 0)
    nonzero = 0
    oracle_count = 0
    for p in enumerate_partitions(4, 2, 2):
        res.trials += 1
        report = classify_partition(p)
        oracle = partition_is_cycle_free(p)
        if oracle:
            oracle_count += 1
        if (report.det != 0) != oracle:
            res.failures.append(f"determinant disagrees with cycle oracle on {p}")
        if not report.consistent:
            res.failures.append(f"equivalence verdict inconsistent on {p}")
        if report.det != 0:
            nonzero += 1
            if not report.homogeneous:
                res.failures.append(f"nonzero det on inhomogeneous partition {p}")
    res.details.append(f"nonzero determinants: {nonzero}")
    res.details.append(f"cycle-free partitions: {oracle_count}")
    if nonzero != oracle_count:
        res.failures.append("count mismatch between determinant and oracle")
    return res


def suite_theorem_r3d2(seed: int = DEFAULT_SEED, trials: int = 10000) -> SuiteResult:
    """Sampled three-way equivalence on 2-partitions of the complete
    3-uniform hypergraph on 6 vertices: uniform samples plus equal-size
    samples, with the homogeneity corollary checked on every nonzero case."""
    rng = random.Random(seed)
    res = SuiteResult("theorem-r3d2", 0)
    nonzero = 0
    for phase, equal_sizes in (("uniform", False), ("equal-size", True)):
        for t in range(trials):
            p = random_partition(6, 3, 2, rng, equal_sizes=equal_sizes)
            res.trials += 1
            report = classify_partition(p)
            if not report.consistent:
                res.failures.append(f"inconsistent verdict ({phase} trial {t})")
            if report.det != 0:
                nonzero += 1
                if not report.homogeneous:
                    res.failures.append(
                        f"nonzero det on inhomogeneous partition ({phase} trial {t})")
    res.details.append(f"nonzero determinants: {nonzero}")
    return res


def suite_expansion_r2d2(seed: int = DEFAULT_SEED, trials: int = 20) -> SuiteResult:
    """Multilinear expansion over all 64 label assignments for (r, d) = (2, 2):
    det(T) equals the sum over assignments of the product of selected
    coordinates times the determinant of the assignment's indicator tensor."""
    rng = random.Random(seed)
    res = SuiteResult("expansion-r2d2", 0)
    pair_list = list(subsets(2, 4))
    basis_dets = {}
    for code in range(2 ** len(pair_list)):
        labels = {}
        for idx, pair in enumerate(pair_list):
            labels[pair] = (code >> idx & 1) + 1
        b = BasisAssignment(2, 2, labels)
        basis_dets[code] = (labels, tensor_det(tensor_from_basis(b)))
    for t in range(trials):
        tensor = random_tensor(2, 2, rng)
        res.trials += 1
        total = Fraction(0)
        for code, (labels, bdet) in basis_dets.items():
            if bdet == 0:
                continue
            coeff = Fraction(1)
            for pair in pair_list:
                coeff *= tensor.entries[pair][labels[pair] - 1]
            total += coeff * bdet
        direct = tensor_det(tensor)
        if total != direct:
            res.failures.append(f"expansion mismatch on trial {t}: {total} vs {direct}")
    return res


def _witness_table(max_dim: int, backend: str) -> Iterator[tuple]:
    """The one walk of the witness table, shared by ``hgdet table`` and
    the table suite: for each cell (r, d) of ``table_cells(max_dim)`` and
    of the known values, in order, ``(cell, dim, value, known, verdict)``.
    ``value`` is the witness determinant, None on a cell beyond the grid
    of ``max_dim``, and ``verdict`` judges it against the published
    ``known``: "agree", "DIFFER", "unknown" when nothing is published, and
    None with no value."""
    computed = set(table_cells(max_dim))
    for cell in sorted(KNOWN_WITNESS_DETS.keys() | computed):
        known = KNOWN_WITNESS_DETS.get(cell)
        value = verdict = None
        if cell in computed:
            value = witness_det(*cell, backend=backend)
            verdict = "unknown" if known is None else "agree" if value == known else "DIFFER"
        yield cell, system_dimension(*cell), value, known, verdict


def suite_table(max_dim: int = 5000, backend: str = "bareiss",
                cross_check_dim: int = 1000) -> SuiteResult:
    """Reproduce the known witness determinants for every cell whose system
    dimension fits, asserting magnitude exactly 1 and the published value
    where there is one, recording the computed sign against the known one,
    and cross-checking both determinant backends on the smaller cells."""
    res = SuiteResult("table", 0)
    for (r, d), dim, value, known, verdict in _witness_table(max_dim, backend):
        if value is None:
            continue
        res.trials += 1
        if abs(value) != 1:
            res.failures.append(f"({r}, {d}): |det| = {abs(value)} != 1")
        if dim <= cross_check_dim:
            other = witness_det(r, d, backend="multimodular")
            if other != value:
                res.failures.append(f"({r}, {d}): backends disagree {value} vs {other}")
        if verdict == "DIFFER":
            res.failures.append(f"({r}, {d}): computed {value}, published {known}")
        res.details.append(
            f"({r}, {d}) dim={dim}: computed={value} known={known} {verdict}")
    return res


SUITES = {
    "euler-identity": suite_euler_identity,
    "relations": suite_relations,
    "vanishing": suite_vanishing,
    "sl-invariance": suite_sl_invariance,
    "backend-agreement": suite_backend_agreement,
    "rank-equality": suite_rank_equality,
    "theorem-r2d2": suite_theorem_r2d2,
    "theorem-r3d2": suite_theorem_r3d2,
    "expansion-r2d2": suite_expansion_r2d2,
    "table": suite_table,
}


def run_suite(name: str, seed: int | None = None, trials: int | None = None) -> SuiteResult:
    """Run the suite ``name`` with the seed and trial count given, and its
    own defaults for the rest.  Raises KeyError on an unknown name and
    ValueError on a value that the suite does not take."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    given = {key: value for key, value in (("seed", seed), ("trials", trials))
             if value is not None}
    refused = [key for key in given if key not in signature(suite).parameters]
    if refused:
        raise ValueError(f"suite {name!r} takes no {' or '.join(refused)}")
    return suite(**given)

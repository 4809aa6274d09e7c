"""Uniform hypergraphs, d-partitions, chain complexes, and Betti numbers.

Every sub-hypergraph of the complete r-uniform hypergraph spans an
(r-1)-dimensional cell complex: one cell for each s-subset contained in some
hyperedge, plus a single empty cell in degree -1 that makes the homology
reduced.  Betti numbers are dimensions over the rationals,
b_k = dim C_k - rank d_k - rank d_{k+1}, and the skeleta are built once per
hypergraph by ``_skeleta``.  The boundary ranks follow from the skeleta
wherever a rule gives them, so only the rest are eliminated:

* rank d_0 = 1 when there is any vertex, else 0;
* rank d_1 = |V| - (number of components), by union-find over the
  1-skeleton;
* rank d_k = C(n-1, k) when every (k+1)-subset of 1..n is a cell;
* any other boundary is built straight into the integer row form and its
  rank taken by one exact elimination.

For r = 3 only the top map d_2 is eliminated, and for r = 2 nothing is.
``chain_complex`` with ``rank_exact`` on every map is the generic path,
kept as the oracle the tests compare against.

The classification pipeline ties everything together: a d-partition of the
complete hypergraph on rd vertices has nonzero subset determinant exactly
when it is pre-homogeneous and every part has vanishing top Betti number,
and any such partition is automatically homogeneous.  ``classify_partition``
reads the deficiency and the Betti numbers of each part from the same
skeleta, with at most one elimination per part for r = 3.

Everything here is a pure function of immutable values; classifying
distinct partitions is safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial
from typing import IO, Iterable, Iterator, Sequence

from .combi import check_subset
from .determinant import basis_det
from .exactla import ExactMatrix, IntRows, _rank_rows
from .system import basis_rows
from .tensors import BasisAssignment, ParseError, _read_records


class InvalidPartitionError(ValueError):
    """Hyperedge missing from every part or present in more than one."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its explicit cap."""


@dataclass(frozen=True)
class Hypergraph:
    """r-uniform hypergraph on vertices 1..n; hyperedges are sorted tuples."""

    n: int
    r: int
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for e in self.edges:
            t = check_subset(e, self.n)
            if len(t) != self.r:
                raise ValueError(f"hyperedge {e} does not have {self.r} vertices")

    @classmethod
    def complete(cls, n: int, r: int) -> "Hypergraph":
        return cls(n, r, frozenset(combinations(range(1, n + 1), r)))


def _skeleta(edges: Iterable[tuple[int, ...]], r: int) -> list[set[tuple[int, ...]]]:
    """The cells of the complex spanned by ``edges``: ``levels[s]`` holds
    the s-subsets contained in some hyperedge, for 0 <= s <= r, so
    ``levels[k + 1]`` are the cells of degree k and ``levels[0]`` is the
    empty cell.  Each level is read off the one above it."""
    levels = [set(edges)] if r else []
    for s in range(r - 1, 0, -1):
        level: set[tuple[int, ...]] = set()
        for cell in levels[-1]:
            level.update(combinations(cell, s))
        levels.append(level)
    levels.append({()})
    levels.reverse()
    return levels


def skeleton_edges(h: Hypergraph, s: int) -> set[tuple[int, ...]]:
    """All s-subsets contained in at least one hyperedge."""
    if not 1 <= s <= h.r:
        raise ValueError(f"skeleton level must be in 1..{h.r}, got {s}")
    return _skeleta(h.edges, h.r)[s]


@dataclass(frozen=True)
class ChainComplex:
    """Reduced cell complex of a hypergraph.

    ``generators[k]`` lists the cells in degree k for -1 <= k <= r-1 (degree
    -1 is the single empty cell); ``boundary[k]`` is the matrix of the map
    from degree k to degree k-1 for 0 <= k <= r-1, with the alternating
    vertex-deletion signs.
    """

    r: int
    generators: dict[int, list[tuple[int, ...]]]
    boundary: dict[int, ExactMatrix]


def chain_complex(h: Hypergraph) -> ChainComplex:
    generators: dict[int, list[tuple[int, ...]]] = {}
    index: dict[int, dict[tuple[int, ...], int]] = {}
    for s, level in enumerate(_skeleta(h.edges, h.r)):
        cells = sorted(level)
        generators[s - 1] = cells
        index[s - 1] = {cell: i for i, cell in enumerate(cells)}
    boundary: dict[int, ExactMatrix] = {}
    for k in range(0, h.r):
        rows = len(generators[k - 1])
        cols = len(generators[k])
        entries: dict[tuple[int, int], int] = {}
        for j, cell in enumerate(generators[k]):
            for q in range(k + 1):
                face = cell[:q] + cell[q + 1:]
                sign = 1 if q % 2 == 0 else -1
                entries[(index[k - 1][face], j)] = sign
        boundary[k] = ExactMatrix(rows, cols, entries)
    return ChainComplex(h.r, generators, boundary)


@dataclass(frozen=True, slots=True)
class BettiVector:
    """Reduced Betti numbers indexed by degree -1 .. r-1."""

    values: tuple[int, ...]

    def __getitem__(self, degree: int) -> int:
        if not -1 <= degree < len(self.values) - 1:
            raise IndexError(f"degree {degree} out of range")
        return self.values[degree + 1]

    def top(self) -> int:
        return self.values[-1]

    def all_zero(self) -> bool:
        return not any(self.values)


@lru_cache(maxsize=4096, typed=True)
def _shared(value):
    """The first instance seen of an immutable value equal to ``value``.
    Classification reports repeat a few Betti vectors, deficiencies and
    determinants many times over, so they hold shared instances."""
    return value


def _spanning_forest_size(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """|V| - (number of components) of a graph on 1..n: the edges that
    union-find merges."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            merged += 1
    return merged


def _boundary_rows(levels: list[set[tuple[int, ...]]],
                   k: int) -> tuple[IntRows, int, int]:
    """The transpose of the boundary map d_k in the integer row form: one
    row per cell of degree k, holding the alternating signs of its faces.
    Returns (rows, nrows, ncols); the rank is that of d_k."""
    index = {face: i for i, face in enumerate(levels[k])}
    rows: IntRows = {}
    for j, cell in enumerate(levels[k + 1]):
        rows[j] = {index[cell[:q] + cell[q + 1:]]: -1 if q % 2 else 1
                   for q in range(k + 1)}
    return rows, len(levels[k + 1]), len(levels[k])


def _boundary_rank(levels: list[set[tuple[int, ...]]], n: int, k: int) -> int:
    """rank d_k over Q, by the rules in the module docstring; only a map
    that none of them covers is eliminated."""
    cells = levels[k + 1]
    if not cells:
        return 0
    if len(cells) == comb(n, k + 1):
        return comb(n - 1, k)
    if k == 0:
        return 1
    if k == 1:
        return _spanning_forest_size(n, cells)
    return _rank_rows(*_boundary_rows(levels, k))


def _betti(levels: list[set[tuple[int, ...]]], n: int) -> BettiVector:
    """Reduced Betti numbers of the complex whose skeleta are ``levels``."""
    r = len(levels) - 1
    # ranks[k + 1] = rank d_k; the maps out of degree -1 and into r-1 are 0.
    ranks = [0, *(_boundary_rank(levels, n, k) for k in range(r)), 0]
    return _shared(BettiVector(tuple(len(levels[s]) - ranks[s] - ranks[s + 1]
                                     for s in range(r + 1))))


def betti_numbers(h: Hypergraph) -> BettiVector:
    """b_k = dim C_k - rank boundary_k - rank boundary_{k+1}, over Q."""
    return _betti(_skeleta(h.edges, h.r), h.n)


def euler_characteristic(h: Hypergraph) -> int:
    """Alternating cell count sum_{s=0}^{r} (-1)^s |E_s|, the empty cell
    counting as E_0.  Equals -sum_k (-1)^k b_k over the reduced degrees."""
    return sum((-1) ** s * len(level)
               for s, level in enumerate(_skeleta(h.edges, h.r)))


# --- partitions --------------------------------------------------------------


@dataclass(frozen=True)
class DPartition:
    """Ordered split of the hyperedges of the complete hypergraph K^r_n."""

    n: int
    r: int
    parts: tuple[frozenset[tuple[int, ...]], ...]

    def __post_init__(self):
        seen: dict[tuple[int, ...], int] = {}
        for i, part in enumerate(self.parts, start=1):
            for e in part:
                t = check_subset(e, self.n)
                if len(t) != self.r:
                    raise InvalidPartitionError(f"hyperedge {e} is not an {self.r}-subset")
                if t in seen:
                    raise InvalidPartitionError(
                        f"hyperedge {t} assigned to parts {seen[t]} and {i}")
                seen[t] = i
        if len(seen) != comb(self.n, self.r):
            raise InvalidPartitionError(
                f"parts cover {len(seen)} of {comb(self.n, self.r)} hyperedges")

    @property
    def d(self) -> int:
        return len(self.parts)

    def part_hypergraph(self, i: int) -> Hypergraph:
        return Hypergraph(self.n, self.r, self.parts[i])


def basis_from_partition(p: DPartition) -> BasisAssignment:
    """The basis assignment sending each hyperedge to its part index."""
    if p.n != p.r * p.d:
        raise ValueError(f"need n = r*d, got n={p.n}, r={p.r}, d={p.d}")
    labels: dict[tuple[int, ...], int] = {}
    for i, part in enumerate(p.parts, start=1):
        for e in part:
            labels[e] = i
    return BasisAssignment(p.r, p.d, labels)


def partition_from_basis(b: BasisAssignment) -> DPartition:
    parts: list[set[tuple[int, ...]]] = [set() for _ in range(b.d)]
    for e, lab in b.labels.items():
        parts[lab - 1].add(e)
    return DPartition(b.n, b.r, tuple(frozenset(s) for s in parts))


def partition_from_labels(n: int, r: int, d: int,
                          labels: Sequence[int]) -> DPartition:
    """Partition from one label per hyperedge, in dictionary order."""
    parts: list[set[tuple[int, ...]]] = [set() for _ in range(d)]
    for e, lab in zip(combinations(range(1, n + 1), r), labels, strict=True):
        parts[lab - 1].add(e)
    return DPartition(n, r, tuple(frozenset(s) for s in parts))


def _deficiency(n: int, skeleta: Iterable[list[set[tuple[int, ...]]]]
                ) -> tuple[int, int, int, int] | None:
    """First (part, level, count, expected) whose skeleton below the top
    level is not full, given each part's ``_skeleta``."""
    for i, levels in enumerate(skeleta, start=1):
        for k in range(1, len(levels) - 1):
            count = len(levels[k])
            expected = comb(n, k)
            if count != expected:
                return (i, k, count, expected)
    return None


def skeleton_deficiency(p: DPartition) -> tuple[int, int, int, int] | None:
    """First (part, level, count, expected) violating fullness of a skeleton
    below the top level, or None when every part is fully pre-homogeneous."""
    return _deficiency(p.n, (_skeleta(part, p.r) for part in p.parts))


def is_prehomogeneous(p: DPartition) -> bool:
    """Every part contains all k-subsets in its skeletons for k < r."""
    if p.n != p.r * p.d:
        raise ValueError(f"need n = r*d, got n={p.n}, r={p.r}, d={p.d}")
    return skeleton_deficiency(p) is None


def is_homogeneous(p: DPartition) -> bool:
    """Pre-homogeneous with hyperedges split evenly: C(rd-1, r-1) per part."""
    if not is_prehomogeneous(p):
        return False
    share = comb(p.n - 1, p.r - 1)
    return all(len(part) == share for part in p.parts)


def boundary_rank_matches_system(p: DPartition) -> bool:
    """Compare rank of the direct sum of top boundary maps with the rank of
    the full (untruncated) system matrix of the partition's basis tensor,
    assembled by the label-aware route.  Both ranks are eliminated, with no
    rank rule.  Requires a pre-homogeneous partition."""
    if p.n != p.r * p.d:
        raise ValueError(f"need n = r*d, got n={p.n}, r={p.r}, d={p.d}")
    skeleta = [_skeleta(part, p.r) for part in p.parts]
    if _deficiency(p.n, skeleta) is not None:
        raise ValueError("rank comparison requires a pre-homogeneous partition")
    boundary_rank = sum(_rank_rows(*_boundary_rows(levels, p.r - 1))
                        for levels in skeleta)
    rows, nrows, ncols = basis_rows(basis_from_partition(p), p.n)
    return boundary_rank == _rank_rows(rows, nrows, ncols)


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    """Joint verdict of the determinant and homology tests on a partition."""

    n: int
    r: int
    d: int
    det: Fraction
    prehomogeneous: bool
    homogeneous: bool
    betti: tuple[BettiVector, ...]
    deficiency: tuple[int, int, int, int] | None
    consistent: bool


def classify_partition(p: DPartition, backend: str = "auto",
                       threads: int = 1) -> ClassificationReport:
    """Determinant, homogeneity flags, per-part Betti numbers, and the
    equivalence verdict.  ``consistent`` is False only on a falsification of
    the three-way equivalence."""
    if p.n != p.r * p.d:
        raise InvalidPartitionError(f"need n = r*d, got n={p.n}, r={p.r}, d={p.d}")
    det = basis_det(basis_from_partition(p), backend=backend, threads=threads)
    skeleta = [_skeleta(part, p.r) for part in p.parts]
    deficiency = _deficiency(p.n, skeleta)
    prehom = deficiency is None
    share = comb(p.n - 1, p.r - 1)
    hom = prehom and all(len(part) == share for part in p.parts)
    betti = tuple(_betti(levels, p.n) for levels in skeleta)
    det_nonzero = det != 0
    all_zero = prehom and all(b.all_zero() for b in betti)
    top_zero = prehom and all(b.top() == 0 for b in betti)
    consistent = det_nonzero == all_zero == top_zero
    return ClassificationReport(p.n, p.r, p.d, _shared(det), prehom, hom,
                                _shared(betti), _shared(deficiency), consistent)


def enumerate_partitions(n: int, r: int, d: int, homogeneous_only: bool = False,
                         cap: int = 1 << 21) -> Iterator[DPartition]:
    """All ordered d-partitions of K^r_n as label assignments, in base-d
    counting order over the dictionary-ordered hyperedges.

    With ``homogeneous_only`` only the label sequences with equal part
    sizes are generated, in the same order, and no other is walked.
    Raises ValueError when d < 1, and ResourceCapError when the label
    sequences walked, d ** C(n, r) of them or the multinomial
    C(n, r)! / (C(n, r) / d)! ** d equal-size ones, would exceed ``cap``.
    """
    if d < 1:
        raise ValueError(f"need d >= 1 parts, got d={d}")
    m = comb(n, r)
    if homogeneous_only and m % d != 0:
        return
    if homogeneous_only:
        share = m // d
        walked = factorial(m) // factorial(share) ** d
        sequences = _equal_size_labels(d, share)
    else:
        walked = d ** m
        sequences = product(range(1, d + 1), repeat=m)
    if walked > cap:
        raise ResourceCapError(
            f"enumeration walks {walked} label sequences, exceeding cap {cap}")
    for labels in sequences:
        yield partition_from_labels(n, r, d, labels)


def _equal_size_labels(d: int, share: int) -> Iterator[tuple[int, ...]]:
    """Every sequence holding each label 1..d exactly ``share`` times, in
    increasing lexicographic order: from the sorted sequence, each step
    raises the rightmost position that can grow to the next larger label
    to its right and sorts the tail (Knuth's algorithm L)."""
    a = [lab for lab in range(1, d + 1) for _ in range(share)]
    last = len(a) - 1
    while True:
        yield tuple(a)
        j = last - 1
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = last
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


# --- independent oracles for r = 2 -------------------------------------------


def graph_is_forest(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Cycle detection by union-find: every edge joins two components."""
    edges = list(edges)
    return _spanning_forest_size(n, edges) == len(edges)


def partition_is_cycle_free(p: DPartition) -> bool:
    """Every part acyclic and touching every vertex (r = 2 only)."""
    if p.r != 2:
        raise ValueError("cycle-free test applies to graphs only")
    for part in p.parts:
        if not graph_is_forest(p.n, part):
            return False
        covered = {v for e in part for v in e}
        if len(covered) != p.n:
            return False
    return True


# --- text formats ------------------------------------------------------------


def write_partition(p: DPartition, fh: IO[str]) -> None:
    """Header ``n r d``, then ``i_1 ... i_r -> part`` per hyperedge."""
    fh.write(f"{p.n} {p.r} {p.d}\n")
    for i, part in enumerate(p.parts, start=1):
        for e in sorted(part):
            fh.write(f"{' '.join(map(str, e))} -> {i}\n")


def _split_assignment(line_no: int, line: str) -> tuple[tuple[int, ...], int]:
    if "->" not in line:
        raise ParseError(line_no, "missing '->' separator")
    left, right = line.split("->", 1)
    try:
        return tuple(int(x) for x in left.split()), int(right)
    except ValueError:
        raise ParseError(line_no, f"bad assignment {line!r}") from None


def read_partition(fh: IO[str]) -> DPartition:
    (n, r, d), records, n_lines = _read_records(fh, "n r d", _split_assignment)
    assignments: dict[tuple[int, ...], int] = {}
    for line_no, subset, label in records:
        if not 1 <= label <= d:
            raise ParseError(line_no, f"part {label} outside 1..{d}")
        if subset in assignments:
            raise ParseError(line_no, f"duplicate hyperedge {subset}")
        assignments[subset] = label
    parts: list[set[tuple[int, ...]]] = [set() for _ in range(d)]
    for e, lab in assignments.items():
        parts[lab - 1].add(e)
    try:
        return DPartition(n, r, tuple(frozenset(s) for s in parts))
    except InvalidPartitionError as exc:
        raise ParseError(n_lines, str(exc)) from None


def write_hypergraph(h: Hypergraph, fh: IO[str]) -> None:
    """Header ``n r``, then one hyperedge per line."""
    fh.write(f"{h.n} {h.r}\n")
    for e in sorted(h.edges):
        fh.write(f"{' '.join(map(str, e))}\n")


def _split_edge(line_no: int, line: str) -> tuple[tuple[int, ...], None]:
    try:
        return tuple(int(x) for x in line.split()), None
    except ValueError:
        raise ParseError(line_no, f"bad hyperedge {line!r}") from None


def read_hypergraph(fh: IO[str]) -> Hypergraph:
    (n, r), records, n_lines = _read_records(fh, "n r", _split_edge)
    edges = frozenset(subset for _, subset, _ in records)
    try:
        return Hypergraph(n, r, edges)
    except ValueError as exc:
        raise ParseError(n_lines, str(exc)) from None

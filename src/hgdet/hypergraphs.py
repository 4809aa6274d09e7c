"""Uniform hypergraphs, d-partitions, chain complexes, and Betti numbers.

Every sub-hypergraph of the complete r-uniform hypergraph spans an
(r-1)-dimensional cell complex: one cell for each s-subset contained in some
hyperedge, plus a single empty cell in degree -1 that makes the homology
reduced.  Betti numbers are dimensions over the rationals, computed from
exact boundary ranks.

The classification pipeline ties everything together: a d-partition of the
complete hypergraph on rd vertices has nonzero subset determinant exactly
when it is pre-homogeneous and every part has vanishing top Betti number,
and any such partition is automatically homogeneous.

Everything here is a pure function of immutable values; classifying
distinct partitions is safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import IO, Iterable, Iterator, Sequence

from .combi import check_subset
from .determinant import basis_det
from .exactla import ExactMatrix, _rank_rows, rank_exact
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


def skeleton_edges(h: Hypergraph, s: int) -> set[tuple[int, ...]]:
    """All s-subsets contained in at least one hyperedge."""
    if not 1 <= s <= h.r:
        raise ValueError(f"skeleton level must be in 1..{h.r}, got {s}")
    out: set[tuple[int, ...]] = set()
    for e in h.edges:
        out.update(combinations(e, s))
    return out


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
    generators: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    index: dict[int, dict[tuple[int, ...], int]] = {-1: {(): 0}}
    for s in range(1, h.r + 1):
        cells = sorted(skeleton_edges(h, s))
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


@dataclass(frozen=True)
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


def betti_numbers(h: Hypergraph) -> BettiVector:
    """b_k = dim C_k - rank boundary_k - rank boundary_{k+1}, over Q."""
    cx = chain_complex(h)
    ranks = {k: rank_exact(m) for k, m in cx.boundary.items()}
    values = []
    for k in range(-1, h.r):
        dim = len(cx.generators[k])
        values.append(dim - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return BettiVector(tuple(values))


def euler_characteristic(h: Hypergraph) -> int:
    """Alternating cell count sum_{s=0}^{r} (-1)^s |E_s|, the empty cell
    counting as E_0.  Equals -sum_k (-1)^k b_k over the reduced degrees."""
    total = 1
    for s in range(1, h.r + 1):
        total += (-1) ** s * len(skeleton_edges(h, s))
    return total


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


def skeleton_deficiency(p: DPartition) -> tuple[int, int, int, int] | None:
    """First (part, level, count, expected) violating fullness of a skeleton
    below the top level, or None when every part is fully pre-homogeneous."""
    for i in range(p.d):
        h = p.part_hypergraph(i)
        for k in range(1, p.r):
            count = len(skeleton_edges(h, k))
            expected = comb(p.n, k)
            if count != expected:
                return (i + 1, k, count, expected)
    return None


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
    assembled by the label-aware route.  Requires a pre-homogeneous
    partition."""
    if not is_prehomogeneous(p):
        raise ValueError("rank comparison requires a pre-homogeneous partition")
    boundary_rank = 0
    for i in range(p.d):
        cx = chain_complex(p.part_hypergraph(i))
        boundary_rank += rank_exact(cx.boundary[p.r - 1])
    rows, nrows, ncols = basis_rows(basis_from_partition(p), p.n)
    return boundary_rank == _rank_rows(rows, nrows, ncols)


@dataclass(frozen=True)
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
    deficiency = skeleton_deficiency(p)
    prehom = deficiency is None
    share = comb(p.n - 1, p.r - 1)
    hom = prehom and all(len(part) == share for part in p.parts)
    betti = tuple(betti_numbers(p.part_hypergraph(i)) for i in range(p.d))
    det_nonzero = det != 0
    all_zero = prehom and all(b.all_zero() for b in betti)
    top_zero = prehom and all(b.top() == 0 for b in betti)
    consistent = det_nonzero == all_zero == top_zero
    return ClassificationReport(p.n, p.r, p.d, det, prehom, hom, betti,
                                deficiency, consistent)


def enumerate_partitions(n: int, r: int, d: int, homogeneous_only: bool = False,
                         cap: int = 1 << 21) -> Iterator[DPartition]:
    """All ordered d-partitions of K^r_n as label assignments, in base-d
    counting order over the dictionary-ordered hyperedges.

    With ``homogeneous_only`` the stream is filtered to equal part sizes.
    Raises ValueError when d < 1, and ResourceCapError when the label codes
    walked, d ** C(n, r) of them whether filtered or not, would exceed
    ``cap``.
    """
    if d < 1:
        raise ValueError(f"need d >= 1 parts, got d={d}")
    m = comb(n, r)
    if homogeneous_only and m % d != 0:
        return
    walked = d ** m
    if walked > cap:
        raise ResourceCapError(
            f"enumeration walks {walked} label codes, exceeding cap {cap}")
    share = m // d
    for labels in product(range(1, d + 1), repeat=m):
        if homogeneous_only and any(labels.count(lab) != share
                                    for lab in range(1, d + 1)):
            continue
        yield partition_from_labels(n, r, d, labels)


# --- independent oracles for r = 2 -------------------------------------------


def graph_is_forest(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Cycle detection by union-find."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


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

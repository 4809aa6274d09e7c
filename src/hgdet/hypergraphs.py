"""Uniform hypergraphs, d-partitions, chain complexes, and Betti numbers.

Every sub-hypergraph of the complete r-uniform hypergraph spans an
(r-1)-dimensional cell complex: one cell for each s-subset contained in some
hyperedge, plus a single empty cell in degree -1 that makes the homology
reduced.  Betti numbers are dimensions over the rationals,
b_k = dim C_k - rank d_k - rank d_{k+1}.

The cells come from a face table: for each level s, s-subsets in
dictionary order, whose positions are the cells' ids, and for each cell
the ids of its s faces in deletion order q, with sign (-1)**q, and its
boundary row, a read-only mapping from face id to that sign, which for
s >= 2 leaves out the faces through the table's least vertex.
``_shape_table`` builds the table of K^r_n once per (n, r), in a bounded
cache, so a cell's id is its dictionary rank.  A partition's parts hold
each r-subset of 1..n once, the key rule of ``tensors``.  It is checked
and numbered once, when built, by one pass of lookups in the index
``_subset_ids`` that keeps each hyperedge's label; consumers group the
labels and look nothing up.  ``_partition``, behind every builder,
refuses more parts than hyperedges before it builds one.  A lone
hypergraph gets a table of its own cells (``_face_table``), so a few
edges on many vertices never cost C(n, r) of anything.  The boundary
ranks follow from the skeleta wherever a rule gives them, so only the
rest are eliminated:

* rank d_0 = 1 when there is any vertex, else 0;
* rank d_1 = |V| - (number of components), by union-find over the
  1-skeleton;
* rank d_k = C(n-1, k) when every (k+1)-subset of 1..n is a cell;
* any other boundary is copied from the table's rows into the integer
  row form, so without the columns of the cells through the least
  vertex, which never change its rank, and its rank taken by one exact
  elimination.

For r = 3 only the top map d_2 is eliminated, and for r = 2 nothing is.
``chain_complex`` with ``rank_exact`` on every map is the generic path,
which slices tuples and reads no face table: the oracle the tests compare
against.

The classification pipeline ties everything together: a d-partition of the
complete hypergraph on rd vertices has nonzero subset determinant exactly
when it is pre-homogeneous and every part has vanishing top Betti number,
and any such partition is automatically homogeneous.  ``classify_partition``
reads the deficiency and the Betti numbers of each part from the same
skeleta, with at most one elimination per part for r = 3, and the
determinant's labels from the same numbering; parts of unequal size give
det 0 with no fill (see ``determinant``).

Everything here is a pure function of immutable values, the cached tables
included: their rows are read-only, and elimination works on copies.
Classifying distinct partitions is safe to run in parallel.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Sequence

from .combi import check_subset
from .determinant import _balanced, _label_det
from .exactla import ExactMatrix, IntRows, _check_threads, _rank_rows
from .system import _label_rows
from .tensors import BasisAssignment, ParseError, _read_records, _subset_ids


class InvalidPartitionError(ValueError):
    """Parts that do not hold each r-subset of 1..n once, a label outside
    1..d, or n != r*d where a square system is needed."""


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


# Shapes that _shape_table keeps.  A run repeats few shapes: a
# classification sweep one (n, r), a suite a handful.  The table of
# K^3_6 takes 12 KB (tracemalloc, beside the subset index it shares),
# that of K^5_15, the (5, 3) partitions, 4944 cells in 2.0 MB, two thirds
# of it the rows; a sweep over many shapes keeps only the last few.
_SHAPE_CACHE_SIZE = 8

#: A face table: one ``(cells, faces, rows)`` per level s in 0..r.
#: ``cells`` are s-subsets in dictionary order, and a cell's id is its
#: position there; ``faces[i]`` holds the ids, in level s - 1, of the faces
#: of cell i, the q-th (from 0) deleting its q-th vertex, with sign
#: (-1)**q; ``rows[i]`` is cell i's boundary row, a read-only mapping from
#: face id to that sign, without the faces through the table's least
#: vertex for s >= 2 (see ``_boundary_rows``).
FaceTable = tuple[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...],
                        tuple[MappingProxyType[int, int], ...]], ...]


def _face_table(edges: Iterable[tuple[int, ...]], r: int) -> FaceTable:
    """The face table of the complex spanned by ``edges`` alone: level r
    holds the edges, each level below the faces of the one above it, and
    level 0 the empty cell, which is always there."""
    cells = sorted(edges)
    table = []
    for s in range(r, 0, -1):
        below = sorted({c[:q] + c[q + 1:] for c in cells for q in range(s)}
                       if s > 1 else [()])
        index = {c: i for i, c in enumerate(below)}
        faces = tuple(tuple(index[c[:q] + c[q + 1:]] for q in range(s)) for c in cells)
        # Ids below ``low`` are the cells through the least vertex, which
        # sort first.
        low = bisect_left(below, (below[0][0] + 1,)) if s > 1 and below else 0
        signs = (1, -1) * (s // 2 + 1)
        rows = tuple(MappingProxyType({f: sign for f, sign in zip(ids, signs) if f >= low})
                     for ids in faces)
        table.append((tuple(cells), faces, rows))
        cells = below
    table.append((((),), ((),), (MappingProxyType({}),)))
    return tuple(reversed(table))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape_table(n: int, r: int) -> FaceTable:
    """The face table of K^r_n, cached: for n >= r level s holds every
    s-subset of 1..n, so a cell's id is its dictionary rank, and every
    part of every partition of K^r_n shares the table."""
    return _face_table(_subset_ids(r, n), r)


def _skeleta(table: FaceTable, top: Iterable[int]) -> list[set[int]]:
    """The cells of the complex spanned by the level-r cells ``top`` of
    ``table``, as ids: ``levels[s]`` holds the s-subsets contained in some
    hyperedge, for 0 <= s <= r, so ``levels[k + 1]`` are the cells of
    degree k and ``levels[0]`` is the empty cell.  Each level is the union
    of the faces of the one above it."""
    r = len(table) - 1
    levels = [{0}] * (r + 1)
    if r:
        levels[r] = set(top)
    for s in range(r, 1, -1):
        faces = table[s][1]
        levels[s - 1] = {f for c in levels[s] for f in faces[c]}
    return levels


def skeleton_edges(h: Hypergraph, s: int) -> set[tuple[int, ...]]:
    """All s-subsets contained in at least one hyperedge."""
    if not 1 <= s <= h.r:
        raise ValueError(f"skeleton level must be in 1..{h.r}, got {s}")
    return set(_face_table(h.edges, h.r)[s][0])


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
    """The generic complex: cells from ``combinations`` of the edges and
    faces by slicing tuples, apart from the face tables, so that it stays
    the oracle the tests compare the table-driven path against."""
    generators: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    index: dict[int, dict[tuple[int, ...], int]] = {-1: {(): 0}}
    for s in range(1, h.r + 1):
        cells = sorted({c for e in h.edges for c in combinations(e, s)})
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
    Classifications repeat a few Betti vectors and whole reports many
    times over, so a caller that keeps N reports holds N references to
    a few shared instances, not N reports."""
    return value


def _spanning_forest_size(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """|V| - (number of components) of a graph on vertices among 0..n: the
    edges that union-find merges."""
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


def _boundary_rows(table: FaceTable, levels: list[set[int]],
                   k: int) -> tuple[IntRows, int, int]:
    """The transpose of the boundary map d_k in the integer row form: one
    row per cell of degree k, a copy of its row in the table, in columns
    indexed by the table's ids of degree k - 1.  Returns (rows, nrows,
    ncols), whose rank is that of d_k.

    For k >= 1 the table's rows leave out the columns of the cells through
    its least vertex v, which sort first.  They never change the rank: a
    cycle z of degree k - 1 whose cells all hold v is 0, since each cell c
    of z gives d z the entry +-z_c at c - v, a cell without v that no
    other cell of z gives."""
    rows = table[k + 1][2]
    return ({j: rows[c].copy() for j, c in enumerate(levels[k + 1])},
            len(levels[k + 1]), len(table[k][0]))


def _boundary_rank(table: FaceTable, levels: list[set[int]], n: int, k: int) -> int:
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
        return _spanning_forest_size(len(table[1][0]),
                                     map(table[2][1].__getitem__, cells))
    return _rank_rows(*_boundary_rows(table, levels, k))


def _betti(table: FaceTable, levels: list[set[int]], n: int) -> BettiVector:
    """Reduced Betti numbers of the complex whose skeleta in ``table`` are
    ``levels``."""
    r = len(levels) - 1
    # ranks[k + 1] = rank d_k; the maps out of degree -1 and into r-1 are 0.
    ranks = [0, *(_boundary_rank(table, levels, n, k) for k in range(r)), 0]
    return _shared(BettiVector(tuple(len(levels[s]) - ranks[s] - ranks[s + 1]
                                     for s in range(r + 1))))


def betti_numbers(h: Hypergraph) -> BettiVector:
    """b_k = dim C_k - rank boundary_k - rank boundary_{k+1}, over Q."""
    table = _face_table(h.edges, h.r)
    return _betti(table, _skeleta(table, range(len(h.edges))), h.n)


def euler_characteristic(h: Hypergraph) -> int:
    """Alternating cell count sum_{s=0}^{r} (-1)^s |E_s|, the empty cell
    counting as E_0.  Equals -sum_k (-1)^k b_k over the reduced degrees."""
    return sum((-1) ** s * len(cells)
               for s, (cells, *_) in enumerate(_face_table(h.edges, h.r)))


# --- partitions --------------------------------------------------------------


@dataclass(frozen=True)
class DPartition:
    """Ordered split of the hyperedges of the complete hypergraph K^r_n."""

    n: int
    r: int
    parts: tuple[frozenset[tuple[int, ...]], ...]
    # The part (from 1) of each hyperedge, in dictionary order.
    _labels: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """The one check and numbering of a partition: InvalidPartitionError
        unless the parts hold each r-subset of 1..n once; the count first."""
        held = sum(map(len, self.parts))
        _check_held(held, self.n, self.r)
        index = _subset_ids(self.r, self.n)
        label = [0] * held
        for i, part in enumerate(self.parts, start=1):
            for e in part:
                j = index.get(e)
                if j is None:
                    raise InvalidPartitionError(
                        f"hyperedge {e} is not one of the {self.r}-subsets of 1..{self.n}")
                if label[j]:
                    raise InvalidPartitionError(
                        f"hyperedge {e} assigned to parts {label[j]} and {i}")
                label[j] = i
        object.__setattr__(self, "_labels", tuple(label))

    @property
    def d(self) -> int:
        return len(self.parts)

    def part_hypergraph(self, i: int) -> Hypergraph:
        return Hypergraph(self.n, self.r, self.parts[i])


def _check_held(held: int, n: int, r: int) -> None:
    """Raise InvalidPartitionError unless ``held`` hyperedges are those of K^r_n."""
    if held != comb(n, r):
        raise InvalidPartitionError(
            f"parts hold {held} hyperedges, K^{r}_{n} has {comb(n, r)}")


def _part_skeleta(p: DPartition) -> tuple[FaceTable, list[list[set[int]]]]:
    """The shape table of ``p`` and the ``_skeleta`` of each part in it,
    whose hyperedge ids, those of ``_subset_ids(r, n)``, come grouped from
    the partition's labels."""
    table = _shape_table(p.n, p.r)
    ids: list[list[int]] = [[] for _ in p.parts]
    for j, i in enumerate(p._labels):
        ids[i - 1].append(j)
    return table, [_skeleta(table, part) for part in ids]


def _partition(n: int, r: int, d: int,
               labelled: Iterable[tuple[tuple[int, ...], int]]) -> DPartition:
    """The d-partition of K^r_n whose part ``label`` (from 1) holds each
    hyperedge of the (hyperedge, label) pairs ``labelled``.  Only the parts
    that hold a hyperedge exist until the labels, the hyperedge count and
    d <= C(n, r) are checked, so a large d costs nothing."""
    parts: defaultdict[int, set[tuple[int, ...]]] = defaultdict(set)
    for e, lab in labelled:
        if not 1 <= lab <= d:
            raise InvalidPartitionError(f"label {lab} at {e} outside 1..{d}")
        parts[lab].add(e)
    _check_held(sum(map(len, parts.values())), n, r)
    if d > comb(n, r):
        raise InvalidPartitionError(
            f"{d} parts exceed the {comb(n, r)} hyperedges of K^{r}_{n}")
    return DPartition(n, r, tuple(frozenset(parts.get(i, ())) for i in range(1, d + 1)))


def _check_square(p: DPartition) -> None:
    """Raise InvalidPartitionError unless n = r*d, the shape that has a
    square system and a determinant."""
    if p.n != p.r * p.d:
        raise InvalidPartitionError(f"need n = r*d, got n={p.n}, r={p.r}, d={p.d}")


def basis_from_partition(p: DPartition) -> BasisAssignment:
    """The basis assignment sending each hyperedge to its part index."""
    _check_square(p)
    return BasisAssignment(p.r, p.d, dict(zip(_subset_ids(p.r, p.n), p._labels)))


def partition_from_basis(b: BasisAssignment) -> DPartition:
    return _partition(b.n, b.r, b.d, b.labels.items())


def partition_from_labels(n: int, r: int, d: int,
                          labels: Sequence[int]) -> DPartition:
    """Partition from one label per hyperedge, in dictionary order; the
    hyperedges are the index's tuples, shared by every partition of K^r_n."""
    return _partition(n, r, d, zip(_subset_ids(r, n), labels, strict=True))


def _deficiency(n: int, skeleta: Iterable[list[set[int]]]
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
    return _deficiency(p.n, _part_skeleta(p)[1])


def is_prehomogeneous(p: DPartition) -> bool:
    """Every part contains all k-subsets in its skeletons for k < r."""
    _check_square(p)
    return skeleton_deficiency(p) is None


def is_homogeneous(p: DPartition) -> bool:
    """Pre-homogeneous with hyperedges split evenly: C(rd-1, r-1) per part."""
    return is_prehomogeneous(p) and _balanced(p.r, p.d, p._labels)


def boundary_rank_matches_system(p: DPartition) -> bool:
    """Compare rank of the direct sum of top boundary maps with the rank of
    the full (untruncated) system matrix of the partition's basis tensor,
    assembled by the label-aware route.  Both ranks are eliminated, with no
    rank rule.  Requires a pre-homogeneous partition."""
    _check_square(p)
    table, skeleta = _part_skeleta(p)
    if _deficiency(p.n, skeleta) is not None:
        raise ValueError("rank comparison requires a pre-homogeneous partition")
    boundary_rank = sum(_rank_rows(*_boundary_rows(table, levels, p.r - 1))
                        for levels in skeleta)
    return boundary_rank == _rank_rows(*_label_rows(p.r, p.d, p._labels, p.n))


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
    _check_threads(threads)
    _check_square(p)
    det = _label_det(p.r, p.d, p._labels, backend)
    table, skeleta = _part_skeleta(p)
    deficiency = _deficiency(p.n, skeleta)
    prehom = deficiency is None
    hom = prehom and _balanced(p.r, p.d, p._labels)
    betti = tuple(_betti(table, levels, p.n) for levels in skeleta)
    det_nonzero = det != 0
    all_zero = prehom and all(b.all_zero() for b in betti)
    top_zero = prehom and all(b.top() == 0 for b in betti)
    consistent = det_nonzero == all_zero == top_zero
    return _shared(ClassificationReport(p.n, p.r, p.d, det, prehom, hom, betti,
                                        deficiency, consistent))


def enumerate_partitions(n: int, r: int, d: int, homogeneous_only: bool = False,
                         cap: int = 1 << 21) -> Iterator[DPartition]:
    """All ordered d-partitions of K^r_n as label assignments, in base-d
    counting order over the dictionary-ordered hyperedges.

    With ``homogeneous_only`` only the label sequences with equal part
    sizes are generated, in the same order, and no other is walked.
    Raises ValueError when d < 1, ResourceCapError when the label
    sequences walked, d ** C(n, r) of them or the multinomial
    C(n, r)! / (C(n, r) / d)! ** d equal-size ones, would exceed ``cap``,
    and InvalidPartitionError on the first partition when d > C(n, r).
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
        assignments[subset] = label
    try:
        return _partition(n, r, d, assignments.items())
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

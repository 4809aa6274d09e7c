"""The signed insertion equations and their square system matrix.

For every (r-1)-subset ``base`` of the ground set there is one vector
equation: inserting each remaining index s into ``base`` contributes the
column of the enlarged r-subset with coefficient sign(s, base) times the
vector attached to that subset.  Dropping the equations whose base contains
the top vertex rd leaves a square matrix of size d * C(rd-1, r-1), whose
determinant is the subset determinant of the assignment.

Rows are ordered by dictionary order on the equation bases, coordinates
1..d within each block; columns by dictionary order on r-subsets.  The
ordering is fixed once and for all: changing it would only flip the global
sign of the determinant.

One walk, ``_insertion_arrays``, gives the +-1 pattern of every insertion
system, the system with d = 1: inserting s into a base at 0-based position
pos puts (-1)**(s + pos + 1) in the column of the enlarged subset.  It
walks the bases in fixed chunks into an int32 column and an int8 sign per
insertion, 5 bytes, so no temporary outgrows a chunk; a system whose
C(n, r) columns int32 cannot index is refused first.  The pattern
depends only on r, n and the top base vertex, so ``_pattern`` caches it
for the fills of ``tensor_det``, ``basis_det`` and the ranks, which
repeat a shape; ``witness_det`` fills a fresh walk, since each cell is
built once.

Every system is filled from a walk in one form, the coordinate arrays
``(rows, cols, vals)`` of its nonzeros and a row count: insertion k of
base b puts its sign times coordinate c (from 0) of its column's vector in
row b*d + c.  :func:`_label_arrays` fills a labelling, whose vectors are unit
vectors, so each insertion is one nonzero in row b*d + label - 1; it keeps
the walk's int32 columns and int8 signs and builds the int32 rows in
place.  :func:`_vector_arrays` fills a tensor's vectors, held as one
C(rd, r) x d array that :func:`_tensor_values` builds and the fill does
not inspect.  Its values come from ``exactla._exact_values``, the one
rule for tensors and matrices alike: denominators cleared by vector only
when a Fraction is present, int64 when every cleared value lies in
(-2**63, 2**63), bools and numpy integers too, Python ints otherwise, and
TypeError for a float or any other type that is not an integer.
:func:`_label_rows` gives a labelling's arrays as integer rows, for the
rank check of classification, and
:func:`system_matrix` gives a tensor's as an ExactMatrix, for the
``hgdet matrix`` dump and the tests; :func:`equation_block` builds one
equation from the tensor, for :func:`relation_holds` and as the tests'
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import IO, Sequence

import numpy as np

from .combi import check_subset, insertion_sign
from .exactla import ExactMatrix, IntRows, _exact_values, _gather, _int_rows
from .tensors import (Rational, TensorAssignment, _subset_ids, format_rational,
                      subset_array)


def equation_block(tensor: TensorAssignment,
                   base: Sequence[int]) -> dict[tuple[int, tuple[int, ...]], Rational]:
    """Sparse coefficients of one vector equation.

    Keys are (coordinate in 1..d, r-subset); the subset identifies the
    column.  Exactly rd - (r-1) columns are touched.
    """
    n = tensor.n
    base = check_subset(base, n)
    if len(base) != tensor.r - 1:
        raise ValueError(f"equation base must have size {tensor.r - 1}, got {base}")
    block: dict[tuple[int, tuple[int, ...]], Rational] = {}
    base_set = set(base)
    for s in range(1, n + 1):
        if s in base_set:
            continue
        pos, sign = insertion_sign(s, base)
        subset = base[:pos - 1] + (s,) + base[pos - 1:]
        vec = tensor.entries[subset]
        for c, coord in enumerate(vec, start=1):
            if coord:
                block[(c, subset)] = sign * coord
    return block


@dataclass(frozen=True)
class SystemMatrix:
    """The square matrix of the truncated insertion system."""

    r: int
    d: int
    matrix: ExactMatrix

    @property
    def size(self) -> int:
        return self.matrix.rows


# Patterns that _pattern keeps.  A run repeats few shapes: classification
# one, a tensor batch one per (r, d).  A pattern takes 5 bytes per
# insertion, so a sweep over many shapes keeps only the last few.
_PATTERN_CACHE_SIZE = 8

# Bases per step of the walk.  Its int64 temporaries then span one chunk,
# not the system: 0.6 MB on (5, 6), 26 insertions per base, beside 3.1 MB
# of output.  A chunk is about 1 ms of numpy work, so the loop costs little.
_WALK_CHUNK = 1024


def _check_index_width(r: int, n: int) -> None:
    """Refuse, before any allocation, a system over the r-subsets of 1..n
    whose rows and columns (C(n, r) of each in a square system) int32
    indices do not reach."""
    if comb(n, r) > 2**31 - 1:
        raise MemoryError(f"the insertion system of the {r}-subsets of 1..{n} has "
                          f"{comb(n, r)} columns, beyond 32-bit indices")


def _insertion_arrays(r: int, n: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The walk over the (r-1)-subsets of 1..top, for the r-subsets of
    1..n, as arrays ``(col, sign)`` (int32 and int8) with one entry per
    insertion: bases in dictionary order, each with its n - r + 1 inserted
    elements increasing, so base b owns entries b*(n - r + 1) onwards.  The
    j-th element s outside a base (from j = 0) has j elements below it
    outside the base, so it lands at 0-based position pos = s - 1 - j, with
    sign (-1)**(s + pos + 1) = (-1)**j; ``col`` is the dictionary rank of
    the enlarged subset, C(n, r) - 1 - sum_k C(n - c_k, r + 1 - k) for
    c_1 < ... < c_r, for a chunk of bases at once with no subset built."""
    _check_index_width(r, n)
    # term[k, c]: the rank term of element c at 1-based position k, read
    # flat at k*(n + 1) + c.
    term = np.array([[comb(n - c, r + 1 - k) for c in range(n + 1)]
                     for k in range(r + 2)], dtype=np.int64).ravel()
    bases = subset_array(r - 1, top)
    nbases, per = len(bases), n - r + 1
    at_k = np.arange(1, r) * (n + 1)
    elements = np.tile(np.arange(1, n + 1), min(nbases, _WALK_CHUNK))
    skipped = np.arange(per)
    col = np.empty((nbases, per), dtype=np.int32)
    for lo in range(0, nbases, _WALK_CHUNK):
        chunk = bases[lo:lo + _WALK_CHUNK]
        m = len(chunk)
        outside = np.ones((m, n + 1), dtype=bool)
        outside[np.arange(m)[:, None], chunk] = False
        s = np.compress(outside[:, 1:].ravel(), elements[:m * n]).reshape(m, per)
        pos = s - 1 - skipped
        # split[b, p]: the rank terms of base b when p of its elements
        # precede the inserted one, those keeping position k + 1 and the
        # rest k + 2.
        at = chunk + at_k
        split = np.zeros((m, r), dtype=np.int64)
        np.cumsum(np.take(term, at), axis=1, out=split[:, 1:])
        at += n + 1
        split[:, :-1] += np.cumsum(np.take(term, at)[:, ::-1], axis=1)[:, ::-1]
        rank = np.take(split, pos + np.arange(0, m * r, r)[:, None])
        rank += np.take(term, (pos + 1) * (n + 1) + s)
        col[lo:lo + m] = np.subtract(comb(n, r) - 1, rank, out=rank)
    sign = np.tile(np.where(skipped % 2, -1, 1).astype(np.int8), nbases)
    return col.ravel(), sign


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern(r: int, n: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_insertion_arrays`, cached and read-only, so that every call,
    from any thread, shares it; each base's entries are consecutive, so the
    fill needs no block array."""
    col, sign = _insertion_arrays(r, n, top)
    col.flags.writeable = sign.flags.writeable = False
    return col, sign


def _label_arrays(r: int, d: int, label: Sequence[int] | np.ndarray,
                  walk: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The insertion system of the labelling ``label`` (one label in 1..d
    per r-subset of 1..rd, in dictionary order) over the bases of ``walk``,
    a ``(col, sign)`` of :func:`_insertion_arrays` or :func:`_pattern`, as
    ``(rows, cols, vals, nrows)``: insertion k of base b puts its sign in
    row b*d + label - 1 of its column.  ``cols`` and ``vals`` are the walk's
    own arrays; ``rows`` is int32, built in place."""
    col, sign = walk
    per = r * d - r + 1
    nrows = d * (len(col) // per)
    rows = np.repeat(np.arange(-1, nrows - 1, d, dtype=np.int32), per)
    rows += _gather(np.asarray(label), col)
    return rows, col, sign, nrows


def _tensor_values(tensor: TensorAssignment) -> tuple[np.ndarray, list[int] | None]:
    """The vectors of ``tensor``, one per r-subset in dictionary order, as
    one C(rd, r) x d array of exact integers, and the lcm of each vector's
    denominators, or None when no coordinate is a Fraction: the vectors
    are the groups of ``exactla._exact_values``, which clears
    denominators column by column and picks int64 or Python ints."""
    vectors = list(map(tensor.entries.__getitem__, _subset_ids(tensor.r, tensor.n)))
    shape = (len(vectors), tensor.d)
    values, scales = _exact_values(vectors, shape[0] * shape[1])
    return values.reshape(shape), scales


def _vector_arrays(r: int, d: int, values: np.ndarray,
                   top: int) -> tuple[np.ndarray, ...]:
    """The insertion system over the (r-1)-subsets of 1..top of the
    vectors ``values``, a C(rd, r) x d array with one row per r-subset in
    dictionary order, as ``(rows, cols, vals, nrows)``: insertion k of base
    b puts sign * v in row b*d + c of its column for each nonzero
    coordinate v at c in 0..d-1.  ``vals`` has the dtype of ``values``."""
    col, sign = _pattern(r, r * d, top)
    values = np.take(values, col, axis=0)
    values *= sign[:, None]
    at = np.flatnonzero(values)
    insertion, c = np.divmod(at, d)
    rows = insertion // (r * d - r + 1) * d + c
    return rows, np.take(col, insertion), np.take(values, at), d * comb(top, r - 1)


def _label_rows(r: int, d: int, label: Sequence[int],
                top: int) -> tuple[IntRows, int, int]:
    """The insertion system of the labelling ``label``, one label in 1..d
    per r-subset of 1..rd in dictionary order, over the (r-1)-subsets of
    1..top (rd - 1 for the square system, rd for the full one) in the
    integer row form, with its row and column counts."""
    rows, cols, vals, nrows = _label_arrays(r, d, label, _pattern(r, r * d, top))
    return _int_rows(rows, cols, vals), nrows, comb(r * d, r)


def _matrix(tensor: TensorAssignment, top: int) -> ExactMatrix:
    """The system of ``tensor`` over the (r-1)-subsets of 1..top, each
    column divided back by the scale that cleared its vector."""
    values, scales = _tensor_values(tensor)
    rows, cols, vals, nrows = _vector_arrays(tensor.r, tensor.d, values, top)
    cols, vals = cols.tolist(), vals.tolist()
    if scales is not None:
        vals = list(map(Fraction, vals, map(scales.__getitem__, cols)))
    return ExactMatrix(nrows, comb(tensor.n, tensor.r),
                       dict(zip(zip(rows.tolist(), cols), vals)))


def system_matrix(tensor: TensorAssignment) -> SystemMatrix:
    """Assemble the truncated system: equation bases with max element < rd."""
    return SystemMatrix(tensor.r, tensor.d, _matrix(tensor, tensor.n - 1))


def relation_sign(s: int, base: Sequence[int]) -> int:
    """Coefficient of the equation obtained by inserting s into an
    (r-2)-subset, in the linear relation indexed by that subset."""
    pos, _ = insertion_sign(s, tuple(base))
    return 1 if (s + pos - 1) % 2 == 0 else -1


def relation_holds(tensor: TensorAssignment, base: Sequence[int]) -> bool:
    """Check that the signed sum of equation blocks over all insertions into
    an (r-2)-subset cancels to the exact zero block."""
    n = tensor.n
    base = check_subset(base, n)
    if len(base) != tensor.r - 2:
        raise ValueError(f"relation base must have size {tensor.r - 2}, got {base}")
    total: dict[tuple[int, tuple[int, ...]], Rational] = {}
    base_set = set(base)
    for s in range(1, n + 1):
        if s in base_set:
            continue
        pos, _ = insertion_sign(s, base)
        eq_base = base[:pos - 1] + (s,) + base[pos - 1:]
        sign = relation_sign(s, base)
        for key, value in equation_block(tensor, eq_base).items():
            acc = total.get(key, 0) + sign * value
            if acc:
                total[key] = acc
            else:
                total.pop(key, None)
    return not total


def write_matrix(matrix: ExactMatrix, fh: IO[str]) -> None:
    """Coordinate text dump: ``rows cols nnz`` then 1-based ``row col value``."""
    fh.write(f"{matrix.rows} {matrix.cols} {len(matrix.entries)}\n")
    for (i, j), v in sorted(matrix.entries.items()):
        fh.write(f"{i + 1} {j + 1} {format_rational(v)}\n")

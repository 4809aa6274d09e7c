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

One walk, ``_insertion_rows``, writes every insertion system: inserting s
into a base at 0-based position pos puts one entry (-1)**(s + pos + 1) at
row block*d + label - 1, in the column of the enlarged subset.  The labels
of a :class:`BasisAssignment` stand for unit vectors, so its walk is the
integer row form of ``exactla`` as it is (:func:`basis_rows`).
``_insertion_arrays`` is the same walk on numpy arrays, for large
labellings: it gives the entries as coordinate arrays, in the same order,
for the wave peel of ``exactla._peel_det``.  A rational tensor runs the
walk with d = 1 and every label 1 and multiplies each +-1 pattern row by
its coordinates (:func:`tensor_rows` and, from any list of vectors,
:func:`_vector_rows`).  The ExactMatrix wrappers serve the
``hgdet matrix`` dump and the tests; :func:`equation_block` builds one
equation from the tensor, for :func:`relation_holds` and as the tests'
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import IO, Iterable, Sequence

import numpy as np

from .combi import check_subset, insertion_sign
from .exactla import ExactMatrix, IntRows, RationalRows
from .tensors import (BasisAssignment, Rational, TensorAssignment,
                      format_rational, subset_array, subsets)


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


def _rank_terms(r: int, n: int) -> list[list[int]]:
    """term[k][c]: the rank term of element c at 1-based position k of an
    r-subset of 1..n, C(n - c, r + 1 - k)."""
    return [[comb(n - c, r + 1 - k) for c in range(n + 1)] for k in range(r + 2)]


def _insertion_rows(r: int, n: int, d: int, label: Sequence[int],
                    top: int) -> tuple[IntRows, int, int]:
    """The insertion walk over the (r-1)-subsets of 1..top, with its row and
    column counts.  ``label`` holds a label in 1..d per r-subset of 1..n in
    dictionary order, and each insertion writes one +-1 at row
    block*d + label - 1.  A column is located by its dictionary rank,
    C(n, r) - 1 - sum_k C(n - c_k, r + 1 - k) for c_1 < ... < c_r: the base
    contributes a prefix and a suffix of that sum around the inserted
    element, so no subset tuple is built.
    """
    term = _rank_terms(r, n)
    last = comb(n, r) - 1
    rows: IntRows = {}
    for block, base in enumerate(subsets(r - 1, top)):
        offset = block * d - 1
        # Terms of the base elements before and after the insertion point.
        before = 0
        after = sum(term[k + 2][c] for k, c in enumerate(base))
        pos = 0
        for s in range(1, n + 1):
            if pos < r - 1 and base[pos] == s:
                before += term[pos + 1][s]
                after -= term[pos + 2][s]
                pos += 1
                continue
            col = last - before - after - term[pos + 1][s]
            i = offset + label[col]
            row = rows.get(i)
            if row is None:
                rows[i] = row = {}
            row[col] = 1 if (s + pos) & 1 else -1
    return rows, d * comb(top, r - 1), last + 1


def _insertion_arrays(r: int, n: int, d: int, label: np.ndarray,
                      top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The walk of :func:`_insertion_rows` as coordinate arrays
    ``(rows, cols, signs)``, one entry per insertion in the same order:
    bases in dictionary order, inserted elements increasing.  ``label`` is
    an array of the labels in dictionary order of the r-subsets.  The
    column is the same dictionary-rank formula from the same term table,
    evaluated for all insertions at once.
    """
    term = np.array(_rank_terms(r, n), dtype=np.int64)
    bases = subset_array(r - 1, top)
    nbases = len(bases)
    # member[b, s]: s lies in base b.  Its running count at an s outside
    # the base is the insertion position.
    member = np.zeros((nbases, n + 1), dtype=bool)
    member[np.arange(nbases)[:, None], bases] = True
    below = np.cumsum(member, axis=1, dtype=np.int16)
    # split[b, p]: the rank terms of base b when p of its elements precede
    # the inserted one, those keeping position k + 1 and the rest k + 2.
    k = np.arange(1, r)
    kept = term[k, bases]
    moved = term[k + 1, bases]
    split = np.zeros((nbases, r), dtype=np.int64)
    np.cumsum(kept, axis=1, out=split[:, 1:])
    split[:, :-1] += np.cumsum(moved[:, ::-1], axis=1)[:, ::-1]
    block, s = np.nonzero(~member[:, 1:])
    del member, kept, moved
    s += 1
    pos = below[block, s]
    del below
    col = split[block, pos]
    col += term[pos + 1, s]
    np.subtract(comb(n, r) - 1, col, out=col)
    signs = ((s + pos) & 1).astype(np.int8) * 2 - 1
    del s, pos
    block *= d
    block += label[col]
    block -= 1
    return block, col, signs


def basis_rows(basis: BasisAssignment, top: int) -> tuple[IntRows, int, int]:
    """The insertion system of ``basis`` over the (r-1)-subsets of 1..top
    (rd - 1 for the square system, rd for the full one) in the integer row
    form, with its row and column counts: the walk on its labels."""
    label = [basis.labels[subset] for subset in subsets(basis.r, basis.n)]
    return _insertion_rows(basis.r, basis.n, basis.d, label, top)


def tensor_rows(tensor: TensorAssignment, top: int) -> tuple[RationalRows, int, int]:
    """The insertion system of ``tensor`` over the (r-1)-subsets of 1..top
    as rational rows, with its row and column counts."""
    vectors = [tensor.entries[subset] for subset in subsets(tensor.r, tensor.n)]
    return _vector_rows(tensor.r, tensor.d, vectors, top)


def _vector_rows(r: int, d: int, vectors: Sequence[Sequence[Rational]],
                 top: int) -> tuple[RationalRows, int, int]:
    """:func:`tensor_rows` of the tensor whose vectors are ``vectors``, in
    dictionary order of the r-subsets.  The walk with d = 1 and every label
    1 gives each base's +-1 pattern row; times coordinate c of each
    column's vector, it is row block*d + c, left out when empty.  Column j
    holds only the coordinates of vector j."""
    pattern, nblocks, ncols = _insertion_rows(r, r * d, 1, [1] * len(vectors), top)
    coords = [[vec[c] for vec in vectors] for c in range(d)]
    rows: RationalRows = {}
    for block, signs in pattern.items():
        for c, coord in enumerate(coords):
            row = {col: sign * v for col, sign in signs.items() if (v := coord[col])}
            if row:
                rows[block * d + c] = row
    return rows, d * nblocks, ncols


def _matrix(tensor: TensorAssignment, top: int) -> ExactMatrix:
    rows, nrows, ncols = tensor_rows(tensor, top)
    return ExactMatrix(nrows, ncols, {(i, j): v for i, row in rows.items()
                                      for j, v in row.items()})


def system_matrix(tensor: TensorAssignment) -> SystemMatrix:
    """Assemble the truncated system: equation bases with max element < rd."""
    return SystemMatrix(tensor.r, tensor.d, _matrix(tensor, tensor.n - 1))


def full_system_matrix(tensor: TensorAssignment) -> ExactMatrix:
    """The untruncated system: one equation block per (r-1)-subset of 1..rd.

    Shape d * C(rd, r-1) by C(rd, r); used for the rank comparison with the
    top boundary map and for relation checking.
    """
    return _matrix(tensor, tensor.n)


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


def facet_column_relation(simplex: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """The signed combination of the r+1 facet columns of an (r+1)-subset.

    Deleting the q-th smallest element x_q carries coefficient
    (-1)**((r+1-q) + x_q).  Applied to the system matrix of any assignment
    whose facets at this simplex carry equal vectors, the combination is the
    zero column.
    """
    simplex = tuple(simplex)
    r = len(simplex) - 1
    out = []
    for q, x in enumerate(simplex, start=1):
        facet = simplex[:q - 1] + simplex[q:]
        coeff = 1 if ((r + 1 - q) + x) % 2 == 0 else -1
        out.append((facet, coeff))
    return out


def combine_columns(matrix: ExactMatrix, col_index: dict[tuple[int, ...], int],
                    combo: Iterable[tuple[tuple[int, ...], int]]) -> list[Rational]:
    """Evaluate a signed combination of columns as a dense vector."""
    out: list[Rational] = [0] * matrix.rows
    by_col: dict[int, list[tuple[int, Rational]]] = {}
    for (i, j), v in matrix.entries.items():
        by_col.setdefault(j, []).append((i, v))
    for subset, coeff in combo:
        for i, v in by_col.get(col_index[subset], ()):
            out[i] += coeff * v
    return out


def write_matrix(matrix: ExactMatrix, fh: IO[str]) -> None:
    """Coordinate text dump: ``rows cols nnz`` then 1-based ``row col value``."""
    fh.write(f"{matrix.rows} {matrix.cols} {len(matrix.entries)}\n")
    for (i, j), v in sorted(matrix.entries.items()):
        fh.write(f"{i + 1} {j + 1} {format_rational(v)}\n")

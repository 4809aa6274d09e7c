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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import IO, Iterable, Sequence

from .combi import check_subset, insertion_sign
from .exactla import ExactMatrix
from .tensors import Rational, TensorAssignment, format_rational, subsets


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


def _assemble(tensor: TensorAssignment, top: int) -> ExactMatrix:
    """One equation block per (r-1)-subset of 1..top, in dictionary order.

    Block ``b`` fills rows b*d .. b*d + d - 1; the columns are all r-subsets
    of 1..rd in dictionary order.
    """
    r, d, n = tensor.r, tensor.d, tensor.n
    column = {subset: j for j, subset in enumerate(subsets(r, n))}
    entries: dict[tuple[int, int], Rational] = {}
    for block_no, base in enumerate(subsets(r - 1, top)):
        for (c, subset), value in equation_block(tensor, base).items():
            entries[(block_no * d + (c - 1), column[subset])] = value
    return ExactMatrix(d * comb(top, r - 1), len(column), entries)


def system_matrix(tensor: TensorAssignment) -> SystemMatrix:
    """Assemble the truncated system: equation bases with max element < rd."""
    return SystemMatrix(tensor.r, tensor.d, _assemble(tensor, tensor.n - 1))


def full_system_matrix(tensor: TensorAssignment) -> ExactMatrix:
    """The untruncated system: one equation block per (r-1)-subset of 1..rd.

    Shape d * C(rd, r-1) by C(rd, r); used for the rank comparison with the
    top boundary map and for relation checking.
    """
    return _assemble(tensor, tensor.n)


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

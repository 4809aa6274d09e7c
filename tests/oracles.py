"""Reference constructions that only the tests use: the untruncated system,
a basis assignment's integer rows, and the facet-column relation of a
degenerate simplex with the column combination that checks it."""

from __future__ import annotations

from typing import Iterable, Sequence

from hgdet.exactla import ExactMatrix, IntRows
from hgdet.system import _label_rows, _matrix
from hgdet.tensors import BasisAssignment, Rational, TensorAssignment, subsets


def basis_rows(basis: BasisAssignment, top: int) -> tuple[IntRows, int, int]:
    """The insertion system of ``basis`` over the (r-1)-subsets of 1..top
    (rd - 1 for the square system, rd for the full one) in the integer row
    form, with its row and column counts."""
    label = [basis.labels[subset] for subset in subsets(basis.r, basis.n)]
    return _label_rows(basis.r, basis.d, label, top)


def full_system_matrix(tensor: TensorAssignment) -> ExactMatrix:
    """The untruncated system: one equation block per (r-1)-subset of 1..rd.

    Shape d * C(rd, r-1) by C(rd, r); used for the rank comparison with the
    top boundary map and for relation checking.
    """
    return _matrix(tensor, tensor.n)


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

"""Reference constructions that only the tests use: the untruncated system,
a basis assignment's integer rows, the facet-column relation of a
degenerate simplex with the column combination that checks it, subset
ranks in dictionary order, and the dense form, transpose and product of
an ExactMatrix."""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from hgdet.combi import check_subset
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


def rank_combination(subset: Sequence[int], n: int) -> int:
    """0-based position of a k-subset of 1..n in dictionary order:
    C(n, k) - 1 - sum_i C(n - c_i, k + 1 - i) for c_1 < ... < c_k."""
    t = check_subset(subset, n)
    k = len(t)
    return comb(n, k) - 1 - sum(comb(n - c, k - i) for i, c in enumerate(t))


def unrank_combination(idx: int, k: int, n: int) -> tuple[int, ...]:
    """Inverse of rank_combination: the idx-th k-subset of 1..n."""
    if k < 0 or n < 0 or not 0 <= idx < comb(n, k):
        raise ValueError(f"rank {idx} out of range for C({n},{k}) subsets")
    out = []
    c = 1
    remaining = idx
    for i in range(k):
        while True:
            skipped = comb(n - c, k - i - 1)
            if remaining < skipped:
                out.append(c)
                c += 1
                break
            remaining -= skipped
            c += 1
    return tuple(out)


def to_dense(matrix: ExactMatrix) -> list[list[Rational]]:
    """The entries of ``matrix`` as a list of rows, zeros included."""
    out = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (i, j), v in matrix.entries.items():
        out[i][j] = v
    return out


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    """The transpose of ``matrix``."""
    return ExactMatrix(matrix.cols, matrix.rows,
                       {(j, i): v for (i, j), v in matrix.entries.items()})


def matmul(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """The exact product ``left @ right``."""
    if left.cols != right.rows:
        raise ValueError("dimension mismatch in matmul")
    by_row: dict[int, list[tuple[int, Rational]]] = {}
    for (i, j), v in right.entries.items():
        by_row.setdefault(i, []).append((j, v))
    acc: dict[tuple[int, int], Rational] = {}
    for (i, k), v in left.entries.items():
        for j, w in by_row.get(k, ()):
            key = (i, j)
            acc[key] = acc.get(key, 0) + v * w
    return ExactMatrix(left.rows, right.cols, acc)


def is_zero(matrix: ExactMatrix) -> bool:
    """Whether ``matrix`` has no nonzero entry."""
    return not matrix.entries

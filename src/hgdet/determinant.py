"""The subset determinant: determinant of the truncated insertion system.

A rational tensor and a basis assignment (a labelling, such as the
canonical witness or a d-partition) both reach elimination from the one
insertion walk of ``system``, never as a matrix.  A tensor has its
denominators cleared column by column before the fill: each vector is
scaled by the lcm of its coordinates' denominators
(:func:`_integer_vectors`).  A column holds the d coordinates of one vector
while a row mixes rd - r + 1 vectors, so this divisor, and the Hadamard
bound of the integer system, are smaller than row clearing gives.

A labelling takes one of two routes, picked by its number of insertions,
which is its number of nonzeros:

* small systems, and every ``multimodular`` one: ``system._vector_rows``
  fills the cached pattern with the labels' unit vectors, giving integer
  rows for ``exactla._det_rows``;
* large systems whose backend resolves to ``bareiss``: beside the int32
  columns and int8 signs of the uncached walk
  (``system._insertion_arrays``), the int32 row block*d + label - 1 of
  each insertion is built in place, for the wave peel of
  ``exactla._peel_det``: 9 bytes per nonzero, and about 21 at the route's
  peak.  ``hgdet table`` builds each such system once, so a cache
  would only keep it alive.  A cell whose C(rd, r) rows exceed int32
  indices is refused with MemoryError before anything is allocated.

Both routes give every labelling the value of its expanded tensor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Sequence

import numpy as np

from . import system
from .exactla import _det_rows, _peel_det, _pick_backend
from .tensors import BasisAssignment, TensorAssignment, subsets, witness_labels

# Insertions above which a labelling takes the array route.  Per call, on
# one core: 40 insertions (a 2-partition of K^3_6) take 0.03 ms as rows
# and 0.08 ms as arrays on random labellings; the routes tie at about 210
# insertions both on random labellings, which mostly exit early as
# singular, and on witness cells, which peel completely; at 550 ((3, 4))
# arrays take 0.10 ms against 0.17 ms for rows on random labellings, and
# 0.21 against 0.35 ms on the witness.  Up to 250 the routes differ by at
# most 10%.
_ARRAY_ROUTE_INSERTIONS = 250


def tensor_det(tensor: TensorAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of the truncated system matrix of ``tensor``.

    Multilinear in the slots; zero whenever some (r+1)-subset has all its
    facets assigned the same vector; under a slotwise linear map M it scales
    by det(M) ** C(rd-1, r-1).
    """
    vectors, divisor = _integer_vectors(tensor)
    rows, n, _ = system._vector_rows(tensor.r, tensor.d, system._nonzeros(vectors),
                                     tensor.n - 1)
    return _det_rows(rows, n, divisor, backend, threads)


def _integer_vectors(tensor: TensorAssignment) -> tuple[list[tuple[int, ...]], int]:
    """Each vector of ``tensor``, in dictionary order of the r-subsets,
    times the lcm of its coordinates' denominators, and the product of
    those lcms.  Column j of the system holds only coordinates of vector j,
    so this clears its denominators column by column: det(system) is
    det(integer system) / product."""
    vectors = []
    divisor = 1
    for subset in subsets(tensor.r, tensor.n):
        vec = tensor.entries[subset]
        if Fraction in map(type, vec):
            scale = lcm(*(v.denominator for v in vec))
            vec = tuple(v.numerator * (scale // v.denominator) for v in vec)
            divisor *= scale
        vectors.append(vec)
    return vectors, divisor


def _labelled_det(r: int, d: int, label: Sequence[int] | np.ndarray,
                  backend: str, threads: int) -> Fraction:
    """The determinant of the labelling ``label`` (one label in 1..d per
    r-subset of 1..rd, in dictionary order) by the route its size picks."""
    n = r * d
    bases = comb(n - 1, r - 1)
    per = n - r + 1
    insertions = bases * per
    if (insertions > _ARRAY_ROUTE_INSERTIONS
            and _pick_backend(backend, insertions, d * bases) == "bareiss"):
        col, sign = system._insertion_arrays(r, n, n - 1)
        # Row block*d + label - 1 of each insertion, built in place.
        rows = np.repeat(np.arange(-1, d * bases - 1, d, dtype=np.int32), per)
        rows += np.asarray(label)[col]
        return Fraction(_peel_det(rows, col, sign, d * bases))
    rows, size, _ = system._vector_rows(r, d, system._unit_vectors(d, label), n - 1)
    return _det_rows(rows, size, backend=backend, threads=threads)


def basis_det(basis: BasisAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """``tensor_det(tensor_from_basis(basis))``, by the label-aware route."""
    label = [basis.labels[subset] for subset in subsets(basis.r, basis.n)]
    return _labelled_det(basis.r, basis.d, label, backend, threads)


def witness_det(r: int, d: int, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant on the canonical witness assignment; expected to be +-1.
    Its labels come straight from the witness rule, with no assignment."""
    system._check_index_width(r, r * d)
    return _labelled_det(r, d, witness_labels(r, d), backend, threads)

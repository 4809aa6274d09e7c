"""The subset determinant: determinant of the truncated insertion system.

A rational tensor and a basis assignment (a labelling, such as the
canonical witness or a d-partition) both reach elimination from the one
insertion walk of ``system``, never as a matrix.  A tensor has its
denominators cleared column by column before the fill: each vector is
scaled by the lcm of its coordinates' denominators
(:func:`_integer_vectors`).  A column holds the d coordinates of one vector
while a row mixes rd - r + 1 vectors, so this divisor, and the Hadamard
bound of the integer system, are smaller than row clearing gives.

Every system is filled in one form, the coordinate arrays (rows, cols,
vals) of its nonzeros and a row count, and there are two routes, which
differ only in the eliminator and in whether the walk is cached:

* a tensor, a labelling of at most ``_ARRAY_ROUTE_INSERTIONS``
  insertions, and every labelling whose backend resolves to
  ``multimodular``: the cached pattern (``system._pattern``) filled with
  the vectors (``system._vector_arrays``) or the labels
  (``system._label_arrays``), for ``exactla._det_coords``;
* a larger labelling whose backend resolves to ``bareiss``: the uncached
  walk (``system._insertion_arrays``) filled with the labels, for the wave
  peel of ``exactla._peel_det``: int32 rows and columns and int8 values,
  9 bytes per nonzero, and about 21 at the route's peak.  ``hgdet table``
  builds each such system once, so a cache would only keep it alive.  A
  cell whose C(rd, r) rows exceed int32 indices is refused with
  MemoryError before anything is allocated.

Both routes give every labelling the value of its expanded tensor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Sequence

import numpy as np

from . import system
from .exactla import _det_coords, _peel_det, _pick_backend
from .tensors import BasisAssignment, TensorAssignment, subsets, witness_labels

# Insertions above which a labelling takes the uncached walk and the wave
# peel instead of the cached pattern and ``_det_coords``.  Per call on one
# core, best of 5 passes: the 2000 K^3_6 labellings of classify-r3d2 (40
# insertions) take 32 us by ``_det_coords`` and 128 us by the peel, most
# of it the uncached walk; at 175-225 insertions ((4, 2), (3, 3), (2, 8))
# 54-74 us against 107-128 us on random labellings and 109-170 us against
# 237-271 us on the witness; at 550 ((3, 4)) the peel leads, 130 against
# 145 us on random labellings and 313 against 332 us on the witness.
_ARRAY_ROUTE_INSERTIONS = 250


def tensor_det(tensor: TensorAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of the truncated system matrix of ``tensor``.

    Multilinear in the slots; zero whenever some (r+1)-subset has all its
    facets assigned the same vector; under a slotwise linear map M it scales
    by det(M) ** C(rd-1, r-1).
    """
    vectors, divisor = _integer_vectors(tensor)
    rows, cols, vals, n = system._vector_arrays(tensor.r, tensor.d, vectors, tensor.n - 1)
    return _det_coords(rows, cols, vals, n, divisor, backend, threads)


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
    insertions = bases * (n - r + 1)
    if (insertions > _ARRAY_ROUTE_INSERTIONS
            and _pick_backend(backend, insertions, d * bases) == "bareiss"):
        arrays = system._label_arrays(r, d, label, system._insertion_arrays(r, n, n - 1))
        return Fraction(_peel_det(*arrays))
    arrays = system._label_arrays(r, d, label, system._pattern(r, n, n - 1))
    return _det_coords(*arrays, 1, backend, threads)


def basis_det(basis: BasisAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """``tensor_det(tensor_from_basis(basis))``, by the label-aware route."""
    label = [basis.labels[subset] for subset in subsets(basis.r, basis.n)]
    return _labelled_det(basis.r, basis.d, label, backend, threads)


def witness_det(r: int, d: int, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant on the canonical witness assignment; expected to be +-1.
    Its labels come straight from the witness rule, with no assignment."""
    system._check_index_width(r, r * d)
    return _labelled_det(r, d, witness_labels(r, d), backend, threads)

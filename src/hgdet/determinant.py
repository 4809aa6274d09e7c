"""The subset determinant: determinant of the truncated insertion system.

A rational tensor and a basis assignment (a labelling, such as the
canonical witness or a d-partition) both reach elimination from the one
insertion walk of ``system``, never as a matrix.  A tensor becomes its
value array in ``system._tensor_values``, which ``hgdet matrix`` shares,
by the value rule of ``exactla._exact_values`` that every ExactMatrix
determinant and rank follows too: one scan of the coordinate types
decides whether denominators need clearing, bools and numpy integers
count as the Python ints they equal, so they are int64 when they fit as
any int is, and a float raises TypeError.  When a Fraction is present,
each vector is scaled by the lcm of its coordinates' denominators, which
clears them column by column, and the product of those lcms divides the
integer determinant.  A column holds the d coordinates of one vector
while a row mixes rd - r + 1 vectors, so this divisor, and the Hadamard
bound of the integer system, are smaller than row clearing gives.

Every system is filled in one form, the coordinate arrays (rows, cols,
vals) of its nonzeros and a row count, and each determinant then hands
the three arrays in one list to ``exactla._det_coords``, once, which
alone picks the eliminator.  The callers keep no other reference, and the
wave peel empties the list, so it frees each array as it compacts it.
The callers differ only in the walk they fill:

* ``tensor_det`` and ``basis_det`` fill the cached pattern
  (``system._pattern``) with the vectors (``system._vector_arrays``) or
  the labels (``system._label_arrays``): classification and tensor batches
  repeat one shape.  ``basis_det`` reads its labels off the assignment
  and hands them to ``_label_det``, which ``classify_partition`` calls
  with the partition's labels.  ``_label_det`` counts the labels first,
  by ``_balanced``, which ``hypergraphs`` asks for homogeneity too.
  Row b*d + c - 1 of a labelling's system meets only the columns labelled
  c, so those columns live in the C(rd - 1, r - 1) rows of colour c, one
  per base, and a colour that labels more columns than that has dependent
  columns.  The d colours label d * C(rd - 1, r - 1) columns in all, so
  unless each labels exactly C(rd - 1, r - 1), one labels more, and the
  determinant is 0 with no fill.  ``tensor_det`` has no such rule, so on
  a labelling's expanded tensor it stays an independent check.
* ``witness_det`` fills the uncached walk (``system._insertion_arrays``)
  with labels that come straight from the witness rule: int32 rows and
  columns and int8 values, 9 bytes per nonzero, all freed in the first
  wave.  At the peak of a wave peel (tracemalloc) that is 13.2-13.7 bytes
  per nonzero from (5, 6) up, 14.8-15.3 on (9, 2) and (5, 5), and
  19.4-20.9 on (8, 2) and (6, 3), whose counts and gathers span one or a
  few chunks and so copy more of their indices to intp at once.  Its
  labels are new on every call and ``hgdet table`` builds each cell once,
  so a cache would only keep the arrays alive.  A cell whose C(rd, r)
  rows exceed int32 indices is refused with MemoryError before anything
  is allocated.

Every labelling gets the value of its expanded tensor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from typing import Sequence

from . import exactla, system
from .tensors import BasisAssignment, TensorAssignment, subsets, witness_labels


def tensor_det(tensor: TensorAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of the truncated system matrix of ``tensor``.

    Multilinear in the slots; zero whenever some (r+1)-subset has all its
    facets assigned the same vector; under a slotwise linear map M it scales
    by det(M) ** C(rd-1, r-1).
    """
    exactla._check_threads(threads)
    values, scales = system._tensor_values(tensor)
    *arrays, n = system._vector_arrays(tensor.r, tensor.d, values, tensor.n - 1)
    return exactla._det_coords(arrays, n, prod(scales or ()), backend)


def basis_det(basis: BasisAssignment, backend: str = "auto") -> Fraction:
    """``tensor_det(tensor_from_basis(basis))``, by the label-aware route."""
    label = [basis.labels[subset] for subset in subsets(basis.r, basis.n)]
    return _label_det(basis.r, basis.d, label, backend)


def _label_det(r: int, d: int, label: Sequence[int], backend: str = "auto") -> Fraction:
    """:func:`basis_det` of the labelling ``label``, one label in 1..d per
    r-subset of 1..rd in dictionary order, filled into the cached pattern,
    or 0 with no fill when some colour does not label C(rd - 1, r - 1)
    subsets (see the module docstring).  An unknown backend is refused
    first."""
    exactla._pick_backend(backend, 0, 0)
    if not _balanced(r, d, label):
        return Fraction(0)
    n = r * d
    *arrays, nrows = system._label_arrays(r, d, label, system._pattern(r, n, n - 1))
    return exactla._det_coords(arrays, nrows, 1, backend)


def _balanced(r: int, d: int, label: Sequence[int]) -> bool:
    """Whether each colour 1..d labels C(rd - 1, r - 1) of the r-subsets
    of 1..rd in ``label``: the count rule of :func:`_label_det`, and the
    even split of a homogeneous partition."""
    share = comb(r * d - 1, r - 1)
    return all(label.count(c) == share for c in range(1, d + 1))


def witness_det(r: int, d: int, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant on the canonical witness assignment; expected to be +-1.
    Its labels come straight from the witness rule, with no assignment."""
    exactla._check_threads(threads)
    n = r * d
    system._check_index_width(r, n)
    *arrays, nrows = system._label_arrays(r, d, witness_labels(r, d),
                                          system._insertion_arrays(r, n, n - 1))
    return exactla._det_coords(arrays, nrows, 1, backend)

"""The subset determinant: determinant of the truncated insertion system.

A rational tensor and a basis assignment (a labelling, such as the
canonical witness or a d-partition) both reach elimination as rows from the
one insertion walk of ``system``, never as a matrix: a labelling's rows are
integers already (``system.basis_rows``), a tensor's are rational and have
their denominators cleared row by row (``system.tensor_rows``).  A
labelling and its expanded tensor give the same rows and so the same value.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import _clear_denominators, _det_rows
from .system import basis_rows, tensor_rows
from .tensors import BasisAssignment, TensorAssignment, canonical_witness


def tensor_det(tensor: TensorAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of the truncated system matrix of ``tensor``.

    Multilinear in the slots; zero whenever some (r+1)-subset has all its
    facets assigned the same vector; under a slotwise linear map M it scales
    by det(M) ** C(rd-1, r-1).
    """
    rows, n, _ = tensor_rows(tensor, tensor.n - 1)
    divisor = _clear_denominators(rows)
    return _det_rows(rows, n, divisor, backend, threads)


def basis_det(basis: BasisAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """``tensor_det(tensor_from_basis(basis))``, by the label-aware route."""
    rows, n, _ = basis_rows(basis, basis.n - 1)
    return _det_rows(rows, n, backend=backend, threads=threads)


def witness_det(r: int, d: int, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant on the canonical witness assignment; expected to be +-1."""
    return basis_det(canonical_witness(r, d), backend=backend, threads=threads)

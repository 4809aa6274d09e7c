"""The subset determinant: determinant of the truncated insertion system."""

from __future__ import annotations

from fractions import Fraction

from .exactla import det_exact
from .system import system_matrix
from .tensors import BasisAssignment, TensorAssignment, canonical_witness, tensor_from_basis


def tensor_det(tensor: TensorAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of the truncated system matrix of ``tensor``.

    Multilinear in the slots; zero whenever some (r+1)-subset has all its
    facets assigned the same vector; under a slotwise linear map M it scales
    by det(M) ** C(rd-1, r-1).
    """
    sm = system_matrix(tensor)
    return det_exact(sm.matrix, backend=backend, threads=threads)


def basis_det(basis: BasisAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    return tensor_det(tensor_from_basis(basis), backend=backend, threads=threads)


def witness_det(r: int, d: int, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant on the canonical witness assignment; expected to be +-1."""
    return basis_det(canonical_witness(r, d), backend=backend, threads=threads)

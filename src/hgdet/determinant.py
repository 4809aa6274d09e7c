"""The subset determinant: determinant of the truncated insertion system.

A rational tensor goes through the tensor route: its system is assembled as
an :class:`~hgdet.exactla.ExactMatrix` and handed to ``det_exact``.  A basis
assignment (a labelling, such as the canonical witness or a d-partition)
goes through the label-aware route: ``system.basis_rows`` writes the ±1
system straight into the integer row form, which elimination consumes as
it is.  Both routes give the same matrix and so the same value, under the
same backend selection.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import _det_rows, det_exact
from .system import basis_rows, system_matrix
from .tensors import BasisAssignment, TensorAssignment, canonical_witness


def tensor_det(tensor: TensorAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of the truncated system matrix of ``tensor``.

    Multilinear in the slots; zero whenever some (r+1)-subset has all its
    facets assigned the same vector; under a slotwise linear map M it scales
    by det(M) ** C(rd-1, r-1).
    """
    sm = system_matrix(tensor)
    return det_exact(sm.matrix, backend=backend, threads=threads)


def basis_det(basis: BasisAssignment, backend: str = "auto", threads: int = 1) -> Fraction:
    """``tensor_det(tensor_from_basis(basis))``, by the label-aware route."""
    rows, n, _ = basis_rows(basis, basis.n - 1)
    return _det_rows(rows, n, backend=backend, threads=threads)


def witness_det(r: int, d: int, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant on the canonical witness assignment; expected to be +-1."""
    return basis_det(canonical_witness(r, d), backend=backend, threads=threads)

"""Vector families indexed by the r-subsets of {1, ..., rd}.

A :class:`TensorAssignment` attaches one exact-rational vector of length d to
every r-subset; a :class:`BasisAssignment` attaches a basis index in 1..d
instead and corresponds to a d-partition of the complete r-uniform
hypergraph.  The canonical witness assignment labels each subset through a
residue rule on its index sum and is the standard nonvanishing input for the
determinant map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import IO, Callable, Iterable, Sequence, Union

Rational = Union[int, Fraction]


def subsets(r: int, n: int) -> Iterable[tuple[int, ...]]:
    """All r-subsets of 1..n in dictionary order."""
    return combinations(range(1, n + 1), r)


@dataclass(frozen=True)
class TensorAssignment:
    """One length-d rational vector per r-subset of {1, ..., rd}."""

    r: int
    d: int
    entries: dict[tuple[int, ...], tuple[Rational, ...]]

    def __post_init__(self):
        n = self.r * self.d
        expected = comb(n, self.r)
        if len(self.entries) != expected:
            raise ValueError(
                f"expected {expected} entries for (r, d)=({self.r}, {self.d}), "
                f"got {len(self.entries)}")
        for key, vec in self.entries.items():
            if len(vec) != self.d:
                raise ValueError(f"vector at {key} has length {len(vec)} != {self.d}")

    @property
    def n(self) -> int:
        return self.r * self.d

    def vector(self, subset: Sequence[int]) -> tuple[Rational, ...]:
        return self.entries[tuple(subset)]

    def replace(self, subset: Sequence[int],
                vec: Sequence[Rational]) -> "TensorAssignment":
        """Copy with one slot replaced."""
        new = dict(self.entries)
        key = tuple(subset)
        if key not in new:
            raise KeyError(f"{key} is not an index of this assignment")
        new[key] = tuple(vec)
        return TensorAssignment(self.r, self.d, new)


@dataclass(frozen=True)
class BasisAssignment:
    """One basis index in 1..d per r-subset of {1, ..., rd}."""

    r: int
    d: int
    labels: dict[tuple[int, ...], int]

    def __post_init__(self):
        n = self.r * self.d
        expected = comb(n, self.r)
        if len(self.labels) != expected:
            raise ValueError(
                f"expected {expected} labels for (r, d)=({self.r}, {self.d}), "
                f"got {len(self.labels)}")
        for key, lab in self.labels.items():
            if not 1 <= lab <= self.d:
                raise ValueError(f"label {lab} at {key} outside 1..{self.d}")

    @property
    def n(self) -> int:
        return self.r * self.d


def canonical_witness(r: int, d: int) -> BasisAssignment:
    """The block-residue witness assignment.

    The ground set splits into blocks S_a = {ra-(r-1), ..., ra} for a in
    1..d.  A subset i_1 < ... < i_r with i_k in S_{a_k} gets the label a_t,
    where t in 1..r satisfies t - 1 = sum(i_j) mod r.  The determinant of the
    insertion system is nonzero on this assignment in every case computed so
    far, which makes it the standard nontriviality witness.
    """
    if r < 2:
        raise ValueError(f"witness requires r >= 2, got {r}")
    if d < 1:
        raise ValueError(f"witness requires d >= 1, got {d}")
    labels = {}
    for subset in subsets(r, r * d):
        t = sum(subset) % r
        i_t = subset[t]
        labels[subset] = (i_t + r - 1) // r
    return BasisAssignment(r, d, labels)


def tensor_from_basis(basis: BasisAssignment) -> TensorAssignment:
    """Expand labels into indicator coordinate vectors."""
    d = basis.d
    units = [tuple(1 if i == lab else 0 for i in range(1, d + 1))
             for lab in range(1, d + 1)]
    entries = {key: units[lab - 1] for key, lab in basis.labels.items()}
    return TensorAssignment(basis.r, d, entries)


def find_degenerate_simplex(tensor: TensorAssignment) -> tuple[int, ...] | None:
    """First (r+1)-subset whose r+1 facets all carry the same vector.

    Exhaustive scan in dictionary order; None when no such subset exists.
    Equality is exact.
    """
    r = tensor.r
    for simplex in subsets(r + 1, tensor.n):
        facets = combinations(simplex, r)
        first = tensor.entries[next(facets)]
        if all(tensor.entries[f] == first for f in facets):
            return simplex
    return None


def apply_matrix(matrix: Sequence[Sequence[Rational]],
                 tensor: TensorAssignment) -> TensorAssignment:
    """Apply a d x d matrix to every slot vector."""
    d = tensor.d
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise ValueError(f"transform must be {d}x{d}")
    entries = {}
    for key, vec in tensor.entries.items():
        entries[key] = tuple(
            sum(matrix[i][j] * vec[j] for j in range(d)) for i in range(d))
    return TensorAssignment(tensor.r, tensor.d, entries)


# --- text formats ------------------------------------------------------------


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_rational(token: str, line_no: int) -> Rational:
    try:
        if "/" in token:
            return Fraction(token)
        return int(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"bad rational {token!r}") from None


def format_rational(value: Rational) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def write_tensor(tensor: TensorAssignment, fh: IO[str]) -> None:
    """Write the tensor format: header ``r d``, then one line per subset
    in dictionary order: ``i_1 ... i_r : c_1 ... c_d``."""
    fh.write(f"{tensor.r} {tensor.d}\n")
    for subset in subsets(tensor.r, tensor.n):
        coords = " ".join(format_rational(c) for c in tensor.entries[subset])
        fh.write(f"{' '.join(map(str, subset))} : {coords}\n")


def _read_records(fh: IO[str], names: str, split: Callable[[int, str], tuple]):
    """Header and records of a text format.

    The header holds the integers named in ``names``, ``r`` among them.  Each
    other line that is not blank or a ``#`` comment goes through
    ``split(line_no, line) -> (subset, payload)``; its subset must be an
    increasing r-subset.  Returns the header values, a lazy iterator of
    ``(line_no, subset, payload)`` and the number of lines.
    """
    lines = fh.read().splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    header = lines[0].split()
    fields = names.split()
    if len(header) != len(fields):
        raise ParseError(1, f"expected header '{names}', got {lines[0]!r}")
    try:
        values = tuple(int(x) for x in header)
    except ValueError:
        raise ParseError(1, f"non-integer header {lines[0]!r}") from None
    r = values[fields.index("r")]

    def records():
        for line_no, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            subset, payload = split(line_no, line)
            if len(subset) != r or any(subset[i] >= subset[i + 1]
                                       for i in range(r - 1)):
                raise ParseError(line_no, f"not an increasing {r}-subset: {subset}")
            yield line_no, subset, payload

    return values, records(), len(lines)


def _split_tensor_line(line_no: int, line: str) -> tuple[tuple[int, ...], str]:
    if ":" not in line:
        raise ParseError(line_no, "missing ':' separator")
    left, right = line.split(":", 1)
    try:
        return tuple(int(x) for x in left.split()), right
    except ValueError:
        raise ParseError(line_no, f"bad subset {left.strip()!r}") from None


def read_tensor(fh: IO[str]) -> TensorAssignment:
    (r, d), records, n_lines = _read_records(fh, "r d", _split_tensor_line)
    entries: dict[tuple[int, ...], tuple[Rational, ...]] = {}
    for line_no, subset, right in records:
        coords = tuple(_parse_rational(tok, line_no) for tok in right.split())
        if len(coords) != d:
            raise ParseError(line_no, f"expected {d} coordinates, got {len(coords)}")
        if subset in entries:
            raise ParseError(line_no, f"duplicate subset {subset}")
        entries[subset] = coords
    try:
        return TensorAssignment(r, d, entries)
    except ValueError as exc:
        raise ParseError(n_lines, str(exc)) from None


def write_basis(basis: BasisAssignment, fh: IO[str]) -> None:
    """Write the label format: header ``n r d``, then ``i_1 ... i_r -> part``."""
    fh.write(f"{basis.n} {basis.r} {basis.d}\n")
    for subset in subsets(basis.r, basis.n):
        fh.write(f"{' '.join(map(str, subset))} -> {basis.labels[subset]}\n")

"""Exact determinant and rank of integer and rational matrices.

Every determinant and rank goes through one integer row form: a dict from
row index to a dict from column index to a nonzero int, with empty rows
absent, plus a divisor.  ``_integer_rows`` builds it from an
:class:`ExactMatrix` in one pass over ``entries``, scaling each row that
holds a fraction by the lcm of its denominators; the divisor is the product
of those scales.  Assemblies that produce integers directly (the
label-aware insertion system in ``system.basis_rows``) hand their rows to
``_det_rows`` and ``_rank_rows`` without building a matrix.  Elimination
consumes the rows it is given.

Two determinant backends are provided and must always agree.  ``_det_rows``
is the one dispatcher: it alone validates the backend name, resolves
"auto" and handles n = 0.  ``det_exact``, ``det_bareiss``,
``det_multimodular`` and the label-aware ``basis_det`` all reach it.

* ``det_bareiss``: fraction-free elimination on the integer-scaled matrix,
  in sparse storage.  Singleton rows and columns are peeled off first with
  no arithmetic (Laplace expansion along a line with one entry); Bareiss
  elimination then runs on the remaining core, its pivot sequence starting
  there.  Its pivot rule: lowest-count column, then its shortest row.
  Intermediate entries are minors of the core, so every division is exact
  and no rationals appear.
* ``det_multimodular``: the determinant modulo a batch of 31-bit primes,
  recombined by the Chinese remainder theorem.  The prime batch is sized so
  that its product exceeds twice the Hadamard bound, plus one safety prime
  whose residue must match the reconstruction.  The row indices, column
  indices and values of the integer rows are built once per determinant;
  each prime scatters the values mod p into a dense array and runs the
  lazily reducing elimination of ``_kernels.det_mod_p``.

Rank is computed over the rationals by the same fraction-free elimination.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from typing import Mapping, Sequence, Union

import numpy as np

from ._kernels import _PRIME_CEILING, det_mod_p

Rational = Union[int, Fraction]

#: The integer row form: row -> column -> nonzero int, empty rows absent.
IntRows = dict[int, dict[int, int]]

# Mean nonzeros per row above which backend "auto" picks the multimodular
# backend.  On random p/q matrices of 60 and 120 rows the two backends tie
# between 6.4 and 7.5 per row; at 4.5 per row fraction-free elimination is
# 2.4-3x faster, at 14 per row multimodular is 2-3x faster.  Witness systems
# have at most 4.5 per row.
_DENSE_NNZ_PER_ROW = 8


class ReconstructionError(RuntimeError):
    """Internal error: the CRT safety prime disagreed with the reconstruction."""


class ExactMatrix:
    """Sparse exact matrix with int or Fraction entries (zeros omitted)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], Rational] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Rational] = {}
        if entries:
            for (i, j), v in entries.items():
                if not 0 <= i < rows or not 0 <= j < cols:
                    raise ValueError(f"entry ({i}, {j}) outside {rows}x{cols}")
                if v:
                    self.entries[(i, j)] = v

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[Rational]]) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    def to_dense(self) -> list[list[Rational]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           {(j, i): v for (i, j), v in self.entries.items()})

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        by_row: dict[int, list[tuple[int, Rational]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: dict[tuple[int, int], Rational] = {}
        for (i, k), v in self.entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        return ExactMatrix(self.rows, other.cols, acc)

    def is_zero(self) -> bool:
        return not self.entries

    def integer_form(self) -> tuple[dict[tuple[int, int], int], int]:
        """Clear denominators row by row.

        Returns (integer entries, divisor) with divisor the product of the
        per-row scale factors, so det(self) == det(integer matrix) / divisor
        and the rank is unchanged.
        """
        rows, divisor = _integer_rows(self)
        return {(i, j): v for i, row in rows.items() for j, v in row.items()}, divisor

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _integer_rows(matrix: ExactMatrix) -> tuple[IntRows, int]:
    """The integer row form of ``matrix`` and its divisor.

    One pass over ``entries`` groups them by row; each row holding a
    fraction is then scaled by the lcm of its denominators, so
    det(matrix) == det(rows) / divisor.  The row dicts are new, so the
    caller may hand them to elimination.
    """
    rows: IntRows = {}
    fractional: set[int] = set()
    for (i, j), v in matrix.entries.items():
        if not v:
            continue
        row = rows.get(i)
        if row is None:
            rows[i] = row = {}
        row[j] = v
        if isinstance(v, Fraction):
            fractional.add(i)
    divisor = 1
    for i in fractional:
        row = rows[i]
        scale = lcm(*(v.denominator for v in row.values() if isinstance(v, Fraction)))
        for j, v in row.items():
            row[j] = (v.numerator * (scale // v.denominator)
                      if isinstance(v, Fraction) else v * scale)
        divisor *= scale
    return rows, divisor


def _permutation_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation k -> seq[k] via cycle decomposition."""
    n = len(seq)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        k = start
        while not seen[k]:
            seen[k] = True
            k = seq[k]
    return 1 if (n - cycles) % 2 == 0 else -1


def _eliminate(rows: IntRows, nrows: int, ncols: int,
               want_det: bool) -> tuple[int, int]:
    """Sparse fraction-free elimination of an nrows x ncols matrix in the
    integer row form.  ``rows`` is consumed: it is the working storage.

    Returns (rank, det) where det is meaningful only when want_det is set and
    the matrix is square; a rank-deficient square matrix reports det 0.

    A peel phase runs first.  While some column or row has a single entry v,
    that entry is a pivot: its row and column are deleted with no
    arithmetic, and any row or column left with one entry joins the
    worklist.  Laplace expansion along the singleton line gives
    det = +-v * det(minor) and rank = 1 + rank(minor), so the peeled
    pivots contribute their plain product.  In det mode a row or column
    that empties while peeling proves the matrix singular.  Witness systems
    are permuted triangular and peel completely, in time linear in nnz.
    The peel keeps each column as the list of rows it started with and a
    live count; the column sets of the core are built from what is left.

    The Bareiss core then runs on what is left, with its own pivot
    sequence starting at 1, so the peeled entries never scale its rows.
    The determinant is the sign of the row and column pivot orders times
    the peeled product times the core's last Bareiss pivot.

    The core's pivot rule: lowest-count column, then its shortest row, ties
    going to the lowest column and row index.  Rows that do not meet a
    pivot column are rescaled lazily: by the minor identity their true
    value at step k equals the stored value times pivot_k / pivot_t, where
    t is the step at which the row last participated, and that division is
    exact.
    """
    # Peel phase: pivot on singleton columns and rows with no arithmetic.
    # A column's entries leave the rows only when it is pivoted, so its
    # rows are the ones listed at the start that are still in ``rows``;
    # ``count`` tracks how many of them are.
    col_rows: list[list[int]] = [[] for _ in range(ncols)]
    for i, ri in rows.items():
        for j in ri:
            col_rows[j].append(i)
    count = [len(c) for c in col_rows]

    if want_det and (len(rows) < nrows or 0 in count):
        return len(rows), 0

    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    peeled = 1
    col_stack = [j for j, c in enumerate(count) if c == 1]
    row_stack = [i for i, ri in rows.items() if len(ri) == 1]
    while col_stack or row_stack:
        if col_stack:
            pc = col_stack.pop()
            if count[pc] != 1:
                continue
            for pr in col_rows[pc]:
                if pr in rows:
                    break
        else:
            pr = row_stack.pop()
            ri = rows.get(pr)
            if ri is None or len(ri) != 1:
                continue
            (pc,) = ri
        prow = rows.pop(pr)
        peeled *= prow[pc]
        pivot_rows.append(pr)
        pivot_cols.append(pc)
        for j in prow:
            if j == pc:
                continue
            c = count[j] - 1
            count[j] = c
            if c == 1:
                col_stack.append(j)
            elif not c and want_det:
                return len(pivot_rows), 0
        count[pc] = 0
        for i in col_rows[pc]:
            ri = rows.get(i)
            if ri is None:
                continue
            del ri[pc]
            if len(ri) == 1:
                row_stack.append(i)
            elif not ri:
                del rows[i]
                if want_det:
                    return len(pivot_rows), 0
    del col_rows, count

    cols: dict[int, set[int]] = {}
    for i, ri in rows.items():
        for j in ri:
            cols.setdefault(j, set()).add(i)

    # Bareiss core on what is left; step indexes its own pivots.
    heap: list[tuple[int, int]] = [(len(s), j) for j, s in cols.items()]
    heapq.heapify(heap)
    pivots = [1]
    last = dict.fromkeys(rows, 0)
    rank = len(pivot_rows)
    step = 0

    def materialize(i: int, target: int) -> None:
        t = last[i]
        if t == target:
            return
        num, den = pivots[target], pivots[t]
        if num != den:
            ri = rows[i]
            for j in ri:
                ri[j] = ri[j] * num // den
        last[i] = target

    def push_col(j: int) -> None:
        s = cols.get(j)
        if s:
            heapq.heappush(heap, (len(s), j))

    while heap:
        cnt, pc = heapq.heappop(heap)
        s = cols.get(pc)
        if s is None:
            continue
        if len(s) != cnt:
            heapq.heappush(heap, (len(s), pc))
            continue
        pr = min(s, key=lambda row: (len(rows[row]), row))

        prev = pivots[step]
        materialize(pr, step)
        step += 1
        rank += 1
        prow = rows.pop(pr)
        del last[pr]
        piv = prow[pc]
        pivots.append(piv)
        pivot_rows.append(pr)
        pivot_cols.append(pc)
        for j in prow:
            s = cols[j]
            s.discard(pr)
            if s:
                push_col(j)
            else:
                del cols[j]
                if want_det and j != pc and rank < min(nrows, ncols):
                    return rank, 0

        victims = sorted(cols.pop(pc, ()))
        for i in victims:
            materialize(i, step - 1)
            ri = rows[i]
            b = ri.pop(pc)
            # Off the pivot row's columns the update only rescales, and the
            # column counts stay as they are.
            for j, a in ri.items():
                if j not in prow:
                    ri[j] = a * piv // prev
            for j, w in prow.items():
                if j == pc:
                    continue
                a = ri.get(j, 0)
                val = (a * piv - b * w) // prev
                if val:
                    ri[j] = val
                    if not a:
                        cols.setdefault(j, set()).add(i)
                        push_col(j)
                elif a:
                    del ri[j]
                    s = cols[j]
                    s.discard(i)
                    if s:
                        push_col(j)
                    else:
                        del cols[j]
                        if want_det:
                            return rank, 0
            last[i] = step
            if not ri:
                del rows[i]
                del last[i]
                if want_det:
                    return rank, 0

    if not want_det:
        return rank, 0
    if rank < nrows:
        return rank, 0
    det = (_permutation_sign(pivot_rows) * _permutation_sign(pivot_cols)
           * peeled * pivots[-1])
    return rank, det


def _rank_rows(rows: IntRows, nrows: int, ncols: int) -> int:
    """Rank of an nrows x ncols matrix in the integer row form; consumes
    ``rows``."""
    rank, _ = _eliminate(rows, nrows, ncols, want_det=False)
    return rank


def rank_exact(matrix: ExactMatrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    rows, _ = _integer_rows(matrix)
    return _rank_rows(rows, matrix.rows, matrix.cols)


def det_bareiss(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    return det_exact(matrix, backend="bareiss")


# --- multimodular backend ---------------------------------------------------

_prime_cache: list[int] = []
_prime_lock = threading.Lock()


@cache
def _small_primes() -> list[int]:
    """The primes up to sqrt(_PRIME_CEILING), sieved once per process."""
    limit = isqrt(_PRIME_CEILING) + 1
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:limit:p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(2, limit) if sieve[p]]


def _extend_primes(count: int) -> None:
    small = _small_primes()
    candidate = _prime_cache[-1] - 2 if _prime_cache else _PRIME_CEILING - 1
    while len(_prime_cache) < count:
        is_prime = True
        for p in small:
            if p * p > candidate:
                break
            if candidate % p == 0:
                is_prime = False
                break
        if is_prime:
            _prime_cache.append(candidate)
        candidate -= 2


def modular_primes(count: int) -> list[int]:
    """The first ``count`` primes descending from just below 2**31."""
    with _prime_lock:
        if len(_prime_cache) < count:
            _extend_primes(count)
        return _prime_cache[:count]


def crt_combine(residues: Sequence[int], primes: Sequence[int]) -> int:
    """Solve x = residues[i] (mod primes[i]); result in [0, prod primes)."""
    x = 0
    modulus = 1
    for r, p in zip(residues, primes):
        t = ((r - x) * pow(modulus, -1, p)) % p
        x += modulus * t
        modulus *= p
    return x


def hadamard_bound(int_entries: Mapping[tuple[int, int], int], n: int) -> int:
    """Integer upper bound for |det| of an n x n integer matrix."""
    rows: IntRows = {}
    for (i, j), v in int_entries.items():
        rows.setdefault(i, {})[j] = v
    return _hadamard_rows(rows, n)


def _hadamard_rows(rows: IntRows, n: int) -> int:
    """``hadamard_bound`` of an n x n matrix in the integer row form."""
    if len(rows) < n:
        return 0
    col_sq = [0] * n
    prod_r = 1
    for row in rows.values():
        row_sq = 0
        for j, v in row.items():
            vv = v * v
            row_sq += vv
            col_sq[j] += vv
        prod_r *= row_sq
    prod_c = 1
    for s in col_sq:
        prod_c *= s
    b2 = min(prod_r, prod_c)
    if b2 == 0:
        return 0
    return isqrt(b2) + 1


def _residue_mod_p(coords: tuple[np.ndarray, np.ndarray, np.ndarray], n: int,
                   p: int) -> int:
    """det mod p of the n x n matrix whose nonzeros are ``coords``: row
    indices, column indices and an object array of the integer values."""
    rows, cols, vals = coords
    a = np.zeros((n, n), dtype=np.int64)
    a[rows, cols] = vals % p
    return det_mod_p(a, p)


def det_multimodular(matrix: ExactMatrix, threads: int = 1) -> Fraction:
    """Exact determinant by CRT over 31-bit primes with a Hadamard certificate.

    The batch of primes is the smallest whose product exceeds twice the
    Hadamard bound, plus one safety prime.  A mismatch between the safety
    residue and the reconstructed value raises ReconstructionError.
    """
    return det_exact(matrix, backend="multimodular", threads=threads)


def _multimodular(rows: IntRows, n: int, threads: int) -> int:
    """det of the n x n integer matrix ``rows``, by CRT (see det_multimodular)."""
    bound = _hadamard_rows(rows, n)
    if bound == 0:
        return 0

    # Every prime exceeds 2**30, so this many always reach the target.
    target = 2 * bound
    base: list[int] = []
    modulus = 1
    for p in modular_primes(target.bit_length() // 30 + 1):
        base.append(p)
        modulus *= p
        if modulus > target:
            break
    safety = modular_primes(len(base) + 1)[-1]

    nnz = sum(map(len, rows.values()))
    row_idx = np.fromiter((i for i, row in rows.items() for _ in row),
                          dtype=np.intp, count=nnz)
    col_idx = np.fromiter((j for row in rows.values() for j in row),
                          dtype=np.intp, count=nnz)
    vals = np.empty(nnz, dtype=object)
    vals[:] = [v for row in rows.values() for v in row.values()]
    coords = (row_idx, col_idx, vals)

    def residue(p: int) -> int:
        return _residue_mod_p(coords, n, p)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            residues = list(pool.map(residue, base + [safety]))
    else:
        residues = [residue(p) for p in base + [safety]]

    x = crt_combine(residues[:-1], base)
    if x > modulus // 2:
        x -= modulus
    if x % safety != residues[-1]:
        raise ReconstructionError(
            f"safety prime {safety} disagrees with reconstruction")
    return x


def _det_rows(rows: IntRows, n: int, divisor: int = 1, backend: str = "auto",
              threads: int = 1) -> Fraction:
    """det(rows) / divisor for an n x n matrix in the integer row form.
    Consumes ``rows``.

    This is the one place that picks the backend: "auto" takes the
    multimodular backend above 8 nonzeros per row on average, and
    fraction-free elimination otherwise.
    """
    if backend == "auto":
        nnz = sum(map(len, rows.values()))
        backend = "multimodular" if nnz > _DENSE_NNZ_PER_ROW * n else "bareiss"
    if backend not in ("bareiss", "multimodular"):
        raise ValueError(f"unknown backend {backend!r}")
    if n == 0:
        return Fraction(1)
    if backend == "bareiss":
        _, det = _eliminate(rows, n, n, want_det=True)
    else:
        det = _multimodular(rows, n, threads)
    return Fraction(det, divisor)


def det_exact(matrix: ExactMatrix, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of a square matrix, with the backend chosen by ``_det_rows``."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant of non-square {matrix!r}")
    rows, divisor = _integer_rows(matrix)
    return _det_rows(rows, matrix.rows, divisor, backend, threads)

"""Exact determinant and rank of integer and rational matrices.

Every determinant starts from one form: coordinate arrays (rows, cols,
vals) of the nonzeros of an n x n integer matrix, each position at most
once, plus a divisor.  The insertion systems never become a matrix on
their way there: ``system`` fills its +-1 pattern with a labelling's unit
vectors (int32 indices, int8 values) or with a tensor's vectors once
``_exact_values`` has cleared their denominators vector by vector.
``det_exact`` gets the arrays of its matrix from ``_matrix_coords``, which
hands ``_exact_values`` the matrix's rows: each row holding a fraction is
scaled by the lcm of its denominators, and the divisor is the product of
those scales.  ``_exact_values`` is the one place that reads value types,
for tensors and matrices alike: ints and Fractions pass, bools and numpy
integers become the Python ints they equal, and anything else, a float
too, raises TypeError.  The values are int64 when they fit, whatever
integer type they came in, and Python ints in an object array otherwise.

``_det_coords`` is the one entry of every determinant, handles n = 0, and
alone picks the eliminator.  It takes the arrays in one list, which its
callers keep no other reference to.  Its ``_pick_backend`` validates the
backend name and resolves "auto".  The multimodular backend takes the
arrays as they are.  For "bareiss", a system of more than ``_PEEL_NNZ``
nonzeros goes to ``_peel_det``, a wave peel with numpy that empties the
list, keeps the arrays' types and frees each array once it is compacted,
then ``_eliminate`` on the integer rows of the core; a smaller one
goes to ``_eliminate`` on its integer row form, a dict from row index to a
dict from column index to a nonzero int, with empty rows absent
(``_int_rows``).  Elimination consumes those rows.  The rule is the same
for tensors, labellings and matrices.  Ranks run ``_eliminate`` on integer
rows: those of an :class:`ExactMatrix`, a boundary map, or a labelling's
full system.

Two determinant backends are provided and must always agree.

* ``det_bareiss``: fraction-free elimination on the integer-scaled matrix,
  in sparse storage.  Singleton rows and columns are peeled off first with
  no arithmetic (Laplace expansion along a line with one entry); Bareiss
  elimination then runs on the remaining core, its pivot sequence starting
  there.  Its pivot rule: lowest-count column, then its shortest row.
  Intermediate entries are minors of the core, so every division is exact
  and no rationals appear.
* ``det_multimodular``: a certified divisor s of the determinant by p-adic
  lifting, then t = det / s modulo a batch of 31-bit primes, recombined by
  the Chinese remainder theorem (Abbott, Bronstein and Mulders, ISSAC
  1999).  Both steps are sized by a bound B on |det|, the smaller of the
  Hadamard bound H and the bound of ``_float_det_bound``: with a unit upper
  triangular Z that makes the columns of AZ nearly orthogonal in float64,
  |det A| = |det(AZ)| <= prod_j ||col_j(AZ)||, and a rounding-error term
  (Higham, Accuracy and Stability of Numerical Algorithms, section 3.5)
  makes the computed norms an upper bound.  On the dense tensor systems B
  lies 1-2 bits above |det| where H lies 90-170 bits above.
  ``_lift_divisor`` inverts the matrix A modulo one lifting prime
  p < 2**25 and lifts the solution of A x = b, for a fixed small integer
  b, until p**k exceeds 2 N B, with N a Hadamard bound of the Cramer
  numerators (Dixon, Numer. Math. 40, 1982); both products of a lifting
  step run exactly in float64 on 13-bit halves.  s, the lcm of the
  denominators of the components, grows from 1 by the rational
  reconstruction of each component that still has a denominator left
  over.  The certificate is exact: y = s x must solve A y = s b in
  Python ints, and s is divided by gcd(s, y_1, ..., y_n); every
  denominator of A^-1 b divides det by Cramer's rule, and so does s.
  The CRT batch then skips the primes dividing s and is sized so that its
  product, with the lifting prime's residue of t, exceeds 2 ceil(B / s);
  each residue is det mod q times s^-1 mod q.  One safety prime's residue
  must match the reconstruction.  Every determinant is lifted first, a
  unimodular witness system too; only when A is singular mod p, an int64
  or float64 bound of the lift would not hold, or the certificate fails,
  is it plain CRT on det, with s = 1 and no lifting residue.  One pass
  over the arrays, in Python ints, gives the Hadamard bound and the
  squared column norms that N is taken from.  Rows and columns are both
  taken in the reverse dictionary order of ``_pivot_order``, which keeps
  fill-in late; one permutation on both sides leaves det unchanged.  The
  arrays become one dense int64 n x n array in that order, once, and
  everything after reads it: the float bound when max|a| < 2**52, the
  lift's inverse mod p, and each prime's residue mod q (from max|a| >=
  2**63 on, the residues alone, each prime writing the nonzeros mod q into
  the array first), which runs the lazily reducing elimination
  of ``_kernels.det_mod_p``, one prime after another in one loop: the few
  primes of a lifted determinant leave nothing to spread over workers,
  and the numpy steps of the many of a plain CRT hold the GIL.  The
  primes descend from 2**31 by a cached pure function, which needs no
  lock, and the batch walks them until its product passes its target.

Rank is computed over the rationals by the same fraction-free elimination.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import ceil, fsum, gcd, isqrt, lcm, prod
from operator import attrgetter, index
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from ._kernels import _PRIME_CEILING, det_mod_p, inverse_mod_p

Rational = Union[int, Fraction]

#: The integer row form: row -> column -> nonzero int, empty rows absent.
IntRows = dict[int, dict[int, int]]

# Mean nonzeros per row above which backend "auto" picks the multimodular
# backend.  Protocol: 5 nonsingular random p/q matrices per point (a signed
# p/q with 1 <= p, q <= 9 on the diagonal and on k - 1 other random columns
# of each row), median time per backend on one core.  Before the lift the
# two tied at about 10 per row on 60 rows and 6.5 on 120 rows (recorded
# earlier as 6.4-7.5).  With it and the pivot order they tie at 5 per row
# on 60 rows and 4-5 on 120, and not yet at 8 on 30; at 7 per row
# multimodular is 2.4x (60 rows) and 5.2x (120) faster, and 1.2x slower
# on 30, and at 4 per row fraction-free elimination is 1.04x (120), 2.0x
# (60) and 3.2x (30) faster.
# The rule stays above 6.5 per row: the witness cell (r, 2) has
# r - (r - 1) / 2 per row, 6.5 on (12, 2), whose 2.7 million rows peel in
# linear time but would need a dense n x n array.  Witness cells of the
# known-values table have at most 4.5 per row, K^3_6 partitions 2.
_DENSE_NNZ_PER_ROW = 7

# The lifting prime of the multimodular backend, the largest below 2**25.
# With it n * p * p < 2**63 up to n = 8192, so the in-place inverse of
# ``_kernels.inverse_mod_p`` never reduces a block, and A x stays in int64
# while n * max|a| * p does.  On one core, with the systems in pivot order,
# the inverse costs 1.3-2.0 calls of ``det_mod_p`` on the dense tensor
# systems of 120-220 rows, and 2.2 on the (6, 2) witness system of 924
# rows, where ``det_mod_p`` also reduces only the few rows that changed.
_LIFT_PRIME = 33_554_393

# Nonzeros above which fraction-free elimination starts with the wave peel
# of ``_peel_det`` instead of ``_eliminate``'s own peel on integer rows.
# Per call on one core, best of 15 interleaved passes, on nonsingular
# labellings filled from the cached pattern, ``_eliminate`` against the peel:
#   83 K^3_6 labellings of classify-r3d2, 40         39 us    124 us
#   witness (4, 2), 175                              132 us    182 us
#   witness (3, 3), 196                              156 us    131 us
#   witness (2, 8), 225                              190 us    135 us
#   witness (3, 4), 550                              369 us    167 us
#   witness (3, 5), 1183                             805 us    218 us
# The crossover lies between 175 and 225 nonzeros: at 196 the two came
# within 15% of each other either way over repeated runs, so 250 stays.
# Sending every system to the peel raised classify-r3d2 ``op_p99_norm_ms``
# from 0.349 to 0.481 ms (medians of 3 runs of ``perfbench/run.py``).
_PEEL_NNZ = 250

# Entries per step of ``_gather``.  With int32 indices, ``take`` is about
# twice as fast as fancy indexing and ``compress`` 1.5-5 times as fast as
# boolean-mask indexing (numpy 2.4), but both copy an int32 index, or the
# positions that a mask selects, to a new intp array: over a whole peel
# that adds up to 7 bytes per nonzero at its peak (``witness_det(10, 2)``
# went from 13.5 to 20.5), over a chunk at most 0.5 MB.  A key of at most
# one chunk, as on the small systems of det-auto-sparse, gets one plain
# call, and so do the counts of ``_line_counts``.  ``mode="clip"`` keeps
# ``take`` from buffering each step's view of ``out`` (every index is in
# range).
_GATHER_CHUNK = 1 << 16


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

    def integer_form(self) -> tuple[dict[tuple[int, int], int], int]:
        """Clear denominators row by row.

        Returns (integer entries, divisor) with divisor the product of the
        per-row scale factors, so det(self) == det(integer matrix) / divisor
        and the rank is unchanged.
        """
        rows, cols, vals, divisor = _matrix_coords(self)
        return dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist())), divisor

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


_denominator = attrgetter("denominator")


def _exact_values(groups: Sequence[Iterable],
                  count: int) -> tuple[np.ndarray, list[int] | None]:
    """The ``count`` values of ``groups``, in order, as one flat array of
    exact integers, and the lcm of each group's denominators, or None when
    no value is a Fraction: the one place that reads value types, for a
    tensor's vectors and a matrix's rows alike.

    One scan of the value types decides both steps.  Bools and numpy
    integers count as the Python ints they equal, and any other type
    that is not an int or a Fraction, a float too, raises TypeError.
    When some value is a Fraction, every group is scaled by its lcm,
    which clears its denominators.  The array is int64 unless a cleared
    value falls outside (-2**63, 2**63), since the tensor fill negates
    values, and an object array of Python ints otherwise."""
    types = set(map(type, chain.from_iterable(groups)))
    if not types <= {int, Fraction}:
        groups = [[v if type(v) is Fraction else index(v) for v in group]
                  for group in groups]
    scales = None
    if Fraction in types:
        scales = [lcm(*map(_denominator, group)) for group in groups]
        groups = [[v.numerator * (scale // v.denominator) for v in group]
                  for group, scale in zip(groups, scales)]
    try:
        values = np.fromiter(chain.from_iterable(groups), np.int64, count=count)
    except OverflowError:
        pass
    else:
        if not (values == np.iinfo(np.int64).min).any():
            return values, scales
    return np.fromiter(chain.from_iterable(groups), object, count=count), scales


def _matrix_coords(matrix: ExactMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The nonzeros of ``matrix`` as integer coordinate arrays (rows, cols,
    vals) and a divisor: entries grouped by row, rows in order of first
    appearance, each row cleared of denominators by ``_exact_values``, so
    det(matrix) == det(integer matrix) / divisor and the rank is
    unchanged."""
    by_row: dict[int, dict[int, Rational]] = {}
    for (i, j), v in matrix.entries.items():
        if v:
            row = by_row.get(i)
            if row is None:
                by_row[i] = row = {}
            row[j] = v
    nnz = sum(map(len, by_row.values()))
    rows = np.fromiter((i for i, row in by_row.items() for _ in row), np.intp, count=nnz)
    cols = np.fromiter(chain.from_iterable(by_row.values()), np.intp, count=nnz)
    vals, scales = _exact_values([row.values() for row in by_row.values()], nnz)
    return rows, cols, vals, prod(scales or ())


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
    pivots contribute their plain product.  Witness systems are permuted
    triangular and peel completely, in time linear in nnz.  The peel keeps
    each column as the list of rows it started with and a live count; the
    column sets of the core are built from what is left.

    The Bareiss core then runs on what is left, with its own pivot
    sequence starting at 1, so the peeled entries never scale its rows.
    The determinant is the sign of the permutation that sends each pivot
    row to its pivot column, as in ``_peel_det``, times the peeled product
    times the core's last Bareiss pivot.

    Det mode has one singularity rule besides the counts it reads before
    the peel: a row or column that empties, in the peel or the core, is
    deleted, so a core step that finds fewer live rows or columns than
    pivots still to take returns det 0; a matrix that runs out of pivots
    first gives det 0 at the end.

    The core's pivot rule: lowest-count column, then its shortest row, ties
    going to the lowest column and row index.  The heap gets an entry
    (count, column) only when a column's count falls, when the pivot row
    or a cancellation leaves it, so every live column keeps an entry whose
    key is at most its count; a pop whose key is stale is pushed back at
    the true count, and the first pop that is not stale is the least
    (count, column).  Fill-in raises a count and pushes nothing.  A column
    emptied in a step is never refilled in that step: a victim without it
    would give the pivot column the higher count.  Each victim's update
    reads only the pivot row and its own row, so the victims go in set
    order.  Rows that do not meet a pivot column are rescaled lazily: by
    the minor identity their true value at step k equals the stored value
    times pivot_k / pivot_t, where t is the step at which the row last
    participated, and that division is exact.
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

    while heap:
        cnt, pc = heapq.heappop(heap)
        s = cols.get(pc)
        if s is None:
            continue
        if len(s) != cnt:
            heapq.heappush(heap, (len(s), pc))
            continue
        # Emptied rows and columns are deleted, so fewer live lines than
        # pivots still to take means the matrix is singular.
        if want_det and min(len(rows), len(cols)) < nrows - rank:
            return rank, 0
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
                heapq.heappush(heap, (len(s), j))
            else:
                del cols[j]

        for i in cols.pop(pc, ()):
            materialize(i, step - 1)
            ri = rows[i]
            b = ri.pop(pc)
            # Off the pivot row's columns the update only rescales (a no-op
            # when piv == prev), and the column counts stay as they are.
            if piv != prev:
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
                elif a:
                    del ri[j]
                    s = cols[j]
                    s.discard(i)
                    if s:
                        heapq.heappush(heap, (len(s), j))
                    else:
                        del cols[j]
            last[i] = step
            if not ri:
                del rows[i]
                del last[i]

    if not want_det:
        return rank, 0
    if rank < nrows:
        return rank, 0
    # The sign of the pairing, by its cycles: each cycle of length l is
    # l - 1 transpositions.
    perm = dict(zip(pivot_rows, pivot_cols))
    det = peeled * pivots[-1]
    while perm:
        i, j = perm.popitem()
        while j != i:
            j = perm.pop(j)
            det = -det
    return rank, det


def _gather(a: np.ndarray, key: np.ndarray) -> np.ndarray:
    """``a[key]`` for a 1-D array ``a``, with ``key`` an array of valid
    indices into it or a boolean mask as long as it, by ``take`` or
    ``compress`` in steps of ``_GATHER_CHUNK`` entries of ``key``; a
    masked step takes the positions it selects."""
    mask = key.dtype == bool
    if len(key) <= _GATHER_CHUNK:
        return a.compress(key) if mask else a.take(key)
    out = np.empty(np.count_nonzero(key) if mask else len(key), dtype=a.dtype)
    at = 0
    for lo in range(0, len(key), _GATHER_CHUNK):
        part, source = key[lo:lo + _GATHER_CHUNK], a
        if mask:
            part, source = np.flatnonzero(part), a[lo:lo + _GATHER_CHUNK]
        source.take(part, out=out[at:at + len(part)], mode="clip")
        at += len(part)
    return out


def _array_permutation_sign(perm: np.ndarray) -> int:
    """Sign of the permutation k -> perm[k], from its cycle count.  Pointer
    doubling gives each point the least point of its cycle within 2**k
    steps; once a doubling changes nothing, the window covers every
    cycle."""
    points = np.arange(len(perm), dtype=perm.dtype)
    least = points
    step = perm
    while True:
        merged = np.minimum(least, _gather(least, step))
        if np.array_equal(merged, least):
            break
        least = merged
        step = _gather(step, step)
    cycles = np.count_nonzero(least == points)
    return 1 if (len(perm) - cycles) % 2 == 0 else -1


def _int_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> IntRows:
    """The integer row form of the nonzeros ``vals`` at (rows, cols), each
    position at most once, with Python ints for whatever integer dtype the
    values have; rows come in order of first appearance."""
    out: IntRows = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        row = out.get(i)
        if row is None:
            out[i] = row = {}
        row[j] = v
    return out


def _line_counts(index: np.ndarray, n: int) -> np.ndarray:
    """The number of entries of each of the n lines that ``index`` names,
    as intp.  ``np.add.at`` reads an int32 ``index`` in place, where
    ``np.bincount`` copies it to intp first.  A key of at most one
    ``_GATHER_CHUNK`` copies at most 512 KiB, and there ``np.bincount`` is
    faster: 4 against 7 us on 1183 entries, 135 against 141 us on 65 536;
    the two meet near 131 072 (numpy 2.4, one core)."""
    if len(index) <= _GATHER_CHUNK:
        return np.bincount(index, minlength=n)
    count = np.zeros(n, dtype=np.intp)
    np.add.at(count, index, 1)
    return count


def _peel_det(arrays: list[np.ndarray], n: int) -> int:
    """det of the n x n integer matrix with nonzeros ``vals`` at (rows, cols),
    each position at most once, handed over as the list ``arrays`` =
    [rows, cols, vals], which the peel empties: it then holds the only
    references, and each wave frees an array as soon as its compacted copy
    exists.  A wave peel, then ``_eliminate`` on the core.  ``_det_coords``
    hands it the arrays of its callers: int32 indices and int8 values for a
    labelling, intp rows, int32 columns and int64 or object values for a
    tensor, intp indices and int64 or object values for ``det_exact``.  The
    peel keeps their types: each wave reads counts and boolean masks, not
    copies of the indices, through ``_line_counts`` and ``_gather``, and
    drops its own temporaries before it compacts the live entries.

    Each wave pivots on every singleton column and every singleton row at
    once.  Two singleton columns on one row, or two singleton rows on one
    column, are proportional, and a live row or column with no entry left
    is zero: each gives det 0.  Otherwise the wave's pivots lie on distinct
    rows and columns, and Laplace expansion along each in turn multiplies
    the determinant of what is left by their values: (-1) to the number of
    -1 pivots times the product of the others, so only the pivots that
    are not +-1 become a Python list.  When no singleton remains, the core
    (the live rows and columns, renumbered in increasing order) goes to
    ``_eliminate`` as integer rows, even when it is empty.  Then
    det = sgn(sigma) * (product of the pivots) * det(core), where sigma
    sends each peeled row to its pivot column and the k-th live row to the
    k-th live column.
    """
    rows, cols, vals = arrays
    arrays.clear()
    perm = np.empty(n, dtype=np.int32)
    dead_row = np.zeros(n, dtype=bool)
    dead_col = np.zeros(n, dtype=bool)
    product = 1
    peeled = 0
    while True:
        single = []
        for index in (rows, cols):
            count = _line_counts(index, n)
            # Only live lines hold entries, so an empty live line shows as
            # a missing nonzero count.
            if np.count_nonzero(count) < n - peeled:
                return 0
            single.append(count == 1)
            del count
        del index
        pivot = _gather(single[0], rows)
        pivot |= _gather(single[1], cols)
        if not pivot.any():
            break
        pr, pc = _gather(rows, pivot), _gather(cols, pivot)
        peeled += len(pr)
        dead_row[pr] = True
        dead_col[pc] = True
        if np.count_nonzero(dead_row) < peeled or np.count_nonzero(dead_col) < peeled:
            return 0
        perm[pr] = pc
        pivots = _gather(vals, pivot)
        del pivot, pr, pc
        if np.count_nonzero(pivots == -1) % 2:
            product = -product
        other = (pivots != 1) & (pivots != -1)
        product *= prod(_gather(pivots, other).tolist())
        del pivots, other
        live = _gather(dead_row, rows)
        live |= _gather(dead_col, cols)
        np.logical_not(live, out=live)
        rows = _gather(rows, live)
        cols = _gather(cols, live)
        vals = _gather(vals, live)
        del live

    # The core, renumbered; sigma pairs its rows and columns in order.
    live_rows = np.flatnonzero(~dead_row)
    live_cols = np.flatnonzero(~dead_col)
    perm[live_rows] = live_cols
    core = _int_rows(np.searchsorted(live_rows, rows), np.searchsorted(live_cols, cols),
                     vals)
    m = len(live_rows)
    _, core_det = _eliminate(core, m, m, want_det=True)
    return _array_permutation_sign(perm) * product * core_det


def _rank_rows(rows: IntRows, nrows: int, ncols: int) -> int:
    """Rank of an nrows x ncols matrix in the integer row form; consumes
    ``rows``."""
    rank, _ = _eliminate(rows, nrows, ncols, want_det=False)
    return rank


def rank_exact(matrix: ExactMatrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    rows, cols, vals, _ = _matrix_coords(matrix)
    return _rank_rows(_int_rows(rows, cols, vals), matrix.rows, matrix.cols)


def det_bareiss(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    return det_exact(matrix, backend="bareiss")


# --- multimodular backend ---------------------------------------------------

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


@cache
def _prime_below(m: int) -> int:
    """The largest prime below m, by trial division; m lies far above
    every small prime.  A pure function, so its cache needs no lock: two
    threads that miss at once compute the same value."""
    candidate = (m - 2) | 1
    while not all(candidate % p for p in _small_primes()):
        candidate -= 2
    return candidate


def _descending_primes() -> Iterator[int]:
    """The primes below _PRIME_CEILING, largest first."""
    q = _PRIME_CEILING
    while True:
        q = _prime_below(q)
        yield q


def modular_primes(count: int) -> list[int]:
    """The first ``count`` primes descending from just below 2**31."""
    return list(islice(_descending_primes(), count))


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
    index = np.array(list(int_entries), dtype=np.intp).reshape(-1, 2)
    vals = np.array(list(int_entries.values()), dtype=object)
    return _hadamard(index[:, 0], index[:, 1], vals, n)[0]


def _hadamard(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
              n: int) -> tuple[int, list[int]]:
    """The Hadamard bound on |det| of the n x n integer matrix with nonzeros
    ``vals`` at (rows, cols), the smaller of its row and column forms, and
    the squared column norms, all in Python ints; the bound is 0 when a row
    or column is empty."""
    row_sq = [0] * n
    col_sq = [0] * n
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        vv = v * v
        row_sq[i] += vv
        col_sq[j] += vv
    b2 = min(prod(row_sq), prod(col_sq))
    return (isqrt(b2) + 1 if b2 else 0), col_sq


def _float_det_bound(a: np.ndarray) -> int | None:
    """A power of two bounding |det A| for the square int64 array A, whose
    entries the caller keeps below 2**52 in magnitude, certified by
    rounding-error analysis; None when a diagonal entry of R is 0, ``inv``
    raises, or an intermediate is not finite.  Near-orthogonal columns
    make it about 1 bit above |det|, where the Hadamard bound of A may be
    100 or more.

    R is the factor of A = QR in float64.  Z is R^-1 diag(R), computed,
    then forced to be unit upper triangular: zero below the diagonal and
    exactly 1.0 on it.  Whatever the rounding, Z is then a matrix of reals
    with det Z = 1, so det A = det(AZ), and AZ is close to Q diag(R),
    whose columns are orthogonal.  Hadamard's inequality on the columns
    gives |det A| <= prod_j ||col_j(AZ)||_2; the rest bounds AZ entrywise.

    Assumptions: IEEE binary64 with round-to-nearest, unit roundoff
    u = 2**-53, and a conventional matrix product (each entry a sum of n
    products in some order, with or without fused multiply-add; no
    Strassen-like scheme).  A is exact in float64 since its entries are
    integers below 2**52.  The computed G = fl(AZ) then satisfies
    |G - AZ| <= gamma_n |A||Z| + eta entrywise, gamma_n = nu / (1 - nu)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.5), and eta covers underflow.  Entries of Z below 2**-900
    are set to 0 first, so no product of an entry of |A| and one of |Z|
    underflows, and a sum that does errs by less than 2**-1022, even when
    flushed to zero: eta = n 2**-1022 is enough.  |A| and |Z| are exact,
    their terms are nonnegative, and fl(|A||Z|) >= (1 - gamma_n) |A||Z|
    - eta, so
        |G - AZ| <= gamma_n / (1 - gamma_n) fl(|A||Z|) + n 2**-1000 = E.
    The constant is raised by a factor 1 + 2**-40 so that the three
    roundings in forming E (the constant, the product and the sum), each
    a relative 1 + u, cannot take it below the true value.  Hence
    |AZ| <= |G| + E entrywise and
        |det A| <= prod_j ||col_j(|G| + E)||_2.
    Forming |G| + E, the squares, their sum and the square root changes
    each computed norm by a relative (n + 4) u at most; log2 adds a few
    ulp of a value below 2**11, and ``math.fsum`` adds a relative u to
    the total.  For n < 2**20, which any n x n float64 array in memory
    satisfies, all of that moves the sum of the log2 norms by less than
    2**-10, and a margin of one bit covers it.  A norm below 2**-400 gives
    None, so that no square is lost to underflow.
    """
    n = len(a)
    a = a.astype(np.float64)
    with np.errstate(all="ignore"):
        r = np.linalg.qr(a, mode="r")
        diag = r.diagonal().copy()
        if not diag.all():
            return None
        try:
            z = np.linalg.inv(r)
        except np.linalg.LinAlgError:
            return None
        del r
        z *= diag
        z = np.triu(z)
        z[np.abs(z) < 2.0 ** -900] = 0.0
        np.fill_diagonal(z, 1.0)
        g = np.matmul(a, z)
        unit = 2.0 ** -53
        gamma = n * unit / (1 - n * unit)
        np.abs(a, out=a)
        np.abs(z, out=z)
        err = np.matmul(a, z)
        del a, z
        err *= gamma / (1 - gamma) * (1 + 2.0 ** -40)
        err += n * 2.0 ** -1000
        np.abs(g, out=g)
        g += err
        del err
        norms = np.linalg.norm(g, axis=0)
        if not (np.isfinite(norms).all() and (norms >= 2.0 ** -400).all()):
            return None
        log_det = fsum(np.log2(norms).tolist())
    return 1 << max(0, ceil(log_det + 1))


def _residue_mod_p(a: np.ndarray, q: int) -> int:
    """det mod q of the square int64 array ``a``."""
    return det_mod_p(a % q, q)


def det_multimodular(matrix: ExactMatrix, threads: int = 1) -> Fraction:
    """Exact determinant by CRT over 31-bit primes, sized by a certified
    bound on |det|.

    The bound B is the smaller of the Hadamard bound and the floating-point
    bound of ``_float_det_bound``, which lies a bit or two above |det| on
    well-conditioned matrices.  Rows and columns are taken in reverse
    order, which keeps fill-in late on the insertion systems.  A divisor s
    of det is lifted first: A x = b is solved p-adically modulo the
    lifting prime, s is the lcm of the denominators of x, found component
    by component from s = 1, and it is certified exactly (A y = s b with
    y = s x, then s / gcd(s, y)).
    CRT then reconstructs det / s: the batch is the shortest run of primes
    not dividing s whose product, times the lifting prime, exceeds
    2 ceil(B / s), plus one safety prime, and each residue is multiplied
    by s^-1.  The float bound, the lift and every residue read one dense
    int64 array of the system in that order, built once; with an entry of
    2**63 or more, only the residues run, and each prime refills the array
    with the nonzeros mod q.  When the matrix is
    singular modulo the lifting prime, an int64 or float64 bound of the
    lift fails, or the certificate fails, s = 1 and the batch is the plain
    one.  A mismatch between the safety residue and the reconstructed
    value raises ReconstructionError.
    """
    _check_threads(threads)
    return det_exact(matrix, backend="multimodular")


def _crt_primes(target: int, s: int, modulus: int) -> tuple[list[int], int]:
    """The shortest prefix of ``modular_primes``, skipping the divisors of
    s, whose product times ``modulus`` exceeds ``target``, and the next
    such prime, the safety prime."""
    primes = (q for q in _descending_primes() if s % q)
    base: list[int] = []
    while modulus <= target:
        base.append(next(primes))
        modulus *= base[-1]
    return base, next(primes)


def _rational_reconstruction(u: int, m: int, num_bound: int,
                             den_bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b * u (mod m), |a| <= num_bound and
    0 < b <= den_bound, or None; unique when m > 2 * num_bound * den_bound
    (Wang's half extended Euclid)."""
    r0, r1 = m, u % m
    t0, t1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if not 0 < t1 <= den_bound:
        return None
    return r1, t1


def _exact_product(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v in int64, for a float64 array m of integers and an int64 vector
    v of nonnegative entries.  The product runs in float64 on the low 13
    bits of v and on the rest: it is exact while n * max|m| * max(2**13,
    max(v) / 2**13) < 2**53, since every partial sum of integer terms is
    then an integer of magnitude below 2**53, whatever the order of
    summation."""
    halves = np.empty((len(v), 2))
    halves[:, 0] = v & 8191
    halves[:, 1] = v >> 13
    low, high = (m @ halves).T
    return low.astype(np.int64) + (high.astype(np.int64) << 13)


def _join_digits(digits: np.ndarray, p: int) -> np.ndarray:
    """The object array sum_i digits[i] * p**i of a k x n int64 array of
    digits in [0, p), p * p < 2**63: pairs in int64, then halving levels,
    each combining neighbours of equal size."""
    if len(digits) % 2:
        digits = np.concatenate((digits, np.zeros((1, digits.shape[1]), dtype=np.int64)))
    level = (digits[0::2] + digits[1::2] * p).astype(object)
    scale = p * p
    while len(level) > 1:
        if len(level) % 2:
            level = np.concatenate((level, np.zeros((1, level.shape[1]), dtype=object)))
        level = level[0::2] + level[1::2] * scale
        scale *= scale
    return level[0]


def _lift_divisor(a: np.ndarray, amax: int,
                  coords: tuple[np.ndarray, np.ndarray, np.ndarray], bound: int,
                  p: int, col_sq: list[int]) -> tuple[int, int] | None:
    """(s, det mod p) for a divisor s of the determinant of the square
    integer array A = ``a``, with max|a| = ``amax``, nonzeros ``coords``
    and squared column norms ``col_sq``, in any order, certified exactly;
    None when A is singular mod p, an int64 or float64 bound would not
    hold, or the certificate fails.

    Dixon's p-adic lifting solves A x = b for a fixed b of small
    integers: with C = A^-1 mod p and r_0 = b, each digit is
    x_i = C r_i mod p and r_(i+1) = (r_i - A x_i) / p, exactly, so the
    residual stays below |b| + n * max|a| * p and the digits form one
    k x n int64 array.  Both products of a step run in float64 on 13-bit
    halves (``_exact_product``).  By Cramer's rule x_j = det(A_j) / det(A),
    A_j being A with column j replaced by b, so |det(A_j)| <= N, the
    column Hadamard bound of the worst A_j, and det(A) <= ``bound``.

    s is found by one rule, from s = 1: y = s x is read modulo
    p**k2 > 2 N p**2, centred, and a component of magnitude above N has a
    denominator left over, which is reconstructed from s x_j modulo p**k
    and multiplied into s.  The lift runs until p**k exceeds
    2 N ``bound``, so each reconstruction is unique.  The two spare digits
    make a component with a denominator left over land in [-N, N] with
    probability about p**-2; the certificate then rejects it.  Reading y
    modulo p**k instead, about twice as many digits, made
    det-auto-rational 9% slower (``wall_norm_s``, 4 alternating pairs of
    ``perfbench/run.py`` on 2 cores).

    The certificate is exact: A y = s b is checked in Python ints, and s is
    divided by gcd(s, y_1, ..., y_n).  Then x = A^-1 b = y / s in lowest
    terms, so s is the lcm of the denominators of A^-1 b, each of which
    divides det(A) by Cramer's rule.
    """
    rows, cols, vals = coords
    n = len(a)
    # b: integers in [-8, 8] from a multiplicative hash of the row index,
    # so that no row structure of the system repeats in it.
    rhs = [(i + 1) * 2654435761 % 2 ** 32 % 17 - 8 for i in range(n)]
    # ``inverse_mod_p`` needs n * p * p < 2**63; r_i - A x_i stays below
    # max|b| + n * max|a| * p; the float64 products need the bound of
    # ``_exact_product`` for C (entries below p) and for A.
    if (n * p * p >= 1 << 63 or 8 + n * amax * p >= 1 << 63
            or n * max(amax, p) * max(1 << 13, p >> 13) >= 1 << 53):
        return None
    inverse = a % p
    det_p = inverse_mod_p(inverse, p)
    if not det_p:
        return None

    num_bound = isqrt(sum(v * v for v in rhs) * prod(col_sq) // min(col_sq)) + 1
    limit = 2 * num_bound * bound
    modulus, k = p, 1
    while modulus <= limit:
        modulus *= p
        k += 1

    a, inverse = a.astype(np.float64), inverse.astype(np.float64)
    digits = np.empty((k, n), dtype=np.int64)
    residual = np.array(rhs, dtype=np.int64)
    for i in range(k):
        x = _exact_product(inverse, residual % p)
        x %= p
        digits[i] = x
        residual -= _exact_product(a, x)
        residual //= p
    del a, inverse, residual

    s, short, k2 = 1, p, 1
    while short <= 2 * num_bound * p * p and k2 < k:
        short *= p
        k2 += 1
    x = _join_digits(digits[:k2], p)
    half = short // 2
    y = (x + half) % short - half
    j = -1
    while True:
        left = (abs(y[j + 1:]) > num_bound).nonzero()[0]
        if not left.size:
            break
        j += 1 + int(left[0])
        xj = 0
        for d in digits[::-1, j].tolist():
            xj = xj * p + d
        found = _rational_reconstruction(s * xj % modulus, modulus, num_bound, bound)
        if found is None:
            return None
        s *= found[1]
        y = (y * found[1] + half) % short - half
    del digits

    # On the nonzeros: the dense array would cost n * n Python products.
    lhs = np.zeros(n, dtype=object)
    np.add.at(lhs, rows, vals * y[cols])
    if (lhs != np.array(rhs, dtype=object) * s).any():
        return None
    return s // gcd(s, *y.tolist()), det_p


def _pivot_order(n: int) -> np.ndarray:
    """pos: the multimodular kernels see row i and column i of an n x n
    system at row pos[i] and column pos[i].

    Reverse dictionary order keeps fill-in late on the insertion
    systems, so the kernels' zero-factor row skip holds for more steps.
    One CRT residue and the lifting prime's inverse, on one core: the nine
    det-auto-rational tensors 0.19 -> 0.14 s, (2, 12) 0.060 -> 0.041 s,
    (3, 5) 0.27 -> 0.16 s and (4, 3) 0.32 -> 0.20 s; the 70 rows of
    (4, 2) gain nothing.  A greedy Markowitz order on the symbolic pattern
    took the nine to 0.11 s, but finding it in Python took 0.05-0.09 s.
    """
    return np.arange(n - 1, -1, -1)


def _multimodular(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> int:
    """det of the n x n integer matrix with nonzeros ``vals`` at (rows,
    cols), by CRT (see det_multimodular)."""
    bound, col_sq = _hadamard(rows, cols, vals, n)
    if bound == 0:
        return 0

    # The bound, the lift and every residue read one dense array of
    # P A P^T, P the permutation of ``_pivot_order``, and
    # det(P A P^T) = det A.  max|a| is a Python int, so that no bound is
    # taken in numpy integers.
    pos = _pivot_order(n)
    rows, cols = pos[rows], pos[cols]
    amax = int(abs(vals).max())
    # From 2**63 on there is no float bound and no lift, and each prime
    # writes the nonzeros mod q into the array: an object array would cost
    # n * n Python remainders a prime.
    big = amax >= 1 << 63
    a = np.zeros((n, n), dtype=np.int64)
    if not big:
        a[rows, cols] = vals
    # float64 holds every entry exactly below 2**52.
    if amax < 1 << 52:
        bound = min(bound, _float_det_bound(a) or bound)

    # t = det / s is reconstructed, ``known`` holding its residue mod the
    # lifting prime; when the lift fails, s = 1 and nothing is known: plain
    # CRT.
    p = _LIFT_PRIME
    lifted = None if big else _lift_divisor(a, amax, (rows, cols, vals), bound, p, col_sq)
    s, known = 1, {}
    if lifted is not None:
        s, det_p = lifted
        known[p] = det_p * pow(s, -1, p) % p
    base, safety = _crt_primes(2 * -(-bound // s), s, prod(known))

    residues = []
    for q in base + [safety]:
        if big:
            a[rows, cols] = vals % q
        residues.append(_residue_mod_p(a, q) * pow(s, -1, q) % q)

    moduli = [*known, *base]
    x = crt_combine([*known.values(), *residues[:-1]], moduli)
    modulus = prod(moduli)
    if x > modulus // 2:
        x -= modulus
    if x % safety != residues[-1]:
        raise ReconstructionError(
            f"safety prime {safety} disagrees with reconstruction")
    return x * s


def _pick_backend(backend: str, nnz: int, n: int) -> str:
    """The backend that runs for ``backend`` on an n x n matrix with ``nnz``
    nonzeros; the one place that decides it.  "auto" takes the multimodular
    backend above 7 nonzeros per row on average, and fraction-free
    elimination otherwise.  Raises ValueError on an unknown name."""
    if backend == "auto":
        return "multimodular" if nnz > _DENSE_NNZ_PER_ROW * n else "bareiss"
    if backend not in ("bareiss", "multimodular"):
        raise ValueError(f"unknown backend {backend!r}")
    return backend


def _det_coords(arrays: list[np.ndarray], n: int, divisor: int = 1,
                backend: str = "auto") -> Fraction:
    """det / divisor of the n x n integer matrix with nonzeros ``vals`` at
    (rows, cols), each position at most once, given as the list ``arrays``
    = [rows, cols, vals]: the one entry of every determinant, and the one
    place that picks its eliminator.  For the backend of
    :func:`_pick_backend`, "multimodular" takes the arrays as they are;
    "bareiss" runs the wave peel of :func:`_peel_det` above ``_PEEL_NNZ``
    nonzeros, and ``_eliminate`` on their integer rows otherwise.  The
    peel empties the list, so a caller that keeps no other reference lets
    it free each array once compacted.

    The callers pass: ``basis_det`` and ``witness_det`` int32 rows and
    columns and int8 values; ``tensor_det`` intp rows, int32 columns and
    int64 values; ``det_exact`` intp indices and int64 values.  Both take
    Python ints in an object array instead when a value does not fit int64
    (see ``_exact_values``)."""
    nnz = len(arrays[2])
    backend = _pick_backend(backend, nnz, n)
    if n == 0:
        return Fraction(1)
    if backend == "multimodular":
        det = _multimodular(*arrays, n)
    elif nnz > _PEEL_NNZ:
        det = _peel_det(arrays, n)
    else:
        _, det = _eliminate(_int_rows(*arrays), n, n, want_det=True)
    return Fraction(det, divisor)


def _check_threads(threads: int) -> None:
    """The one check of the keyword that five public calls keep while
    ``perfbench`` passes it: the CRT residues run in one loop, so 1 is
    accepted and any other value raises ValueError."""
    if threads != 1:
        raise ValueError(f"threads={threads!r}: the threads option was removed; "
                         "only threads=1 is accepted")


def det_exact(matrix: ExactMatrix, backend: str = "auto", threads: int = 1) -> Fraction:
    """Determinant of a square matrix, with the backend chosen by ``_det_coords``."""
    _check_threads(threads)
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant of non-square {matrix!r}")
    *arrays, divisor = _matrix_coords(matrix)
    return _det_coords(arrays, matrix.rows, divisor, backend)

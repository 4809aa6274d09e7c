"""Modular elimination kernels: the inner loops of the multimodular backend.

Reduction is delayed (Dumas, Giorgi and Pernet, ISSAC 2004): each
elimination step reduces only the pivot column and the pivot row it reads.
In ``det_mod_p`` the trailing block is reduced only once every
``_LAZY_UPDATES`` steps, the count that an int64 overflow bound allows for
moduli below 2**31, and then only in the rows an update changed since the
last reduction.  ``inverse_mod_p`` is meant for one small modulus, the
lifting prime of the multimodular backend, with which no block reduction is
needed at all.  Both kernels update only the rows with a nonzero factor
while those are few, so they gain from the fill-reducing order in which
the multimodular backend hands them a system.
"""

from __future__ import annotations

import numpy as np

#: Name of the kernel implementation, recorded in benchmark reports.
KERNEL_BACKEND = "python"

# Moduli lie below this, so that the overflow bound below holds.
_PRIME_CEILING = 1 << 31

# Rank-one updates the trailing block absorbs between two reductions.  The
# factors and the pivot row are centred residues, of magnitude at most
# p // 2 < 2**30 for p < 2**31, so one update changes an entry by less than
# 2**60.  A reduced entry has magnitude below 2**31, and
# 2**31 + 7 * 2**60 < 2**63.  Centring adds p // 2 to a pivot-row entry
# with at most 6 updates pending, which stays below 2**63 as well.
_LAZY_UPDATES = 7


def det_mod_p(a: np.ndarray, p: int) -> int:
    """Determinant mod p of a square int64 array with entries in [0, p).

    Requires 2 <= p < 2**31.  The array is consumed: it is used as scratch
    space.

    Invariant: at the start of step k every entry of the trailing block
    ``a[k:, k:]`` is congruent mod p to the entry an eagerly reduced
    elimination would hold, and has been changed by at most
    ``_LAZY_UPDATES - 1`` updates since it last had magnitude below 2**31,
    so no update can overflow int64.  Once ``_LAZY_UPDATES`` steps have
    passed, ``np.fmod`` brings back to magnitude below 2**31 every row an
    update changed since the last reduction; ``touched`` flags those rows
    and moves with them when rows are swapped.  The pivot column is
    reduced to [0, p) before the pivot search, so the pivot and the
    determinant are exact residues.
    """
    if not 2 <= p < _PRIME_CEILING:
        raise ValueError(f"modulus {p} outside [2, 2**31)")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    half = p // 2
    det = 1
    pending = 0
    sparse = True
    touched = np.zeros(n, dtype=bool)
    for k in range(n):
        col = a[k:, k]
        col %= p
        if not col[0]:
            nz = col.nonzero()[0]
            if nz.size == 0:
                return 0
            i = k + int(nz[0])
            a[[k, i], k:] = a[[i, k], k:]
            touched[[k, i]] = touched[[i, k]]
            det = p - det
        piv = int(a[k, k])
        det = det * piv % p
        if k + 1 == n:
            break
        # Centred residues in [-half, p - 1 - half].
        factors = (a[k + 1:, k] * pow(piv, -1, p) + half) % p - half
        row = (a[k, k + 1:] + half) % p - half
        block = a[k + 1:, k + 1:]
        # As in ``inverse_mod_p``: only the rows with a nonzero factor,
        # while they are fewer than half.  Fill-in makes the trailing block
        # denser as elimination goes on, so after the first step with at
        # least half the factors nonzero the count is no longer taken.
        if sparse and 2 * np.count_nonzero(factors) < len(factors):
            live = factors.nonzero()[0]
            block[live] -= factors[live, None] * row[None, :]
            touched[k + 1 + live] = True
        else:
            sparse = False
            block -= factors[:, None] * row[None, :]
        pending += 1
        if pending == _LAZY_UPDATES:
            # Sparse steps change few rows: reducing only those took one
            # prime on the (6, 2) witness system (924 rows) from 0.26 s to
            # 0.09 s in dictionary order, and to 0.06 s reversed.  From half
            # the rows on, the whole block in place costs about as much or
            # less (220 x 220: 130 against 206 us at one half, 331 against
            # 204 us at three quarters).
            changed = touched[k + 1:].nonzero()[0]
            if sparse and 2 * len(changed) < len(block):
                block[changed] = np.fmod(block[changed], p)
            else:
                np.fmod(block, p, out=block)
            touched[:] = False
            pending = 0
    return det


def inverse_mod_p(a: np.ndarray, p: int) -> int:
    """Invert a square int64 array with entries in [0, p) modulo the prime
    p, in place, by Gauss-Jordan elimination; returns det mod p.

    Returns 0 when the array is singular mod p, and then leaves it as
    scratch.  Requires n * p * p < 2**63: every step reduces the pivot
    column and the pivot row to centred residues, of magnitude at most
    p // 2, so each of the n rank-one updates an entry receives changes it
    by at most p * p / 4, and the entries never need another reduction
    before the last step.  Rows are swapped whole to find a pivot; the
    columns of the inverse are swapped back in reverse order at the end.
    """
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    if n * p * p >= 1 << 63:
        raise ValueError(f"modulus {p} too large for a {n} x {n} inverse")
    half = p // 2
    det = 1
    swaps = []
    for k in range(n):
        factors = a[:, k] % p
        if not factors[k]:
            nz = factors[k:].nonzero()[0]
            if nz.size == 0:
                return 0
            i = k + int(nz[0])
            a[[k, i]] = a[[i, k]]
            factors[[k, i]] = factors[[i, k]]
            swaps.append((k, i))
            det = p - det
        piv = int(factors[k])
        det = det * piv % p
        inv = pow(piv, -1, p)
        factors += half
        factors %= p
        factors -= half
        factors[k] = 0
        a[:, k] = 0
        # The pivot row, scaled by 1 / pivot; its pivot entry becomes the
        # inverse's, and every other row takes -factor / pivot there.
        row = a[k]
        row %= p
        row *= inv
        row[k] = inv
        row += half
        row %= p
        row -= half
        # Sparse systems keep most factors zero for many steps: updating
        # only the rows that need it made the inverse of the (6, 2) witness
        # system (924 rows) 9x faster, 0.20 s against 1.71 s.
        live = factors.nonzero()[0]
        if 2 * len(live) < n:
            a[live] -= factors[live, None] * row[None, :]
        else:
            a -= factors[:, None] * row[None, :]
    a %= p
    for k, i in reversed(swaps):
        a[:, [k, i]] = a[:, [i, k]]
    return det

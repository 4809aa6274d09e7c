"""Modular elimination kernel: the inner loop of the multimodular backend.

Reduction is delayed (Dumas, Giorgi and Pernet, ISSAC 2004): each
elimination step reduces only the pivot column and the pivot row it reads,
and the trailing block is reduced only once every ``_LAZY_UPDATES`` steps,
the count that an int64 overflow bound allows for moduli below 2**31.
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
    so no update can overflow int64.  The block is brought back to
    magnitude below 2**31 with ``np.fmod`` once ``_LAZY_UPDATES`` updates
    have accumulated; the pivot column is reduced to [0, p) before the
    pivot search, so the pivot and the determinant are exact residues.
    """
    if not 2 <= p < _PRIME_CEILING:
        raise ValueError(f"modulus {p} outside [2, 2**31)")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    half = p // 2
    det = 1
    pending = 0
    for k in range(n):
        col = a[k:, k]
        col %= p
        if not col[0]:
            nz = col.nonzero()[0]
            if nz.size == 0:
                return 0
            i = k + int(nz[0])
            a[[k, i], k:] = a[[i, k], k:]
            det = p - det
        piv = int(a[k, k])
        det = det * piv % p
        if k + 1 == n:
            break
        # Centred residues in [-half, p - 1 - half].
        factors = (a[k + 1:, k] * pow(piv, -1, p) + half) % p - half
        row = (a[k, k + 1:] + half) % p - half
        block = a[k + 1:, k + 1:]
        block -= factors[:, None] * row[None, :]
        pending += 1
        if pending == _LAZY_UPDATES:
            np.fmod(block, p, out=block)
            pending = 0
    return det

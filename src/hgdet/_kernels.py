"""Modular elimination kernel: the inner loop of the multimodular backend."""

from __future__ import annotations

import numpy as np

#: Name of the kernel implementation, recorded in benchmark reports.
KERNEL_BACKEND = "python"


def det_mod_p(a: np.ndarray, p: int) -> int:
    """Determinant mod p of a square int64 array with entries in [0, p).

    Requires p < 2**31 so that products of two residues fit in int64.
    The array is consumed: it is used as scratch space.
    """
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    det = 1
    for k in range(n):
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return 0
        i = k + int(nz[0])
        if i != k:
            a[[k, i]] = a[[i, k]]
            det = p - det
        piv = int(a[k, k])
        det = det * piv % p
        if k + 1 == n:
            break
        inv = pow(piv, -1, p)
        factors = a[k + 1:, k] * inv % p
        block = a[k + 1:, k:]
        block -= factors[:, None] * a[k, k:][None, :]
        block %= p
    return det

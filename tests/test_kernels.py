"""The numpy modular elimination kernel against a Laplace-expansion oracle."""

import random

import numpy as np
import pytest

from hgdet._kernels import KERNEL_BACKEND, det_mod_p
from hgdet.exactla import modular_primes

P = modular_primes(1)[0]


def reference_det_mod_p(rows, p):
    """Laplace expansion reduced mod p."""
    n = len(rows)
    if n == 0:
        return 1 % p
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * reference_det_mod_p(minor, p)
    return total % p


def test_fallback_matches_reference():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randrange(P) if rng.random() < 0.8 else 0
                 for _ in range(n)] for _ in range(n)]
        expected = reference_det_mod_p(rows, P)
        got = det_mod_p(np.array(rows, dtype=np.int64), P)
        assert got == expected


def test_fallback_singular_and_shape_checks():
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert det_mod_p(a, P) == 0
    with pytest.raises(ValueError):
        det_mod_p(np.zeros((2, 3), dtype=np.int64), P)


def test_backend_name_is_reported():
    assert KERNEL_BACKEND == "python"

"""The numpy modular elimination kernel against Laplace-expansion and
fraction-free oracles."""

import random

import numpy as np
import pytest

from hgdet import exactla
from hgdet._kernels import KERNEL_BACKEND, det_mod_p, inverse_mod_p
from hgdet.exactla import ExactMatrix, det_bareiss, modular_primes

P = modular_primes(1)[0]
LARGEST_PRIMES = modular_primes(2)


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


# --- lazy reduction: n large enough for several block reductions -----------

def oracle_det_mod_p(rows, p):
    """Fraction-free determinant of the integer matrix, reduced mod p."""
    return int(det_bareiss(ExactMatrix.from_rows(rows))) % p


def kernel_det(rows, p):
    return det_mod_p(np.array(rows, dtype=np.int64), p)


def lu_product(lower, upper, p):
    """L * U mod p for a unit lower triangular L given by its strict part."""
    n = len(upper)
    return [[(upper[i][j] + sum(lower[i][k] * upper[k][j] for k in range(min(i, j + 1))))
             % p for j in range(n)] for i in range(n)]


def extreme_lu(n, p, rng, factor=None, right=None):
    """L and U whose product an eager elimination factors back with every
    factor ``factor`` and every pivot-row entry right of the pivot
    ``right``; the pivots are random nonzero residues.

    The default, p // 2 and p - p // 2, makes each centred update add
    (p // 2)**2, close to 2**60, to every entry of the trailing block,
    always with the same sign.  A residue p - 1 centres to -1, and would
    make an update near 2**61 if it were not centred."""
    half = p // 2
    factor = half if factor is None else factor
    right = p - half if right is None else right
    lower = [[factor] * i for i in range(n)]
    upper = [[0] * i + [rng.randrange(1, p)] + [right] * (n - i - 1)
             for i in range(n)]
    return lower, upper


def diagonal_product(upper, p):
    product = 1
    for i, row in enumerate(upper):
        product = product * row[i] % p
    return product


@pytest.mark.parametrize("p", LARGEST_PRIMES)
def test_lazy_full_range_residues(p):
    rng = random.Random(p)
    for n in (9, 15, 22, 31, 40):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        assert kernel_det(rows, p) == oracle_det_mod_p(rows, p)


@pytest.mark.parametrize("p", LARGEST_PRIMES)
def test_lazy_adversarial_residues(p):
    rng = random.Random(p + 1)
    half = p // 2
    extremes = (p - 1, half - 1, half, half + 1, half + 2, 1)
    for n in (9, 16, 29, 40):
        rows = [[rng.choice(extremes) for _ in range(n)] for _ in range(n)]
        assert kernel_det(rows, p) == oracle_det_mod_p(rows, p)
    for n, factor, right in ((9, half, p - half), (24, half, p - half),
                             (40, half, p - half), (24, p - 1, p - half),
                             (24, half, p - 1)):
        lower, upper = extreme_lu(n, p, rng, factor, right)
        rows = lu_product(lower, upper, p)
        expected = diagonal_product(upper, p)
        assert oracle_det_mod_p(rows, p) == expected
        assert kernel_det(rows, p) == expected


@pytest.mark.parametrize("p", LARGEST_PRIMES)
def test_lazy_zero_pivot_forces_late_row_swap(p):
    rng = random.Random(p + 2)
    for n, k in ((12, 8), (25, 8), (40, 19)):
        lower, upper = extreme_lu(n, p, rng)
        lower[n - 1][k] = 0
        rows = lu_product(lower, upper, p)
        # Once rows k and n - 1 are exchanged, step k (after k >= 7 lazy
        # updates) meets a zero pivot and must swap rows.
        rows[k], rows[n - 1] = rows[n - 1], rows[k]
        expected = -diagonal_product(upper, p) % p
        assert oracle_det_mod_p(rows, p) == expected
        assert kernel_det(rows, p) == expected


@pytest.mark.parametrize("p", LARGEST_PRIMES)
def test_lazy_singular_only_at_the_last_steps(p):
    rng = random.Random(p + 3)
    for n in (10, 23, 40):
        lower, upper = extreme_lu(n, p, rng)
        upper[n - 1][n - 1] = 0
        rows = lu_product(lower, upper, p)
        assert oracle_det_mod_p(rows, p) == 0
        assert kernel_det(rows, p) == 0
        # The last row a combination of two others: full rank up to the
        # final step.
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        c = rng.randrange(1, p)
        rows.append([(x + c * y) % p for x, y in zip(rows[0], rows[n - 2])])
        assert oracle_det_mod_p(rows, p) == 0
        assert kernel_det(rows, p) == 0


@pytest.mark.parametrize("p", LARGEST_PRIMES)
def test_sparse_steps_update_only_the_rows_they_meet(p):
    """Columns with fewer than half their factors nonzero update only those
    rows: a permuted tridiagonal matrix of extreme residues, alone and with
    dense last rows, so that sparse steps under lazy reduction come before
    dense ones."""
    rng = random.Random(p + 5)
    half = p // 2
    extremes = (p - 1, half, half + 1, 1)
    for n in (20, 40):
        band = [[rng.choice(extremes) if abs(i - j) <= 1 else 0
                 for j in range(n)] for i in range(n)]
        tail = band[:n - 8] + [[rng.randrange(p) for _ in range(n)]
                               for _ in range(8)]
        for rows in (band, tail):
            rng.shuffle(rows)
            assert kernel_det(rows, p) == oracle_det_mod_p(rows, p)


@pytest.mark.parametrize("p", LARGEST_PRIMES)
def test_swap_moves_a_touched_row_before_a_reduction(p):
    """Step 6, the last before a reduction, swaps a row that sparse steps
    0-5 updated into the slot of a row no step has touched.  L has factors
    only in its last row, at every step but 6, and each adds about 2**60
    of the same sign to that row; were it left unreduced at step 6, the
    updates of steps 7-13 would overflow int64."""
    rng = random.Random(p + 8)
    n, k = 24, 6
    lower, upper = extreme_lu(n, p, rng)
    for i in range(n - 1):
        lower[i] = [0] * i
    lower[n - 1][k] = 0
    rows = lu_product(lower, upper, p)
    # The updated row moves to slot k; slots k + 1 .. n - 2 hold U's rows,
    # zero in column k, so the pivot search reaches slot n - 1.
    rows[k], rows[n - 1] = rows[n - 1], rows[k]
    expected = -diagonal_product(upper, p) % p
    assert oracle_det_mod_p(rows, p) == expected
    assert kernel_det(rows, p) == expected


def test_modulus_outside_range_is_rejected():
    rows = [[1, 1], [0, 1]]
    for p in (1, 1 << 31):
        with pytest.raises(ValueError):
            kernel_det(rows, p)
    rng = random.Random(4)
    rows = [[rng.randrange(2) for _ in range(12)] for _ in range(12)]
    for p in (2, (1 << 31) - 1):
        assert kernel_det(rows, p) == oracle_det_mod_p(rows, p)


# --- modular inverse: the lifting prime's Gauss-Jordan kernel ---------------

LIFT_PRIMES = (exactla._LIFT_PRIME, 1009)


def check_inverse(rows, p):
    """inverse_mod_p of ``rows`` is a two-sided inverse mod p, and its
    determinant is the oracle's."""
    a = np.array(rows, dtype=np.int64) % p
    inverse = a.copy()
    det = inverse_mod_p(inverse, p)
    assert det == oracle_det_mod_p(rows, p)
    if det:
        assert ((inverse >= 0) & (inverse < p)).all()
        eye = np.eye(len(rows), dtype=np.int64)
        assert ((a @ inverse) % p == eye).all()
        assert ((inverse @ a) % p == eye).all()
    return det


@pytest.mark.parametrize("p", LIFT_PRIMES)
def test_inverse_dense_and_sparse(p):
    """Dense rows take the full rank-one update, sparse ones the update of
    the rows with a nonzero factor; both need row swaps."""
    rng = random.Random(p + 5)
    for n in (1, 2, 5, 17, 40):
        for fill in (1.0, 0.5, 0.1):
            rows = [[rng.randrange(p) if rng.random() < fill else 0 for _ in range(n)]
                    for _ in range(n)]
            for i in range(n):
                rows[i][rng.randrange(n)] = rng.randrange(1, p)
            check_inverse(rows, p)


@pytest.mark.parametrize("p", LIFT_PRIMES)
def test_inverse_permuted_triangular_needs_late_swaps(p):
    """A permuted triangular matrix meets a zero pivot at almost every
    step, so nearly every step swaps rows."""
    rng = random.Random(p + 6)
    for n in (6, 20, 45):
        upper = [[0] * i + [rng.randrange(1, p)]
                 + [rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(n - i - 1)]
                 for i in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        assert check_inverse([upper[i] for i in order], p) != 0


@pytest.mark.parametrize("p", LIFT_PRIMES)
def test_inverse_singular(p):
    rng = random.Random(p + 7)
    for n in (2, 9, 30):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        c = rng.randrange(1, p)
        rows.insert(rng.randrange(n), [(x + c * y) % p for x, y in zip(rows[0], rows[-1])])
        assert check_inverse(rows, p) == 0
    with pytest.raises(ValueError):
        inverse_mod_p(np.zeros((2, 3), dtype=np.int64), 1009)
    # n * p * p must stay below 2**63.
    with pytest.raises(ValueError):
        inverse_mod_p(np.zeros((2, 2), dtype=np.int64), 1 << 31)

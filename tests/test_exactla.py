"""Exact linear algebra: both determinant backends against a cofactor oracle."""

import random
from fractions import Fraction

import pytest

from hgdet import exactla
from hgdet.exactla import (ExactMatrix, ReconstructionError, crt_combine,
                           det_bareiss, det_exact, det_multimodular,
                           hadamard_bound, modular_primes, rank_exact)
from hgdet.determinant import basis_det
from hgdet.system import system_matrix
from hgdet.tensors import canonical_witness, tensor_from_basis


def cofactor_det(rows):
    """Independent reference determinant by Laplace expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def random_dense(n, rng, rational=False):
    if rational:
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
    return [[rng.randint(-4, 4) if rng.random() < 0.8 else 0
             for _ in range(n)] for _ in range(n)]


def test_det_identity_and_zero():
    eye = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert det_bareiss(eye) == 1
    assert det_multimodular(eye) == 1
    assert det_bareiss(ExactMatrix(0, 0)) == 1
    equal_cols = ExactMatrix.from_rows([[2, 2, 5], [1, 1, 3], [7, 7, 2]])
    assert det_bareiss(equal_cols) == 0
    assert det_multimodular(equal_cols) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_bareiss(ExactMatrix(2, 3))
    with pytest.raises(ValueError):
        det_multimodular(ExactMatrix(2, 3))


def test_det_against_cofactor_oracle_integers():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(0, 6)
        rows = random_dense(n, rng)
        expected = cofactor_det(rows)
        m = ExactMatrix.from_rows(rows) if n else ExactMatrix(0, 0)
        assert det_bareiss(m) == expected
        assert det_multimodular(m) == expected


def test_det_against_cofactor_oracle_rationals():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = random_dense(n, rng, rational=True)
        expected = cofactor_det(rows)
        m = ExactMatrix.from_rows(rows)
        assert det_bareiss(m) == expected
        assert det_multimodular(m) == expected


def test_integer_form_bookkeeping():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(2, 5), 1]])
    ints, divisor = m.integer_form()
    assert divisor == 30  # lcm(2,3) * lcm(5,1)
    assert ints == {(0, 0): 3, (0, 1): 2, (1, 0): 2, (1, 1): 5}
    assert det_bareiss(m) == Fraction(3 * 5 - 2 * 2, 30)


def test_rank_basics():
    assert rank_exact(ExactMatrix(4, 7)) == 0
    eye = ExactMatrix(5, 5, {(i, i): 1 for i in range(5)})
    assert rank_exact(eye) == 5
    m = ExactMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
    assert rank_exact(m) == 1


def test_rank_transpose_invariance():
    rng = random.Random(303)
    for _ in range(40):
        n, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0
                 for _ in range(c)] for _ in range(n)]
        m = ExactMatrix.from_rows(rows)
        assert rank_exact(m) == rank_exact(m.transpose())


def test_backends_agree_on_larger_sparse():
    rng = random.Random(404)
    entries = {}
    n = 200
    for i in range(n):
        entries[(i, i)] = rng.choice((-1, 1))
        for _ in range(2):
            entries[(i, rng.randrange(n))] = rng.choice((-1, 1))
    m = ExactMatrix(n, n, entries)
    assert det_bareiss(m) == det_multimodular(m)


def test_multimodular_zero_row_shortcut():
    m = ExactMatrix(3, 3, {(0, 0): 1, (0, 1): 2, (2, 2): 5})
    assert det_multimodular(m) == 0
    assert det_bareiss(m) == 0


def test_multimodular_threads_match():
    rng = random.Random(505)
    rows = random_dense(40, rng)
    m = ExactMatrix.from_rows(rows)
    assert det_multimodular(m, threads=1) == det_multimodular(m, threads=3)


def test_det_exact_dispatch():
    rows = [[3, 1], [4, 2]]
    m = ExactMatrix.from_rows(rows)
    assert det_exact(m, backend="auto") == 2
    assert det_exact(m, backend="bareiss") == 2
    assert det_exact(m, backend="multimodular") == 2
    with pytest.raises(ValueError):
        det_exact(m, backend="gauss")


def test_modular_primes_properties(monkeypatch):
    primes = modular_primes(40)
    assert len(set(primes)) == 40
    assert all(p < 2 ** 31 for p in primes)
    assert primes == sorted(primes, reverse=True)
    for p in primes[:5]:
        assert pow(2, p - 1, p) == 1  # Fermat spot-check
    # deterministic across calls
    assert modular_primes(10) == primes[:10]
    # growing an empty cache twice gives the same prefix
    monkeypatch.setattr(exactla, "_prime_cache", [])
    assert modular_primes(3) == primes[:3]
    assert modular_primes(4) == primes[:4]


def test_crt_combine():
    primes = modular_primes(5)
    value = 12345678901234567890
    residues = [value % p for p in primes]
    combined = crt_combine(residues, primes)
    modulus = 1
    for p in primes:
        modulus *= p
    assert combined == value % modulus


def test_hadamard_bound_dominates_det():
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = random_dense(n, rng)
        m = ExactMatrix.from_rows(rows)
        ints, _ = m.integer_form()
        assert abs(cofactor_det(rows)) <= hadamard_bound(ints, n)


def test_rank_and_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(707)
    for _ in range(60):
        n, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 if rng.random() < 0.7 else 0 for _ in range(c)]
                for _ in range(n)]
        m = ExactMatrix.from_rows(rows)
        sm = sympy.Matrix(rows)
        assert rank_exact(m) == sm.rank()
        if n == c:
            assert det_bareiss(m) == Fraction(str(sm.det()))


def test_reconstruction_error_is_raised_on_corrupt_residues(monkeypatch):
    import hgdet.exactla as ex

    m = ExactMatrix.from_rows([[2, 1], [1, 2]])
    original = ex._residue_mod_p
    calls = []

    def corrupt(ints, n, p):
        calls.append(p)
        r = original(ints, n, p)
        return r if len(calls) > 1 else (r + 1) % p

    monkeypatch.setattr(ex, "_residue_mod_p", corrupt)
    with pytest.raises(ReconstructionError):
        ex.det_multimodular(m)


def test_multimodular_big_integer_residues():
    """Integer forms with entries far beyond int64 reduce exactly mod p."""
    rng = random.Random(23)
    big = 1 << 80
    primes = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)
    for n in (3, 7, 12):
        rows = [[rng.choice((-1, 1)) * (big - rng.randrange(1 << 20))
                 if rng.random() < 0.7 else rng.randint(-5, 5)
                 for _ in range(n)] for _ in range(n)]
        # One row of fractions whose denominators have a large lcm.
        rows[n // 2] = [Fraction(rng.randint(-9, 9) or 1, primes[j % len(primes)])
                        for j in range(n)]
        m = ExactMatrix.from_rows(rows)
        ints, _ = m.integer_form()
        assert max(abs(v) for v in ints.values()) >= 1 << 63
        expected = det_bareiss(m)
        assert expected != 0
        assert det_multimodular(m) == expected
        assert det_multimodular(m, threads=2) == expected
    assert det_multimodular(ExactMatrix.from_rows([[big, big], [big, big]])) == 0


# --- peel phase: singleton rows and columns ahead of the Bareiss core --------

def nonzero(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def permuted(rows, rng):
    """``rows`` with its rows and columns in a seeded random order."""
    order_r = list(range(len(rows)))
    order_c = list(range(len(rows[0])))
    rng.shuffle(order_r)
    rng.shuffle(order_c)
    return [[rows[i][j] for j in order_c] for i in order_r]


def lower_triangle(n, rng, fill=0.5):
    return [[nonzero(rng) if j == i or (j < i and rng.random() < fill) else 0
             for j in range(n)] for i in range(n)]


def planted_core(k, rng, core=4):
    """[[A, 0], [B, C]] with A a dense k x k lower triangle, B and C dense.

    Every column has at least ``core`` entries, so peeling runs through the
    row singletons of A and leaves C to the Bareiss core; the transpose
    peels through column singletons instead.
    """
    n = k + core
    return [[nonzero(rng) if j <= i or i >= k else 0 for j in range(n)]
            for i in range(n)]


def check_against_oracles(rows, sympy):
    """Check rank, and det if square, of ``rows`` and its transpose; return det.

    The oracles are sympy and, up to 7 x 7, the cofactor expansion.
    """
    m = ExactMatrix.from_rows(rows)
    sm = sympy.Matrix(rows)
    rank = sm.rank()
    assert rank_exact(m) == rank
    assert rank_exact(m.transpose()) == rank
    if len(rows) == len(rows[0]):
        det = det_bareiss(m)
        assert det == int(sm.det())
        assert det_bareiss(m.transpose()) == det
        if len(rows) <= 7:
            assert det == cofactor_det(rows)
        return det
    return None


def test_peel_permuted_triangular():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(909)
    for _ in range(40):
        n = rng.randint(1, 12)
        tri = lower_triangle(n, rng, fill=rng.choice((0.2, 0.5, 1.0)))
        diagonal = 1
        for i in range(n):
            diagonal *= tri[i][i]
        det = check_against_oracles(permuted(tri, rng), sympy)
        assert abs(det) == abs(diagonal)


def test_peel_non_square_triangular():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(910)
    for _ in range(40):
        n, k = rng.randint(1, 10), rng.randint(1, 4)
        tri = lower_triangle(n, rng)
        tall = tri + [[nonzero(rng) if rng.random() < 0.5 else 0
                       for _ in range(n)] for _ in range(k)]
        dropped = sorted(rng.sample(range(n), min(k, n - 1)))
        narrow = [[v for j, v in enumerate(row) if j not in dropped]
                  for row in tri]
        for case in (tall, narrow):
            check_against_oracles(permuted(case, rng), sympy)


def test_peel_then_markowitz_on_planted_core():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(911)
    for _ in range(40):
        check_against_oracles(permuted(planted_core(rng.randint(0, 8), rng), rng),
                              sympy)


def test_peel_singular_row_empties():
    """A second row singleton in the same column empties while peeling."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(912)
    for _ in range(30):
        k = rng.randint(1, 6)
        core = planted_core(k, rng)
        core[k + rng.randrange(4)] = [nonzero(rng)] + [0] * (k + 3)
        assert check_against_oracles(permuted(core, rng), sympy) == 0


def test_peel_singular_repeated_core_column():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(913)
    for _ in range(30):
        k = rng.randint(0, 6)
        core = planted_core(k, rng)
        a, b = rng.sample(range(k, k + 4), 2)
        for row in core:
            row[b] = row[a]
        assert check_against_oracles(permuted(core, rng), sympy) == 0


# --- Bareiss core on rational matrices that do not peel ---------------------

def unpeelable(n, c, rng, fill):
    """Seeded n x c rational matrix in which every row and every column
    holds at least two nonzeros, so the peel phase has nothing to do."""
    while True:
        rows = [[Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 4))
                 if rng.random() < fill else 0 for _ in range(c)] for _ in range(n)]
        if (all(sum(1 for v in row if v) >= 2 for row in rows)
                and all(sum(1 for row in rows if row[j]) >= 2 for j in range(c))):
            return rows


def check_core_against_oracles(rows, sympy):
    m = ExactMatrix.from_rows(rows)
    sm = sympy.Matrix(rows)
    rank = sm.rank()
    assert rank_exact(m) == rank
    assert rank_exact(m.transpose()) == rank
    if len(rows) == len(rows[0]):
        det = Fraction(str(sm.det()))
        assert det == cofactor_det(rows)
        assert det_bareiss(m) == det
        assert det_bareiss(m.transpose()) == det
        assert det_multimodular(m) == det


def test_markowitz_core_on_rational_matrices_without_singletons():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(914)
    for trial in range(60):
        n = rng.randint(2, 7)
        rows = unpeelable(n, n, rng, fill=rng.choice((0.5, 0.7, 1.0)))
        if trial % 3 == 0:
            # Singular: one row is a rational combination of two others.
            a, b, t = rng.sample(range(n), 3) if n >= 3 else (0, 0, 1)
            rows[t] = [rows[a][j] * Fraction(2, 3) - rows[b][j] for j in range(n)]
            if (any(sum(1 for v in row if v) < 2 for row in rows)
                    or any(sum(1 for row in rows if row[j]) < 2 for j in range(n))):
                continue
        check_core_against_oracles(rows, sympy)
    for _ in range(30):
        n, c = rng.randint(2, 7), rng.randint(2, 7)
        check_core_against_oracles(unpeelable(n, c, rng, fill=0.7), sympy)


# --- elimination consumes rows, never the matrix it was built from ---------

def test_backends_leave_entries_unchanged_and_repeat():
    rng = random.Random(915)
    rows = unpeelable(8, 8, rng, fill=0.6)
    m = ExactMatrix.from_rows(rows)
    wide = ExactMatrix.from_rows(unpeelable(5, 8, rng, fill=0.6))
    expected = cofactor_det(rows)
    for call, value in ((lambda: det_bareiss(m), expected),
                        (lambda: det_multimodular(m), expected),
                        (lambda: det_exact(m), expected),
                        (lambda: det_exact(m, backend="bareiss"), expected),
                        (lambda: rank_exact(m), None),
                        (lambda: rank_exact(wide), None)):
        before = (dict(m.entries), dict(wide.entries))
        first = call()
        assert (m.entries, wide.entries) == before
        assert call() == first
        assert (m.entries, wide.entries) == before
        if value is not None:
            assert first == value


def _route_spy(monkeypatch):
    """Spy on the two elimination kernels; the returned call reports which ran."""
    import hgdet.exactla as ex

    ran = []
    eliminate, multimodular = ex._eliminate, ex._multimodular

    def spy_eliminate(*args, **kwargs):
        ran.append("bareiss")
        return eliminate(*args, **kwargs)

    def spy_multimodular(*args, **kwargs):
        ran.append("multimodular")
        return multimodular(*args, **kwargs)

    def route(call):
        ran.clear()
        value = call()
        assert len(ran) == 1
        return ran[0], value

    monkeypatch.setattr(ex, "_eliminate", spy_eliminate)
    monkeypatch.setattr(ex, "_multimodular", spy_multimodular)
    return route


def test_auto_dispatches_on_nonzeros_per_row(monkeypatch):
    route = _route_spy(monkeypatch)
    sympy = pytest.importorskip("sympy")
    # A witness cell as an ExactMatrix: sparse rows go to Bareiss.
    witness = system_matrix(tensor_from_basis(canonical_witness(3, 5))).matrix
    assert route(lambda: abs(det_exact(witness))) == ("bareiss", 1)
    # A dense 10 x 10 Fraction matrix goes to the multimodular kernel.
    rng = random.Random(808)
    fractions = [[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(10)]
                 for _ in range(10)]
    matrix = ExactMatrix.from_rows(fractions)
    expected = Fraction(str(sympy.Matrix(fractions).det()))
    assert route(lambda: det_exact(matrix)) == ("multimodular", expected)
    # A named backend overrides the rule either way.
    assert route(lambda: det_bareiss(matrix)) == ("bareiss", expected)
    assert route(lambda: abs(det_multimodular(witness))) == ("multimodular", 1)


def test_auto_on_rows_dispatches_on_nonzeros_per_row(monkeypatch):
    import hgdet.exactla as ex

    route = _route_spy(monkeypatch)
    sympy = pytest.importorskip("sympy")
    # Label-aware rows of a witness cell: at most 4.5 nonzeros per row.
    assert route(lambda: abs(basis_det(canonical_witness(3, 5)))) == ("bareiss", 1)
    # A dense 10 x 10 integer matrix, as integer rows.
    rng = random.Random(809)
    dense = [[rng.randint(1, 9) for _ in range(10)] for _ in range(10)]
    rows, divisor = ex._integer_rows(ExactMatrix.from_rows(dense))
    assert route(lambda: ex._det_rows(rows, 10, divisor)) == (
        "multimodular", Fraction(int(sympy.Matrix(dense).det())))

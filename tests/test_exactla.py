"""Exact linear algebra: both determinant backends against a cofactor oracle."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from math import isqrt, lcm, prod

import numpy as np
import pytest

from hgdet import exactla, hypergraphs, system, tensors
from hgdet.exactla import (ExactMatrix, ReconstructionError, crt_combine,
                           det_bareiss, det_exact, det_multimodular,
                           hadamard_bound, modular_primes, rank_exact)
from hgdet.determinant import basis_det, tensor_det, witness_det
from hgdet.hypergraphs import classify_partition, partition_from_basis
from hgdet.reference import KNOWN_WITNESS_DETS
from hgdet.system import system_matrix
from hgdet.tensors import canonical_witness, tensor_from_basis
from hgdet.verify import plant_degenerate_simplex, random_partition, random_tensor

from oracles import to_dense, transpose


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
        assert rank_exact(m) == rank_exact(transpose(m))


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


# The five public calls that keep the removed ``threads`` keyword, each on a
# small input with a nonzero value.
THREADS_KEPT = {
    "witness_det": lambda **kw: witness_det(2, 2, **kw),
    "tensor_det": lambda **kw: tensor_det(tensor_from_basis(canonical_witness(2, 2)), **kw),
    "det_exact": lambda **kw: det_exact(ExactMatrix.from_rows([[3, 1], [4, 2]]), **kw),
    "det_multimodular": lambda **kw: det_multimodular(
        ExactMatrix.from_rows([[3, 1], [4, 2]]), **kw),
    "classify_partition": lambda **kw: classify_partition(
        partition_from_basis(canonical_witness(3, 2)), **kw).det,
}


@pytest.mark.parametrize("name", sorted(THREADS_KEPT))
def test_threads_keyword_accepts_only_one(name):
    call = THREADS_KEPT[name]
    assert call(threads=1) == call() != 0
    for threads in (0, 2):
        with pytest.raises(ValueError, match="threads option was removed"):
            call(threads=threads)


def test_det_exact_dispatch():
    rows = [[3, 1], [4, 2]]
    m = ExactMatrix.from_rows(rows)
    assert det_exact(m, backend="auto") == 2
    assert det_exact(m, backend="bareiss") == 2
    assert det_exact(m, backend="multimodular") == 2
    with pytest.raises(ValueError):
        det_exact(m, backend="gauss")


def test_modular_primes_properties():
    primes = modular_primes(40)
    assert len(set(primes)) == 40
    assert all(p < 2 ** 31 for p in primes)
    assert primes == sorted(primes, reverse=True)
    for p in primes[:5]:
        assert pow(2, p - 1, p) == 1  # Fermat spot-check
    # deterministic across calls
    assert modular_primes(10) == primes[:10]
    # growing an empty cache twice gives the same prefix
    exactla._prime_below.cache_clear()
    assert modular_primes(3) == primes[:3]
    assert modular_primes(4) == primes[:4]


def test_modular_primes_follow_prevprime_from_2_31():
    sympy = pytest.importorskip("sympy")
    expected, q = [], 2 ** 31
    for _ in range(64):
        q = int(sympy.prevprime(q))
        expected.append(q)
    assert modular_primes(64) == expected


def on_four_threads(work):
    """``work()`` on four threads, more than the cores of a small machine,
    that start together and switch often; their results."""
    start = threading.Barrier(4, timeout=60)

    def run(_):
        start.wait()
        return work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            return list(pool.map(run, range(4), timeout=300))
    finally:
        sys.setswitchinterval(interval)


def test_modular_primes_agree_across_threads():
    """The prime sequence is a pure cached function with no lock: four
    threads that grow an empty cache at once all get the same list."""
    expected = modular_primes(200)
    exactla._prime_below.cache_clear()
    assert on_four_threads(lambda: modular_primes(200)) == [expected] * 4


def walk_crt_primes(target, s, modulus):
    """``_crt_primes`` by brute force: the primes not dividing s, in order,
    one more at a time until the product exceeds the target."""
    primes = [q for q in modular_primes(300) if s % q]
    k = 0
    while modulus * prod(primes[:k]) <= target:
        k += 1
    return primes[:k], primes[k]


def test_crt_batch_skips_the_primes_dividing_s():
    primes = modular_primes(6)
    base, safety = exactla._crt_primes(1 << 40, prod(primes[:3]), 1)
    assert base == primes[3:5] and safety == primes[5]


def test_crt_batch_matches_a_brute_force_walk():
    rng = random.Random(27)
    primes = modular_primes(60)
    for _ in range(60):
        target = rng.getrandbits(rng.randint(1, 2500))
        s = prod(rng.sample(primes, rng.randint(0, 4))) * rng.randint(1, 1000)
        modulus = rng.choice((1, exactla._LIFT_PRIME))
        assert (exactla._crt_primes(target, s, modulus)
                == walk_crt_primes(target, s, modulus))


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

    def corrupt(a, q):
        calls.append(q)
        r = original(a, q)
        return r if len(calls) > 1 else (r + 1) % q

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
    assert det_multimodular(ExactMatrix.from_rows([[big, big], [big, big]])) == 0


def test_big_integer_residues_read_int64_arrays(monkeypatch):
    """With an entry of 2**63 or more there is no float bound and no lift,
    and each prime's residue reads the one int64 array holding the
    nonzeros mod that prime."""
    m = ExactMatrix.from_rows([[1 << 80, 3, 0], [5, 0, 7], [0, -(1 << 70), 11]])
    lifts = lift_spy(monkeypatch)
    seen = []
    residue = exactla._residue_mod_p

    def spy(a, q):
        assert a.dtype == np.int64 and 0 <= a.min() and a.max() < q
        seen.append(id(a))
        return residue(a, q)

    monkeypatch.setattr(exactla, "_residue_mod_p", spy)
    monkeypatch.setattr(exactla, "_float_det_bound", lambda a: seen.append("float"))
    assert det_multimodular(m) == det_bareiss(m) != 0
    assert lifts == []
    assert len(seen) > 2 and len(set(seen)) == 1


def test_entries_between_2_52_and_2_63_run_plain_crt(monkeypatch):
    """An entry in [2**52, 2**63) keeps the one dense array int64, gets no
    float bound (float64 need not hold it exactly) and fails the lift's
    int64 guard, so plain CRT on the Hadamard bound gives the value."""
    rng = random.Random(25)
    rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
    rows[2][5] = (1 << 60) + 12345
    rows[6][1] = -(1 << 52)
    m = ExactMatrix.from_rows(rows)
    lifts = lift_spy(monkeypatch)
    seen = []
    residue = exactla._residue_mod_p

    def spy(a, q):
        seen.append(a.dtype)
        return residue(a, q)

    monkeypatch.setattr(exactla, "_residue_mod_p", spy)
    monkeypatch.setattr(exactla, "_float_det_bound", lambda a: seen.append("float"))
    assert det_multimodular(m) == det_bareiss(m) != 0
    assert lifts == [None]
    assert len(seen) > 2 and set(seen) == {np.dtype(np.int64)}


def test_determinants_and_classification_agree_across_threads():
    """``hypergraphs`` calls classification safe to run in parallel: four
    threads, started together on cleared caches, give the sequential
    values of ``det_multimodular`` (a plain CRT run on a singular matrix
    among them) and ``classify_partition``."""
    rng = random.Random(28)
    matrices = [ExactMatrix.from_rows(random_dense(n, rng, rational=True))
                for n in (6, 20)]
    wide = [[rng.randint(-1 << 30, 1 << 30) for _ in range(16)] for _ in range(15)]
    matrices.append(ExactMatrix.from_rows(wide + [wide[0]]))
    partitions = [random_partition(6, 3, 2, rng) for _ in range(20)]

    def work():
        return ([det_multimodular(m) for m in matrices],
                [classify_partition(p) for p in partitions])

    expected = work()
    assert expected[0][-1] == 0
    for cached in (exactla._small_primes, exactla._prime_below, tensors._subset_ids,
                   system._pattern, hypergraphs._shape_table, hypergraphs._shared):
        cached.cache_clear()
    assert on_four_threads(work) == [expected] * 4


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
    assert rank_exact(transpose(m)) == rank
    if len(rows) == len(rows[0]):
        det = det_bareiss(m)
        assert det == int(sm.det())
        assert det_bareiss(transpose(m)) == det
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
    assert rank_exact(transpose(m)) == rank
    if len(rows) == len(rows[0]):
        det = Fraction(str(sm.det()))
        assert det == cofactor_det(rows)
        assert det_bareiss(m) == det
        assert det_bareiss(transpose(m)) == det
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


def test_auto_dispatches_on_nonzeros_per_row(route):
    sympy = pytest.importorskip("sympy")
    # A witness cell as an ExactMatrix: sparse rows go to Bareiss, and its
    # 1183 nonzeros to the wave peel.
    witness = system_matrix(tensor_from_basis(canonical_witness(3, 5))).matrix
    assert route(lambda: abs(det_exact(witness))) == (1, ["_peel_det"])
    # A dense 10 x 10 Fraction matrix goes to the multimodular kernel.
    rng = random.Random(808)
    fractions = [[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(10)]
                 for _ in range(10)]
    matrix = ExactMatrix.from_rows(fractions)
    expected = Fraction(str(sympy.Matrix(fractions).det()))
    assert route(lambda: det_exact(matrix)) == (expected, ["_multimodular"])
    # A named backend overrides the rule either way.
    assert route(lambda: det_bareiss(matrix)) == (expected, ["_eliminate"])
    assert route(lambda: abs(det_multimodular(witness))) == (1, ["_multimodular"])


def test_auto_on_rows_dispatches_on_nonzeros_per_row(route):
    sympy = pytest.importorskip("sympy")
    # A witness labelling: at most 4.5 nonzeros per row, 1183 in all.
    assert route(lambda: abs(basis_det(canonical_witness(3, 5)))) == (1, ["_peel_det"])
    # A dense 10 x 10 integer matrix, as coordinate arrays.
    rng = random.Random(809)
    dense = [[rng.randint(1, 9) for _ in range(10)] for _ in range(10)]
    *arrays, divisor = exactla._matrix_coords(ExactMatrix.from_rows(dense))
    assert route(lambda: exactla._det_coords(arrays, 10, divisor)) == (
        Fraction(int(sympy.Matrix(dense).det())), ["_multimodular"])


def test_peel_bound_is_counted_in_nonzeros(route):
    """A lower triangular matrix with exactly ``_PEEL_NNZ`` nonzeros goes
    to ``_eliminate``; one nonzero more sends it to the wave peel."""
    n = 100
    below = [(i, j) for i in range(n) for j in range(i)]
    diagonal = {(i, i): 2 if i % 7 == 0 else -1 for i in range(n)}
    expected = prod(diagonal.values())
    for nnz, eliminator in ((exactla._PEEL_NNZ, "_eliminate"),
                            (exactla._PEEL_NNZ + 1, "_peel_det")):
        matrix = ExactMatrix(n, n, {**diagonal, **dict.fromkeys(below[:nnz - n], 3)})
        assert len(matrix.entries) == nnz
        assert route(lambda: det_bareiss(matrix)) == (expected, [eliminator])


# --- wave peel over coordinate arrays ---------------------------------------

def wave_peel_det(rows):
    """``_peel_det`` of a square integer matrix, given as its nonzeros."""
    nz = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    coords = [np.array(x, dtype=np.int64) for x in zip(*nz)] or [
        np.zeros(0, dtype=np.int64)] * 3
    return exactla._peel_det(coords, len(rows))


def core_spy(monkeypatch):
    """Record the size of every core that reaches ``_eliminate``."""
    cores = []
    eliminate = exactla._eliminate

    def spy(rows, nrows, ncols, want_det):
        cores.append(nrows)
        return eliminate(rows, nrows, ncols, want_det)

    monkeypatch.setattr(exactla, "_eliminate", spy)
    return cores


def test_wave_peel_matches_bareiss(monkeypatch):
    """Random sparse, permuted triangular and planted-core matrices: the
    wave peel and the row elimination give the same determinant, sign
    included, with and without a core left after peeling."""
    cores = core_spy(monkeypatch)
    rng = random.Random(914)
    seen = {"singular": 0, "peeled": 0, "core": 0}
    for k in range(900):
        n = rng.randint(1, 9)
        if k % 3 == 0:
            rows = permuted(lower_triangle(n, rng, fill=rng.choice((0.2, 0.6))), rng)
        elif k % 3 == 1:
            rows = permuted(planted_core(rng.randint(0, 5), rng, core=rng.randint(2, 4)),
                            rng)
        else:
            fill = rng.choice((0.15, 0.25, 0.4))
            rows = [[nonzero(rng) if rng.random() < fill else 0 for _ in range(n)]
                    for _ in range(n)]
        cores.clear()
        value = wave_peel_det(rows)
        core = cores[0] if cores else 0
        assert value == det_bareiss(ExactMatrix.from_rows(rows))
        if value == 0:
            seen["singular"] += 1
        else:
            seen["core" if core else "peeled"] += 1
    assert min(seen.values()) >= 100, seen


def test_wave_peel_singleton_lines_sharing_a_line():
    """Two singleton columns on one row, or two singleton rows on one
    column, make the matrix singular; the rest is a nonsingular block."""
    rows = [[1, 1, 0, 0, 0],
            [0, 0, 2, 1, 1],
            [0, 0, 1, 3, 1],
            [0, 0, 1, 1, 4],
            [0, 0, 5, 0, 1]]
    transpose = [list(col) for col in zip(*rows)]
    for case in (rows, transpose):
        assert det_bareiss(ExactMatrix.from_rows(case)) == 0
        assert wave_peel_det(case) == 0


def test_wave_peel_emptied_row_needs_no_core(monkeypatch):
    """Rows 0 and 1 are singletons on columns 0 and 1, so row 2 empties in
    the first wave: the peel proves det 0 without eliminating a core."""
    cores = core_spy(monkeypatch)
    rows = [[1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 2, 3],
            [0, 0, 4, 5, 7]]
    assert wave_peel_det(rows) == 0
    assert wave_peel_det([[0, 0], [1, 1]]) == 0
    assert cores == []
    # With row 2 moved onto the last three columns, a 3 x 3 core is left.
    rows[2] = [0, 0, 1, 1, 1]
    value = wave_peel_det(rows)
    assert cores == [3]
    assert value == det_bareiss(ExactMatrix.from_rows(rows)) != 0

# Rows, columns and values in the three kinds that ``_det_coords`` hands
# ``_peel_det``: a labelling's, a tensor's, and a matrix of Python ints.
ARRAY_KINDS = [(np.int32, np.int32, np.int8), (np.intp, np.int32, np.int64),
               (np.intp, np.intp, object)]


def peel_in_kind(coords, n, kind):
    """``_peel_det`` of the nonzeros ``coords`` (rows, cols, vals) of an
    n x n matrix, with the arrays in the dtypes ``kind``."""
    return exactla._peel_det([np.asarray(x, dtype) for x, dtype in zip(coords, kind)], n)


def with_diagonal(diagonal, rng):
    """A permuted lower triangle whose diagonal, its only nonzero
    permutation term and so the wave peel's pivots, is ``diagonal``."""
    rows = lower_triangle(len(diagonal), rng, fill=0.4)
    for i, v in enumerate(diagonal):
        rows[i][i] = v
    return permuted(rows, rng)


def test_wave_peel_matches_bareiss_in_every_array_kind():
    """The random, permuted-triangular and planted-core cases of
    ``test_wave_peel_matches_bareiss`` give ``det_bareiss``'s value in each
    kind of coordinate arrays that reaches the peel, and so do three pivot
    products: pivots beyond int64 of both signs (object values only), an
    odd number of -1 pivots among non-unit ones, and a -128 pivot, which
    int8 ``abs`` leaves negative."""
    rng = random.Random(927)
    cases = []
    for k in range(300):
        n = rng.randint(1, 9)
        if k % 3 == 0:
            rows = permuted(lower_triangle(n, rng, fill=rng.choice((0.2, 0.6))), rng)
        elif k % 3 == 1:
            rows = permuted(planted_core(rng.randint(0, 5), rng, core=rng.randint(2, 4)),
                            rng)
        else:
            fill = rng.choice((0.15, 0.25, 0.4))
            rows = [[nonzero(rng) if rng.random() < fill else 0 for _ in range(n)]
                    for _ in range(n)]
        cases.append((rows, ARRAY_KINDS))
    big = 2**70
    diagonals = [([big + 3, -(big + 5), -1, 2, 1, -(big + 7)], ARRAY_KINDS[2:]),
                 ([-1, 2, -1, -3, -1, 1, 3], ARRAY_KINDS),
                 ([-128, 1, 2, -1, 1], ARRAY_KINDS)]
    cases += [(with_diagonal(diagonal, rng), kinds) for diagonal, kinds in diagonals]
    seen = set()
    for rows, kinds in cases:
        expected = det_bareiss(ExactMatrix.from_rows(rows))
        seen.add(expected != 0)
        nz = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        coords = tuple(zip(*nz)) or ((), (), ())
        for kind in kinds:
            assert peel_in_kind(coords, len(rows), kind) == expected, kind
    assert seen == {False, True}
    assert [abs(det_bareiss(ExactMatrix.from_rows(rows))) for rows, _ in cases[-3:]] == [
        abs(prod(diagonal)) for diagonal, _ in diagonals]


def cycle_walk_sign(perm):
    """Sign of k -> perm[k], by walking each cycle in Python."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0 and length:
            sign = -sign
    return sign


def levelled_system(seed):
    """A seeded square system of more than two ``_gather`` chunks that
    peels in two waves onto a planted 5 x 5 core, as its coordinate arrays
    (rows, cols, vals), its size, its determinant and the shuffled rows
    and columns.  Before they are shuffled, it is [[L, 0], [B, C]]: L is
    lower triangular with a +-1 diagonal, and each of its rows above level
    0, of four levels, has three entries in the columns of lower levels; B
    has entries in level-0 columns only, and C is dense.  So det =
    sgn(row order) * sgn(column order) * prod(diag L) * det C."""
    rng = np.random.default_rng(seed)
    m, levels, core = 50_000, 4, 5
    n = m + core
    first = m // levels
    upper = np.repeat(np.arange(first, m), 3)
    core_rows = np.arange(m, n)
    dense = rng.choice([-3, -2, -1, 1, 2, 3], (core, core))
    rows = np.concatenate((np.arange(m), upper, np.repeat(core_rows, 4 + core)))
    cols = np.concatenate((np.arange(m), rng.integers(0, upper // first * first),
                           np.column_stack((rng.integers(0, first, (core, 4)),
                                            np.tile(core_rows, (core, 1)))).ravel()))
    vals = rng.choice([-3, -2, -1, 1, 2, 3], len(rows))
    vals[:m] = rng.choice([-1, 1], m)
    vals[-core * (4 + core):].reshape(core, -1)[:, 4:] = dense
    # A repeated random position keeps its first value.
    _, once = np.unique(rows * n + cols, return_index=True)
    row_order, col_order = rng.permutation(n), rng.permutation(n)
    det = (cycle_walk_sign(row_order.tolist()) * cycle_walk_sign(col_order.tolist())
           * prod(vals[:m].tolist()) * cofactor_det(dense.tolist()))
    coords = (row_order[rows[once]], col_order[cols[once]], vals[once])
    return coords, n, det, (row_order, col_order)


def test_wave_peel_across_gather_chunks(monkeypatch):
    """Systems of more than two ``_gather`` chunks, in every array kind:
    a planted core gives its value, an emptied row gives 0 at the count
    check, and two singleton columns on one row give 0 at the pivot
    check, both before any core."""
    cores = core_spy(monkeypatch)
    (rows, cols, vals), n, det, (row_order, col_order) = levelled_system(928)
    m = n - 5
    assert len(vals) > 2 * exactla._GATHER_CHUNK
    assert det != 0
    # The first core row loses its core entries, so it is empty once
    # level 0 is peeled.
    kept = (rows != row_order[m]) | ~np.isin(cols, col_order[m:])
    emptied = rows[kept], cols[kept], vals[kept]
    # Top-level row m - 1 takes the only entry of top-level column m - 2
    # from row m - 2, so columns m - 1 and m - 2 are both singletons on it.
    moved = np.flatnonzero((rows == row_order[m - 2]) & (cols == col_order[m - 2]))
    assert len(moved) == 1 and np.count_nonzero(cols == col_order[m - 2]) == 1
    assert np.count_nonzero(cols == col_order[m - 1]) == 1
    paired = rows.copy(), cols, vals
    paired[0][moved] = row_order[m - 1]
    for kind in ARRAY_KINDS:
        for case, value, core in (((rows, cols, vals), det, [5]), (emptied, 0, []),
                                  (paired, 0, [])):
            cores.clear()
            assert peel_in_kind(case, n, kind) == value, kind
            assert cores == core


@pytest.mark.parametrize("dtype", [np.int32, np.intp])
def test_array_permutation_sign_matches_cycle_walk(dtype):
    """Seeded random permutations of sizes 0 to beyond two ``_gather``
    chunks, the identity and the n-cycle: the pointer-doubling sign
    equals the sign from Python's cycle walk."""
    rng = np.random.default_rng(929)
    for n in (0, 1, 2, 3, 17, 1000, 2 * exactla._GATHER_CHUNK + 8):
        cycle = np.roll(np.arange(n), 1)
        # The n-cycle is odd exactly for even n, the largest size included.
        assert cycle_walk_sign(cycle.tolist()) == (-1 if n and n % 2 == 0 else 1)
        for perm in [rng.permutation(n) for _ in range(3)] + [np.arange(n), cycle]:
            assert (exactla._array_permutation_sign(perm.astype(dtype))
                    == cycle_walk_sign(perm.tolist()))


# --- multimodular: a lifted divisor of det, then CRT on the cofactor --------

def lift_spy(monkeypatch):
    """Record what every ``_lift_divisor`` call returns."""
    lifts = []
    lift = exactla._lift_divisor

    def spy(*args):
        lifts.append(lift(*args))
        return lifts[-1]

    monkeypatch.setattr(exactla, "_lift_divisor", spy)
    return lifts


def integer_det(tensor, value):
    """det of the column-cleared integer system of ``tensor``, whose
    determinant is ``value``."""
    _, scales = system._tensor_values(tensor)
    det = value * prod(scales or ())
    assert det.denominator == 1
    return det.numerator


@pytest.mark.parametrize("r, d", [(2, 4), (3, 3), (2, 6), (3, 4)])
def test_lift_matches_bareiss_on_rational_tensors(monkeypatch, r, d):
    tensor = random_tensor(r, d, random.Random(40 + 10 * r + d))
    expected = tensor_det(tensor, backend="bareiss")
    lifts = lift_spy(monkeypatch)
    assert tensor_det(tensor, backend="multimodular") == expected != 0
    assert len(lifts) == 1 and lifts[0] is not None
    s, _ = lifts[0]
    assert integer_det(tensor, expected) % s == 0


def test_lift_singular_fallback_on_degenerate_simplex(monkeypatch):
    """The vanishing property through the lift: a degenerate simplex makes
    the system singular mod the lifting prime, and CRT gives exactly 0."""
    lifts = lift_spy(monkeypatch)
    rng = random.Random(51)
    for r, d in ((2, 4), (3, 3)):
        tensor = plant_degenerate_simplex(random_tensor(r, d, rng), rng)
        assert tensor_det(tensor, backend="multimodular") == 0
    assert lifts == [None, None]


def test_lifted_divisor_leaves_a_small_cofactor(monkeypatch):
    tensor = random_tensor(3, 4, random.Random(52))
    lifts = lift_spy(monkeypatch)
    det = integer_det(tensor, tensor_det(tensor, backend="multimodular"))
    (s, det_p), = lifts
    assert det % s == 0
    assert abs(det // s) < 2 ** 64
    assert det_p == det % exactla._LIFT_PRIME


def test_unimodular_witness_is_lifted(monkeypatch):
    """The (3, 3) witness needs 2 CRT primes and is lifted all the same:
    the certified divisor of det = -1 is 1."""
    lifts = lift_spy(monkeypatch)
    assert witness_det(3, 3, backend="multimodular") == KNOWN_WITNESS_DETS[(3, 3)] == -1
    assert lifts == [(1, exactla._LIFT_PRIME - 1)]


def small_prime_factor(m, low):
    """The least prime factor of m from ``low`` up, below 2**16."""
    for q in range(low | 1, 1 << 16, 2):
        if m % q == 0 and all(q % f for f in range(3, isqrt(q) + 1, 2)):
            return q
    raise AssertionError("no prime factor below 2**16")


def test_lifting_prime_dividing_det_falls_back(monkeypatch):
    tensor = random_tensor(2, 6, random.Random(53))
    expected = tensor_det(tensor, backend="bareiss")
    p = small_prime_factor(integer_det(tensor, expected), 101)
    monkeypatch.setattr(exactla, "_LIFT_PRIME", p)
    lifts = lift_spy(monkeypatch)
    assert tensor_det(tensor, backend="multimodular") == expected
    assert lifts == [None]


def test_certificate_rejects_a_wrong_denominator(monkeypatch):
    """Reconstruction returns its first denominator plus one, and 1 after
    that, so s ends wrong and the lift reaches its certificate, which
    rejects s; CRT alone gives the value."""
    tensor = random_tensor(3, 3, random.Random(54))
    expected = tensor_det(tensor, backend="bareiss")
    lifts = lift_spy(monkeypatch)
    reconstruct = exactla._rational_reconstruction
    calls = []

    def wrong(*args):
        calls.append(args)
        if len(calls) > 1:
            return 0, 1
        num, den = reconstruct(*args)
        return num, den + 1

    monkeypatch.setattr(exactla, "_rational_reconstruction", wrong)
    assert tensor_det(tensor, backend="multimodular") == expected
    assert calls and lifts == [None]


def test_certificate_reduces_a_denominator_too_large(monkeypatch):
    """A reconstruction that multiplies its fraction through by a prime k
    not dividing det still solves A y = s b; the gcd of s and y removes k
    again, so s divides det."""
    tensor = random_tensor(3, 3, random.Random(54))
    expected = tensor_det(tensor, backend="bareiss")
    det = integer_det(tensor, expected)
    k = 2 ** 61 - 1
    assert det % k
    lifts = lift_spy(monkeypatch)
    reconstruct = exactla._rational_reconstruction
    calls = []

    def scaled(*args):
        num, den = reconstruct(*args)
        calls.append(args)
        return (num * k, den * k) if len(calls) == 1 else (num, den)

    monkeypatch.setattr(exactla, "_rational_reconstruction", scaled)
    assert tensor_det(tensor, backend="multimodular") == expected
    (s, _), = lifts
    assert calls and det % s == 0


# --- the floating-point bound on |det| ---------------------------------------

def float_bound(rows):
    """The bound that ``_float_det_bound`` gives ``det_multimodular`` on the
    square integer matrix ``rows`` (a list of lists), None when it gives
    none or is not called, and the exact |det|, by fraction-free
    elimination, which the multimodular value must equal."""
    m = ExactMatrix.from_rows(rows)
    bounds = []
    bound = exactla._float_det_bound

    def spy(a):
        bounds.append(bound(a))
        return bounds[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactla, "_float_det_bound", spy)
        det = det_multimodular(m)
    assert det == det_bareiss(m)
    return (bounds or [None])[0], abs(det)


def dense_integers(n, rng, bits=4):
    high = (1 << bits) - 1
    return [[rng.randint(-high, high) for _ in range(n)] for _ in range(n)]


def witness_rows(r, d):
    return to_dense(system_matrix(tensor_from_basis(canonical_witness(r, d))).matrix)


def lower_minus_ones(n):
    """Unit lower triangular with -1 below the diagonal: det 1, and the
    entries of its inverse reach 2**(n - 2)."""
    return [[1 if j == i else -1 if j < i else 0 for j in range(n)] for i in range(n)]


def wilkinson(n):
    """``lower_minus_ones`` with a last column of ones: det 2**(n - 1)."""
    rows = lower_minus_ones(n)
    for row in rows:
        row[-1] = 1
    return rows


def scaled_hilbert(n):
    scale = lcm(*range(1, 2 * n))
    return [[scale // (i + j + 1) for j in range(n)] for i in range(n)]


def vandermonde(nodes):
    return [[x ** k for k in range(len(nodes))] for x in nodes]


def near_singular(n, rng):
    """A product B C with inner dimension n - 1 (singular), plus one unit
    entry: det is that entry's cofactor, small against the entries."""
    b = [[rng.randint(-9, 9) for _ in range(n - 1)] for _ in range(n)]
    c = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
    rows = [[sum(b[i][k] * c[k][j] for k in range(n - 1)) for j in range(n)]
            for i in range(n)]
    singular = [row[:] for row in rows]
    rows[rng.randrange(n)][rng.randrange(n)] += 1
    return singular, rows


def assert_valid(rows):
    bound, det = float_bound(rows)
    assert bound is None or bound >= det, (bound, det)
    return bound, det


def test_float_bound_holds_and_is_tight_on_dense_and_witness_systems():
    rng = random.Random(61)
    cases = [[[-7]]] + [dense_integers(n, rng) for n in (2, 3, 8, 30, 80)]
    cases += [dense_integers(n, rng, bits=40) for n in (2, 12)]
    cases += [witness_rows(r, d) for r, d in ((2, 3), (3, 3), (2, 4), (4, 2))]
    for rows in cases:
        bound, det = assert_valid(rows)
        assert det and bound is not None and bound <= 8 * det, (bound, det)


def test_float_bound_holds_on_ill_conditioned_families():
    bounds = []
    for n in (2, 10, 30, 60):
        bounds.append(assert_valid(lower_minus_ones(n)))
        bounds.append(assert_valid(wilkinson(n)))
    for n in range(2, 16):
        bounds.append(assert_valid(scaled_hilbert(n)))
    for n in range(2, 15):
        bounds.append(assert_valid(vandermonde(range(1, n + 1))))
        bounds.append(assert_valid(vandermonde(range(-(n // 2), n - n // 2))))
    # The families are not all beyond float64: most bounds are certified.
    assert sum(b is not None for b, _ in bounds) > len(bounds) // 2


def test_float_bound_holds_on_near_singular_and_singular_matrices():
    rng = random.Random(62)
    for n in (3, 6, 12, 25):
        singular, rows = near_singular(n, rng)
        assert_valid(singular)
        assert_valid(rows)
    for rows in ([[1, 2], [2, 4]], [[3, 3, 1], [5, 5, 2], [7, 7, 9]]):
        assert_valid(rows)


def test_float_bound_falls_back(monkeypatch):
    top = 1 << 52
    assert float_bound([[top - 1, 1], [1, 1]])[0] is not None
    assert float_bound([[top, 1], [1, 1]])[0] is None
    assert float_bound([[-top, 1], [1, 1]])[0] is None
    assert float_bound([[1 << 2000, 1], [1, 1]])[0] is None
    # A zero column leaves a zero on the diagonal of R.  The determinant
    # never asks for a bound here, since the Hadamard bound is already 0,
    # so the function is called directly.
    zero_column = np.array([[0, 1, 2], [0, 3, 4], [0, 5, 7]], dtype=np.int64)
    assert exactla._float_det_bound(zero_column) is None
    assert exactla._float_det_bound(zero_column + np.eye(3, dtype=np.int64)) >= 12

    def singular(a):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    assert exactla._float_det_bound(np.array([[2, 1], [1, 2]], dtype=np.int64)) is None
    assert float_bound([[2, 1], [1, 2]])[0] is None


def test_float_bound_holds_whatever_inv_returns(monkeypatch):
    """Z is forced to be unit upper triangular, so any inverse keeps the
    bound valid; here one with random entries and a diagonal that would
    make Z's diagonal 2**-20."""
    rng = np.random.default_rng(63)

    def garbage(r):
        z = rng.standard_normal(r.shape)
        np.fill_diagonal(z, 2.0 ** -20 / r.diagonal())
        return z

    monkeypatch.setattr(np.linalg, "inv", garbage)
    pyrng = random.Random(63)
    for n in (2, 5, 20):
        bound, _ = assert_valid(dense_integers(n, pyrng))
        assert bound is not None


def test_float_bound_margin_absorbs_rounding_of_the_log_sum(monkeypatch):
    """The margin covers up to 2**-10 of rounding in the sum of the log2
    norms.  The columns of this matrix are orthogonal and det = 2**20 + 1,
    just above a power of two, so a sum rounded down by 2**-11 needs it."""
    log2 = np.log2
    monkeypatch.setattr(np, "log2", lambda x: log2(x) - 2.0 ** -11 / len(x))
    bound, det = assert_valid([[1024, -1], [1, 1024]])
    assert det == 2 ** 20 + 1 and bound == 2 ** 21


def test_float_bound_rounding_term_covers_a_worst_case_product(monkeypatch):
    """Each entry of a float product may be off by gamma_n times the
    product of the absolute values.  A matmul that moves every entry that
    far towards zero (keeping a 2**-30 share of it) leaves the bound valid;
    on the Hilbert matrices of order 12-14, Q diag(R) is far below |A||Z|,
    so without the rounding term the bound would drop below |det|."""
    matmul = np.matmul

    def towards_zero(a, b):
        n = a.shape[1]
        gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
        exact = matmul(a, b)
        slack = 0.99 * gamma * matmul(np.abs(a), np.abs(b))
        return np.sign(exact) * np.maximum(np.abs(exact) - slack,
                                           np.abs(exact) * 2.0 ** -30)

    monkeypatch.setattr(np, "matmul", towards_zero)
    for rows in [scaled_hilbert(n) for n in (8, 12, 13, 14)] + [
            vandermonde(range(1, 15)), wilkinson(60)]:
        assert assert_valid(rows)[0] is not None


# --- multimodular on the inputs of the det-auto-rational benchmark ----------

@pytest.mark.parametrize("r, d", [(2, 8), (3, 4), (2, 10)])
def test_auto_matches_bareiss_on_benchmark_shapes(route, r, d):
    """Seeded p/q tensors (|p| <= 9, 1 <= q <= 9) of the benchmark's
    shapes: auto takes them to the multimodular backend, whose bound and
    lift must give the fraction-free value."""
    tensor = random_tensor(r, d, random.Random(70 + 10 * r + d))
    expected = tensor_det(tensor, backend="bareiss")
    assert route(lambda: tensor_det(tensor)) == (expected, ["_multimodular"])
    assert expected != 0


def det_mod_p_spy(monkeypatch):
    calls = []
    kernel = exactla.det_mod_p

    def spy(a, p):
        calls.append(p)
        return kernel(a, p)

    monkeypatch.setattr(exactla, "det_mod_p", spy)
    return calls


def test_tight_bound_needs_at_most_two_crt_primes(monkeypatch):
    tensor = random_tensor(3, 4, random.Random(71))
    expected = tensor_det(tensor, backend="bareiss")
    calls = det_mod_p_spy(monkeypatch)
    assert tensor_det(tensor, backend="multimodular") == expected
    assert 1 <= len(calls) <= 2
    calls.clear()
    assert abs(basis_det(canonical_witness(3, 5), backend="multimodular")) == 1
    assert 1 <= len(calls) <= 2


def test_a_float_bound_above_hadamard_changes_nothing(monkeypatch):
    """The bound in use is the smaller of the two: a float bound far above
    Hadamard's, or none, runs the same primes."""
    tensor = random_tensor(3, 3, random.Random(72))
    expected = tensor_det(tensor, backend="bareiss")
    calls = det_mod_p_spy(monkeypatch)
    runs = []
    for fake in (lambda a: None, lambda a: 1 << 100_000):
        monkeypatch.setattr(exactla, "_float_det_bound", fake)
        calls.clear()
        assert tensor_det(tensor, backend="multimodular") == expected
        runs.append(list(calls))
    assert runs[0] == runs[1] and len(runs[0]) > 2


# --- multimodular: both kernels run on the system in pivot order ------------

def permutation_sign(perm):
    """Sign of k -> perm[k], from its number of inversions."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def order_with_sign(n, sign, rng):
    """A seeded random permutation of range(n) whose sign is ``sign``."""
    perm = list(range(n))
    rng.shuffle(perm)
    if permutation_sign(perm) != sign:
        perm[0], perm[1] = perm[1], perm[0]
    return np.array(perm)


def fix_pivot_order(monkeypatch, sign):
    """Replace ``_pivot_order`` by a seeded order with the given sign (the
    identity for n = 1, which has no odd permutation)."""
    def order(n):
        if n < 2:
            return np.arange(n)
        return order_with_sign(n, sign, random.Random(1000 + n))

    monkeypatch.setattr(exactla, "_pivot_order", order)


# None keeps the pivot order of the backend; the rest are signs of an
# injected order.  An odd order applied to the rows alone, or to the
# columns alone, would flip the sign of det.
PIVOT_ORDERS = [None, 1, -1]


@cache
def seeded_tensor(r, d):
    return random_tensor(r, d, random.Random(90 + 10 * r + d))


@cache
def bareiss_tensor_det(r, d):
    return tensor_det(seeded_tensor(r, d), backend="bareiss")


@cache
def bareiss_witness_det(r, d):
    return basis_det(canonical_witness(r, d), backend="bareiss")


@pytest.mark.parametrize("sign", PIVOT_ORDERS)
def test_pivot_order_keeps_the_value_on_tensors_and_witness_cells(monkeypatch, sign):
    """Seeded tensors, which take the lift, and witness cells, which take
    plain CRT: the value, sign included, is the fraction-free one whatever
    the sign of the order."""
    if sign is not None:
        fix_pivot_order(monkeypatch, sign)
    for r, d in ((2, 6), (4, 2), (3, 3), (2, 8)):
        value = tensor_det(seeded_tensor(r, d), backend="multimodular")
        assert value == bareiss_tensor_det(r, d) != 0
    for r, d in ((3, 5), (4, 3)):
        value = basis_det(canonical_witness(r, d), backend="multimodular")
        assert value == bareiss_witness_det(r, d)


@pytest.mark.parametrize("sign", PIVOT_ORDERS)
def test_pivot_order_on_small_and_singular_matrices(monkeypatch, sign):
    if sign is not None:
        fix_pivot_order(monkeypatch, sign)
    rng = random.Random(86)
    cases = [[[5]], [[-3]], [[2, 3], [1, 4]], [[0, 3], [2, 0]], [[1, 2], [2, 4]]]
    for n in (3, 6, 9):
        dense = dense_integers(n, rng)
        # Rank n - 1: the last row is the sum of the first two.
        cases.append(dense[:-1] + [[a + b for a, b in zip(dense[0], dense[1])]])
        # Structurally singular: three rows share two columns, with no
        # zero row or column.
        pattern = [[nonzero(rng) if i >= 3 or j < 2 else 0 for j in range(n)]
                   for i in range(n)]
        cases.append(pattern)
        cases.append(dense)
    for rows in cases:
        m = ExactMatrix.from_rows(rows)
        assert det_multimodular(m) == det_bareiss(m)
        if len(rows) <= 6:
            assert det_bareiss(m) == cofactor_det(rows)


def test_kernels_receive_the_permuted_system(monkeypatch):
    """The lift's inverse and every CRT residue see row i at pos[i] and
    column j at pos[j]."""
    fix_pivot_order(monkeypatch, -1)
    seen = []
    for name in ("det_mod_p", "inverse_mod_p"):
        def spy(a, p, kernel=getattr(exactla, name), name=name):
            seen.append((name, a.copy(), p))
            return kernel(a, p)

        monkeypatch.setattr(exactla, name, spy)
    tensor = seeded_tensor(3, 3)
    values, _ = system._tensor_values(tensor)
    rows, cols, vals, n = system._vector_arrays(3, 3, values, tensor.n - 1)
    pos = exactla._pivot_order(n)
    permuted_system = np.zeros((n, n), dtype=object)
    permuted_system[pos[rows], pos[cols]] = vals
    assert tensor_det(tensor, backend="multimodular") == bareiss_tensor_det(3, 3)
    assert [name for name, _, _ in seen][:2] == ["inverse_mod_p", "det_mod_p"]
    for _, a, p in seen:
        assert (a == permuted_system % p).all()


def test_leftover_denominators_after_the_combination(monkeypatch):
    """The first component's reconstruction returns a proper divisor of
    its denominator: the later components make up what is missing, and
    the lift certifies the same divisor.  When it returns None, the lift
    gives up and plain CRT finds the same value."""
    tensor = seeded_tensor(3, 3)
    expected = bareiss_tensor_det(3, 3)
    lifts = lift_spy(monkeypatch)
    assert tensor_det(tensor, backend="multimodular") == expected
    (lifted,) = lifts
    reconstruct = exactla._rational_reconstruction
    for patch, lift in (("divisor", lifted), (None, None)):
        calls = []

        def first_component(*args):
            calls.append(args)
            found = reconstruct(*args)
            if len(calls) > 1:
                return found
            if patch is None:
                return None
            num, den = found
            q = small_prime_factor(den, 2)
            return num, den // q

        monkeypatch.setattr(exactla, "_rational_reconstruction", first_component)
        lifts.clear()
        assert tensor_det(tensor, backend="multimodular") == expected
        assert lifts == [lift]
        assert len(calls) > 1 if patch else len(calls) == 1

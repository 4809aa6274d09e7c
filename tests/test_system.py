"""Equation blocks, the truncated square system, relations, and facet columns."""

import io
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hgdet.combi import rank_combination
from hgdet.determinant import tensor_det
from hgdet.system import (equation_block, facet_column_relation, combine_columns,
                          full_system_matrix, relation_holds, system_matrix,
                          write_matrix)
from hgdet.tensors import TensorAssignment, canonical_witness, tensor_from_basis
from hgdet.verify import plant_degenerate_simplex, random_tensor, random_vector


def reference_block_r3(tensor, m, n):
    """Direct transcription of the three-segment vector equation for r = 3."""
    top = tensor.n
    out = {}
    for s in range(1, m):
        out[(s, m, n)] = (-1) ** (s - 1)
    for s in range(m + 1, n):
        out[(m, s, n)] = (-1) ** s
    for t in range(n + 1, top + 1):
        out[(m, n, t)] = (-1) ** (t + 1)
    return out


def test_block_signs_match_reference_r3():
    rng = random.Random(1)
    tensor = random_tensor(3, 2, rng)
    for m, n in combinations(range(1, 7), 2):
        block = equation_block(tensor, (m, n))
        expected = reference_block_r3(tensor, m, n)
        for (c, subset), value in block.items():
            assert value == expected[subset] * tensor.entries[subset][c - 1]
        touched = {subset for (_, subset) in block}
        assert touched == set(expected)


def test_block_signs_match_reference_r2():
    rng = random.Random(2)
    tensor = random_tensor(2, 3, rng)
    top = tensor.n
    for (m,) in combinations(range(1, top + 1), 1):
        block = equation_block(tensor, (m,))
        for (c, subset), value in block.items():
            s = subset[0] if subset[1] == m else subset[1]
            sign = (-1) ** (s - 1) if s < m else (-1) ** s
            assert value == sign * tensor.entries[subset][c - 1]


def test_block_touches_expected_columns():
    rng = random.Random(3)
    for r, d in ((2, 2), (3, 2), (4, 2)):
        tensor = random_tensor(r, d, rng)
        base = tuple(range(1, r))
        block = equation_block(tensor, base)
        touched = {subset for (_, subset) in block}
        assert len(touched) == r * d - (r - 1)


def test_system_matrix_sizes():
    for (r, d), size in (((3, 2), 20), ((3, 3), 84), ((2, 2), 6)):
        sm = system_matrix(tensor_from_basis(canonical_witness(r, d)))
        assert sm.size == size
        assert sm.matrix.rows == sm.matrix.cols == size


def test_square_size_identity():
    for r in range(2, 7):
        for d in range(1, 6):
            assert d * comb(r * d - 1, r - 1) == comb(r * d, r)


def test_row_and_column_indexing():
    """Row block_no * d + c - 1 is coordinate c of the block-th equation
    (bases with max < rd in dictionary order); columns are r-subsets in
    dictionary order."""
    tensor = tensor_from_basis(canonical_witness(3, 2))
    n, d = tensor.n, tensor.d
    sm = system_matrix(tensor)
    expected = {}
    for block_no, base in enumerate(combinations(range(1, n), 2)):
        for (c, subset), value in equation_block(tensor, base).items():
            expected[(block_no * d + c - 1, rank_combination(subset, n))] = value
    assert sm.matrix.entries == expected


def test_truncated_rows_match_full_rows():
    """Every row of the truncated system equals the row of the full system
    for the same equation base and coordinate."""

    def rows_of(matrix):
        out = [{} for _ in range(matrix.rows)]
        for (i, j), v in matrix.entries.items():
            out[i][j] = v
        return out

    rng = random.Random(3)
    for r, d in ((2, 3), (3, 2), (4, 2)):
        tensor = random_tensor(r, d, rng)
        n = r * d
        truncated = rows_of(system_matrix(tensor).matrix)
        full = rows_of(full_system_matrix(tensor))
        full_block = {base: b for b, base in enumerate(combinations(range(1, n + 1), r - 1))}
        for block_no, base in enumerate(combinations(range(1, n), r - 1)):
            for c in range(d):
                assert truncated[block_no * d + c] == full[full_block[base] * d + c]
        assert len(truncated) == d * comb(n - 1, r - 1)


def test_relations_r2_r3_r4():
    rng = random.Random(4)
    for r, d, trials in ((2, 2, 10), (3, 2, 10), (4, 2, 10)):
        n = r * d
        for _ in range(trials):
            tensor = random_tensor(r, d, rng)
            for base in combinations(range(1, n + 1), r - 2):
                assert relation_holds(tensor, base)


def test_dropped_equation_is_signed_sum_of_kept():
    """Each equation whose base contains the top vertex equals a signed sum
    of kept equations, so the truncation loses nothing."""
    rng = random.Random(5)
    tensor = random_tensor(3, 2, rng)
    n = tensor.n
    from hgdet.system import relation_sign
    for m in range(1, n):
        dropped = equation_block(tensor, (m, n))
        acc = {}
        for s in range(1, n):
            if s == m:
                continue
            base = (s, m) if s < m else (m, s)
            sign = relation_sign(s, (m,))
            for key, val in equation_block(tensor, base).items():
                acc[key] = acc.get(key, 0) + sign * val
        # relation: sum over kept + sign_top * dropped == 0
        sign_top = relation_sign(n, (m,))
        for key, val in dropped.items():
            acc[key] = acc.get(key, 0) + sign_top * val
        assert all(v == 0 for v in acc.values())


def test_facet_column_relation_signs_r3():
    x, y, z, t = 2, 3, 5, 6
    combo = dict(facet_column_relation((x, y, z, t)))
    assert combo[(x, y, z)] == (-1) ** t
    assert combo[(x, y, t)] == -((-1) ** z)
    assert combo[(x, z, t)] == (-1) ** y
    assert combo[(y, z, t)] == -((-1) ** x)


def test_facet_columns_cancel_on_degenerate_tensor():
    rng = random.Random(6)
    for r, d in ((2, 2), (3, 2)):
        tensor = random_tensor(r, d, rng)
        n = r * d
        simplex = tuple(sorted(rng.sample(range(1, n + 1), r + 1)))
        common = random_vector(d, rng)
        entries = dict(tensor.entries)
        for facet in combinations(simplex, r):
            entries[facet] = common
        degenerate = TensorAssignment(r, d, entries)
        sm = system_matrix(degenerate)
        combo = facet_column_relation(simplex)
        col_index = {s: rank_combination(s, n) for s in combinations(range(1, n + 1), r)}
        assert all(v == 0 for v in combine_columns(sm.matrix, col_index, combo))
        # and on the full system as well
        full = full_system_matrix(degenerate)
        assert all(v == 0 for v in combine_columns(full, col_index, combo))


def test_facet_columns_do_not_cancel_generically():
    rng = random.Random(7)
    tensor = random_tensor(3, 2, rng)
    sm = system_matrix(tensor)
    combo = facet_column_relation((1, 2, 3, 4))
    col_index = {s: rank_combination(s, 6) for s in combinations(range(1, 7), 3)}
    assert any(v != 0 for v in combine_columns(sm.matrix, col_index, combo))


def test_column_sparsity():
    rng = random.Random(8)
    tensor = random_tensor(3, 3, rng)
    sm = system_matrix(tensor)
    per_col = {}
    for (_, j) in sm.matrix.entries:
        per_col[j] = per_col.get(j, 0) + 1
    assert max(per_col.values()) <= 3 * 3
    basis = system_matrix(tensor_from_basis(canonical_witness(3, 3)))
    per_col = {}
    for (_, j) in basis.matrix.entries:
        per_col[j] = per_col.get(j, 0) + 1
    assert max(per_col.values()) <= 3


def test_determinant_multilinear_in_slots():
    rng = random.Random(9)
    for r, d in ((2, 2), (3, 2)):
        tensor = random_tensor(r, d, rng)
        slot = next(iter(sorted(tensor.entries)))
        u = random_vector(d, rng)
        w = random_vector(d, rng)
        alpha, beta = Fraction(3, 2), Fraction(-2, 5)
        combined = tensor.replace(
            slot, tuple(alpha * a + beta * b for a, b in zip(u, w)))
        assert tensor_det(combined) == (
            alpha * tensor_det(tensor.replace(slot, u))
            + beta * tensor_det(tensor.replace(slot, w)))


def test_matrix_assembly_deterministic():
    rng1, rng2 = random.Random(10), random.Random(10)
    t1 = random_tensor(3, 2, rng1)
    t2 = random_tensor(3, 2, rng2)
    m1, m2 = system_matrix(t1), system_matrix(t2)
    assert m1.matrix == m2.matrix
    assert list(m1.matrix.entries) == list(m2.matrix.entries)


def test_write_matrix_format():
    sm = system_matrix(tensor_from_basis(canonical_witness(2, 2)))
    buf = io.StringIO()
    write_matrix(sm.matrix, buf)
    lines = buf.getvalue().splitlines()
    head = lines[0].split()
    assert head[0] == "6" and head[1] == "6"
    assert len(lines) == 1 + int(head[2])
    row, col, value = lines[1].split()
    assert int(row) >= 1 and int(col) >= 1
    assert value.lstrip("-").isdigit()


def test_degenerate_tensor_has_zero_det():
    rng = random.Random(11)
    tensor = plant_degenerate_simplex(random_tensor(3, 2, rng), rng)
    assert tensor_det(tensor) == 0


def test_equation_block_validates_base():
    rng = random.Random(12)
    tensor = random_tensor(3, 2, rng)
    with pytest.raises(ValueError):
        equation_block(tensor, (1, 2, 3))
    with pytest.raises(ValueError):
        equation_block(tensor, (5, 2))


def test_det_against_cofactor_for_small_system():
    """The 6x6 truncated system of a random (2, 2) tensor against Laplace."""
    from test_exactla import cofactor_det
    rng = random.Random(13)
    tensor = random_tensor(2, 2, rng)
    sm = system_matrix(tensor)
    assert tensor_det(tensor) == cofactor_det(sm.matrix.to_dense())

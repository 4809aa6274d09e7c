"""Equation blocks, the truncated square system, relations, and facet columns."""

import io
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import comb, lcm, prod
from unittest import mock

import numpy as np
import pytest

import hgdet.exactla as exactla
import hgdet.system as system
import hgdet.tensors as tensors
from hgdet.combi import insertion_sign
from hgdet.determinant import basis_det, tensor_det, witness_det
from hgdet.exactla import (ExactMatrix, _rank_rows, det_bareiss, det_exact,
                           det_multimodular, rank_exact)
from hgdet.hypergraphs import (classify_partition, partition_from_basis,
                               partition_from_labels)
from hgdet.reference import KNOWN_WITNESS_DETS, system_dimension
from hgdet.system import equation_block, relation_holds, system_matrix, write_matrix
from hgdet.tensors import (BasisAssignment, TensorAssignment, canonical_witness,
                           subsets, tensor_from_basis, witness_labels, write_tensor)
from hgdet.verify import plant_degenerate_simplex, random_tensor, random_vector

from oracles import (basis_rows, combine_columns, facet_column_relation, full_system_matrix,
                     rank_combination, to_dense)


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


def test_dumps_write_exact_values_and_refuse_floats():
    """Matrix and tensor dumps write a Fraction as p/q and any other value
    as the integer it equals, through ``operator.index``: numpy integers and
    bools pass, and a float raises TypeError instead of being truncated."""
    buf = io.StringIO()
    write_matrix(ExactMatrix.from_rows([[Fraction(1, 2), np.int64(-7)],
                                        [True, Fraction(4, 2)]]), buf)
    assert buf.getvalue() == "2 2 4\n1 1 1/2\n1 2 -7\n2 1 1\n2 2 2\n"
    entries = {s: (np.int64(1), Fraction(-1, 3)) for s in subsets(2, 4)}
    buf = io.StringIO()
    write_tensor(TensorAssignment(2, 2, entries), buf)
    assert buf.getvalue().splitlines()[:2] == ["2 2", "1 2 : 1 -1/3"]
    with pytest.raises(TypeError):
        write_matrix(ExactMatrix.from_rows([[0.5, 1], [1, 2.75]]), io.StringIO())
    with pytest.raises(TypeError):
        write_tensor(TensorAssignment(2, 2, entries | {(1, 2): (0.5, 1)}), io.StringIO())


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
    assert tensor_det(tensor) == cofactor_det(to_dense(sm.matrix))


# --- the insertion walk against an equation_block oracle ------------------


def oracle_rows(tensor, top):
    """The insertion system over the (r-1)-subsets of 1..top, one
    equation_block per base: rows (row -> column -> value) and shape."""
    column = {subset: j for j, subset in enumerate(subsets(tensor.r, tensor.n))}
    rows = {}
    for block, base in enumerate(subsets(tensor.r - 1, top)):
        for (c, subset), value in equation_block(tensor, base).items():
            rows.setdefault(block * tensor.d + c - 1, {})[column[subset]] = value
    return rows, tensor.d * comb(top, tensor.r - 1), len(column)


def oracle_matrix(tensor, top):
    rows, nrows, ncols = oracle_rows(tensor, top)
    return ExactMatrix(nrows, ncols, {(i, j): v for i, row in rows.items()
                                      for j, v in row.items()})


def array_rows(rows, cols, vals):
    """Coordinate arrays as rows (row -> column -> value), each position
    given once and each value a nonzero int or Fraction."""
    out = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        assert v and type(v) in (int, Fraction)
        assert j not in out.setdefault(i, {})
        out[i][j] = v
    return out


def tensor_arrays(tensor, top):
    """The fill of the tensor's vectors, as given, over the (r-1)-subsets
    of 1..top, as rows and shape."""
    vectors = [tensor.entries[subset] for subset in subsets(tensor.r, tensor.n)]
    values = np.array(vectors, dtype=object).reshape(len(vectors), tensor.d)
    rows, cols, vals, nrows = system._vector_arrays(tensor.r, tensor.d, values, top)
    assert vals.dtype in (np.int64, object)
    return array_rows(rows, cols, vals), nrows, comb(tensor.n, tensor.r)


def check_tensor_route(tensor):
    """The tensor fill, the ExactMatrix wrappers and their integer row form
    equal the oracle, for the square and the full system."""
    for top, matrix in ((tensor.n - 1, system_matrix(tensor).matrix),
                        (tensor.n, full_system_matrix(tensor))):
        expected = oracle_rows(tensor, top)
        assert tensor_arrays(tensor, top) == expected
        assert matrix == oracle_matrix(tensor, top)
        rows, _, _ = expected
        scale = {i: lcm(*(Fraction(v).denominator for v in row.values()))
                 for i, row in rows.items()}
        ints, divisor = matrix.integer_form()
        assert ints == {(i, j): v * scale[i] for i, row in rows.items()
                        for j, v in row.items()}
        assert all(type(v) is int for v in ints.values())
        assert divisor == prod(scale.values())


def witness_cells(max_dim):
    """Every witness cell (r, d) with 2 <= r <= 8 and d >= 1 whose system
    dimension is at most ``max_dim``; the d = 1 cells have dimension 1."""
    cells = []
    for r in range(2, 9):
        d = 1
        while system_dimension(r, d) <= max_dim:
            cells.append((r, d))
            d += 1
    return cells


def random_basis(r, d, rng):
    return BasisAssignment(r, d, {s: rng.randint(1, d) for s in subsets(r, r * d)})


def sparse_rational_tensor(r, d, rng):
    """Entries p/q with |p| <= 2, so about one coordinate in five is zero
    and some nonzero ones are integers held as Fractions."""
    return TensorAssignment(r, d, {
        s: tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(d))
        for s in subsets(r, r * d)})


def check_label_route(basis, backend="bareiss"):
    """The label rows equal the oracle rows of the expanded tensor, for the
    square and the full system, the tensor route does too, and determinant
    and rank agree."""
    tensor = tensor_from_basis(basis)
    for top in (basis.n - 1, basis.n):
        assert basis_rows(basis, top) == oracle_rows(tensor, top)
    check_tensor_route(tensor)
    assert basis_det(basis, backend=backend) == tensor_det(tensor, backend=backend)
    rows, nrows, ncols = basis_rows(basis, basis.n)
    assert _rank_rows(rows, nrows, ncols) == rank_exact(full_system_matrix(tensor))


def test_label_rows_match_tensor_route_on_witness_cells():
    cells = witness_cells(2000)
    assert (2, 31) in cells and (4, 4) in cells and (6, 2) in cells
    assert all((r, 1) in cells for r in range(2, 9))
    for r, d in cells:
        check_label_route(canonical_witness(r, d))


def test_label_rows_match_tensor_route_on_all_r2d2_bases():
    pairs = list(subsets(2, 4))
    for code in range(2 ** len(pairs)):
        labels = {pair: (code >> k & 1) + 1 for k, pair in enumerate(pairs)}
        check_label_route(BasisAssignment(2, 2, labels), backend="auto")


@pytest.mark.parametrize("r, d", [(3, 2), (3, 3), (4, 2)])
def test_label_rows_match_tensor_route_on_random_bases(r, d):
    rng = random.Random(1000 * r + d)
    for _ in range(25):
        check_label_route(random_basis(r, d, rng), backend="auto")


@pytest.mark.parametrize("r, d", [(1, 4), (2, 1), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_tensor_rows_match_oracle_on_rational_tensors_with_zeros(r, d):
    rng = random.Random(2000 * r + d)
    for _ in range(3):
        tensor = sparse_rational_tensor(r, d, rng)
        check_tensor_route(tensor)
        assert tensor_det(tensor) == det_bareiss(oracle_matrix(tensor, tensor.n - 1))


def divisor_spy(monkeypatch):
    """Record, as rows, the integer arrays and the divisor every
    ``tensor_det`` hands to ``_det_coords``."""
    seen = []
    det_coords = exactla._det_coords

    def spy(arrays, n, divisor=1, backend="auto"):
        seen.append((array_rows(*arrays), divisor))
        return det_coords(arrays, n, divisor, backend)

    monkeypatch.setattr(exactla, "_det_coords", spy)
    return seen


@pytest.mark.parametrize("r, d", [(1, 4), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_tensor_det_clears_denominators_by_column(monkeypatch, r, d):
    """tensor_det scales each column by the lcm of its denominators: the
    integer rows are the system's times those lcms, the divisor is their
    product, and the value is the row-cleared matrix's determinant."""
    seen = divisor_spy(monkeypatch)
    rng = random.Random(2500 * r + d)
    for tensor in (random_tensor(r, d, rng), sparse_rational_tensor(r, d, rng)):
        matrix = system_matrix(tensor).matrix
        dens = {}
        for (_, j), v in matrix.entries.items():
            dens.setdefault(j, []).append(Fraction(v).denominator)
        scale = {j: lcm(*ds) for j, ds in dens.items()}
        value = det_bareiss(matrix)
        seen.clear()
        for backend in ("bareiss", "multimodular", "auto"):
            assert tensor_det(tensor, backend=backend) == value
        rows, _, _ = oracle_rows(tensor, tensor.n - 1)
        expected = {i: {j: v * scale[j] for j, v in row.items()} for i, row in rows.items()}
        assert seen == [(expected, prod(scale.values()))] * 3
        ints, _ = seen[0]
        assert all(type(v) is int for row in ints.values() for v in row.values())


@pytest.mark.parametrize("r, d, c", [(2, 3, 0), (3, 2, 1), (3, 3, 2), (1, 3, 1)])
def test_zero_coordinate_leaves_its_rows_absent(r, d, c):
    """A coordinate that is 0 in every slot empties its row of every block:
    those rows are absent, the shape is unchanged and det is 0."""
    rng = random.Random(3000 * r + 10 * d + c)
    tensor = sparse_rational_tensor(r, d, rng)
    tensor = TensorAssignment(r, d, {
        s: vec[:c] + (0,) + vec[c + 1:] for s, vec in tensor.entries.items()})
    check_tensor_route(tensor)
    rows, nrows, ncols = tensor_arrays(tensor, tensor.n - 1)
    assert (nrows, ncols) == (system_dimension(r, d), comb(r * d, r))
    assert not any(i % d == c for i in rows)
    assert system_matrix(tensor).size == nrows
    for backend in ("bareiss", "multimodular", "auto"):
        assert tensor_det(tensor, backend=backend) == 0


@pytest.mark.parametrize("d", range(1, 7))
def test_r1_is_the_ordinary_determinant_up_to_sign(d):
    """For r = 1 the one equation base is empty, the slots are the rows of
    a d x d matrix M, and the subset determinant is (-1)**(d // 2) det M."""
    rng = random.Random(4000 + d)
    m = [random_vector(d, rng) for _ in range(d)]
    tensor = TensorAssignment(1, d, {(i,): row for i, row in enumerate(m, start=1)})
    expected = (-1) ** (d // 2) * det_bareiss(ExactMatrix.from_rows(m))
    assert expected != 0
    for backend in ("bareiss", "multimodular", "auto"):
        assert tensor_det(tensor, backend=backend) == expected


def test_off_grid_witness_cell_3_11():
    """(3, 11) lies outside the known-values grid; its value is -1."""
    assert (3, 11) not in KNOWN_WITNESS_DETS
    assert system_dimension(3, 11) == 5456
    assert witness_det(3, 11, backend="bareiss") == -1
    tensor = tensor_from_basis(canonical_witness(3, 11))
    assert tensor_det(tensor, backend="bareiss") == -1


def test_witness_path_builds_no_tuple_keyed_matrix(monkeypatch):
    """No determinant path assembles an equation block or an ExactMatrix:
    labellings, witness tensors, rational tensors and classification."""
    rational = random_tensor(3, 2, random.Random(14))
    rational_det = det_bareiss(oracle_matrix(rational, rational.n - 1))
    witness = tensor_from_basis(canonical_witness(3, 3))
    partition = partition_from_labels(6, 3, 2, [1, 2] * 10)

    def forbidden(*args, **kwargs):
        raise AssertionError("tuple-keyed system built on a determinant path")

    monkeypatch.setattr(system, "equation_block", forbidden)
    monkeypatch.setattr(ExactMatrix, "__init__", forbidden)
    assert witness_det(3, 3) == KNOWN_WITNESS_DETS[(3, 3)]
    assert witness_det(3, 3, backend="multimodular") == KNOWN_WITNESS_DETS[(3, 3)]
    for backend in ("bareiss", "multimodular", "auto"):
        assert tensor_det(rational, backend=backend) == rational_det
        assert tensor_det(witness, backend=backend) == KNOWN_WITNESS_DETS[(3, 3)]
    assert classify_partition(partition).consistent


def test_basis_det_rejects_an_unknown_backend():
    with pytest.raises(ValueError):
        basis_det(canonical_witness(2, 2), backend="gauss")


# --- the count rule and the block identity ----------------------------------


def balanced_labels(r, d, rng):
    """A seeded labelling of the r-subsets of 1..rd whose every colour
    holds C(rd - 1, r - 1) of them."""
    label = [c for c in range(1, d + 1) for _ in range(comb(r * d - 1, r - 1))]
    rng.shuffle(label)
    return label


def unbalanced_labels(r, d, rng):
    """A seeded labelling in which some colour does not hold
    C(rd - 1, r - 1) subsets."""
    share = comb(r * d - 1, r - 1)
    while True:
        label = [rng.randint(1, d) for _ in range(comb(r * d, r))]
        if any(label.count(c) != share for c in range(1, d + 1)):
            return label


def label_cases():
    """All 64 labellings of (2, 2), then seeded balanced and unbalanced
    ones of (3, 2) and (2, 3)."""
    for label in product((1, 2), repeat=6):
        yield 2, 2, list(label)
    rng = random.Random(2525)
    for r, d in ((3, 2), (2, 3)):
        for _ in range(10):
            yield r, d, balanced_labels(r, d, rng)
            yield r, d, unbalanced_labels(r, d, rng)


def test_label_det_equals_the_expanded_tensor_det(route):
    """``basis_det`` equals ``tensor_det``, which has no count rule, on
    every case; only the balanced labellings reach ``_det_coords``."""
    seen = {"balanced": 0, "unbalanced": 0, "nonzero": 0}
    for r, d, label in label_cases():
        basis = BasisAssignment(r, d, dict(zip(subsets(r, r * d), label)))
        value, runs = route(lambda: basis_det(basis))
        assert value == tensor_det(tensor_from_basis(basis))
        share = comb(r * d - 1, r - 1)
        balanced = all(label.count(c) == share for c in range(1, d + 1))
        assert len(runs) == balanced
        seen["balanced" if balanced else "unbalanced"] += 1
        seen["nonzero"] += value != 0
    assert all(seen.values()), seen


def test_unbalanced_labelling_is_zero_with_no_fill(route, monkeypatch):
    """The count rule answers before the fill, and never before refusing
    an unknown backend."""
    rng = random.Random(26)
    label = unbalanced_labels(3, 2, rng)
    basis = BasisAssignment(3, 2, dict(zip(subsets(3, 6), label)))
    p = partition_from_labels(6, 3, 2, label)

    def refuse(*args):
        raise AssertionError("filled an unbalanced labelling")

    monkeypatch.setattr(system, "_label_arrays", refuse)
    assert route(lambda: basis_det(basis)) == (0, [])
    assert route(lambda: classify_partition(p).det) == (0, [])
    assert classify_partition(p).consistent
    with pytest.raises(ValueError):
        basis_det(basis, backend="nope")


def colour_block_dets(r, d, label):
    """det A_c for each colour c: the system restricted to the rows of
    colour c and the columns labelled c, both renumbered in increasing
    order, each through ``_det_coords``."""
    n = r * d
    m = comb(n - 1, r - 1)
    rows, cols, vals, _ = system._label_arrays(r, d, label,
                                               system._insertion_arrays(r, n, n - 1))
    label = np.asarray(label)
    dets = []
    for c in range(1, d + 1):
        keep = rows % d == c - 1
        assert (label[cols[keep]] == c).all()
        columns = np.flatnonzero(label == c)
        assert len(columns) == m
        dets.append(exactla._det_coords([rows[keep] // d, np.searchsorted(columns, cols[keep]),
                                         vals[keep]], m, 1, "bareiss"))
    return dets


def block_sign(r, d, label):
    """(-1)**(inv + C(m, 2) * C(d, 2)): inv sorts the columns by label, and
    C(m, 2) * C(d, 2) sends row b*d + c - 1 to row (c - 1)*m + b."""
    m = comb(r * d - 1, r - 1)
    inv = sum(a > b for i, a in enumerate(label) for b in label[i + 1:])
    return (-1) ** (inv + comb(m, 2) * comb(d, 2))


@pytest.mark.parametrize("r, d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)])
def test_labelling_det_is_the_signed_product_of_colour_blocks(r, d):
    """det = eps * prod_c det A_c on the witness cell and on 20 seeded
    balanced labellings, half of them a swap or two from the witness, so
    that some are nonsingular: the block identity the count rule rests
    on."""
    rng = random.Random(100 * r + d)
    labels = [witness_labels(r, d).tolist()]
    labels += [balanced_labels(r, d, rng) for _ in range(10)]
    labels += [swapped_witness(r, d, rng) for _ in range(10)]
    for k, label in enumerate(labels):
        basis = BasisAssignment(r, d, dict(zip(subsets(r, r * d), label)))
        value = basis_det(basis, backend="bareiss")
        assert value == block_sign(r, d, label) * prod(colour_block_dets(r, d, label))
        if k == 0:
            assert value == KNOWN_WITNESS_DETS.get((r, d), value) and abs(value) == 1


# --- the array route against the row route ----------------------------------


def bareiss_label_det(r, d, label, peel_nnz):
    """The labelling's determinant by ``_det_coords`` with backend
    ``bareiss`` on the walk's arrays, ``_PEEL_NNZ`` set to ``peel_nnz``."""
    n = r * d
    *arrays, nrows = system._label_arrays(r, d, label, system._insertion_arrays(r, n, n - 1))
    with mock.patch.object(exactla, "_PEEL_NNZ", peel_nnz):
        return exactla._det_coords(arrays, nrows, 1, "bareiss")


def row_route_det(r, d, label):
    """The labelling's determinant by ``_eliminate`` on the integer rows of
    the walk's arrays, with no wave peel."""
    return bareiss_label_det(r, d, label, math.inf)


def array_route_det(r, d, label):
    """The labelling's determinant by the wave peel, whatever the size."""
    return bareiss_label_det(r, d, label, 0)


def test_array_route_matches_row_route_on_witness_cells():
    cells = witness_cells(20_000)
    assert (2, 100) in cells and (3, 16) in cells and (8, 2) in cells
    for r, d in cells:
        label = witness_labels(r, d)
        value = array_route_det(r, d, label)
        assert value == row_route_det(r, d, label.tolist()), (r, d)
        assert abs(value) == 1
        if (r, d) in KNOWN_WITNESS_DETS:
            assert value == KNOWN_WITNESS_DETS[(r, d)], (r, d)


def swapped_witness(r, d, rng):
    """The witness labels with one or two pairs of entries swapped: near
    the witness, so some stay nonsingular and some leave a peel core."""
    label = witness_labels(r, d).tolist()
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(len(label)), rng.randrange(len(label))
        label[i], label[j] = label[j], label[i]
    return label


def test_array_route_matches_row_route_on_random_labellings(monkeypatch):
    """Seeded labellings forced through the array route agree with the row
    route and with the multimodular determinant of the expanded tensor.
    Uniform labellings are singular; labellings near the witness include
    nonsingular ones and ones that leave a non-empty core."""
    cores = []
    eliminate = exactla._eliminate

    def spy(rows, nrows, ncols, want_det):
        cores.append(nrows)
        return eliminate(rows, nrows, ncols, want_det)

    monkeypatch.setattr(exactla, "_eliminate", spy)
    seen = {"singular": 0, "nonsingular": 0, "core": 0, "nonsingular core": 0}
    rng = random.Random(5000)
    for r, d in ((3, 3), (4, 2), (3, 4), (2, 10)):
        subsets_rd = list(subsets(r, r * d))
        singular = 0
        for k in range(40):
            if k < 5:
                label = [rng.randint(1, d) for _ in subsets_rd]
            else:
                label = swapped_witness(r, d, rng)
            cores.clear()
            value = array_route_det(r, d, label)
            core = cores[0] if cores else 0
            basis = BasisAssignment(r, d, dict(zip(subsets_rd, label)))
            assert value == row_route_det(r, d, label)
            assert value == tensor_det(tensor_from_basis(basis), backend="multimodular")
            singular += value == 0
            seen["singular" if value == 0 else "nonsingular"] += 1
            seen["core"] += core > 0
            seen["nonsingular core"] += core > 0 and value != 0
        assert singular >= 5, (r, d)
    assert all(seen.values()), seen


def test_witness_det_takes_the_array_route(route):
    """Labellings above ``_PEEL_NNZ`` nonzeros with backend bareiss reach
    the wave peel; a small one reaches ``_eliminate``."""
    for call, value in ((lambda: witness_det(5, 5), KNOWN_WITNESS_DETS[(5, 5)]),
                        (lambda: witness_det(5, 5, backend="bareiss"), 1),
                        (lambda: basis_det(canonical_witness(4, 3)),
                         KNOWN_WITNESS_DETS[(4, 3)])):
        assert route(call) == (value, ["_peel_det"])
        assert route.dtypes == [(np.int32, np.int32, np.int8)]
    assert route(lambda: witness_det(3, 2)) == (KNOWN_WITNESS_DETS[(3, 2)], ["_eliminate"])


def test_small_and_multimodular_labellings_take_the_row_route(route):
    """Classification of K^3_6 partitions and every multimodular
    determinant stay off the wave peel."""
    report, runs = route(lambda: classify_partition(
        partition_from_labels(6, 3, 2, [1, 2] * 10)))
    assert report.consistent and runs == ["_eliminate"]
    assert route(lambda: classify_partition(
        partition_from_basis(canonical_witness(3, 2))).det) == (-1, ["_eliminate"])
    value = KNOWN_WITNESS_DETS[(3, 5)]
    assert route(lambda: witness_det(3, 5, backend="multimodular")) == (
        value, ["_multimodular"])
    assert route(lambda: witness_det(3, 5)) == (value, ["_peel_det"])


def test_every_determinant_has_one_entry(route):
    """Every public determinant reaches ``_det_coords`` exactly once, and
    that entry runs the eliminator its backend and size pick."""
    rational = random_tensor(3, 2, random.Random(15))
    matrix = oracle_matrix(rational, rational.n - 1)
    expected = det_bareiss(matrix)
    witness = system_matrix(tensor_from_basis(canonical_witness(3, 5))).matrix
    partition = partition_from_labels(6, 3, 2, [1, 2] * 10)
    cases = [
        (lambda: tensor_det(rational), expected, "_eliminate"),
        (lambda: tensor_det(rational, backend="multimodular"), expected, "_multimodular"),
        (lambda: tensor_det(tensor_from_basis(canonical_witness(4, 3))),
         KNOWN_WITNESS_DETS[(4, 3)], "_peel_det"),
        (lambda: basis_det(canonical_witness(3, 2)), -1, "_eliminate"),
        (lambda: basis_det(canonical_witness(4, 3)), KNOWN_WITNESS_DETS[(4, 3)], "_peel_det"),
        (lambda: witness_det(3, 3), KNOWN_WITNESS_DETS[(3, 3)], "_eliminate"),
        (lambda: witness_det(3, 5, backend="multimodular"), KNOWN_WITNESS_DETS[(3, 5)],
         "_multimodular"),
        (lambda: witness_det(5, 5), 1, "_peel_det"),
        (lambda: classify_partition(partition).det, 0, "_eliminate"),
        (lambda: det_exact(matrix), expected, "_eliminate"),
        (lambda: det_bareiss(matrix), expected, "_eliminate"),
        (lambda: det_bareiss(witness), KNOWN_WITNESS_DETS[(3, 5)], "_peel_det"),
        (lambda: det_multimodular(matrix), expected, "_multimodular"),
    ]
    for call, value, eliminator in cases:
        assert route(call) == (value, [eliminator])


# Coordinate kinds: a name, the pool a tensor's coordinates come from
# (given the draw's rng), and the dtype of the value array that
# ``system._tensor_values`` builds from them.  Ints and Fractions whose
# cleared values lie in (-2**63, 2**63) give int64; anything else gives
# Python objects.
COORDINATE_KINDS = [
    ("int", lambda rng: range(-9, 10), np.int64),
    ("int64 bounds", lambda rng: (2**63 - 1, -(2**63 - 1), -1, 1, 2), np.int64),
    ("2**63", lambda rng: (2**63, -1, 1, 2), object),
    ("-2**63", lambda rng: (-2**63, -1, 1, 2), object),
    ("int and Fraction", lambda rng: (Fraction(1, 2), -3, Fraction(-5, 6), 1, 0,
                                      Fraction(7, 4), 2), np.int64),
    ("Fraction(3, 1)", lambda rng: (Fraction(3, 1), Fraction(-2, 1), Fraction(1), 5),
     np.int64),
    ("Fraction beyond int64", lambda rng: [
        Fraction(rng.randint(1, 9), rng.randrange(1 << 64, 1 << 65)) for _ in range(20)],
     object),
    ("bool", lambda rng: (True, False, 2, -1, 3, -5, 7, -8), np.int64),
    ("numpy.int64", lambda rng: tuple(map(np.int64, range(-9, 10))), np.int64),
    # Products of two of these pass 2**63: int64 arithmetic would wrap.
    ("numpy.int64 past 2**31", lambda rng: tuple(map(np.int64, (
        3**30 + 7, -(3**30), 3**29 - 1, 5, -2))), np.int64),
    # Numpy integers that int64 cannot hold, or whose negation it cannot.
    ("numpy.uint64 2**63 + 5", lambda rng: (np.uint64(2**63 + 5), np.int8(-1),
                                            np.int64(1), np.uint8(2)), object),
    ("numpy.int64 -2**63", lambda rng: tuple(map(np.int64, (-2**63, -1, 1, 2))), object),
]


def kind_tensor(r, d, pool, rng):
    """A tensor whose coordinates, in dictionary order of the subsets, run
    through ``pool`` once in a random order, then are drawn from it."""
    draws = chain(rng.sample(pool, len(pool)), iter(lambda: rng.choice(pool), None))
    return TensorAssignment(r, d, {s: tuple(islice(draws, d)) for s in subsets(r, r * d)})


def oracle_det(tensor):
    """The oracle matrix's determinant, with bools and numpy integers read
    as Python ints: an ExactMatrix of numpy integers would overflow."""
    plain = TensorAssignment(tensor.r, tensor.d, {
        s: tuple(v if type(v) is Fraction else int(v) for v in vec)
        for s, vec in tensor.entries.items()})
    return det_bareiss(oracle_matrix(plain, tensor.n - 1))


def check_tensor_values(tensor, dtype):
    """The value array of ``tensor`` and its fill have ``dtype``, and the
    scales are the lcms of each vector's denominators, None without a
    Fraction.  Returns the fill's arrays and the divisor."""
    vectors = [tensor.entries[s] for s in subsets(tensor.r, tensor.n)]
    values, scales = system._tensor_values(tensor)
    assert values.dtype == dtype and values.shape == (len(vectors), tensor.d)
    if any(type(v) is Fraction for vec in vectors for v in vec):
        assert scales == [lcm(*(v.denominator for v in vec)) for vec in vectors]
    else:
        assert scales is None
    *arrays, n = system._vector_arrays(tensor.r, tensor.d, values, tensor.n - 1)
    assert arrays[2].dtype == dtype
    return arrays, n, prod(scales or ())


@pytest.mark.parametrize("r, d", [(2, 2), (2, 3), (3, 2)])
def test_tensor_beyond_int64_holds_python_ints(r, d):
    """For each coordinate kind, the value array has the kind's dtype:
    Python ints, not int64, hold anything int64 cannot, such as
    Fractions whose denominators near 2**64 clear to coordinates beyond
    2**63, and bools and numpy integers keep their values.  Every backend
    gives the oracle's determinant, which a wrong divisor or an overflow
    would change."""
    for kind, pool, dtype in COORDINATE_KINDS:
        rng = random.Random(6000 + 10 * r + d)
        tensor = kind_tensor(r, d, pool(rng), rng)
        check_tensor_values(tensor, dtype)
        expected = oracle_det(tensor)
        assert expected != 0, kind
        for backend in ("bareiss", "multimodular", "auto"):
            assert tensor_det(tensor, backend=backend) == expected, (kind, backend)


def kind_matrix(n, pool, rng):
    """A nonsingular n x n ExactMatrix whose entries, row by row, run
    through ``pool`` once in a random order, then are drawn from it, and
    the same matrix with Python ints for its bools and numpy integers."""
    while True:
        draws = chain(rng.sample(pool, len(pool)), iter(lambda: rng.choice(pool), None))
        dense = [list(islice(draws, n)) for _ in range(n)]
        plain = [[v if type(v) is Fraction else int(v) for v in row] for row in dense]
        if sympy_det(plain):
            return ExactMatrix.from_rows(dense), plain


def sympy_det(rows):
    sympy = pytest.importorskip("sympy")
    return Fraction(str(sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                                       for v in row] for row in rows]).det()))


def test_matrix_values_follow_the_tensor_rule(route):
    """An ExactMatrix of each coordinate kind reaches elimination by the
    tensors' value rule: its values, cleared row by row, have the kind's
    dtype, bools and numpy integers count as the Python ints they equal,
    and every determinant, the rank and the integer form are those of the
    same matrix in Python ints and Fractions.  A float raises TypeError
    in every one of those calls and in tensor_det."""
    n = 5
    for kind, pool, dtype in COORDINATE_KINDS:
        rng = random.Random(6200)
        matrix, plain = kind_matrix(n, pool(rng), rng)
        expected = sympy_det(plain)
        assert route(lambda: det_multimodular(matrix)) == (expected, ["_multimodular"])
        assert route.dtypes == [(np.intp, np.intp, dtype)], kind
        assert det_bareiss(matrix) == det_exact(matrix) == expected, kind
        assert rank_exact(matrix) == n
        scale = [lcm(*(Fraction(v).denominator for v in row)) for row in plain]
        ints, divisor = matrix.integer_form()
        assert ints == {(i, j): v * scale[i] for i, row in enumerate(plain)
                        for j, v in enumerate(row) if v}, kind
        assert all(type(v) is int for v in ints.values())
        assert divisor == prod(scale)

    # A float is not exact: a matrix or a tensor holding one is refused.
    matrix = ExactMatrix.from_rows([[0.5, 1], [1, 3]])
    for call in (det_bareiss, det_multimodular, det_exact, rank_exact,
                 ExactMatrix.integer_form):
        with pytest.raises(TypeError):
            call(matrix)
    tensor = TensorAssignment(2, 1, {(1, 2): (0.5,)})
    with pytest.raises(TypeError):
        tensor_det(tensor)


def wide_witness_tensor(r, d, rng):
    """The witness labelling with vector p/q * e_label + m * e_(label + 1),
    q above 2**64: its column-cleared coordinates exceed 2**63, and it has
    twice the labelling's nonzeros."""
    vectors = {}
    for subset, label in zip(subsets(r, r * d), witness_labels(r, d).tolist()):
        vec = [0] * d
        vec[label - 1] = Fraction(rng.randint(1, 9), rng.randrange(1 << 64, 1 << 65))
        vec[label % d] = rng.randint(1, 9)
        vectors[subset] = tuple(vec)
    return TensorAssignment(r, d, vectors)


def test_systems_above_the_peel_bound_reach_the_peel(route):
    """Above ``_PEEL_NNZ`` nonzeros, backend bareiss takes every system to
    the wave peel with the arrays of its fill: the det-auto-sparse witness
    tensors with int64 values (``auto`` picks bareiss), a tensor beyond
    int64 with Python ints, a planted degenerate tensor, a (3, 3) tensor
    of each other coordinate kind with the kind's dtype, and an
    ExactMatrix.
    Each value is ``_eliminate``'s on the same integer rows, the
    multimodular backend's and, for the tensors, the oracle's."""
    rng = random.Random(6100)
    cases = [
        (tensor_from_basis(canonical_witness(3, 5)), "auto", np.int64),
        (tensor_from_basis(canonical_witness(4, 3)), "auto", np.int64),
        (wide_witness_tensor(3, 3, rng), "bareiss", object),
        (plant_degenerate_simplex(random_tensor(3, 3, rng), rng), "bareiss", np.int64),
        # The wide witness tensor stands for the Fractions beyond int64: a
        # dense (3, 3) one takes seconds in the row-cleared oracle.
        *((kind_tensor(3, 3, pool(rng), rng), "bareiss", dtype)
          for kind, pool, dtype in COORDINATE_KINDS if kind != "Fraction beyond int64"),
    ]
    values = []
    for tensor, backend, dtype in cases:
        (rows, cols, vals), n, divisor = check_tensor_values(tensor, dtype)
        assert len(vals) > exactla._PEEL_NNZ
        value, runs = route(lambda: tensor_det(tensor, backend=backend))
        assert (runs, route.dtypes) == (["_peel_det"], [(np.intp, np.int32, dtype)])
        _, det = exactla._eliminate(exactla._int_rows(rows, cols, vals), n, n, want_det=True)
        assert value == Fraction(det, divisor) == tensor_det(tensor, backend="multimodular")
        assert value == oracle_det(tensor)
        values.append(value)
    assert values[:2] == [KNOWN_WITNESS_DETS[(3, 5)], KNOWN_WITNESS_DETS[(4, 3)]]
    assert values[2] != 0 and values[3] == 0
    assert 0 not in values[4:]

    matrix = system_matrix(cases[0][0]).matrix
    value, runs = route(lambda: det_bareiss(matrix))
    assert (runs, route.dtypes) == (["_peel_det"], [(np.intp, np.intp, np.int64)])
    rows, cols, vals, divisor = exactla._matrix_coords(matrix)
    _, det = exactla._eliminate(exactla._int_rows(rows, cols, vals), matrix.rows,
                                matrix.rows, want_det=True)
    assert value == Fraction(det, divisor) == det_multimodular(matrix) == values[0]


def test_array_route_is_32_bit(monkeypatch, route):
    """The wave peel receives int32 rows and columns and int8 values, and
    the one permutation whose sign it takes with numpy is its own int32
    one; the empty core's ``_eliminate`` walks its pairing's cycles in
    Python."""
    dtypes = []
    sign = exactla._array_permutation_sign

    def sign_spy(perm):
        dtypes.append(perm.dtype)
        return sign(perm)

    monkeypatch.setattr(exactla, "_array_permutation_sign", sign_spy)
    assert route(lambda: witness_det(5, 5, backend="bareiss")) == (1, ["_peel_det"])
    assert route.dtypes == [(np.int32, np.int32, np.int8)]
    assert dtypes == [np.int32]


def permutation_sign_spy(monkeypatch):
    """Run each ``check`` of the returned list when the wave peel takes
    its permutation sign, after its last wave."""
    checks = []
    sign = exactla._array_permutation_sign

    def spy(perm):
        for check in checks:
            check()
        return sign(perm)

    monkeypatch.setattr(exactla, "_array_permutation_sign", spy)
    return checks


def test_wave_peel_frees_the_arrays_it_is_handed(monkeypatch):
    """``_peel_det`` empties the list it is handed, so on a fresh (5, 5)
    walk no array of it is alive once the waves are done; and the first
    wave frees rows and columns as their compacted copies are made, before
    it compacts the values."""
    checks = permutation_sign_spy(monkeypatch)
    arrays = list(system._label_arrays(5, 5, witness_labels(5, 5),
                                       system._insertion_arrays(5, 25, 24)))
    nrows = arrays.pop()
    refs = [weakref.ref(a) for a in arrays]
    gather, freed = exactla._gather, []

    def gather_spy(a, key):
        if a is refs[2]():
            freed.append((refs[0]() is None, refs[1]() is None))
        return gather(a, key)

    monkeypatch.setattr(exactla, "_gather", gather_spy)
    seen = []
    checks.append(lambda: seen.append((arrays == [], [ref() is None for ref in refs])))
    assert exactla._peel_det(arrays, nrows) == 1
    assert seen == [(True, [True] * 3)]
    # The values are gathered for the pivots, then compacted.
    assert freed == [(False, False), (True, True)]


def test_witness_det_frees_the_walk_after_the_first_wave(monkeypatch):
    """Through ``witness_det``, the arrays of ``system._label_arrays`` are
    all dead when the second wave counts its rows, and the list the peel
    was handed is empty: no caller keeps them alive."""
    refs, handed, seen = [], [], []
    label_arrays, peel_det = system._label_arrays, exactla._peel_det
    line_counts = exactla._line_counts

    def label_spy(*args):
        out = label_arrays(*args)
        refs.extend(weakref.ref(a) for a in out[:3])
        return out

    def peel_spy(arrays, n):
        handed.append(arrays)
        return peel_det(arrays, n)

    def counts_spy(index, n):
        # Each wave counts rows, then columns.
        seen.append((handed[0] == [], [ref() is None for ref in refs]))
        return line_counts(index, n)

    monkeypatch.setattr(system, "_label_arrays", label_spy)
    monkeypatch.setattr(exactla, "_peel_det", peel_spy)
    monkeypatch.setattr(exactla, "_line_counts", counts_spy)
    assert witness_det(5, 5, backend="bareiss") == 1
    assert len(handed) == 1 and len(seen) > 2
    assert seen[0] == (True, [False] * 3)
    assert seen[2] == (True, [True] * 3)


def test_array_route_peak_memory_per_nonzero():
    """The (5, 6) witness, 617 526 nonzeros, peaks at no more than 15 bytes
    per nonzero under tracemalloc on the array route (13.7 when measured);
    the walk kept alive through the peel, or nnz-sized intp copies of its
    indices, would bring it back above 20."""
    nnz = comb(29, 4) * 26
    assert nnz == 617_526
    tracemalloc.start()
    try:
        assert witness_det(5, 6, backend="bareiss") == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * nnz, peak / nnz


def test_peel_gathers_keep_the_peak_per_nonzero():
    """The (10, 2) witness, 1 016 158 nonzeros, peaks at no more than 14.5
    bytes per nonzero under tracemalloc (13.5 when measured).  The peel's
    counts, gathers and compactions over the whole system would copy its
    int32 indices, or the positions they keep, to intp arrays of up to 8
    bytes per nonzero: ``np.bincount`` counts gave 19.7, and whole-array
    ``np.take`` and ``np.compress`` on top of them 22.6."""
    nnz = comb(19, 9) * 11
    assert nnz == 1_016_158
    tracemalloc.start()
    try:
        assert witness_det(10, 2, backend="bareiss") == -1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14.5 * nnz, peak / nnz


def test_cells_beyond_32_bit_indices_are_refused(monkeypatch):
    """C(2400, 3) exceeds 2**31 - 1, so (3, 800) is refused with
    MemoryError before the labels or either walk allocate anything:
    ``witness_det`` on the uncached walk, and the label and vector fills
    of ``basis_det`` and ``tensor_det`` on the cached one.  The subset
    arrays that all of them start from raise if they are reached."""
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the index-width guard")

    monkeypatch.setattr(tensors, "subset_array", forbidden)
    monkeypatch.setattr(system, "subset_array", forbidden)
    assert comb(2400, 3) > 2**31 - 1
    for call in (lambda: witness_det(3, 800),
                 lambda: witness_det(3, 800, backend="bareiss"),
                 lambda: system._label_arrays(3, 800, [], system._pattern(3, 2400, 2399)),
                 lambda: system._vector_arrays(3, 800, np.zeros((0, 800), np.int64), 2399)):
        with pytest.raises(MemoryError, match="32-bit"):
            call()
    # The guard sits at the int32 limit itself.
    n = max(n for n in range(2300, 2400) if comb(n, 3) <= 2**31 - 1)
    system._check_index_width(3, n)
    with pytest.raises(MemoryError):
        system._check_index_width(3, n + 1)


# --- the cached pattern -----------------------------------------------------


def test_pattern_is_shared_and_read_only():
    first = system._pattern(3, 6, 5)
    assert system._pattern(3, 6, 5) is first
    for array, fresh in zip(first, system._insertion_arrays(3, 6, 5)):
        assert np.array_equal(array, fresh) and array.dtype == fresh.dtype
        with pytest.raises(ValueError):
            array[0] = 0


def reference_walk(r, n, top):
    """One insertion at a time: the rank of the enlarged subset and
    ``insertion_sign``, bases in dictionary order and each inserted element
    increasing."""
    cols, signs = [], []
    for base in subsets(r - 1, top):
        for x in range(1, n + 1):
            if x not in base:
                pos, sign = insertion_sign(x, base)
                cols.append(rank_combination(base[:pos - 1] + (x,) + base[pos - 1:], n))
                signs.append(sign)
    return cols, signs


@pytest.mark.parametrize("r, n, top", [(3, 6, 5), (4, 8, 7), (2, 10, 10)])
def test_walk_does_not_depend_on_its_chunk(monkeypatch, r, n, top):
    """Chunks of 1, 4 and 7 bases (4 divides none of the base counts 10,
    35 and 10) give the default walk, which is the per-insertion walk,
    top = n included."""
    col, sign = system._insertion_arrays(r, n, top)
    assert (col.dtype, sign.dtype) == (np.int32, np.int8)
    assert (col.tolist(), sign.tolist()) == reference_walk(r, n, top)
    for chunk in (1, 4, 7):
        monkeypatch.setattr(system, "_WALK_CHUNK", chunk)
        other = system._insertion_arrays(r, n, top)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(other, (col, sign)))


def test_pattern_cache_stays_bounded():
    shapes = [(2, n, n - 1) for n in range(2, system._PATTERN_CACHE_SIZE + 6)]
    assert len(shapes) > system._PATTERN_CACHE_SIZE
    for shape in shapes:
        system._pattern(*shape)
        assert system._pattern.cache_info().currsize <= system._PATTERN_CACHE_SIZE


def test_large_labellings_leave_the_pattern_cache_alone():
    """``witness_det`` walks afresh at every size and leaves the cache
    alone; ``basis_det`` of the same cells fills the cached pattern."""
    for r, d in ((5, 5), (3, 2)):
        before = system._pattern.cache_info()
        assert witness_det(r, d) == KNOWN_WITNESS_DETS[(r, d)]
        assert system._pattern.cache_info() == before
        assert basis_det(canonical_witness(r, d)) == KNOWN_WITNESS_DETS[(r, d)]
        after = system._pattern.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1


def test_off_grid_frontier_cells_9_2_and_10_2():
    """(9, 2) and (10, 2) lie outside the known-values grid; both routes
    give -1."""
    for r, d, dim in ((9, 2, 48_620), (10, 2, 184_756)):
        assert (r, d) not in KNOWN_WITNESS_DETS
        assert system_dimension(r, d) == dim
        value = witness_det(r, d)
        assert value == -1
        assert row_route_det(r, d, witness_labels(r, d).tolist()) == value

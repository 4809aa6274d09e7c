"""Tensor assignments, the canonical witness, and degeneracy detection."""

import io
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hgdet.reference import system_dimension
from hgdet.tensors import (BasisAssignment, ParseError, TensorAssignment,
                           apply_matrix, canonical_witness,
                           find_degenerate_simplex, read_tensor, subset_array,
                           subsets, tensor_from_basis, witness_labels,
                           write_basis, write_tensor)
from hgdet.verify import random_tensor


def witness_label_r3(subset):
    """Direct three-case residue rule for r = 3 (independent of the general
    block formula): the label is the block of i, j, or k according to the
    residue of i + j + k mod 3."""
    i, j, k = subset
    a, b, c = (i + 2) // 3, (j + 2) // 3, (k + 2) // 3
    return {0: a, 1: b, 2: c}[(i + j + k) % 3]


def test_witness_examples_r5_d6():
    w = canonical_witness(5, 6)
    assert w.labels[(1, 2, 7, 14, 28)] == 2
    assert w.labels[(26, 27, 28, 29, 30)] == 6


def test_witness_example_r3_d2():
    w = canonical_witness(3, 2)
    assert w.labels[(1, 2, 3)] == 1
    assert len(w.labels) == 20


def test_witness_r3_matches_direct_rule():
    for d in (1, 2, 3, 4):
        w = canonical_witness(3, d)
        for subset, label in w.labels.items():
            assert label == witness_label_r3(subset)


def test_witness_labels_are_well_formed():
    """Every label is the block index of the element singled out by the
    residue rule, hence a block that actually meets the subset."""
    for r, d in ((2, 3), (3, 3), (4, 2), (5, 2)):
        w = canonical_witness(r, d)
        for subset, label in w.labels.items():
            blocks = [(x + r - 1) // r for x in subset]
            assert label in blocks
            t = sum(subset) % r
            assert blocks[t] == label


def test_witness_rejects_bad_arguments():
    for make in (canonical_witness, witness_labels):
        with pytest.raises(ValueError):
            make(1, 3)
        with pytest.raises(ValueError):
            make(3, 0)


def test_tensor_from_basis_unit_vectors():
    w = canonical_witness(2, 3)
    t = tensor_from_basis(w)
    for subset, lab in w.labels.items():
        vec = t.entries[subset]
        assert vec[lab - 1] == 1
        assert sum(map(abs, vec)) == 1


def test_tensor_validation():
    with pytest.raises(ValueError):
        TensorAssignment(2, 2, {})
    entries = {s: (1, 0) for s in subsets(2, 4)}
    entries[(1, 2)] = (1, 0, 0)
    with pytest.raises(ValueError):
        TensorAssignment(2, 2, entries)
    with pytest.raises(ValueError):
        BasisAssignment(2, 2, {s: 3 for s in subsets(2, 4)})
    # The right count of keys, one of them outside 1..4.
    keys = [(3, 9) if s == (3, 4) else s for s in subsets(2, 4)]
    with pytest.raises(ValueError, match=r"\(3, 9\) is not one of the 2-subsets"):
        TensorAssignment(2, 2, {s: (1, 0) for s in keys})
    with pytest.raises(ValueError, match=r"\(3, 9\) is not one of the 2-subsets"):
        BasisAssignment(2, 2, {s: 1 for s in keys})


def test_degenerate_simplex_planted_r3():
    w = tensor_from_basis(canonical_witness(3, 2))
    entries = dict(w.entries)
    e1 = (1, 0)
    for facet in combinations((1, 2, 3, 4), 3):
        entries[facet] = e1
    t = TensorAssignment(3, 2, entries)
    assert find_degenerate_simplex(t) == (1, 2, 3, 4)


def test_degenerate_simplex_absent_on_witness():
    t = tensor_from_basis(canonical_witness(3, 2))
    assert find_degenerate_simplex(t) is None
    # independent exhaustive confirmation
    for simplex in combinations(range(1, 7), 4):
        facets = [t.entries[f] for f in combinations(simplex, 3)]
        assert len(set(facets)) > 1


def test_degenerate_simplex_monochromatic_triangle_r2():
    t = tensor_from_basis(canonical_witness(2, 2))
    entries = dict(t.entries)
    for pair in ((1, 3), (1, 4), (3, 4)):
        entries[pair] = (0, 1)
    planted = TensorAssignment(2, 2, entries)
    assert find_degenerate_simplex(planted) == (1, 3, 4)


def test_apply_matrix_identity_and_scaling():
    rng = random.Random(5)
    t = random_tensor(2, 2, rng)
    eye = [[1, 0], [0, 1]]
    assert apply_matrix(eye, t).entries == t.entries
    doubled = apply_matrix([[2, 0], [0, 2]], t)
    for s, vec in t.entries.items():
        assert doubled.entries[s] == tuple(2 * c for c in vec)


def test_apply_matrix_composition():
    rng = random.Random(6)
    t = random_tensor(2, 2, rng)
    m1 = [[1, 2], [3, 4]]
    m2 = [[0, 1], [1, 1]]
    product = [[sum(m1[i][k] * m2[k][j] for k in range(2)) for j in range(2)]
               for i in range(2)]
    assert apply_matrix(product, t).entries == \
        apply_matrix(m1, apply_matrix(m2, t)).entries


def test_apply_matrix_rejects_bad_shape():
    rng = random.Random(7)
    t = random_tensor(2, 2, rng)
    with pytest.raises(ValueError):
        apply_matrix([[1, 0, 0], [0, 1, 0]], t)


def test_singular_transform_kills_witness_det():
    from hgdet.determinant import tensor_det
    t = tensor_from_basis(canonical_witness(3, 2))
    assert tensor_det(apply_matrix([[1, 1], [1, 1]], t)) == 0


def test_tensor_io_roundtrip():
    rng = random.Random(8)
    t = random_tensor(3, 2, rng)
    buf = io.StringIO()
    write_tensor(t, buf)
    buf.seek(0)
    back = read_tensor(buf)
    assert back.r == t.r and back.d == t.d and back.entries == t.entries


def test_tensor_io_accepts_fractions_and_comments():
    text = "2 2\n# comment line\n1 2 : 1/2 -3\n1 3 : 0 1\n1 4 : 1 0\n" \
           "2 3 : 2 2\n2 4 : 0 5\n3 4 : -1/7 0\n"
    t = read_tensor(io.StringIO(text))
    assert t.entries[(1, 2)] == (Fraction(1, 2), -3)
    assert t.entries[(3, 4)] == (Fraction(-1, 7), 0)


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("2\n", 1),
    ("2 2\n1 2 1 0\n", 2),
    ("2 2\n1 2 : x 0\n", 2),
    ("2 2\n2 1 : 1 0\n", 2),
    ("2 2\n1 2 : 1\n", 2),
    ("2 2\n1 2 : 1 0\n1 2 : 0 1\n", 3),
])
def test_tensor_io_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        read_tensor(io.StringIO(text))
    assert err.value.line_no == line


def test_write_basis_format():
    w = canonical_witness(2, 2)
    buf = io.StringIO()
    write_basis(w, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "4 2 2"
    assert len(lines) == 7
    assert lines[1].startswith("1 2 -> ")


def old_witness_labels(r, d):
    """The witness rule applied one subset at a time."""
    labels = {}
    for subset in subsets(r, r * d):
        t = sum(subset) % r
        labels[subset] = (subset[t] + r - 1) // r
    return labels


def test_witness_labels_match_the_per_subset_rule():
    """Every witness cell up to dimension 20 000: the array rule gives the
    labels of the per-subset loop, as ints, in dictionary order."""
    cells = [(r, d) for r in range(2, 9) for d in range(1, 101)
             if system_dimension(r, d) <= 20_000]
    assert len(cells) > 130
    for r, d in cells:
        labels = canonical_witness(r, d).labels
        expected = old_witness_labels(r, d)
        assert labels == expected
        assert list(labels) == list(expected)
        assert all(type(v) is int for v in labels.values())
        assert witness_labels(r, d).tolist() == list(expected.values())


@pytest.mark.parametrize("r, n", [(0, 0), (0, 4), (1, 5), (3, 3), (3, 7), (4, 3),
                                  (5, 12), (2, 300)])
def test_subset_array_is_dictionary_order(r, n):
    rows = subset_array(r, n)
    assert rows.shape == (comb(n, r), r)
    assert [tuple(map(int, row)) for row in rows] == list(subsets(r, n))

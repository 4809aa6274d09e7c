"""Chain complexes, Betti numbers, homogeneity, and the classification pipeline."""

import io
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import combinations
from math import comb
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdet.determinant import basis_det, tensor_det
from hgdet.exactla import rank_exact
from hgdet import hypergraphs
from hgdet import tensors
from hgdet.hypergraphs import (BettiVector, ClassificationReport, DPartition,
                               Hypergraph, InvalidPartitionError,
                               ResourceCapError, basis_from_partition,
                               betti_numbers, boundary_rank_matches_system,
                               chain_complex, classify_partition,
                               enumerate_partitions, euler_characteristic,
                               graph_is_forest, is_homogeneous,
                               is_prehomogeneous, partition_from_basis,
                               partition_from_labels, partition_is_cycle_free,
                               read_partition, skeleton_deficiency,
                               skeleton_edges, write_partition)
from hgdet.tensors import canonical_witness, tensor_from_basis
from hgdet.verify import random_partition

from oracles import full_system_matrix, is_zero, matmul, rank_combination


def test_skeleton_examples():
    k43 = Hypergraph.complete(4, 3)
    assert skeleton_edges(k43, 2) == set(combinations(range(1, 5), 2))
    single = Hypergraph(5, 3, frozenset({(1, 2, 3)}))
    assert skeleton_edges(single, 1) == {(1,), (2,), (3,)}
    assert skeleton_edges(k43, 3) == set(k43.edges)
    with pytest.raises(ValueError):
        skeleton_edges(k43, 4)


def test_chain_complex_simplex():
    cx = chain_complex(Hypergraph.complete(3, 3))
    assert [len(cx.generators[k]) for k in range(-1, 3)] == [1, 3, 3, 1]
    assert betti_numbers(Hypergraph.complete(3, 3)).values == (0, 0, 0, 0)


def test_chain_complex_sphere():
    k43 = Hypergraph.complete(4, 3)
    cx = chain_complex(k43)
    assert cx.boundary[2].rows == 6 and cx.boundary[2].cols == 4
    assert rank_exact(cx.boundary[2]) == 3
    assert betti_numbers(k43).values == (0, 0, 0, 1)


def test_single_hyperedge_contractible():
    h = Hypergraph(3, 3, frozenset({(1, 2, 3)}))
    assert betti_numbers(h).values == (0, 0, 0, 0)


def test_empty_hypergraph_betti():
    h = Hypergraph(5, 3, frozenset())
    b = betti_numbers(h)
    assert b[-1] == 1
    assert b.values == (1, 0, 0, 0)


def test_sphere_generalization():
    """The complete r-uniform hypergraph on r+1 vertices is a sphere
    boundary: top Betti number 1, everything else 0."""
    for r in (2, 3, 4, 5):
        b = betti_numbers(Hypergraph.complete(r + 1, r))
        assert b.top() == 1
        assert b.values[:-1] == (0,) * r


def test_boundary_squares_to_zero_on_witness_parts():
    p = partition_from_basis(canonical_witness(3, 2))
    for i in range(p.d):
        cx = chain_complex(p.part_hypergraph(i))
        for k in range(1, 3):
            assert is_zero(matmul(cx.boundary[k - 1], cx.boundary[k]))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_boundary_squares_to_zero_random(data):
    r = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(r, 7))
    universe = list(combinations(range(1, n + 1), r))
    edges = data.draw(st.sets(st.sampled_from(universe), min_size=0,
                              max_size=min(12, len(universe))))
    cx = chain_complex(Hypergraph(n, r, frozenset(edges)))
    for k in range(1, r):
        assert is_zero(matmul(cx.boundary[k - 1], cx.boundary[k]))


def generic_betti(h):
    """Oracle: every boundary of the chain complex eliminated by rank_exact."""
    cx = chain_complex(h)
    ranks = {k: rank_exact(m) for k, m in cx.boundary.items()}
    return tuple(len(cx.generators[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                 for k in range(-1, h.r))


def generic_deficiency(p):
    """Oracle: the first part and level below the top whose k-subsets are
    not all contained in a hyperedge of the part."""
    for i, part in enumerate(p.parts, start=1):
        for k in range(1, p.r):
            count = sum(1 for s in combinations(range(1, p.n + 1), k)
                        if any(set(s) <= set(e) for e in part))
            if count != comb(p.n, k):
                return (i, k, count, comb(p.n, k))
    return None


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_betti_matches_generic_oracle(data):
    r = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(r, 7 if r < 4 else 8))
    universe = list(combinations(range(1, n + 1), r))
    edges = data.draw(st.sets(st.sampled_from(universe), min_size=0,
                              max_size=len(universe)))
    h = Hypergraph(n, r, frozenset(edges))
    assert betti_numbers(h).values == generic_betti(h)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_betti_rules_on_empty_full_and_sparse(r):
    for n in range(r, r + 4):
        full = Hypergraph.complete(n, r)
        assert betti_numbers(full).values == generic_betti(full)
        empty = Hypergraph(n, r, frozenset())
        assert betti_numbers(empty).values == (1,) + (0,) * r
        # Every other hyperedge: not pre-homogeneous as soon as n > r + 1.
        some = Hypergraph(n, r, frozenset(sorted(full.edges)[::2]))
        assert betti_numbers(some).values == generic_betti(some)
    assert betti_numbers(Hypergraph(0, r, frozenset())).values == (1,) + (0,) * r


def counting_rank_rows(monkeypatch):
    """Count the eliminations the Betti path runs."""
    calls = []
    rank_rows = hypergraphs._rank_rows

    def counting(rows, nrows, ncols):
        calls.append((nrows, ncols))
        return rank_rows(rows, nrows, ncols)

    monkeypatch.setattr(hypergraphs, "_rank_rows", counting)
    return calls


def test_betti_r4_with_non_full_middle_level(monkeypatch):
    # Two 4-sets sharing the pair {1, 2} plus a closed 3-sphere on 5..9:
    # levels 2 and 3 are neither empty nor full, so d_2 and d_3 are both
    # eliminated.
    edges = {(1, 2, 3, 4), (1, 2, 5, 6)} | set(combinations(range(5, 10), 4))
    h = Hypergraph(9, 4, frozenset(edges))
    assert 0 < len(skeleton_edges(h, 2)) < comb(9, 2)
    assert 0 < len(skeleton_edges(h, 3)) < comb(9, 3)
    calls = counting_rank_rows(monkeypatch)
    assert betti_numbers(h).values == (0, 0, 0, 0, 1)
    assert len(calls) == 2
    assert betti_numbers(h).values == generic_betti(h)


def test_sparse_hypergraph_builds_no_shape_table(monkeypatch):
    # A 2-sphere (the boundary of a tetrahedron away from vertex 1) and
    # a lone triangle on 2000 vertices: the Betti path must touch only
    # their own cells, never the C(2000, 3) cells of the shape table or
    # the subset index.  Nor may a partition or an assignment holding too
    # few keys build the index before its count is refused.  The spies
    # fail at once rather than build either.
    def refuse(*args):
        raise AssertionError(f"built a C(n, r) table or index for {args}")

    for module, name in [(hypergraphs, "_shape_table"), (hypergraphs, "_subset_ids"),
                         (tensors, "_subset_ids")]:
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(InvalidPartitionError):
        DPartition(2000, 3, (frozenset({(2, 3, 1000)}),))
    with pytest.raises(ValueError):
        tensors.TensorAssignment(3, 700, {(1, 2, 3): (1,) * 700})
    edges = set(combinations((1500, 1700, 1800, 1999), 3))
    for extra in [set(), {(2, 3, 1000)}]:
        h = Hypergraph(2000, 3, frozenset(edges | extra))
        cx = chain_complex(h)
        assert betti_numbers(h).values == generic_betti(h)
        assert betti_numbers(h).top() == 1
        for s in range(1, 4):
            assert skeleton_edges(h, s) == set(cx.generators[s - 1])
        assert euler_characteristic(h) == sum((-1) ** (k + 1) * len(cells)
                                              for k, cells in cx.generators.items())


def nested_tuples(value):
    """True when ``value`` is ints inside tuples only, all the way down."""
    if isinstance(value, tuple):
        return all(nested_tuples(v) for v in value)
    return type(value) is int


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_shape_table_matches_ranks_and_chain_complex(r):
    for n in range(r, 9):
        table = hypergraphs._shape_table(n, r)
        assert len(table) == r + 1
        cx = chain_complex(Hypergraph.complete(n, r))
        for s, (cells, faces, rows) in enumerate(table):
            assert list(cells) == cx.generators[s - 1]
            assert [rank_combination(c, n) for c in cells] == list(range(comb(n, s)))
            assert len(faces) == len(rows) == len(cells)
            assert all(len(f) == s for f in faces)
            if s:
                entries = {(f, i): (-1) ** q for i, ids in enumerate(faces)
                           for q, f in enumerate(ids)}
                assert entries == cx.boundary[s - 1].entries
            assert nested_tuples((cells, faces))
        assert hypergraphs._shape_table(n, r) is table
    maxsize = hypergraphs._shape_table.cache_info().maxsize
    assert maxsize == hypergraphs._SHAPE_CACHE_SIZE


def assert_rows_leave_out_the_least_vertex(table):
    """Each row of ``table`` is read-only and holds its cell's faces with
    sign (-1)**q, leaving out at levels s >= 2 the ids below ``low``: the
    cells of level s - 1 through the table's least vertex."""
    least = table[1][0][0][0] if len(table) > 1 and table[1][0] else None
    for s, (cells, faces, rows) in enumerate(table):
        below = table[s - 1][0] if s >= 2 else ()
        low = sum(least in c for c in below)
        assert all(least in c for c in below[:low])
        assert len(rows) == len(cells)
        for i, row in enumerate(rows):
            assert isinstance(row, MappingProxyType)
            assert row == {f: (-1) ** q for q, f in enumerate(faces[i]) if f >= low}


def test_table_rows_leave_out_the_least_vertex():
    for r in range(5):
        for n in range(r, 9):
            assert_rows_leave_out_the_least_vertex(hypergraphs._shape_table(n, r))
    rng = random.Random(31)
    for r in range(1, 5):
        for n in range(r, 9):
            everything = list(combinations(range(1, n + 1), r))
            for size in {0, 1, min(3, len(everything)), len(everything) // 2}:
                edges = rng.sample(everything, size)
                table = hypergraphs._face_table(edges, r)
                assert_rows_leave_out_the_least_vertex(table)
                assert table[r][0] == tuple(sorted(edges))


def test_table_rows_are_read_only():
    table = hypergraphs._shape_table(6, 3)
    row = table[3][2][0]
    with pytest.raises(TypeError):
        row[0] = 5
    before = [dict(row) for row in table[3][2]]
    levels = hypergraphs._skeleta(table, range(20))
    rows, nrows, ncols = hypergraphs._boundary_rows(table, levels, 2)
    assert (nrows, ncols) == (20, 15)
    for out in rows.values():
        out.clear()
        out[0] = 7
    assert [dict(row) for row in table[3][2]] == before


# The 6-vertex projective plane; its complement in K^3_6 is another one.
PROJECTIVE_PLANE = frozenset({(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)})


def test_projective_plane_pair_has_det_4():
    """Each part is a projective plane, with H_1 = Z/2 and rational Betti
    numbers 0: the first det^{S^3} value that is not +-1."""
    rest = frozenset(combinations(range(1, 7), 3)) - PROJECTIVE_PLANE
    p = DPartition(6, 3, (PROJECTIVE_PLANE, rest))
    report = classify_partition(p)
    basis = basis_from_partition(p)
    assert report.det == basis_det(basis) == tensor_det(tensor_from_basis(basis)) == 4
    assert report.homogeneous and report.consistent
    assert all(b.all_zero() for b in report.betti)


def oracle_partitions(n, r, d, trials):
    """The witness partition, then seeded random ones of both kinds."""
    rng = random.Random(n * 100 + r * 10 + d)
    yield partition_from_basis(canonical_witness(r, d))
    for trial in range(trials):
        yield random_partition(n, r, d, rng, equal_sizes=trial % 2 == 1)


@pytest.mark.parametrize("backend", ["bareiss", "multimodular", "auto"])
@pytest.mark.parametrize("n, r, d", [(6, 3, 2), (8, 4, 2), (9, 3, 3), (6, 2, 3)])
def test_classification_det_matches_basis_det(n, r, d, backend):
    nonzero = 0
    for p in oracle_partitions(n, r, d, 8):
        det = classify_partition(p, backend=backend).det
        assert det == basis_det(basis_from_partition(p), backend=backend)
        nonzero += det != 0
    assert nonzero >= 1


def swapped_prehomogeneous(r, d, swaps, seed):
    """Pre-homogeneous partitions a few random hyperedge swaps away from
    the witness partition: each swap that keeps both parts
    pre-homogeneous is taken."""
    rng = random.Random(seed)
    p = partition_from_basis(canonical_witness(r, d))
    out = [p]
    while len(out) < swaps:
        parts = [set(part) for part in p.parts]
        i, j = rng.sample(range(d), 2)
        a, b = rng.choice(sorted(parts[i])), rng.choice(sorted(parts[j]))
        parts[i] ^= {a, b}
        parts[j] ^= {a, b}
        q = DPartition(p.n, r, tuple(frozenset(part) for part in parts))
        if is_prehomogeneous(q):
            p = q
            out.append(p)
    return out


@pytest.mark.parametrize("r, d", [(3, 3), (4, 2)])
def test_rank_equality_matches_oracle_ranks(r, d):
    for p in swapped_prehomogeneous(r, d, 5, seed=r * 10 + d):
        top = sum(rank_exact(chain_complex(p.part_hypergraph(i)).boundary[r - 1])
                  for i in range(d))
        tensor = tensor_from_basis(basis_from_partition(p))
        system = rank_exact(full_system_matrix(tensor))
        assert boundary_rank_matches_system(p) == (top == system)
        assert boundary_rank_matches_system(p)


@pytest.mark.parametrize("n, r, d", [(6, 3, 2), (8, 4, 2), (9, 3, 3), (4, 2, 2),
                                     (6, 2, 3)])
def test_partition_parts_match_generic_oracle(n, r, d):
    rng = random.Random(n * 100 + r * 10 + d)
    for trial in range(12):
        p = random_partition(n, r, d, rng, equal_sizes=trial % 2 == 1)
        report = classify_partition(p)
        assert report.deficiency == skeleton_deficiency(p) == generic_deficiency(p)
        for i, b in enumerate(report.betti):
            h = p.part_hypergraph(i)
            assert b.values == betti_numbers(h).values == generic_betti(h)
        assert report.consistent


def test_one_elimination_per_part(monkeypatch):
    calls = counting_rank_rows(monkeypatch)
    rng = random.Random(23)
    for trial in range(40):
        p = random_partition(6, 3, 2, rng, equal_sizes=trial % 2 == 1)
        calls.clear()
        report = classify_partition(p)
        assert len(calls) <= p.d
        if report.prehomogeneous:
            assert len(calls) == p.d  # only the top map d_2 is eliminated
        calls.clear()
        betti_numbers(p.part_hypergraph(0))
        assert len(calls) <= 1
    for trial in range(40):
        p = random_partition(6, 2, 3, rng, equal_sizes=trial % 2 == 1)
        calls.clear()
        classify_partition(p)
        assert calls == []


def test_classification_report_value_semantics():
    p = partition_from_basis(canonical_witness(3, 2))
    report = classify_partition(p)
    again = classify_partition(p)
    assert report == again and hash(report) == hash(again)
    assert len({report, again}) == 1
    clone = pickle.loads(pickle.dumps(report))
    assert clone == report and hash(clone) == hash(report)
    assert isinstance(clone, ClassificationReport)
    assert not hasattr(report, "__dict__")
    with pytest.raises(FrozenInstanceError):
        report.det = 1
    other = classify_partition(partition_from_labels(
        6, 3, 2, [1 if 6 not in e else 2 for e in combinations(range(1, 7), 3)]))
    assert other != report


def test_betti_vector_behaviour():
    b = BettiVector((0, 0, 1, 2))
    assert [b[k] for k in range(-1, 3)] == [0, 0, 1, 2]
    for degree in (-2, 3):
        with pytest.raises(IndexError):
            b[degree]
    assert b.top() == 2
    assert not b.all_zero() and BettiVector((0, 0, 0)).all_zero()
    assert b == BettiVector((0, 0, 1, 2)) and hash(b) == hash(BettiVector((0, 0, 1, 2)))
    assert pickle.loads(pickle.dumps(b)) == b
    assert not hasattr(b, "__dict__")
    with pytest.raises(FrozenInstanceError):
        b.values = ()
    # Equal vectors from the Betti path are one shared instance.
    k43 = Hypergraph.complete(4, 3)
    assert betti_numbers(k43) is betti_numbers(k43)


def test_euler_characteristic_examples():
    assert euler_characteristic(Hypergraph.complete(4, 3)) == -1
    assert euler_characteristic(Hypergraph.complete(3, 3)) == 0
    # a pre-homogeneous part with the balanced number of top cells
    part = partition_from_basis(canonical_witness(3, 2)).part_hypergraph(0)
    assert euler_characteristic(part) == 0


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_euler_characteristic_equals_betti_sum(data):
    r = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(r, 6))
    universe = list(combinations(range(1, n + 1), r))
    edges = data.draw(st.sets(st.sampled_from(universe), min_size=0,
                              max_size=len(universe)))
    h = Hypergraph(n, r, frozenset(edges))
    b = betti_numbers(h)
    alternating = sum((-1) ** (k + 1) * b[k] for k in range(-1, r))
    assert euler_characteristic(h) == alternating


def test_prehomogeneous_and_homogeneous_flags():
    witness = partition_from_basis(canonical_witness(3, 2))
    assert is_prehomogeneous(witness)
    assert is_homogeneous(witness)
    assert all(len(part) == 10 for part in witness.parts)

    # single part (d = 1): the complete hypergraph is trivially pre-homogeneous
    whole = DPartition(3, 3, (frozenset({(1, 2, 3)}),))
    assert is_prehomogeneous(whole)
    assert is_homogeneous(whole)

    # part 1 never touches vertex 6: not pre-homogeneous
    labels = [1 if 6 not in e else 2 for e in combinations(range(1, 7), 3)]
    lopsided = partition_from_labels(6, 3, 2, labels)
    assert not is_prehomogeneous(lopsided)
    assert not is_homogeneous(lopsided)


def test_unequal_sizes_not_homogeneous():
    rng = random.Random(20)
    while True:
        p = random_partition(6, 3, 2, rng)
        if is_prehomogeneous(p) and len(p.parts[0]) != 10:
            assert not is_homogeneous(p)
            break


def test_partition_validation():
    with pytest.raises(InvalidPartitionError):
        DPartition(4, 2, (frozenset({(1, 2)}), frozenset({(1, 2)})))
    with pytest.raises(InvalidPartitionError):
        DPartition(4, 2, (frozenset({(1, 2)}), frozenset()))
    with pytest.raises(InvalidPartitionError, match=r"\(1, 2\) assigned to parts 1 and 2"):
        DPartition(4, 2, (frozenset({(1, 2), (1, 3), (1, 4)}),
                          frozenset({(1, 2), (2, 3), (2, 4)})))
    # Six keys, as many as K^2_4 has, with (1, 2) swapped for a key of the
    # wrong size, an unsorted one, or one outside 1..4.
    pairs = list(combinations(range(1, 5), 2))
    for bad in [(1, 2, 3), (2, 1), (0, 1), (3, 5)]:
        with pytest.raises(InvalidPartitionError, match="is not one of the 2-subsets"):
            DPartition(4, 2, (frozenset(pairs[1:3] + [bad]), frozenset(pairs[3:])))
    # Labels index the parts from 1: neither 0 nor d + 1 names a part.
    for labels in ([0, 1, 1, 2, 2, 2], [3, 1, 1, 2, 2, 2]):
        with pytest.raises(InvalidPartitionError, match="outside 1..2"):
            partition_from_labels(4, 2, 2, labels)
    # Keys equal to the subsets pass, whatever their integer type.
    numpy_pairs = [tuple(np.int64(v) for v in e) for e in pairs]
    p = DPartition(4, 2, (frozenset(numpy_pairs[:3]), frozenset(numpy_pairs[3:])))
    assert p == partition_from_labels(4, 2, 2, [1, 1, 1, 2, 2, 2])
    # A valid 2-partition of K^2_5, where n != r*d: no square system.
    edges = sorted(combinations(range(1, 6), 2))
    p = DPartition(5, 2, (frozenset(edges[:5]), frozenset(edges[5:])))
    for check in (basis_from_partition, is_prehomogeneous,
                  boundary_rank_matches_system, classify_partition):
        with pytest.raises(InvalidPartitionError, match=r"need n = r\*d"):
            check(p)


def test_partition_keeps_its_labels_out_of_repr_hash_and_equality():
    """The labels that the one numbering keeps, each hyperedge's part in
    dictionary order, are no field of a partition's value."""
    p = partition_from_labels(4, 2, 2, [1, 1, 2, 1, 2, 2])
    assert p._labels == (1, 1, 2, 1, 2, 2)
    before = repr(p), hash(p)
    assert before[0] == f"DPartition(n=4, r=2, parts={p.parts!r})"
    q = DPartition(p.n, p.r, p.parts)
    object.__setattr__(q, "_labels", (2, 2, 1, 2, 1, 1))
    assert (repr(q), hash(q)) == before and q == p


def test_consumers_read_the_labels_without_lookups(monkeypatch):
    """Once a partition is built and the shape table is warm, classifying
    it, its deficiency and its rank comparison look no hyperedge up."""
    prehom = partition_from_basis(canonical_witness(3, 2))
    deficient = partition_from_labels(
        6, 3, 2, [1 if 6 not in e else 2 for e in combinations(range(1, 7), 3)])
    expected = (classify_partition(prehom), classify_partition(deficient),
                skeleton_deficiency(prehom), skeleton_deficiency(deficient),
                boundary_rank_matches_system(prehom))

    def no_lookup(r, n):
        raise AssertionError(f"_subset_ids({r}, {n}) called")

    monkeypatch.setattr(hypergraphs, "_subset_ids", no_lookup)
    assert (classify_partition(prehom), classify_partition(deficient),
            skeleton_deficiency(prehom), skeleton_deficiency(deficient),
            boundary_rank_matches_system(prehom)) == expected


def test_rank_equality_on_witness():
    p = partition_from_basis(canonical_witness(3, 2))
    assert boundary_rank_matches_system(p)
    total = sum(rank_exact(chain_complex(p.part_hypergraph(i)).boundary[2])
                for i in range(p.d))
    assert total == 20


def test_rank_equality_on_spanning_trees():
    tree1 = frozenset({(1, 2), (2, 3), (3, 4)})
    tree2 = frozenset(set(combinations(range(1, 5), 2)) - tree1)
    p = DPartition(4, 2, (tree1, tree2))
    assert boundary_rank_matches_system(p)
    total = sum(rank_exact(chain_complex(p.part_hypergraph(i)).boundary[1])
                for i in range(2))
    assert total == 6


def test_rank_equality_on_single_vertex_parts():
    # r = 1: the top map d_0 sends each vertex to the empty cell.
    for d in (1, 2, 3):
        p = DPartition(d, 1, tuple(frozenset({(i,)}) for i in range(1, d + 1)))
        assert boundary_rank_matches_system(p)
        assert classify_partition(p).consistent


def test_rank_equality_requires_prehomogeneous():
    labels = [1 if 6 not in e else 2 for e in combinations(range(1, 7), 3)]
    p = partition_from_labels(6, 3, 2, labels)
    with pytest.raises(ValueError):
        boundary_rank_matches_system(p)


def test_classify_witness_partition():
    p = partition_from_basis(canonical_witness(3, 2))
    report = classify_partition(p)
    assert report.det == -1
    assert report.homogeneous
    assert all(b.all_zero() for b in report.betti)
    assert report.consistent
    assert report.deficiency is None


def test_classify_non_prehomogeneous():
    labels = [1 if 6 not in e else 2 for e in combinations(range(1, 7), 3)]
    p = partition_from_labels(6, 3, 2, labels)
    report = classify_partition(p)
    assert report.det == 0
    assert not report.prehomogeneous
    assert report.consistent
    part, level, count, expected = report.deficiency
    assert count < expected


def test_classify_spanning_tree_partition():
    tree1 = frozenset({(1, 2), (2, 3), (3, 4)})
    tree2 = frozenset(set(combinations(range(1, 5), 2)) - tree1)
    p = DPartition(4, 2, (tree1, tree2))
    report = classify_partition(p)
    assert report.det != 0
    assert partition_is_cycle_free(p)
    assert report.consistent


def test_basis_partition_roundtrip():
    rng = random.Random(21)
    for _ in range(1000):
        p = random_partition(6, 3, 2, rng)
        assert partition_from_basis(basis_from_partition(p)) == p


def test_partition_labels_example():
    p = DPartition(4, 2, (frozenset({(1, 2), (3, 4), (1, 3), (2, 4)}),
                          frozenset({(1, 4), (2, 3)})))
    labels = basis_from_partition(p).labels
    assert labels == {(1, 2): 1, (3, 4): 1, (1, 3): 1, (2, 4): 1,
                      (1, 4): 2, (2, 3): 2}


def test_prehomogeneous_betti_alternating_sum_vanishes():
    """For pre-homogeneous partitions the per-part alternating Betti sums
    cancel overall (total Euler characteristic zero)."""
    rng = random.Random(22)
    checked = 0
    while checked < 25:
        p = random_partition(6, 3, 2, rng)
        if not is_prehomogeneous(p):
            continue
        checked += 1
        total = 0
        for i in range(p.d):
            b = betti_numbers(p.part_hypergraph(i))
            total += sum((-1) ** k * b[k] for k in range(-1, p.r))
        assert total == 0


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_partitions(4, 2, 2)) == 64
    assert sum(1 for _ in enumerate_partitions(3, 3, 1)) == 1
    with pytest.raises(ResourceCapError):
        list(enumerate_partitions(6, 3, 2, cap=1000))
    # More parts than hyperedges: the first partition is refused, and no
    # equal split exists.
    with pytest.raises(InvalidPartitionError, match="4 parts exceed the 3 hyperedges"):
        next(enumerate_partitions(3, 2, 4))
    assert list(enumerate_partitions(3, 2, 4, homogeneous_only=True)) == []


@pytest.mark.parametrize("d, homogeneous_only", [(0, False), (0, True), (-1, False)])
def test_enumerate_rejects_fewer_than_one_part(d, homogeneous_only):
    with pytest.raises(ValueError, match="d=-?[0-9]"):
        list(enumerate_partitions(2, 2, d, homogeneous_only=homogeneous_only))


def test_enumerate_homogeneous_count():
    count = sum(1 for _ in enumerate_partitions(6, 3, 2, homogeneous_only=True))
    assert count == comb(20, 10)


@pytest.mark.parametrize("n, r, d", [(4, 2, 2), (3, 1, 3), (6, 1, 3), (4, 1, 2), (5, 2, 2)])
def test_enumerate_homogeneous_is_the_filtered_stream(n, r, d):
    share = comb(n, r) // d
    expected = [p for p in enumerate_partitions(n, r, d)
                if all(len(part) == share for part in p.parts)]
    if comb(n, r) % d:
        expected = []
    assert list(enumerate_partitions(n, r, d, homogeneous_only=True)) == expected


def test_enumerate_cap_counts_codes_walked():
    # The homogeneous walk visits exactly the C(20, 10) = 184756 equal-size
    # label sequences; the full walk visits 2**20 codes.
    with pytest.raises(ResourceCapError):
        next(enumerate_partitions(6, 3, 2, homogeneous_only=True, cap=184_755))
    first = next(enumerate_partitions(6, 3, 2, homogeneous_only=True, cap=184_756))
    assert [len(part) for part in first.parts] == [10, 10]
    with pytest.raises(ResourceCapError):
        next(enumerate_partitions(6, 3, 2, cap=2 ** 20 - 1))


def test_forest_oracle():
    assert graph_is_forest(4, [(1, 2), (2, 3), (3, 4)])
    assert not graph_is_forest(3, [(1, 2), (2, 3), (1, 3)])
    assert graph_is_forest(4, [])
    p = DPartition(4, 2, (frozenset({(1, 2), (2, 3), (3, 4)}),
                          frozenset({(1, 3), (1, 4), (2, 4)})))
    assert partition_is_cycle_free(p)


def test_partition_io_roundtrip():
    p = partition_from_basis(canonical_witness(3, 2))
    buf = io.StringIO()
    write_partition(p, buf)
    buf.seek(0)
    assert read_partition(buf) == p


def test_partition_io_errors():
    from hgdet.tensors import ParseError
    with pytest.raises(ParseError):
        read_partition(io.StringIO("4 2\n1 2 -> 1\n"))
    with pytest.raises(ParseError) as err:
        read_partition(io.StringIO("4 2 2\n1 2 -> 3\n"))
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        read_partition(io.StringIO("4 2 2\n1 2 -> 1\n1 2 -> 2\n"))


def test_partition_with_many_parts_fails_before_building_them():
    """A partition file with d = 100000 fails before the d parts exist, on
    its hyperedge count when it is short and on d > C(n, r) when it holds
    every hyperedge of K^2_4, and so do 10**6 labels of K^2_4: the peak
    under tracemalloc stays below 1 MB, where 100000 empty parts would
    take tens of MB."""
    complete = "".join(f"{i} {j} -> 1\n" for i, j in combinations(range(1, 5), 2))
    for build, error, message in (
            (lambda: read_partition(io.StringIO("4 2 100000\n1 2 -> 1\n")),
             tensors.ParseError, "line 2: parts hold 1 hyperedges, K\\^2_4 has 6"),
            (lambda: read_partition(io.StringIO("4 2 100000\n" + complete)),
             tensors.ParseError, "line 7: 100000 parts exceed the 6 hyperedges of K\\^2_4"),
            (lambda: partition_from_labels(4, 2, 10**6, [1] * 6),
             InvalidPartitionError, "1000000 parts exceed the 6 hyperedges of K\\^2_4")):
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (message, peak)

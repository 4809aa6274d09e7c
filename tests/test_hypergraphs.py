"""Chain complexes, Betti numbers, homogeneity, and the classification pipeline."""

import io
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdet.exactla import rank_exact
from hgdet.hypergraphs import (DPartition, Hypergraph, InvalidPartitionError,
                               ResourceCapError, basis_from_partition,
                               betti_numbers, boundary_rank_matches_system,
                               chain_complex, classify_partition,
                               enumerate_partitions, euler_characteristic,
                               graph_is_forest, is_homogeneous,
                               is_prehomogeneous, partition_from_basis,
                               partition_from_labels, partition_is_cycle_free,
                               read_partition, skeleton_edges, write_partition)
from hgdet.tensors import canonical_witness
from hgdet.verify import random_partition


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
            assert cx.boundary[k - 1].matmul(cx.boundary[k]).is_zero()


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
        assert cx.boundary[k - 1].matmul(cx.boundary[k]).is_zero()


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


@pytest.mark.parametrize("d, homogeneous_only", [(0, False), (0, True), (-1, False)])
def test_enumerate_rejects_fewer_than_one_part(d, homogeneous_only):
    with pytest.raises(ValueError, match="d=-?[0-9]"):
        list(enumerate_partitions(2, 2, d, homogeneous_only=homogeneous_only))


def test_enumerate_homogeneous_count():
    count = sum(1 for _ in enumerate_partitions(6, 3, 2, homogeneous_only=True))
    assert count == comb(20, 10)


def test_enumerate_cap_counts_codes_walked():
    # 184756 homogeneous partitions, but the filter walks 2**20 codes.
    with pytest.raises(ResourceCapError):
        next(enumerate_partitions(6, 3, 2, homogeneous_only=True, cap=200_000))


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

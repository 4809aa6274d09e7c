"""Subset indexing and sign bookkeeping."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdet.combi import binomial, euler_identity_holds, insertion_sign
from oracles import rank_combination, unrank_combination


def test_binomial_small():
    assert binomial(6, 3) == 20
    assert binomial(8, 2) == 28
    assert binomial(5, 9) == 0
    assert binomial(0, 0) == 1


def test_binomial_matrix_size_remark():
    # size of the square system for (r, d) = (5, 6): d * C(rd-1, r-1)
    assert 6 * binomial(29, 4) == 142506
    assert binomial(30, 5) == 142506


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(4, -2)


def test_rank_examples():
    assert rank_combination((1, 2, 3), 6) == 0
    assert rank_combination((4, 5, 6), 6) == 19
    assert rank_combination((1, 2, 4), 6) == 1


def test_unrank_examples():
    assert unrank_combination(0, 3, 6) == (1, 2, 3)
    assert unrank_combination(19, 3, 6) == (4, 5, 6)
    assert unrank_combination(1, 2, 4) == (1, 3)


def test_rank_rejects_invalid():
    with pytest.raises(ValueError):
        rank_combination((2, 2, 3), 6)
    with pytest.raises(ValueError):
        rank_combination((0, 1), 6)
    with pytest.raises(ValueError):
        rank_combination((5, 7), 6)
    with pytest.raises(ValueError):
        unrank_combination(20, 3, 6)
    with pytest.raises(ValueError):
        unrank_combination(-1, 3, 6)


def test_rank_unrank_exhaustive_to_20():
    """rank and unrank are mutually inverse for all 0 <= k <= n <= 20, and
    rank order equals the enumeration order of itertools.combinations."""
    for n in range(0, 21):
        universe = range(1, n + 1)
        for k in range(0, n + 1):
            for i, c in enumerate(combinations(universe, k)):
                assert rank_combination(c, n) == i
                assert unrank_combination(i, k, n) == c


@given(st.integers(1, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_unrank_roundtrip_random(n, data):
    k = data.draw(st.integers(0, n))
    idx = data.draw(st.integers(0, comb(n, k) - 1))
    c = unrank_combination(idx, k, n)
    assert len(c) == k
    assert all(1 <= x <= n for x in c)
    assert rank_combination(c, n) == idx


def test_insertion_sign_examples():
    # s below, inside, and above a pair base
    assert insertion_sign(1, (2, 7)) == (1, 1)       # (-1)**(s-1), s=1
    assert insertion_sign(5, (2, 7)) == (2, -1)      # (-1)**(4+1)
    assert insertion_sign(9, (2, 7)) == (3, 1)       # (-1)**(t+1), t=9


def test_insertion_sign_matches_triple_equation_pattern():
    """For a pair base (m, n) the three segments carry the signs
    (-1)**(s-1), (-1)**s, (-1)**(t+1)."""
    m, n, top = 3, 6, 9
    for s in range(1, top + 1):
        if s in (m, n):
            continue
        pos, sign = insertion_sign(s, (m, n))
        if s < m:
            assert (pos, sign) == (1, (-1) ** (s - 1))
        elif s < n:
            assert (pos, sign) == (2, (-1) ** s)
        else:
            assert (pos, sign) == (3, (-1) ** (s + 1))


def test_insertion_sign_matches_pair_equation_pattern():
    """For a singleton base (m,) the segments carry (-1)**(s-1) and (-1)**t."""
    m, top = 4, 8
    for s in range(1, top + 1):
        if s == m:
            continue
        pos, sign = insertion_sign(s, (m,))
        if s < m:
            assert (pos, sign) == (1, (-1) ** (s - 1))
        else:
            assert (pos, sign) == (2, (-1) ** s)


def test_insertion_sign_rejects_member():
    with pytest.raises(ValueError):
        insertion_sign(2, (2, 7))
    with pytest.raises(ValueError):
        insertion_sign(0, (2, 7))


def test_euler_identity_examples():
    # (3, 2): 1 - 6 + 15 - 20/2 = 0 ; (2, 3): 1 - 6 + 15/3 = 0
    assert euler_identity_holds(3, 2)
    assert euler_identity_holds(2, 3)
    assert euler_identity_holds(5, 4)


def test_euler_identity_range():
    for r in range(1, 13):
        for d in range(1, 13):
            assert euler_identity_holds(r, d)


def test_euler_identity_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_identity_holds(0, 3)

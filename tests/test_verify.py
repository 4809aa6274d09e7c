"""Smoke runs of the verification suites at reduced trial counts."""

import pytest

from hgdet.reference import KNOWN_WITNESS_DETS
from hgdet.verify import (run_suite, suite_backend_agreement, suite_expansion_r2d2,
                          suite_rank_equality, suite_relations, suite_sl_invariance,
                          suite_table, suite_theorem_r3d2, suite_vanishing)


def test_euler_identity_suite():
    res = run_suite("euler-identity")
    assert res.passed and res.trials == 144


def test_relations_suite_small():
    assert suite_relations(trials=5).passed


def test_vanishing_suite_small():
    assert suite_vanishing(trials=5).passed


def test_sl_invariance_suite_small():
    assert suite_sl_invariance(trials=5).passed


def test_backend_agreement_suite_small():
    res = suite_backend_agreement(trials=64)
    assert res.passed
    assert res.details


def test_rank_equality_suite_small():
    assert suite_rank_equality(trials=8).passed


def test_theorem_r2d2_suite():
    res = run_suite("theorem-r2d2")
    assert res.passed
    assert "nonzero determinants: 12" in res.details


def test_theorem_r3d2_suite_small():
    res = suite_theorem_r3d2(trials=60)
    assert res.passed
    assert res.trials == 120


def test_expansion_suite_small():
    assert suite_expansion_r2d2(trials=3).passed


def test_table_suite_small():
    res = suite_table(max_dim=100, cross_check_dim=100)
    assert res.passed
    assert all("agree" in line for line in res.details)


def test_table_suite_fails_when_a_sign_differs(monkeypatch):
    """A computed witness value whose sign differs from the published one
    is a failure as well as a ``DIFFER`` detail; the details are the same
    lines either way."""
    res = suite_table(max_dim=30)
    assert res.passed
    monkeypatch.setitem(KNOWN_WITNESS_DETS, (2, 2), -KNOWN_WITNESS_DETS[(2, 2)])
    flipped = suite_table(max_dim=30)
    assert not flipped.passed
    assert flipped.failures == ["(2, 2): computed -1, published 1"]
    assert res.details[0] == "(2, 2) dim=6: computed=-1 known=-1 agree"
    assert flipped.details == ["(2, 2) dim=6: computed=-1 known=1 DIFFER", *res.details[1:]]


def test_suite_determinism():
    a = suite_theorem_r3d2(seed=5, trials=20)
    b = suite_theorem_r3d2(seed=5, trials=20)
    assert a.details == b.details
    assert a.trials == b.trials


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")

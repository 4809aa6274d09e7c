"""Subset checks, insertion signs, and the Euler-characteristic identity.

Subsets of {1, ..., n} are represented as strictly increasing tuples of
positive integers and ordered lexicographically (dictionary order).
Vertex labels are 1-based everywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb
from typing import Sequence


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n.

    Raises ValueError on negative arguments.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    return comb(n, k)


def check_subset(subset: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate that ``subset`` is strictly increasing inside 1..n."""
    t = tuple(subset)
    prev = 0
    for x in t:
        if not isinstance(x, int) or x <= prev:
            raise ValueError(f"not a strictly increasing subset of 1..{n}: {t}")
        prev = x
    if t and (t[0] < 1 or t[-1] > n):
        raise ValueError(f"subset {t} out of range 1..{n}")
    return t


def insertion_sign(s: int, base: Sequence[int]) -> tuple[int, int]:
    """Position and sign of inserting ``s`` into the increasing tuple ``base``.

    Returns (p, sign) where p is the 1-based landing position that keeps the
    tuple strictly increasing and sign = (-1)**((s - 1) + (p - 1)).  This is
    the coefficient pattern of the insertion equations: the leading segment
    carries (-1)**(s-1), the next (-1)**s, and so on, the trailing segment
    carrying (-1)**((s-1) + len(base)).
    """
    t = tuple(base)
    if s < 1:
        raise ValueError(f"insertion element must be positive, got {s}")
    if s in t:
        raise ValueError(f"element {s} already present in {t}")
    p = bisect_left(t, s) + 1
    sign = 1 if (s + p) % 2 == 0 else -1
    return p, sign


def euler_identity_holds(r: int, d: int) -> bool:
    """Check sum_{k=0}^{r-1} (-1)^k C(rd,k) + ((-1)^r / d) C(rd,r) == 0.

    Evaluated in exact rational arithmetic.  The identity is the statement
    that the alternating cell count of a fully pre-homogeneous part with
    C(rd-1, r-1) top cells vanishes.
    """
    if r < 1 or d < 1:
        raise ValueError(f"arguments must be positive, got ({r}, {d})")
    n = r * d
    total = Fraction(0)
    for k in range(r):
        total += (-1) ** k * comb(n, k)
    total += Fraction((-1) ** r * comb(n, r), d)
    return total == 0

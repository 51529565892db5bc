"""Rational arcs: reduced fractions, Farey sets, the modulation windows
X_j, and denominator blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson.errors import VerificationError
from carleson.rationals import (
    ArcPair,
    ArcParams,
    ReducedRational,
    enumerate_Rs,
    farey_set,
    in_Xj,
    lcm_range,
    rs_block,
)


# ==================== oracles ====================


def brute_farey_count(Q: int) -> int:
    return 1 + sum(
        sum(1 for a in range(1, q) if math.gcd(a, q) == 1)
        for q in range(2, Q + 1)
    )


def brute_rs_count(s: int, n: int) -> int:
    total = 0
    for q in rs_block(s):
        for a in range(q):
            for b in np.ndindex(*(q,) * n):
                if math.gcd(a, *b, q) == 1:
                    total += 1
    return total


# ==================== reduced fractions ====================


def test_reduced_rational_rejects_non_reduced():
    with pytest.raises(ValueError):
        ReducedRational(2, 4)
    with pytest.raises(ValueError):
        ReducedRational(1, 0)


def test_arc_pair_canonical():
    p = ArcPair(2, (1,), 4)  # gcd(2,1,4)=1; coordinates need not reduce
    assert (p.a, p.b, p.q) == (2, (1,), 4) and p.n == 1
    with pytest.raises(ValueError):
        ArcPair(2, (2,), 4)  # gcd 2
    with pytest.raises(ValueError):
        ArcPair(4, (1,), 4)  # a outside [0, q)


# ==================== farey sets and blocks ====================


@pytest.mark.parametrize("Q", [1, 2, 5, 12, 40])
def test_farey_count_and_order(Q):
    fs = farey_set(Q)
    assert len(fs) == brute_farey_count(Q)
    vals = [f.as_fraction() for f in fs]
    assert vals == sorted(vals)
    assert len(set(vals)) == len(vals)
    assert all(0 <= f.num < f.den for f in fs)


def test_rs_blocks_tile_denominators():
    params = ArcParams(d=1, n=1, eps1=0.25, eps2=0.3)
    for j in (4, 8, 11, 16):
        covered = []
        for s in range(1, params.s_max(j) + 1):
            covered.extend(rs_block(s))
        assert covered == list(range(1, params.aj_denominator_bound(j)))


def test_s_max_floor():
    params = ArcParams(d=1, n=1, eps1=0.25, eps2=0.3)
    assert params.s_max(11) == 2  # floor(2.75)
    assert params.s_max(12) == 3
    assert params.s_max(3) == 0  # no blocks below s=1
    assert params.aj_denominator_bound(3) == 1  # empty family


@pytest.mark.parametrize("s,n", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_enumerate_rs_matches_brute_count(s, n):
    triples = enumerate_Rs(s, n)
    assert len(triples) == brute_rs_count(s, n)
    assert all(math.gcd(t.a, *t.b, t.q) == 1 for t in triples)
    assert all(t.q in rs_block(s) for t in triples)
    assert len(set((t.a, t.b, t.q) for t in triples)) == len(triples)


def test_lcm_range_values():
    assert lcm_range(1) == 2
    assert lcm_range(2) == 12
    assert lcm_range(3) == 840
    for s in (4, 5, 6):
        lo, hi = 1 << (s - 1), 1 << s
        acc = 1
        for q in range(lo, hi + 1):
            acc = acc * q // math.gcd(acc, q)
        assert lcm_range(s) == acc
    with pytest.raises(OverflowError):
        lcm_range(7)


# ==================== modulation windows ====================


def test_in_xj_membership_and_boundary():
    params = ArcParams(d=1, n=1, eps1=0.25, eps2=0.3)
    j = 8
    w = params.xj_halfwidth(j)
    hit = in_Xj(1 / 3 + 0.5 * w, j, params)
    assert (hit.num, hit.den) == (1, 3)
    assert in_Xj(1 / 3 + 2.5 * w, j, params) is None
    # closed boundary: lam exactly at the edge stays a member
    edge = in_Xj(0.5 + w, j, params)
    assert (edge.num, edge.den) == (1, 2)


def test_in_xj_respects_denominator_bound():
    params = ArcParams(d=1, n=1, eps1=0.25, eps2=0.3)
    j = 8  # denominators below 2^2 = 4 only
    assert params.aj_denominator_bound(j) == 4
    w = params.xj_halfwidth(j)
    assert in_Xj(1 / 5 + 0.1 * w, j, params) is None  # q=5 not admitted
    hit = in_Xj(1 / 3 - 0.9 * w, j, params)
    assert (hit.num, hit.den) == (1, 3)


def test_in_xj_overlap_is_a_broken_invariant():
    # at eps1 = 0.9 the j = 4 windows of 1/5, 1/6 and 1/7 all hold 0.155
    params = ArcParams(d=1, n=1, eps1=0.9, eps2=0.95)
    with pytest.raises(VerificationError, match="1/5.*1/6.*1/7"):
        in_Xj(0.155, 4, params)


@given(st.floats(0, 1, exclude_max=True), st.integers(5, 11))
@settings(max_examples=200)
def test_xj_window_uniqueness(lam, j):
    params = ArcParams(d=1, n=1, eps1=0.25, eps2=0.3)
    hit = in_Xj(lam, j, params)
    if hit is not None:
        assert 1 <= hit.den < params.aj_denominator_bound(j)
        assert abs(lam - hit.num / hit.den) <= params.xj_halfwidth(j)

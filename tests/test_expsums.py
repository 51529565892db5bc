"""Complete exponential sums: direct-summation oracles, Gauss-sum
magnitudes, orthogonality, the DFT table path, and decay fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson.errors import BudgetExceededError
from carleson.expsums import (
    complete_weyl_sum,
    fit_decay_exponent,
    verify_orthogonality,
    weyl_table,
)
from carleson.rationals import ArcPair


# ==================== oracles ====================


def brute_weyl(a: int, b: tuple, q: int, d: int) -> complex:
    """Literal normalized sum over the full residue box, honest float
    phases (no histogram, no integer reduction tricks)."""
    n = len(b)
    total = 0.0 + 0.0j
    for r in np.ndindex(*(q,) * n):
        r = np.array(r, dtype=np.int64)
        phase = (a * int(np.dot(r, r)) ** d + int(np.dot(b, r))) / q
        total += np.exp(2j * np.pi * phase)
    return total / q**n


def quadratic_pairs():
    # a selection of canonical pairs ranging over gcd structure
    return [
        (1, (0,), 3, 1, 1),
        (2, (1,), 5, 1, 1),
        (3, (2,), 8, 1, 1),
        (5, (4,), 12, 2, 1),
        (1, (1, 2), 5, 1, 2),
        (3, (0, 1), 7, 2, 2),
        (2, (3, 3), 9, 1, 2),
    ]


# ==================== value checks ====================


@pytest.mark.parametrize("a,b,q,d,n", quadratic_pairs())
def test_value_matches_brute_oracle(a, b, q, d, n):
    got = complete_weyl_sum(ArcPair(a, b, q), d).value
    assert abs(got - brute_weyl(a, b, q, d)) < 1e-12


def test_methods_agree():
    pair = ArcPair(3, (2, 1), 7)
    v1 = complete_weyl_sum(pair, 1, method="direct").value
    v3 = complete_weyl_sum(pair, 1, method="auto").value
    assert abs(v1 - v3) < 1e-14
    with pytest.raises(ValueError):
        complete_weyl_sum(pair, 1, method="factored")


def test_budget():
    with pytest.raises(BudgetExceededError):
        complete_weyl_sum(ArcPair(1, (0, 0, 0), 1009), 1)  # 1009^3 > 10^9


def test_gauss_magnitude_odd_primes():
    # |S(a/q, 0)| = q^(-1/2) for odd prime q, d=1 (classical magnitude)
    for q in (3, 5, 7, 11, 13):
        for a in (1, q - 1):
            got = abs(complete_weyl_sum(ArcPair(a, (0,), q), 1).value)
            assert abs(got - q**-0.5) < 1e-12


def test_q_one_is_unity():
    assert complete_weyl_sum(ArcPair(0, (0,), 1), 1).value == 1.0
    assert complete_weyl_sum(ArcPair(0, (0, 0), 1), 3).value == 1.0


@given(
    st.integers(1, 40),
    st.integers(0, 39),
    st.integers(0, 39),
    st.integers(1, 2),
)
@settings(max_examples=150)
def test_magnitude_and_periodicity(q, a, b, d):
    a, b = a % q, b % q
    if math.gcd(a, b, q) != 1:
        return
    res = complete_weyl_sum(ArcPair(a, (b,), q), d)
    assert abs(res.value) <= 1.0 + 1e-12
    # conjugation symmetry: negating both numerators conjugates the sum
    neg = complete_weyl_sum(ArcPair((-a) % q, ((-b) % q,), q), d)
    assert abs(neg.value - np.conj(res.value)) < 1e-12


@pytest.mark.parametrize("q", [5, 8, 9, 12])
@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_unit_scaling(q, d, n):
    # r -> u r permutes the residues when gcd(u, q) = 1, so
    # S(a u^(2d)/q, u b/q) = S(a/q, b/q)
    units = [u for u in range(2, q) if math.gcd(u, q) == 1]
    worst = 0.0
    for a in range(q):
        for b in np.ndindex(*(q,) * n):
            if math.gcd(a, *b, q) != 1:
                continue
            base = complete_weyl_sum(ArcPair(a, b, q), d).value
            for u in units:
                pair = ArcPair(a * u ** (2 * d) % q,
                               tuple(u * t % q for t in b), q)
                worst = max(worst, abs(complete_weyl_sum(pair, d).value - base))
    assert worst < 1e-13


# ==================== tables and orthogonality ====================


@pytest.mark.parametrize("q,a,d,n", [(7, 3, 1, 1), (9, 2, 2, 1), (6, 1, 1, 2)])
def test_weyl_table_matches_singles(q, a, d, n):
    table = weyl_table(q, d, n)
    assert table.shape == (q,) * (n + 1)
    for b in np.ndindex(*(q,) * n):
        want = brute_weyl(a, tuple(int(t) for t in b), q, d)
        assert abs(table[a][b] - want) < 1e-12
    # a selection of numerators gives the same rows, bitwise
    rows = weyl_table(q, d, n, [a, 0, a + q])
    assert rows.shape == (3,) + (q,) * n
    assert np.array_equal(rows, table[[a, 0, a]])


@pytest.mark.parametrize("q", [1, 2, 5, 8, 9, 12])
@pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_weyl_table_matches_direct_histogram(q, d, n):
    table = weyl_table(q, d, n)
    worst = 0.0
    for a in range(q):
        for b in np.ndindex(*(q,) * n):
            if math.gcd(a, *b, q) != 1:
                continue
            want = complete_weyl_sum(ArcPair(a, b, q), d, method="direct")
            worst = max(worst, abs(table[a][b] - want.value))
    assert worst < 1e-12


@pytest.mark.parametrize("q1,q2,d,n", [
    (q1, q2, d, n)
    for q1, q2 in ((2, 5), (3, 4), (5, 7), (4, 9))
    for d in (1, 2)
    for n in (1, 2)
    if n == 1 or q1 * q2 <= 20
])
def test_weyl_table_chinese_remainder_factorization(q1, q2, d, n):
    # S(a/(q1 q2), b/(q1 q2))
    #     = S(a q2^(2d-1)/q1, b/q1) S(a q1^(2d-1)/q2, b/q2)
    # for coprime q1, q2, every a and every b
    q = q1 * q2
    a = np.arange(q)
    left = weyl_table(q1, d, n, a * q2 ** (2 * d - 1))
    right = weyl_table(q2, d, n, a * q1 ** (2 * d - 1))
    b = np.arange(q)
    left = left[np.ix_(a, *[b % q1] * n)]
    right = right[np.ix_(a, *[b % q2] * n)]
    assert np.abs(weyl_table(q, d, n) - left * right).max() < 1e-13


def test_orthogonality_small():
    rep = verify_orthogonality(20, 1, 1)
    assert rep.ok and rep.cases > 0 and rep.max_abs < 1e-9
    rep2 = verify_orthogonality(12, 2, 2)
    assert rep2.ok


def test_decay_fit_positive_exponent():
    fit = fit_decay_exponent(32, 1, 1)
    assert fit.delta_hat > 0.4
    maxima = dict(fit.table)
    assert maxima[1] == 1.0
    # q prime: the maximum over b is attained and equals q^(-1/2)
    assert abs(maxima[13] - 13**-0.5) < 1e-12

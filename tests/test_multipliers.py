"""Lattice symbol, rational-arc approximation, frequency cutoffs, the
arc-localized pieces with their disjointness claim, and the sharp-sum
factorization identity with its designed failure mode.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson.expsums import complete_weyl_sum
from carleson.kernels import lattice_arrays, make_kernel
from carleson.multipliers import (
    CutoffSpec,
    E_j,
    L_sj,
    approx_error,
    bsharp_set,
    factorization_residual,
    lsj_terms,
    m_lattice,
    make_cutoffs,
    script_L,
    script_L_sharp,
    sharp_terms,
    _wrap,
)
from carleson.oscint import QuadratureSpec, phi_star
from carleson.rationals import ArcParams, ArcPair, ReducedRational, enumerate_Rs

QUAD = QuadratureSpec()
PARAMS = ArcParams(eps1=0.25, eps2=0.3, d=1, n=1)


# ==================== the lattice symbol ====================


def oracle_m(fam, lam, xi, j):
    """Literal float-phase sum over the piece support, accumulated in
    reversed point order so agreement is independent of summation order."""
    pts, vals, nvals = lattice_arrays(fam, j, 10**8)
    ph = lam * np.array([float(t) for t in nvals])
    for k in range(fam.n):
        ph = ph + float(np.atleast_1d(xi)[k]) * pts[:, k]
    return complex((vals * np.exp(2j * np.pi * ph))[::-1].sum())


def test_m_lattice_matches_oracle():
    fam = make_kernel("sign", 1, 1)
    got = m_lattice(fam, 4, 1.0 / 3.0, 0.2)
    assert abs(got - oracle_m(fam, 1.0 / 3.0, 0.2, 4)) < 1e-12
    fam2 = make_kernel("riesz", 2, 1, 0)
    xi = np.array([0.3, -0.15])
    assert abs(m_lattice(fam2, 3, 0.7, xi) - oracle_m(fam2, 0.7, xi, 3)) < 1e-12


def test_m_lattice_frozen_spot():
    fam = make_kernel("sign", 1, 1)
    got = m_lattice(fam, 6, 1.0 / 3.0, 0.2)
    assert abs(got - (2.3963855982400115e-04 + 3.9881197405754388e-04j)) < 1e-12


def test_m_odd_kernel_vanishes_at_origin():
    fam = make_kernel("sign", 1, 1)
    assert abs(m_lattice(fam, 5, 0.0, 0.0)) < 1e-15


def test_m_periodicity_bit_exact_at_dyadic_args():
    # dyadic lam, xi survive the +1 shift exactly, so the reduced
    # phases, hence the sums, are bit-identical
    fam = make_kernel("sign", 1, 1)
    lam, xi = 21.0 / 64.0, 5.0 / 32.0
    base = m_lattice(fam, 5, lam, xi)
    assert m_lattice(fam, 5, lam + 1.0, xi) == base
    assert m_lattice(fam, 5, lam, xi + 1.0) == base


def test_m_grid_matches_pointwise():
    # the samples m(k/N) are N times the inverse DFT of the modulated
    # kernel folded onto [N]; N >= 2^(j+3) leaves no wraparound
    fam = make_kernel("sign", 1, 1)
    lam, N = 21.0 / 64.0, 128
    pts, vals, nvals = lattice_arrays(fam, 4, 10**8)
    folded = np.zeros(N, dtype=np.complex128)
    folded[pts[:, 0] % N] = vals * np.exp(2j * np.pi * lam * nvals)
    grid = N * np.fft.ifft(folded)
    scale = np.abs(vals).sum()
    worst = max(abs(grid[k] - m_lattice(fam, 4, lam, k / N))
                for k in range(0, N, 7))
    assert worst <= 1e-10 * scale


# ==================== rational-arc approximation ====================


def test_approx_error_tiny_at_exact_center():
    fam = make_kernel("sign", 1, 1)
    err, ratio = approx_error(fam, 6, ArcPair(0, (0,), 1), 0.0, 0.0, QUAD)
    assert abs(err) < 1e-13 and ratio < 1e-12


def test_approx_bound_ratio_stays_bounded():
    fam = make_kernel("sign", 1, 1)
    rng = np.random.default_rng(11)
    for j, pair in [(5, ArcPair(1, (1,), 2)), (6, ArcPair(1, (0,), 3)),
                    (8, ArcPair(3, (2,), 7))]:
        for _ in range(5):
            lam = pair.a / pair.q + rng.uniform(-0.9, 0.9) * 2.0 ** (-j)
            xi = pair.b[0] / pair.q + rng.uniform(-0.45, 0.45)
            _, ratio = approx_error(fam, j, pair, lam, xi, QUAD)
            assert ratio < 10.0


def test_approx_error_validation():
    fam = make_kernel("sign", 1, 1)
    with pytest.raises(ValueError):
        approx_error(fam, 2, ArcPair(0, (0,), 1), 0.0, 0.0, QUAD)
    with pytest.raises(ValueError):
        approx_error(fam, 4, ArcPair(1, (1,), 8), 1.0 / 8.0, 1.0 / 8.0, QUAD)
    with pytest.raises(ValueError):  # modulation offset too wide
        approx_error(fam, 6, ArcPair(0, (0,), 1), 0.3, 0.0, QUAD)
    with pytest.raises(ValueError):  # dimension mismatch
        approx_error(fam, 6, ArcPair(0, (0, 0), 1), 0.0, (0.0, 0.0), QUAD)


# ==================== frequency cutoffs ====================


def test_make_cutoffs_geometry():
    cut = make_cutoffs(1, 2)
    assert cut.plateau == math.sqrt(2.0) / 4.0 and cut.support == 0.5
    # chi is 1 on the cube corners, 0 beyond the support radius
    # (at level s = 1 both are evaluated at 2^10 xi)
    assert cut.chi_s(np.array([0.25, 0.25]) * 2.0**-10) == 1.0
    assert cut.chi_s(np.array([0.51, 0.0]) * 2.0**-10) == 0.0
    assert cut.chi_tilde_s(np.array([0.5, 0.0]) * 2.0**-10) == 1.0
    with pytest.raises(ValueError):
        make_cutoffs(1, 4)  # cube circumradius reaches the support
    with pytest.raises(ValueError):
        CutoffSpec(s=1, plateau=0.6, support=0.5,
                   tilde_plateau=0.5, tilde_support=1.0)


def test_cutoff_scale_replacement():
    cut = make_cutoffs(1, 1)
    assert cut.at_scale(3).s == 3
    assert cut.at_scale(3).at_scale(3) == cut.at_scale(3)
    assert cut.at_scale(2).support_radius_s == 0.5 * 2.0**-20
    assert cut.at_scale(2).tilde_support_radius_s == 1.0 * 2.0**-20


def test_chi_tilde_covers_chi_support():
    cut = make_cutoffs(2, 1)
    for t in np.linspace(0.0, cut.support_radius_s, 200):
        if cut.chi_s(t) != 0.0:
            assert cut.chi_tilde_s(t) == 1.0


# ==================== arc-localized pieces ====================


def test_lsj_single_term_near_zero_arc():
    fam = make_kernel("sign", 1, 1)
    cut = make_cutoffs(1, 1)
    lam, xi = 2.0**-16, 1e-5
    terms = lsj_terms(fam, 1, 8, lam, xi, PARAMS, cut, QUAD)
    assert len(terms) == 1 and terms[0]["pair"] == ArcPair(0, (0,), 1)
    assert L_sj(fam, 1, 8, lam, xi, PARAMS, cut, QUAD) == phi_star(
        fam, 8, lam, xi, PARAMS, QUAD)


def test_lsj_modulation_window_filters():
    # chi passes at this xi but lam sits outside the arc window
    fam = make_kernel("sign", 1, 1)
    cut = make_cutoffs(1, 1)
    assert lsj_terms(fam, 1, 8, 2.0**-13, 1e-5, PARAMS, cut, QUAD) == []


def test_lsj_scale_bound():
    fam = make_kernel("sign", 1, 1)
    cut = make_cutoffs(3, 1)
    with pytest.raises(ValueError):
        L_sj(fam, 3, 8, 0.0, 0.0, PARAMS, cut, QUAD)  # 3 > eps1*8


def test_disjointness_under_adversarial_draws():
    fam = make_kernel("sign", 1, 1)
    cut = make_cutoffs(1, 1)
    rng = np.random.default_rng(23)
    m15 = lambda off: 1.5 + 0.0j
    for s in (1, 2, 3):
        triples = enumerate_Rs(s, 1)
        for _ in range(40):
            pair = triples[rng.integers(len(triples))]
            lam = pair.a / pair.q + rng.uniform(-1, 1) * PARAMS.xj_halfwidth(12)
            xi = pair.b[0] / pair.q + rng.uniform(-3, 3) * cut.at_scale(
                s).support_radius_s
            assert len(lsj_terms(fam, s, 12, lam, xi, PARAMS, cut, QUAD)) <= 1
            assert len(sharp_terms(s, m15, xi, cut, 1)) <= 1


def test_E_j_vanishes_off_arcs_and_reduces_to_m():
    fam = make_kernel("sign", 1, 1)
    cut = make_cutoffs(1, 1)
    assert E_j(fam, 8, 0.5 + 2.0**-8, 0.1, PARAMS, cut, QUAD) == 0.0j
    lam = 1.0 / 3.0 + 2.0**-15  # inside the q=3 window at j=8
    assert E_j(fam, 8, lam, 0.1, PARAMS, cut, QUAD) == m_lattice(fam, 8, lam, 0.1)


# ==================== sharp sums and factorization ====================


def brute_bsharp(s, n):
    top = 2**s - 1
    singles = sorted({Fraction(p, q) for q in range(1, top + 1)
                      for p in range(q)})
    out = []

    def rec(prefix, l):
        if len(prefix) == n:
            out.append(prefix)
            return
        for f in singles:
            ll = l * f.denominator // math.gcd(l, f.denominator)
            if ll <= top:
                rec(prefix + (f,), ll)

    rec((), 1)
    return out


@pytest.mark.parametrize("s,n", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_bsharp_set_matches_brute(s, n):
    got = bsharp_set(s, n)
    want = brute_bsharp(s, n)
    assert len(got) == len(set(got)) == len(want)
    assert set(got) == set(want)


def test_script_L_hand_values():
    cut = make_cutoffs(1, 1)
    m15 = lambda off: 1.5 + 0.0j
    # lone level-1 arc (0/1, 0/1) at the origin
    assert script_L(1, ReducedRational(0, 1), m15, 0.0, cut, 1, 1) == 1.5 + 0.0j
    # enumerated block: prime denominator, exact center
    want = complete_weyl_sum(ArcPair(1, (3,), 17), 1).value * 1.5
    assert abs(script_L(5, ReducedRational(1, 17), m15, 3.0 / 17.0,
                        cut, 1, 1) - want) < 1e-15
    # levels beyond the enumeration cap are refused
    with pytest.raises(ValueError):
        script_L(7, ReducedRational(1, 64), m15, 5.0 / 64.0, cut, 1, 1)
    # denominator outside the level: empty sum
    assert script_L(2, ReducedRational(1, 4), m15, 0.0, cut, 1, 1) == 0.0j


def test_script_L_sharp_hand_values():
    cut = make_cutoffs(1, 1)
    m15 = lambda off: 1.5 + 0.0j
    assert script_L_sharp(1, m15, 0.0, cut, 1) == 1.5 + 0.0j
    assert script_L_sharp(1, m15, 0.4, cut, 1) == 0.0j
    with pytest.raises(ValueError):  # beyond the n = 2 enumeration cap
        script_L_sharp(5, m15, np.zeros(2), make_cutoffs(1, 2), 2)


def test_factorization_identity_holds():
    cut = make_cutoffs(1, 1)
    handles = [
        lambda off: 1.5 + 0.0j,
        lambda off: np.exp(2j * np.pi * np.sum(off))
        + 0.25 * np.exp(-4j * np.pi * np.sum(off)),
    ]
    rng = np.random.default_rng(7)
    for s in (1, 2, 3):
        betas = bsharp_set(s, 1)
        for _ in range(20):
            beta = betas[rng.integers(len(betas))]
            xi = float(beta[0]) + rng.uniform(-2, 2) * cut.at_scale(
                s).tilde_support_radius_s
            for mh in handles:
                r = factorization_residual(s, ReducedRational(1, 2), mh,
                                           xi, cut, 1, 1)
                assert r <= 1e-10


def test_factorization_fails_with_shrunken_wide_cutoff():
    # chi_tilde no longer covers supp chi, so the identity must break
    bad = make_cutoffs(1, 1, tilde_plateau=0.05, tilde_support=0.15)
    m15 = lambda off: 1.5 + 0.0j
    r = factorization_residual(1, ReducedRational(0, 1), m15, 1e-4, bad, 1, 1)
    assert r > 1e-6


# ==================== torus wrap ====================


@given(st.floats(-1e9, 1e9))
@settings(max_examples=300)
def test_wrap_offset(t):
    w = _wrap(t)
    assert abs(w) <= 0.5
    assert float(t - w).is_integer()

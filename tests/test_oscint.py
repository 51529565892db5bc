"""Oscillatory integrals of the kernel pieces: dense-quadrature oracles,
exact dilation invariance, the windowed variant, the van der Corput
profile, and quadrature failure modes.
"""

import math

import numpy as np
import pytest

from carleson.errors import BudgetExceededError, ToleranceNotReachedError
from carleson.kernels import eta, make_kernel, psi_profile
from carleson.oscint import (
    QuadratureSpec,
    phi,
    phi_star,
    vdc_profile,
)
from carleson.rationals import ArcParams

QUAD = QuadratureSpec(tol=1e-12)


# ==================== dense oracles ====================


def _simpson(vals, h):
    assert (len(vals) - 1) % 2 == 0
    return h / 3.0 * (vals[0] + vals[-1]
                      + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())


def oracle_phi_1d(fam, j, lam, xi, m=80001):
    """Dense Simpson integration of the piece j >= 2 against the bilinear
    phase, written directly from the definition (both rays, no
    rescaling); oracle_phi_j1 covers j = 1."""
    r = np.linspace(2.0 ** (j - 1), 2.0 ** (j + 1), m)
    env = lambda r: psi_profile(r * 2.0**-j) / r
    om_p = float(fam.omega(np.array([[1.0]]))[0])
    om_m = float(fam.omega(np.array([[-1.0]]))[0])
    f = env(r) * np.exp(2j * np.pi * lam * r ** (2 * fam.d)) * (
        om_p * np.exp(2j * np.pi * xi * r)
        + om_m * np.exp(-2j * np.pi * xi * r)
    )
    return _simpson(f, r[1] - r[0])


def oracle_phi_2d(fam, j, lam, xivec, mr=4001, mt=4096):
    """Dense polar double integral: Simpson in radius, midpoint rule on
    the circle (spectrally accurate for the periodic angular factor)."""
    r = np.linspace(2.0 ** (j - 1), 2.0 ** (j + 1), mr)
    th = 2.0 * np.pi * (np.arange(mt) + 0.5) / mt
    circ = np.stack([np.cos(th), np.sin(th)], axis=-1)
    om = fam.omega(circ)
    proj = circ @ np.asarray(xivec, dtype=np.float64)
    inner = (np.exp(2j * np.pi * (r[:, None] * proj[None, :])) * om).sum(
        axis=1
    ) * (2.0 * np.pi / mt)
    f = psi_profile(r * 2.0**-j) / r * np.exp(
        2j * np.pi * lam * r ** (2 * fam.d)
    ) * inner
    return _simpson(f, r[1] - r[0])


# ==================== values ====================


@pytest.mark.parametrize("j,lam,xi", [
    (4, 0.7 * 2.0**-8, 1.3 * 2.0**-4),
    (6, -0.9 * 2.0**-12, 0.25 * 2.0**-6),
])
def test_phi_matches_dense_oracle_1d(j, lam, xi):
    fam = make_kernel("sign", 1, 1)
    assert abs(phi(fam, j, lam, xi, QUAD) - oracle_phi_1d(fam, j, lam, xi)) < 5e-12


def test_phi_matches_dense_oracle_2d():
    fam = make_kernel("harmonic", 2, 1, 1)
    lam, xiv = 0.9 * 2.0**-6, np.array([0.4 * 2.0**-3, -0.3 * 2.0**-3])
    assert abs(phi(fam, 3, lam, xiv, QUAD) - oracle_phi_2d(fam, 3, lam, xiv)) < 1e-10


def test_frozen_values():
    fam = make_kernel("sign", 1, 1)
    got = phi(fam, 4, 0.7 * 2.0**-8, 1.3 * 2.0**-4, QuadratureSpec())
    assert abs(got - (0.54045459840467491 - 0.21381994497897555j)) < 2e-10
    fam2 = make_kernel("harmonic", 2, 1, 1)
    got2 = phi(fam2, 3, 0.9 * 2.0**-6,
               np.array([0.4 * 2.0**-3, -0.3 * 2.0**-3]), QuadratureSpec())
    assert abs(got2 - (0.27054028731869634 - 0.16511757889074238j)) < 2e-10


def test_dilation_invariance_is_exact():
    # for j >= 2 the integral is computed in scale-free variables, so
    # matched (lam, xi) rescalings give bit-identical results
    fam = make_kernel("sign", 1, 1)
    vals = [phi(fam, j, 0.7 * 2.0 ** (-2 * j), 1.3 * 2.0**-j, QUAD)
            for j in (2, 5, 8, 11)]
    assert max(abs(v - vals[0]) for v in vals) == 0.0


def test_phi_validation():
    fam = make_kernel("sign", 1, 1)
    with pytest.raises(ValueError):
        phi(fam, 0, 0.0, 0.0, QUAD)
    with pytest.raises(ValueError):
        phi(fam, 3, 0.0, np.array([0.1, 0.2]), QUAD)


# ==================== windowed pieces and partial sums ====================

PARAMS = ArcParams(eps1=0.25, eps2=0.3, d=1, n=1)


def test_phi_star_window_is_closed():
    fam = make_kernel("sign", 1, 1)
    hw = PARAMS.xj_halfwidth(6)
    assert phi_star(fam, 6, hw, 0.1, PARAMS, QUAD) == phi(fam, 6, hw, 0.1, QUAD)
    assert phi_star(fam, 6, np.nextafter(hw, 1.0), 0.1, PARAMS, QUAD) == 0.0j
    assert phi_star(fam, 6, -2.0 * hw, 0.1, PARAMS, QUAD) == 0.0j


def test_phi_star_family_mismatch():
    fam = make_kernel("sign", 1, 2)  # d = 2 against d = 1 params
    with pytest.raises(ValueError):
        phi_star(fam, 6, 0.0, 0.1, PARAMS, QUAD)


# ==================== van der Corput profile ====================


def test_vdc_profile_finite_and_scale_stable():
    fam = make_kernel("sign", 1, 1)
    grid = [(u, v) for u in np.linspace(-4.0, 4.0, 5)
            for v in np.linspace(-8.0, 8.0, 5)]
    prof = vdc_profile(fam, [4, 5, 6], grid, QuadratureSpec())
    vals = list(prof.values())
    assert all(math.isfinite(v) and v > 0.0 for v in vals)
    # the scaled grid probes identical (u, v), so rows coincide exactly
    assert max(vals) - min(vals) == 0.0


def test_vdc_profile_unscaled():
    # raw (lam, xi) grids are refused; only the scaled form is computed
    fam = make_kernel("sign", 1, 1)
    with pytest.raises(ValueError):
        vdc_profile(fam, [3], [(0.01, 0.5)], QuadratureSpec(), scaled=False)


# ==================== failure modes ====================


def test_tolerance_not_reached_carries_partial_result():
    fam = make_kernel("sign", 1, 1)
    with pytest.raises(ToleranceNotReachedError) as info:
        phi(fam, 4, 0.7 * 2.0**-8, 1.3 * 2.0**-4,
            QuadratureSpec(max_depth=0, tol=1e-18))
    assert info.value.estimate > 1e-18
    assert abs(info.value.value) > 0.0


def test_node_budget_preflight():
    fam = make_kernel("sign", 1, 1)
    with pytest.raises(BudgetExceededError):
        phi(fam, 11, 0.9, 0.0, QuadratureSpec())


def test_quadrature_spec_validation():
    for bad in (dict(resolution=3.0), dict(max_depth=-1),
                dict(tol=0.0), dict(node_budget=4),
                dict(resolution=math.inf), dict(resolution=math.nan),
                dict(tol=math.inf), dict(tol=math.nan)):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)


# ==================== the regime approx drives ====================


def oracle_phi_j1(fam, lam, xi, mr=40001, mt=128):
    """Dense Simpson integration of the j = 1 piece over r in [0, 4],
    written from the definition.  The sphere is {+1, -1} for n = 1 and
    mt midpoints for n = 2; it integrates e(r xi.t) - 1 (np.expm1)
    against Omega, which has zero mean, so the factor keeps its relative
    accuracy as r -> 0, and the r = 0 node takes the integrand's limit
    (evaluated at r = 1e-300)."""
    r = np.linspace(0.0, 4.0, mr)
    r[0] = 1e-300
    if fam.n == 1:
        pts, dt = np.array([[1.0], [-1.0]]), 1.0
    else:
        th = 2.0 * np.pi * (np.arange(mt) + 0.5) / mt
        pts, dt = np.stack([np.cos(th), np.sin(th)], axis=-1), 2.0 * np.pi / mt
    om = fam.omega(pts) * dt
    proj = pts @ np.atleast_1d(np.asarray(xi, dtype=np.float64))
    inner = np.concatenate([
        (np.expm1(2j * np.pi * (rr[:, None] * proj[None, :])) * om).sum(axis=1)
        for rr in np.array_split(r, 16)
    ])
    f = eta(r / 2.0) / r * np.exp(2j * np.pi * lam * r ** (2 * fam.d)) * inner
    return _simpson(f, r[1] - r[0])


# approx reaches |u| = 0.9 * 2^11 and |v| = 0.45 * 2^11 at j = 11; the
# middle cases put a stationary point of the phase inside the annulus
@pytest.mark.parametrize("d,u,v", [
    (1, 1840.0, 920.0),
    (1, 610.0, -920.0),
    (2, 200.0, 920.0),
    (2, -1840.0, 920.0),
])
def test_phi_matches_dense_oracle_at_approx_phases(d, u, v):
    # the oracle's own rounding of its unscaled phase is about 2e-13
    fam = make_kernel("sign", 1, d)
    lam, xi = u * 2.0 ** (-22 * d), v * 2.0**-11
    got = phi(fam, 11, lam, xi, QUAD)
    assert abs(got - oracle_phi_1d(fam, 11, lam, xi, m=1_000_001)) < 1e-12


# harmonic m = 2 has an even Omega, for which the radial integrand of
# the cumulative piece is odd in r and the plain trapezoid rule on [0, 4]
# converges only like O(h^2)
@pytest.mark.parametrize("name,n,param,lam,xi", [
    ("sign", 1, 0, 0.3, [0.7]),
    ("sign", 1, 0, 2.0, [-5.0]),
    ("riesz", 2, 0, 0.3, [0.7, -0.2]),
    ("riesz", 2, 1, 1.1, [1.5, 1.0]),
    ("harmonic", 2, 2, 0.3, [0.7, -0.2]),
    ("harmonic", 2, 2, 1.1, [1.5, 1.0]),
])
def test_phi_j1_matches_dense_oracle(name, n, param, lam, xi):
    # measured below 2e-15; rounding in the n = 2 angular sum, amplified
    # by the 1/r of the integrand near r = 0, would show at about 2e-13
    fam = make_kernel(name, n, 1, param)
    got = phi(fam, 1, lam, np.array(xi), QUAD)
    assert abs(got - oracle_phi_j1(fam, lam, xi)) < 1e-13


@pytest.mark.parametrize("name,n,d,param,sign", [
    ("sign", 1, 1, 0, -1.0),
    ("sign", 1, 2, 0, -1.0),
    ("riesz", 2, 1, 0, -1.0),
    ("harmonic", 2, 1, 2, 1.0),
])
def test_phi_parity(name, n, d, param, sign):
    # Phi(-xi) = -Phi(xi) for odd Omega, +Phi(xi) for even Omega
    fam = make_kernel(name, n, d, param)
    rng = np.random.default_rng((5, n, d, param))
    j = 5
    worst = 0.0
    for _ in range(20):
        lam = rng.uniform(-8.0, 8.0) * 2.0 ** (-2 * d * j)
        xi = rng.uniform(-8.0, 8.0, size=n) * 2.0**-j
        worst = max(worst, abs(phi(fam, j, lam, -xi, QUAD)
                               - sign * phi(fam, j, lam, xi, QUAD)))
    assert worst < 1e-12


@pytest.mark.parametrize("u", [0.0, 10.0, 50.0])
def test_angular_rule_resolves_the_degree_of_omega(u):
    # at xi = 0 the angular factor is Omega = cos(32 theta) alone, of zero
    # mean, so Phi = 0; an angular rule of 32 nodes and its 16-node half
    # read Omega as the constant 1 alike, and the error estimate misses it
    fam = make_kernel("harmonic", 2, 1, 32)
    assert abs(phi(fam, 3, u * 2.0**-6, np.zeros(2), QUAD)) < QUAD.tol

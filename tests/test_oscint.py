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
    """Dense Simpson integration of the piece against the bilinear phase,
    written directly from the definition (both rays, no rescaling)."""
    if j >= 2:
        lo, hi = 2.0 ** (j - 1), 2.0 ** (j + 1)
        env = lambda r: psi_profile(r * 2.0**-j) / r
    else:
        lo, hi = 1e-13, 4.0  # integrand extends continuously to r = 0
        env = lambda r: eta(r / 2.0) / r
    r = np.linspace(lo, hi, m)
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
    (1, 0.3, 0.7),
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
    fam = make_kernel("sign", 1, 1)
    prof = vdc_profile(fam, [3], [(0.01, 0.5)], QuadratureSpec(), scaled=False)
    assert math.isfinite(prof[3])


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
                dict(tol=0.0), dict(node_budget=4)):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)

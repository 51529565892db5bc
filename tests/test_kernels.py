"""Dyadic kernel pieces: cutoff profiles, partition of unity, support,
homogeneity, lattice realizations, and the exact integer phase weights.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson.errors import BudgetExceededError
from carleson.kernels import (
    cumulative_lattice_arrays,
    eta,
    exact_phase_weights,
    kernel_cumulative,
    kernel_piece,
    kernel_value,
    lattice_arrays,
    make_kernel,
    psi_profile,
)


# ==================== cutoff profiles ====================


def test_eta_plateau_and_support():
    t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    v = eta(t)
    assert np.all(v[t <= 1.0] == 1.0)
    assert np.all(v[t >= 2.0] == 0.0)
    assert 0.0 < v[3] < 1.0


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=300)
def test_eta_monotone(t1, t2):
    lo, hi = sorted((t1, t2))
    assert eta(np.array(hi)) <= eta(np.array(lo)) + 1e-15


def test_psi_support_and_telescoping():
    r = np.concatenate([np.array([0.25, 0.5, 2.0, 4.0]),
                        np.logspace(-1, 5, 300)])
    p = psi_profile(r)
    assert np.all(p[(r <= 0.5) | (r >= 2.0)] == 0.0)
    total = eta(r / 2.0) + sum(
        psi_profile(r * 2.0**-j) for j in range(2, 25)
    )
    assert np.abs(total - eta(r * 2.0**-24)).max() < 1e-14
    # full unity on moderate radii once the last cutoff saturates
    inner = r <= 2.0**24
    assert np.abs(total[inner] - 1.0).max() < 1e-14


# ==================== the full kernel ====================


def test_kernel_homogeneity_1d():
    fam = make_kernel("sign", 1, 1)
    x = np.array([[3.0], [-5.0], [0.5]])
    assert np.allclose(kernel_value(fam, 2.0 * x),
                       kernel_value(fam, x) / 2.0)
    assert kernel_value(fam, np.array([[0.0]]))[0] == 0.0


def test_kernel_homogeneity_2d():
    fam = make_kernel("riesz", 2, 1, 0)
    x = np.array([[3.0, 1.0], [-2.0, 5.0]])
    assert np.allclose(kernel_value(fam, 3.0 * x),
                       kernel_value(fam, x) / 9.0)


def test_omega_zero_sphere_mean():
    # the angular part must integrate to zero over the unit sphere
    for fam in (make_kernel("sign", 1, 1),
                make_kernel("riesz", 2, 1, 1),
                make_kernel("harmonic", 2, 1, 2)):
        if fam.n == 1:
            pts = np.array([[1.0], [-1.0]])
            mean = fam.omega(pts).sum()
        else:
            th = (np.arange(4096) + 0.5) / 4096 * 2 * np.pi
            pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
            mean = fam.omega(pts).mean()
        assert abs(mean) < 1e-12


def test_piece_support_and_sum():
    fam = make_kernel("sign", 1, 1)
    x = np.array([[1.0], [3.0], [5.0], [16.0], [17.0], [64.0], [65.0]])
    k4 = kernel_piece(fam, 4, x)
    r = np.abs(x[:, 0])
    assert np.all(k4[(r <= 8.0) | (r >= 32.0)] == 0.0)
    direct = sum(kernel_piece(fam, j, x) for j in range(1, 7))
    assert np.allclose(direct, kernel_cumulative(fam, 6, x), atol=1e-15)


def test_piece_one_covers_origin_gap():
    fam = make_kernel("sign", 1, 1)
    x = np.array([[1.0], [2.0], [-1.0]])
    k1 = kernel_piece(fam, 1, x)
    # eta(r/2) = 1 for r <= 2, so K_1 = K there
    assert np.allclose(k1, kernel_value(fam, x))


# ==================== lattice arrays ====================


@pytest.mark.parametrize("name,n,d,param", [("sign", 1, 1, None),
                                            ("riesz", 2, 1, 0),
                                            ("harmonic", 2, 2, 1)])
def test_lattice_arrays_contents(name, n, d, param):
    fam = make_kernel(name, n, d, param)
    pts, vals, nvals = lattice_arrays(fam, 3)
    assert pts.shape[1] == n and len(vals) == len(nvals) == pts.shape[0]
    r = np.sqrt((pts * pts).sum(axis=1))
    assert r.min() > 0.0  # origin excluded
    assert np.allclose(vals, kernel_piece(fam, 3, pts.astype(float)))
    want = (pts.astype(object) ** 2).sum(axis=1) ** d
    assert all(int(a) == int(b) for a, b in zip(nvals, want))


def test_cumulative_lattice_matches_closed_form():
    fam = make_kernel("sign", 1, 1)
    pts, vals, _ = cumulative_lattice_arrays(fam, 5, 10**7)
    assert np.allclose(vals, kernel_cumulative(fam, 5, pts.astype(float)))
    # odd kernel: the value table is odd under point negation
    table = {int(p): v for p, v in zip(pts[:, 0], vals)}
    assert all(abs(table[-p] + v) < 1e-15 for p, v in table.items())


def test_exact_phase_weights_object_ints():
    pts = np.array([[3, 4], [1, 0], [100, 100]], dtype=np.int64)
    w = exact_phase_weights(pts, 2)
    assert list(w) == [25**2, 1, 20000**2]
    with pytest.raises(BudgetExceededError):
        exact_phase_weights(np.array([[2**13]], dtype=np.int64), 4)


def test_lattice_budget():
    fam = make_kernel("riesz", 2, 1, 0)
    with pytest.raises(BudgetExceededError):
        lattice_arrays(fam, 12)  # (2^14 + 1)^2 points

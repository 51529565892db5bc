"""Lattice operators: the gridded maximal operator, rational block pair
sums in two closed forms, and the dyadic chaining inequality.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson import operators
from carleson.expsums import complete_weyl_sum
from carleson.kernels import cumulative_lattice_arrays, make_kernel
from carleson.operators import (
    LambdaGrid,
    LatticeFunction,
    carleson_apply,
    delta_function,
    kappa_table,
    norm_ratio_stats,
    random_function,
    rm_bound,
)
from carleson.rationals import ArcPair
from twins import kappa_forms, s_xy

E = lambda t: np.exp(2j * np.pi * t)


# ==================== containers ====================


def test_lattice_function_basics():
    f = random_function(1, 2, (1, 0))
    assert f.center == (0,) and f.values.shape == (5,)
    assert f.norm2() >= f.norm_inf() > 0.0
    with pytest.raises(ValueError):
        LatticeFunction(1, (0,), (1,), np.zeros((2,), dtype=np.complex128))
    with pytest.raises(ValueError):
        LatticeFunction(2, (0,), (1, 1), np.zeros((3, 3), np.complex128))


def test_lattice_function_accepts_any_strides():
    f = random_function(2, 2, (4, 1))
    flipped = LatticeFunction(2, (0, 0), (2, 2), np.flip(f.values))
    assert flipped.values[4, 4] == f.values[0, 0]
    wide = random_function(1, 4, (4, 2)).values
    strided = LatticeFunction(1, (0,), (2,), wide[::2])
    assert strided.values[3] == wide[6]
    for bad in (complex(np.nan, 0.0), complex(0.0, np.nan),
                complex(np.inf, 1.0)):
        values = np.flip(f.values).copy()
        values[1, 3] = bad
        with pytest.raises(ValueError):
            LatticeFunction(2, (0, 0), (2, 2), values)


def test_lambda_grid():
    g = LambdaGrid.uniform(4)
    assert g == LambdaGrid(4) and g.spacing == 0.25
    assert LambdaGrid(g.M * 2).spacing == LambdaGrid.uniform(8).spacing
    assert LambdaGrid.uniform(1).spacing == 1.0
    # only the uniform grid i/M can be built
    with pytest.raises(ValueError):
        LambdaGrid((0.5, 0.25))
    with pytest.raises(ValueError):
        LambdaGrid((1.0,))


# ==================== maximal operator ====================


def test_carleson_delta_closed_form():
    # modulation has unit modulus, so C(delta) = |K^(J)| site by site
    # (grid values tie up to transform rounding)
    fam = make_kernel("sign", 1, 1)
    grid = LambdaGrid.uniform(8)
    res = carleson_apply(fam, delta_function(1), 5, grid)
    pts, vals, nvals = cumulative_lattice_arrays(fam, 5, 10**8)
    want = {int(p): abs(v) for p, v in zip(pts[:, 0], vals)}
    half = res.cf.halfwidth[0]
    for x, v in want.items():
        assert abs(res.cf.values[x + half] - v) < 1e-12
    assert abs(res.cf.values[half]) < 1e-15
    assert set(np.unique(res.argmax_index / grid.M)) <= set(
        np.arange(grid.M) / grid.M)
    assert res.argmax_index.max() < grid.M
    # a site whose phase weight is 0 mod M ties exactly over the grid,
    # and ties go to the first grid index
    tied = [int(p) for p, t in zip(pts[:, 0], nvals) if t % grid.M == 0]
    assert tied
    assert all(res.argmax_index[x + half] == 0 for x in tied)
    spacing = LambdaGrid.uniform(8).spacing
    weighted = sum(float(t) * abs(v) for t, v in zip(nvals, vals))
    assert abs(res.grid_error_bound - math.pi * weighted * spacing) < 1e-12


def test_carleson_validation():
    fam = make_kernel("sign", 1, 1)
    with pytest.raises(ValueError):
        carleson_apply(fam, delta_function(1), 0, LambdaGrid.uniform(2))
    with pytest.raises(ValueError):
        carleson_apply(fam, delta_function(2, 1), 3, LambdaGrid.uniform(2))


def oracle_carleson(fam, J, M, f):
    """|sum_y f(x-y) e(i |y|^(2d) / M) K^(J)(y)| at every output site x
    and grid index i, by plain loops over (f point, kernel point) pairs;
    each phase is taken from the exact integer i |y|^(2d) mod M."""
    pts, vals, nvals = cumulative_lattice_arrays(fam, J, 10**8)
    radius = int(np.abs(pts).max())
    shape = tuple(2 * (h + radius) + 1 for h in f.halfwidth)
    sums = np.zeros(shape + (M,), dtype=np.complex128)
    steps = np.arange(M)
    for y, k, nv in zip(pts, vals, nvals):
        row = k * E((steps * int(nv) % M) / M)
        for u in np.ndindex(*f.values.shape):
            x = tuple(int(u[a] + y[a]) + radius for a in range(f.n))
            sums[x] += f.values[u] * row
    return np.abs(sums)


@pytest.mark.parametrize(
    "name,n,d,J,radius",
    [("sign", 1, 1, 4, 3), ("sign", 1, 2, 3, 3), ("riesz", 2, 1, 2, 2)],
)
@pytest.mark.parametrize("M", [8, 13, 64])
def test_carleson_matches_direct_sum(monkeypatch, name, n, d, J, radius, M):
    fam = make_kernel(name, n, d)
    f = random_function(n, radius, (31, n, d))
    mags = oracle_carleson(fam, J, M, f)
    want = mags.max(axis=-1)
    top2 = np.sort(mags, axis=-1)[..., -2:]
    clear = top2[..., 1] - top2[..., 0] > 1e-9
    # the default block, and blocks of 5 sites (splitting 2-D rows)
    for block in (operators._CLASS_BLOCK_BYTES, 5 * 16 * M):
        monkeypatch.setattr(operators, "_CLASS_BLOCK_BYTES", block)
        res = carleson_apply(fam, f, J, LambdaGrid.uniform(M))
        assert np.all(res.cf.values.imag == 0.0)
        np.testing.assert_allclose(
            res.cf.values.real, want, rtol=1e-12, atol=1e-12
        )
        assert np.array_equal(
            res.argmax_index[clear], mags.argmax(axis=-1)[clear]
        )
        assert set(np.unique(res.argmax_index / M)) <= set(np.arange(M) / M)


def test_carleson_dominates_members_and_grows_under_refinement():
    # Cf is at least |T_{i/M} f| for every grid value i/M, and refining
    # the grid keeps every old point, so Cf never drops at any site
    fam = make_kernel("sign", 1, 1)
    f = random_function(1, 3, (11, 2))
    J, grid = 4, LambdaGrid.uniform(8)
    res = carleson_apply(fam, f, J, grid)
    members = oracle_carleson(fam, J, grid.M, f)
    assert np.all(members <= res.cf.values.real[:, None] + 1e-12)
    fine = carleson_apply(fam, f, J, LambdaGrid(grid.M * 4))
    assert np.all(fine.cf.values.real >= res.cf.values.real - 1e-12)
    assert fine.grid_error_bound < res.grid_error_bound


@pytest.mark.parametrize(
    "name,n,J", [("sign", 1, 4), ("riesz", 2, 3)]
)
def test_carleson_exact_symmetries(name, n, J):
    # conjugation maps the grid value i/M to (M-i)/M, scaling factors
    # out, and odd kernels with radial phases commute with x -> -x
    fam = make_kernel(name, n, 1)
    grid = LambdaGrid.uniform(64)
    f = random_function(n, 3, (17, n))

    def cf(values):
        g = LatticeFunction(n, f.center, f.halfwidth, values)
        return carleson_apply(fam, g, J, grid).cf.values.real

    base = cf(f.values)
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cf(np.conj(f.values)), base, **close)
    np.testing.assert_allclose(cf(2.5j * f.values), 2.5 * base, **close)
    np.testing.assert_allclose(cf(np.flip(f.values)), np.flip(base), **close)


def test_norm_ratio_trial0_and_worker_independence():
    fam = make_kernel("sign", 1, 1)
    grid = LambdaGrid.uniform(16)
    max1, rows1 = norm_ratio_stats(fam, 4, grid, 3, 8, seed=5)
    _, vals, _ = cumulative_lattice_arrays(fam, 4, 10**8)
    assert abs(rows1[0]["ratio"] - np.linalg.norm(vals)) < 1e-12
    max3, rows3 = norm_ratio_stats(fam, 4, grid, 3, 8, seed=5, workers=3)
    assert max1 == max3 and rows1 == rows3
    with pytest.raises(ValueError):
        norm_ratio_stats(fam, 4, grid, 0, 8, seed=5)


# ==================== rational block pair sums ====================


def test_sxy_diagonal_and_periodicity():
    assert s_xy(1, 3, 1, 3, (0,), 1, 1) == 1.0 + 0.0j
    base = s_xy(2, 5, 3, 7, (4,), 2, 1)
    assert s_xy(2, 5, 3, 7, (4 + 35,), 2, 1) == base
    assert abs(base) <= 1.0 + 1e-12


def test_kappa_forms_agree_exhaustively_small():
    worst = 0.0
    for q in range(1, 7):
        for qp in range(1, 7):
            for a in [x for x in range(q) if math.gcd(x, q) == 1 or q == 1]:
                for ap in [x for x in range(qp)
                           if math.gcd(x, qp) == 1 or qp == 1]:
                    for w in range(-3, 4):
                        for d in (1, 2):
                            beta, dbl = kappa_forms(a, q, ap, qp, (w,), d, 1)
                            worst = max(worst, abs(beta - dbl))
    assert worst < 1e-12


def test_kappa_table_matches_singles():
    shifts = np.array([[-5], [-1], [0], [3], [12]])
    bv, dv = kappa_table(1, 4, 3, 5, shifts, 1, 1)
    for row, w in enumerate(shifts[:, 0]):
        beta, dbl = kappa_forms(1, 4, 3, 5, (int(w),), 1, 1)
        assert abs(bv[row] - beta) < 1e-12 and abs(dv[row] - dbl) < 1e-12
    shifts2 = np.array([[0, 1], [2, -3], [5, 4]])
    bv2, dv2 = kappa_table(1, 3, 1, 2, shifts2, 2, 2)
    for row in range(3):
        beta, dbl = kappa_forms(1, 3, 1, 2, tuple(shifts2[row]), 2, 2)
        assert abs(bv2[row] - beta) < 1e-12 and abs(dv2[row] - dbl) < 1e-12
    # numerator sequences give the (len a, len a', count) block of the
    # per-pair calls
    nums, nums_p = [1, 3, 5, 7], [1, 2, 4, 5, 7, 8]
    bb, db = kappa_table(nums, 8, nums_p, 9, shifts, 2, 1)
    assert bb.shape == db.shape == (4, 6, len(shifts))
    for i, a in enumerate(nums):
        for k, ap in enumerate(nums_p):
            beta, dbl = kappa_table(a, 8, ap, 9, shifts, 2, 1)
            assert np.abs(bb[i, k] - beta).max() <= 1e-15
            assert np.abs(db[i, k] - dbl).max() <= 1e-15


def test_kappa_hand_values():
    def pair_sum(a, q, ap, qp, w):
        beta, dbl = kappa_table(a, q, ap, qp, np.array([[w]]), 1, 1)
        assert abs(beta[0] - dbl[0]) < 1e-12
        return beta[0]

    assert pair_sum(0, 1, 0, 1, 7) == 1.0 + 0.0j
    # same rational, shift divisible by q: the pair sum collapses to 1
    assert abs(pair_sum(1, 2, 1, 2, 4) - 1.0) < 1e-12
    # coprime denominators: product of the two central sums
    want = complete_weyl_sum(ArcPair(1, (0,), 2), 1).value * np.conj(
        complete_weyl_sum(ArcPair(1, (0,), 3), 1).value)
    assert abs(pair_sum(1, 2, 1, 3, 5) - want) < 1e-12


# ==================== numerical inequalities ====================


def test_rm_bound_hand_cases():
    lhs, rhs = rm_bound([0.0, 1.0, 2.0], 0)
    assert lhs == 2.0 and abs(rhs - (2.0 + 2.0 * math.sqrt(2.0))) < 1e-12
    lhs, rhs = rm_bound([0.0, 1.0, 0.0], 0)
    assert lhs == 1.0 and abs(rhs - 2.0) < 1e-12
    lhs, rhs = rm_bound([3.0 + 0j] * 5, 2)
    assert lhs == rhs == 3.0
    with pytest.raises(ValueError):
        rm_bound([0.0, 1.0, 2.0, 3.0], 0)  # length 4 is not 2^s + 1
    with pytest.raises(ValueError):
        rm_bound([0.0, 1.0, 2.0], 5)


@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(0, 16))
@settings(max_examples=200, deadline=None)
def test_rm_bound_holds(s, seed, anchor):
    rng = np.random.default_rng((2024, seed))
    a = rng.standard_normal(2**s + 1) + 1j * rng.standard_normal(2**s + 1)
    lhs, rhs = rm_bound(a, anchor % (2**s + 1))
    assert lhs <= rhs + 1e-12

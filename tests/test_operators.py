"""Lattice operators: modulated convolutions, the gridded maximal
operator, composition kernels with Schur bounds, rational block pair
sums in two closed forms, and the chaining/maximal inequalities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson import operators
from carleson.errors import VerificationError
from carleson.expsums import complete_weyl_sum
from carleson.kernels import (
    cumulative_lattice_arrays,
    kernel_piece,
    lattice_arrays,
    make_kernel,
)
from carleson.operators import (
    CarlesonResult,
    LambdaGrid,
    LatticeFunction,
    apply_mj,
    carleson_apply,
    delta_function,
    kappa,
    kappa_forms,
    kappa_table,
    norm_ratio_stats,
    random_function,
    rm_bound,
    s_xy,
    schur_bound,
    sobolev_maximal_bound,
    tts_kernel,
)
from carleson.rationals import ArcPair, ReducedRational

E = lambda t: np.exp(2j * np.pi * t)


# ==================== containers ====================


def test_lattice_function_basics():
    f = random_function(1, 2, (1, 0))
    assert f.value_at((7,)) == 0.0j  # outside the box
    assert f.value_at((-2,)) == f.values[0]
    g = f.translated((5,))
    assert g.center == (5,) and g.value_at((3,)) == f.value_at((-2,))
    assert f.norm1() >= f.norm2() >= f.norm_inf() > 0.0
    with pytest.raises(ValueError):
        LatticeFunction(1, (0,), (1,), np.zeros((2,), dtype=np.complex128))
    with pytest.raises(ValueError):
        LatticeFunction(2, (0,), (1, 1), np.zeros((3, 3), np.complex128))


def test_lambda_grid():
    g = LambdaGrid.uniform(4)
    assert g.values == (0.0, 0.25, 0.5, 0.75) and g.spacing == 0.25
    assert g.refined(2).values == LambdaGrid.uniform(8).values
    assert set(g.values) <= set(g.refined(3).values)
    assert LambdaGrid.uniform(1).spacing == 1.0
    # only the uniform grid i/M can be built
    with pytest.raises(ValueError):
        LambdaGrid((0.5, 0.25))
    with pytest.raises(ValueError):
        LambdaGrid((1.0,))


# ==================== modulated convolution ====================


def oracle_apply(fam, j, lam, f):
    """Direct double sum over the kernel support, no transforms."""
    pts, vals, nvals = lattice_arrays(fam, j, 10**8)
    radius = int(np.abs(pts).max())
    half = tuple(h + radius for h in f.halfwidth)
    out = np.zeros(tuple(2 * h + 1 for h in half), dtype=np.complex128)
    mod = vals * E(lam * np.array([float(t) for t in nvals]))
    for idx in np.ndindex(out.shape):
        x = np.array(idx) - np.array(half) + np.array(f.center)
        out[idx] = sum(
            f.value_at(x - pts[i]) * mod[i] for i in range(len(pts))
        )
    return LatticeFunction(f.n, f.center, half, out)


def test_apply_mj_matches_direct_sum():
    fam = make_kernel("sign", 1, 1)
    f = random_function(1, 2, (3, 1))
    got = apply_mj(fam, 3, 0.37, f)
    want = oracle_apply(fam, 3, 0.37, f)
    assert got.halfwidth == want.halfwidth
    assert np.abs(got.values - want.values).max() < 1e-10 * f.norm1()


def test_apply_mj_matches_direct_sum_2d():
    fam = make_kernel("riesz", 2, 1, 1)
    f = random_function(2, 1, (3, 2))
    got = apply_mj(fam, 2, 0.81, f)
    want = oracle_apply(fam, 2, 0.81, f)
    assert np.abs(got.values - want.values).max() < 1e-10 * f.norm1()


def test_apply_mj_linear_and_translation_equivariant():
    fam = make_kernel("sign", 1, 1)
    f = random_function(1, 3, (5, 0))
    g = random_function(1, 3, (5, 1))
    combo = LatticeFunction(1, (0,), (3,), 2.0 * f.values - 1j * g.values)
    lhs = apply_mj(fam, 3, 0.2, combo).values
    rhs = 2.0 * apply_mj(fam, 3, 0.2, f).values - 1j * apply_mj(
        fam, 3, 0.2, g).values
    assert np.abs(lhs - rhs).max() < 1e-12
    shifted = apply_mj(fam, 3, 0.2, f.translated((9,)))
    base = apply_mj(fam, 3, 0.2, f)
    assert shifted.center == (9,)
    assert np.array_equal(shifted.values, base.values)


def test_apply_mj_dimension_mismatch():
    fam = make_kernel("riesz", 2, 1, 0)
    with pytest.raises(ValueError):
        apply_mj(fam, 3, 0.0, delta_function(1, 1))


# ==================== maximal operator ====================


def test_carleson_delta_closed_form():
    # modulation has unit modulus, so C(delta) = |K^(J)| site by site
    # (grid values tie up to transform rounding)
    fam = make_kernel("sign", 1, 1)
    grid = LambdaGrid.uniform(8)
    res = carleson_apply(fam, delta_function(1), 5, grid)
    pts, vals, nvals = cumulative_lattice_arrays(fam, 5, 10**8)
    want = {int(p): abs(v) for p, v in zip(pts[:, 0], vals)}
    for x, v in want.items():
        assert abs(res.cf.value_at((x,)) - v) < 1e-12
    assert abs(res.cf.value_at((0,))) < 1e-15
    assert set(np.unique(res.argmax_lambda)) <= set(grid.values)
    assert res.argmax_index.max() < grid.M
    # a site whose phase weight is 0 mod M ties exactly over the grid,
    # and ties go to the first grid index
    tied = [(int(p),) for p, t in zip(pts[:, 0], nvals) if t % grid.M == 0]
    assert tied
    assert all(res.argmax_index[res.cf.index_of(x)] == 0 for x in tied)
    spacing = LambdaGrid.uniform(8).spacing
    weighted = sum(float(t) * abs(v) for t, v in zip(nvals, vals))
    assert abs(res.grid_error_bound - math.pi * weighted * spacing) < 1e-12


def test_carleson_dominates_members_and_grows_under_refinement():
    fam = make_kernel("sign", 1, 1)
    f = random_function(1, 3, (11, 2))
    J, grid = 4, LambdaGrid.uniform(8)
    res = carleson_apply(fam, f, J, grid)
    member = sum(
        np.abs(sum(apply_mj(fam, j, 0.375, f).value_at((x,))
                   for j in range(1, J + 1)))
        <= res.cf.value_at((x,)).real + 1e-12
        for x in range(-20, 21)
    )
    assert member == 41
    fine = carleson_apply(fam, f, J, grid.refined(4))
    assert np.all(fine.cf.values.real >= res.cf.values.real - 1e-12)
    assert fine.grid_error_bound < res.grid_error_bound


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
        assert np.array_equal(res.argmax_lambda, res.argmax_index / M)


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
        values = np.ascontiguousarray(values)
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


# ==================== composition kernels ====================


def lam_map(x):
    return 0.1 + 0.05 * float(np.sum(x) % 7)


def test_tts_kernel_properties():
    fam = make_kernel("sign", 1, 1)
    xs = [(-3,), (0,), (5,), (11,)]
    for x in xs:
        for y in xs:
            k_xy = tts_kernel(fam, 2, lam_map, x, y)
            k_yx = tts_kernel(fam, 2, lam_map, y, x)
            assert abs(k_xy - np.conj(k_yx)) < 1e-13
    diag = tts_kernel(fam, 2, lam_map, (3,), (3,))
    assert abs(diag.imag) < 1e-15 and diag.real >= 0.0
    assert tts_kernel(fam, 2, lam_map, (17,), (0,)) == 0.0j


def test_tts_kernel_matches_dense_composition():
    fam = make_kernel("sign", 1, 1)
    j = 2
    us = np.arange(-4, 5)  # the ball |u| <= 2^j
    sites = np.arange(-16, 17)

    def t_entry(x, u):
        z = float(x - u)
        kz = kernel_piece(fam, j, np.array([[z]]))[0]
        return kz * E(lam_map(np.array([x])) * z ** (2 * fam.d))

    tmat = np.array([[t_entry(x, u) for u in us] for x in sites])
    dense = tmat @ tmat.conj().T
    for xi, x in enumerate(sites[::5]):
        for yi, y in enumerate(sites[::7]):
            got = tts_kernel(fam, j, lam_map, (int(x),), (int(y),))
            assert abs(got - dense[5 * xi, 7 * yi]) < 1e-10


def test_schur_bound_dominates_dense_norm():
    fam = make_kernel("sign", 1, 1)
    ident = lambda x, y: 1.0 + 0.0j if np.array_equal(x, y) else 0.0j
    pts = [(i,) for i in range(4)]
    assert schur_bound(ident, pts, pts) == 1.0
    sites = [(int(x),) for x in range(-16, 17)]
    kern = lambda x, y: tts_kernel(fam, 2, lam_map, x, y)
    mat = np.array([[kern(x, y) for y in sites] for x in sites])
    top = float(np.linalg.eigvalsh(mat).max())
    assert schur_bound(kern, sites, sites) >= top - 1e-10


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


def test_kappa_hand_values():
    one = ReducedRational(0, 1)
    assert kappa(1, one, one, (7,), 1, 1) == 1.0 + 0.0j
    # same rational, shift divisible by q: the pair sum collapses to 1
    half = ReducedRational(1, 2)
    assert abs(kappa(2, half, half, (4,), 1, 1) - 1.0) < 1e-12
    # coprime denominators: product of the two central sums
    third = ReducedRational(1, 3)
    want = complete_weyl_sum(ArcPair(1, (0,), 2), 1).value * np.conj(
        complete_weyl_sum(ArcPair(1, (0,), 3), 1).value)
    assert abs(kappa(2, half, third, (5,), 1, 1) - want) < 1e-12


def test_kappa_block_validation():
    with pytest.raises(ValueError):
        kappa(2, ReducedRational(0, 1), ReducedRational(1, 2), (0,), 1, 1)


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


def test_sobolev_maximal_bound():
    assert sobolev_maximal_bound(1, 1.0, 0.0, 0.5) == 1.0
    assert abs(sobolev_maximal_bound(1, 1.0, 1.0, 1.0)
               - (1.0 + math.sqrt(2.0))) < 1e-15
    assert abs(sobolev_maximal_bound(4, 1.0, 1.0, 0.125) - 3.0) < 1e-15
    assert sobolev_maximal_bound(9, 1.0, 1.0, 0.125) > sobolev_maximal_bound(
        4, 1.0, 1.0, 0.125)
    with pytest.raises(ValueError):
        sobolev_maximal_bound(0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        sobolev_maximal_bound(1, -1.0, 1.0, 0.1)

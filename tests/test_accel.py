"""frac_mul against exact rational arithmetic."""

from fractions import Fraction

import numpy as np

from carleson.accel import MAX_PHASE_INT, frac_mul

# frac_mul's four partial products are exact and each fmod is exact; the
# three sums (magnitudes below 4) round by at most 2^-52 each and the
# final reduction to [0, 1) by at most 2^-53: 3.5 ulps of 1.0 in all.
ULP = 2.0**-52
TOL_ULPS = 4


def _circle_gap(got: float, lam: float, N: int) -> Fraction:
    """Distance on R/Z between got and the exact frac(lam * N)."""
    gap = abs(Fraction(got) - Fraction(lam) * N) % 1
    return min(gap, 1 - gap)


def test_frac_mul_against_fraction_oracle():
    rng = np.random.default_rng(12)
    # full 53-bit mantissas (odd integer numerators) near 1 and far below
    lams = [float(int(k) | 1) * 2.0**-53
            for k in rng.integers(2**52, 2**53, 60)]
    lams += [float(int(k) | 1) * 2.0**-75
             for k in rng.integers(2**52, 2**53, 20)]
    lams += [float(t) for t in rng.uniform(0, 1, 20)]
    Ns = [int(v) for v in rng.integers(-(MAX_PHASE_INT - 1), MAX_PHASE_INT, 60)]
    Ns += [sign * (MAX_PHASE_INT - k) for k in range(1, 9) for sign in (1, -1)]
    Ns += [0, 1, -1, 2**25 - 1, 2**25, 2**48 + 1]
    worst = Fraction(0)
    for lam in lams:
        got = frac_mul(lam, Ns)
        assert np.all((got >= 0.0) & (got <= 1.0))
        for g, N in zip(got, Ns):
            worst = max(worst, _circle_gap(float(g), lam, N))
    assert worst <= TOL_ULPS * Fraction(ULP), float(worst) / ULP

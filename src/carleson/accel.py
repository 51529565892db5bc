"""Low-level numerical primitives of the hot loops, on plain ndarrays.

frac_mul(lam, nvals)
    frac(lam * N) for integer N, |N| < 2**50, computed with a Veltkamp
    split so the result is exact to a few ulp even when lam*N is far
    outside the float53 range.  This is what keeps phases like
    lambda*|y|^(2d) (|y|^(2d) up to 2**48) accurate at the 1e-15 level.
weyl_phase_counts(q, d, n, a, b)
    histogram over r in [0,q)^n of (a*|r|^(2d) + b.r) mod q.  All integer
    arithmetic, so the subsequent root-of-unity dot product is exact in
    the sense that no phase error is committed before the final q-term sum.
phase_weighted_sum(phases, weights)
    sum_m w_m * e(phases_m) with e(x) = exp(2*pi*i*x), in a fixed
    summation order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_PHASE_INT",
    "frac_mul",
    "weyl_phase_counts",
    "phase_weighted_sum",
]

# Veltkamp splitting constants: multiplier 2**27+1 splits a double into a
# 26-bit head and 27-bit tail; integers are split at 2**25 so every partial
# product fits in 53 bits exactly.
_SPLIT = 134217729.0  # 2**27 + 1
_INT_SPLIT = 33554432.0  # 2**25
MAX_PHASE_INT = 1 << 50


def frac_mul(lam, nvals):
    lam = float(lam)
    c = _SPLIT * lam
    hi = c - (c - lam)
    lo = lam - hi
    nv = np.asarray(nvals, dtype=np.float64)
    n_hi = np.floor(nv / _INT_SPLIT) * _INT_SPLIT
    n_lo = nv - n_hi
    p = (
        np.fmod(hi * n_hi, 1.0)
        + np.fmod(hi * n_lo, 1.0)
        + np.fmod(lo * n_hi, 1.0)
        + np.fmod(lo * n_lo, 1.0)
    )
    return np.mod(p, 1.0)


def _norm_power_mod(r, d, q):
    """|r|^(2d) mod q for the int64 points r stacked along axis 0, in
    exact integer arithmetic: every product stays below q^2."""
    s2 = (r * r).sum(axis=0) % q
    out = np.ones_like(s2)
    for _ in range(d):
        out = out * s2 % q
    return out


def weyl_phase_counts(q, d, n, a, b):
    idx = np.indices((q,) * n, dtype=np.int64).reshape(n, -1)
    md = _norm_power_mod(idx, d, q)
    lin = (np.asarray(b, dtype=np.int64).reshape(n, 1) * idx).sum(axis=0)
    ph = ((a % q) * md + lin) % q
    return np.bincount(ph, minlength=q)


def phase_weighted_sum(phases, weights):
    return complex(np.sum(weights * np.exp(2j * np.pi * phases)))

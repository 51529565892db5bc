"""Scalar reference forms of the rational-block pair sums and of the
arc-term scans.

operators.kappa_table tabulates both closed forms over a whole box of
shifts at once, and multipliers.lsj_terms, _script_terms and
sharp_terms screen their whole candidate table with one array
expression; the functions here evaluate them one shift or one candidate
at a time, straight from the definitions, so tests can compare the two.
"""

import math
from functools import lru_cache

import numpy as np

from carleson.errors import BudgetExceededError
from carleson.expsums import _roots_of_unity, complete_weyl_sum
from carleson.multipliers import _as_xi, _wrap, bsharp_set, enum_cap
from carleson.oscint import phi_star
from carleson.rationals import ArcPair, _nearest_int, rs_block


def _as_point(x, n: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if arr.shape != (n,):
        raise ValueError(f"lattice point must have shape ({n},)")
    return arr


def sxy_phase_counts(q, qp, a, ap, w, d):
    """Histogram over r in [0,q)^n of the integer phase
    (a*|r|^(2d)*qp - ap*|r+w|^(2d)*q) mod (q*qp)."""
    w = np.asarray(w, dtype=np.int64)
    n = w.shape[0]
    modulus = q * qp
    idx = np.indices((q,) * n, dtype=np.int64).reshape(n, -1)
    s2 = (idx * idx).sum(axis=0) % q
    x = np.ones_like(s2)
    for _ in range(d):
        x = (x * s2) % q
    sh = idx + w.reshape(n, 1)
    t2 = (sh * sh).sum(axis=0) % qp
    y = np.ones_like(t2)
    for _ in range(d):
        y = (y * t2) % qp
    ph = (qp * ((a % q) * x % q) - q * ((ap % qp) * y % qp)) % modulus
    return np.bincount(ph, minlength=modulus)


@lru_cache(maxsize=100_000)
def _sxy_counts(q, qp, a, ap, w, d) -> np.ndarray:
    return np.asarray(
        sxy_phase_counts(q, qp, a, ap, np.asarray(w, dtype=np.int64), d),
        dtype=np.float64,
    )


def s_xy(
    a: int,
    q: int,
    ap: int,
    qp: int,
    w,
    d: int,
    n: int,
    budget: int = 10**8,
) -> complex:
    """q^(-n) sum_{r in [q]^n} e( a|r|^(2d)/q - a'|r+w|^(2d)/q' ), with
    the phase reduced exactly as an integer mod q*q'."""
    if q < 1 or qp < 1:
        raise ValueError("q, q' must be >= 1")
    if q**n > budget:
        raise BudgetExceededError(f"{q}^{n} terms exceed budget {budget}")
    w = _as_point(w, n)
    counts = _sxy_counts(q, qp, a, ap, tuple(int(t) for t in w), d)
    value = complex(np.dot(counts, _roots_of_unity(q * qp)))
    return value / q**n


def kappa_forms(
    a: int,
    q: int,
    ap: int,
    qp: int,
    w,
    d: int,
    n: int,
) -> tuple[complex, complex]:
    """Both closed forms of the block pair sum for reduced a/q, a'/q'
    at one shift w (see operators.kappa_table), as (beta, double)."""
    if math.gcd(a, q) != 1 or math.gcd(ap, qp) != 1:
        raise ValueError("a/q and a'/q' must be reduced")
    w = _as_point(w, n)
    g = math.gcd(q, qp)
    beta = 0.0 + 0.0j
    for b in np.ndindex(*((g,) * n)):
        b1 = tuple((int(t) * (q // g)) % q for t in b)
        b2 = tuple((int(t) * (qp // g)) % qp for t in b)
        s1 = complete_weyl_sum(ArcPair(a % q, b1, q), d).value
        s2 = complete_weyl_sum(ArcPair(ap % qp, b2, qp), d).value
        phase = sum(int(wi) * int(bi) for wi, bi in zip(w, b)) % g
        beta += s1 * np.conj(s2) * _roots_of_unity(g)[phase]
    m = qp // g
    double = 0.0 + 0.0j
    for u in np.ndindex(*((m,) * n)):
        shift = w + g * np.asarray(u, dtype=np.int64)
        double += s_xy(a, q, ap, qp, shift, d, n)
    double /= float(m**n)
    return beta, double


# ==================== arc-term scans, one candidate at a time ====================


def _wrap_each(v) -> np.ndarray:
    return np.array([_wrap(float(t)) for t in v])


def lsj_terms_scalar(fam, s, j, lam, xi, params, cut, quad) -> list[dict]:
    """multipliers.lsj_terms with the cutoff evaluated per q."""
    xi = _as_xi(xi, fam.n)
    cut = cut.at_scale(s)
    window = params.xj_halfwidth(j)
    out = []
    for q in rs_block(s):
        a = _nearest_int(lam * q) % q
        b = tuple(_nearest_int(float(t) * q) % q for t in xi)
        if math.gcd(a, *b, q) != 1:
            continue
        beta_off = _wrap_each(xi - np.array(b, dtype=np.float64) / q)
        chi_val = cut.chi_s(beta_off)
        if chi_val == 0.0:
            continue
        nu = _wrap(lam - a / q)
        if abs(nu) > window:
            continue
        term_pair = ArcPair(a=a, b=b, q=q)
        phi_val = phi_star(fam, j, nu, beta_off, params, quad)
        s_val = complete_weyl_sum(term_pair, fam.d).value
        out.append({
            "pair": term_pair,
            "weyl": s_val,
            "phi_star": phi_val,
            "chi": chi_val,
            "term": s_val * phi_val * chi_val,
        })
    return out


def script_L_scalar(s, alpha, m, xi, cut, d, n) -> complex:
    """script_L[m](xi), the sum over multipliers._script_terms, with the
    cutoff evaluated per (q, b)."""
    if not 1 <= s <= enum_cap(n):
        raise ValueError(f"need 1 <= s <= {enum_cap(n)} for n = {n}, got {s}")
    xi = _as_xi(xi, n)
    cut = cut.at_scale(s)
    if alpha.den >= (1 << s):
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for q in rs_block(s):
        if q % alpha.den:
            continue
        a = alpha.num * (q // alpha.den)
        for b in np.ndindex(*(q,) * n):
            if math.gcd(a, *b, q) != 1:
                continue
            off = _wrap_each(xi - np.array(b, dtype=np.float64) / q)
            chi_val = cut.chi_s(off)
            if chi_val == 0.0:
                continue
            s_val = complete_weyl_sum(ArcPair(a, b, q), d).value
            total += s_val * m(off) * chi_val
    return total


def sharp_terms_scalar(s, m, xi, cut, n) -> list[tuple]:
    """multipliers.sharp_terms with the wide cutoff evaluated per beta."""
    if not 1 <= s <= enum_cap(n):
        raise ValueError(f"need 1 <= s <= {enum_cap(n)} for n = {n}, got {s}")
    xi = _as_xi(xi, n)
    cut = cut.at_scale(s)
    out = []
    for beta in bsharp_set(s, n):
        off = _wrap_each(xi - np.array([float(f) for f in beta]))
        w = cut.chi_tilde_s(off)
        if w != 0.0:
            out.append((beta, m(off), w))
    return out

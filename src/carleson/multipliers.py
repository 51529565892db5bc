"""Lattice multipliers, their rational-arc approximations, and the
arc-localized pieces built from them.

The central object is the modulated symbol

    m_{j,lam}(xi) = sum_{y in Z^n} e( lam*|y|^(2d) + xi.y ) K_j(y),

1-periodic in lam and in every component of xi because the phase weights
|y|^(2d) and the coordinates y are integers.  Everything downstream
composes it with the rational-arc data:

* approx_error measures m against the product S(a/q,b/q) * Phi of a
  complete exponential sum and an oscillatory integral, normalized by
  the q*delta error budget the product is expected to meet.
* L_sj assembles the arc-piece sum over the canonical triples (a, b, q)
  with q in [2^(s-1), 2^s): each term is S * (windowed Phi) * (scaled
  cutoff).  The cutoff radius 2^(-10s)/2 is far below the 1/(2q) spacing
  of same-denominator rationals, so per q only the componentwise-nearest
  (a, b) can contribute, and across the block at most one triple
  survives (values of distinct triples are >= 2^(-2s) apart).
* E_j is the leftover m * 1_{X_j} - sum_s L_sj: the quantity whose decay
  in j is the minor-arc content of the construction.
* script_L / script_L_sharp apply the same windowing to an arbitrary
  bounded symbol handle; their pointwise factorization
  script_L[m] = script_L[1] * script_L_sharp[m] holds exactly as long
  as the wide cutoff is identically 1 on the support of the narrow one.

Offsets lam - a/q and xi - b/q are always wrapped to the nearest integer
translate, which implements the torus periodicity of the arc sums; raw
(unwrapped) differences would silently drop arcs for arguments near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .accel import frac_mul, phase_weighted_sum
from .expsums import _weyl_value, complete_weyl_sum
from .kernels import DEFAULT_LATTICE_BUDGET, KernelFamily, lattice_arrays
from .kernels import _transition
from .oscint import QuadratureSpec, phi, phi_star
from .rationals import (
    ArcPair,
    ArcParams,
    ReducedRational,
    _nearest_int,
    in_Xj,
    rs_block,
)

__all__ = [
    "CutoffSpec",
    "make_cutoffs",
    "enum_cap",
    "m_lattice",
    "approx_error",
    "lsj_terms",
    "L_sj",
    "E_j",
    "bsharp_set",
    "script_L",
    "script_L_sharp",
    "sharp_terms",
    "factorization_residual",
]


def enum_cap(n: int) -> int:
    """Largest level s whose blocks the arc sums and the arcs census
    enumerate in full; higher levels are refused."""
    return 6 if n == 1 else 4


# ==================== smooth frequency cutoffs ====================


@dataclass(frozen=True)
class CutoffSpec:
    """Radial plateau/support cutoff pair at arc level s.

    chi:       1 for |xi| <= plateau, 0 for |xi| >= support
    chi_tilde: 1 for |xi| <= tilde_plateau, 0 for |xi| >= tilde_support

    chi_s and chi_tilde_s evaluate them at 2^(10s) * xi.  The
    factorization identity needs chi_tilde = 1 wherever chi != 0, i.e.
    tilde_plateau >= support; make_cutoffs defaults satisfy it.
    """

    s: int
    plateau: float
    support: float
    tilde_plateau: float
    tilde_support: float

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not (0.0 < self.plateau < self.support):
            raise ValueError("need 0 < plateau < support")
        if not (0.0 < self.tilde_plateau < self.tilde_support):
            raise ValueError("need 0 < tilde_plateau < tilde_support")

    def at_scale(self, s: int) -> "CutoffSpec":
        return replace(self, s=s)

    def _radial(self, x, lo: float, hi: float):
        t = np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=np.float64)))
        return float(_transition(np.asarray(t), lo, hi))

    def chi_s(self, x) -> float:
        return self._radial(x, self.plateau * 2.0 ** (-10 * self.s),
                            self.support * 2.0 ** (-10 * self.s))

    def chi_tilde_s(self, x) -> float:
        return self._radial(x, self.tilde_plateau * 2.0 ** (-10 * self.s),
                            self.tilde_support * 2.0 ** (-10 * self.s))

    @property
    def support_radius_s(self) -> float:
        return self.support * 2.0 ** (-10 * self.s)

    @property
    def tilde_support_radius_s(self) -> float:
        return self.tilde_support * 2.0 ** (-10 * self.s)


def make_cutoffs(
    s: int,
    n: int,
    plateau: float | None = None,
    support: float = 0.5,
    tilde_plateau: float = 0.5,
    tilde_support: float = 1.0,
) -> CutoffSpec:
    """Standard cutoff pair: chi is 1 on the cube [-1/4,1/4]^n (so its
    radial plateau is the cube's circumradius sqrt(n)/4) and supported
    in |xi| <= 1/2; chi_tilde is 1 up to 1/2 and supported in |xi| <= 1.

    The default plateau only leaves transition room for n <= 3.
    """
    if plateau is None:
        plateau = math.sqrt(n) / 4.0
        if plateau >= support:
            raise ValueError(
                f"cube circumradius {plateau:.3f} leaves no transition "
                f"room below support {support} (need n <= 3)"
            )
    return CutoffSpec(
        s=s,
        plateau=plateau,
        support=support,
        tilde_plateau=tilde_plateau,
        tilde_support=tilde_support,
    )


# ==================== the lattice symbol ====================


def _as_xi(xi, n: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if arr.shape != (n,):
        raise ValueError(f"xi must have shape ({n},), got {arr.shape}")
    return arr


def _wrap(t: float) -> float:
    """Offset to the nearest integer translate, half-up ties."""
    return t - _nearest_int(t)


def _wrap_vec(v: np.ndarray) -> np.ndarray:
    return np.array([_wrap(float(t)) for t in v])


def m_lattice(
    fam: KernelFamily,
    j: int,
    lam: float,
    xi,
    budget: int = DEFAULT_LATTICE_BUDGET,
) -> complex:
    """m_{j,lam}(xi) summed exactly over the support of K_j.

    lam and xi are reduced mod 1 before any multiplication and the
    phases lam*|y|^(2d), xi_k*y_k are reduced term-exactly, so the
    periodicity identities hold to the bit, not just to rounding.
    """
    xi = _as_xi(xi, fam.n)
    pts, vals, nvals = lattice_arrays(fam, j, budget)
    phases = frac_mul(float(lam) % 1.0, nvals)
    for k in range(fam.n):
        phases = phases + frac_mul(float(xi[k]) % 1.0, pts[:, k])
    return phase_weighted_sum(phases, vals)


# ==================== rational-arc approximation ====================


def approx_error(
    fam: KernelFamily,
    j: int,
    pair: ArcPair,
    lam: float,
    xi,
    quad: QuadratureSpec,
) -> tuple[complex, float]:
    """Error of the split approximation at the arc (a/q, b/q):

        err = m_{j,lam}(xi) - S(a/q, b/q) * Phi_{j, lam-a/q}(xi - b/q)

    and bound_ratio = |err| / (q*delta), where delta is the smallest
    admissible modulation radius: max(|lam-a/q| * 2^((2d-1)j),
    |xi-b/q|, just above 2^(-j)).  Preconditions (q <= 2^(j-2),
    delta < 1) raise ValueError; they are admissibility failures, not
    approximation failures.
    """
    if fam.n != pair.n:
        raise ValueError(f"pair dimension {pair.n} != kernel n {fam.n}")
    xi = _as_xi(xi, fam.n)
    if j < 3 or pair.q > 2 ** (j - 2):
        raise ValueError(f"need q <= 2^(j-2): q={pair.q}, j={j}")
    nu = _wrap(lam - pair.a / pair.q)
    off = _wrap_vec(xi - np.array(pair.b, dtype=np.float64) / pair.q)
    delta = max(
        abs(nu) * 2.0 ** ((2 * fam.d - 1) * j),
        float(np.linalg.norm(off)),
        math.nextafter(2.0 ** (-j), math.inf),
    )
    if delta >= 1.0:
        raise ValueError(f"(lam, xi) not admissible for this arc: "
                         f"delta = {delta:.3g} >= 1")
    s_val = complete_weyl_sum(pair, fam.d).value
    p_val = phi(fam, j, nu, off, quad)
    err = m_lattice(fam, j, lam, xi) - s_val * p_val
    return err, abs(err) / (pair.q * delta)


# ==================== arc-localized pieces ====================


def lsj_terms(
    fam: KernelFamily,
    s: int,
    j: int,
    lam: float,
    xi,
    params: ArcParams,
    cut: CutoffSpec,
    quad: QuadratureSpec,
) -> list[dict]:
    """The candidate terms of L_sj at (lam, xi): per q in the block only
    the componentwise-nearest (a, b) can have a nonzero cutoff, so the
    scan is linear in the block.  Each returned entry carries the
    canonical triple, its factors, and the assembled term; entries are
    included when both windows admit (lam, xi), that is when the cutoff
    factor is nonzero and lam lies in the modulation window of a/q (the
    disjointness claim is that there is never more than one)."""
    xi = _as_xi(xi, fam.n)
    cut = cut.at_scale(s)
    window = params.xj_halfwidth(j)
    out = []
    for q in rs_block(s):
        a = _nearest_int(lam * q) % q
        b = tuple(_nearest_int(float(t) * q) % q for t in xi)
        if math.gcd(a, *b, q) != 1:
            continue
        beta_off = _wrap_vec(xi - np.array(b, dtype=np.float64) / q)
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


def L_sj(
    fam: KernelFamily,
    s: int,
    j: int,
    lam: float,
    xi,
    params: ArcParams,
    cut: CutoffSpec,
    quad: QuadratureSpec,
) -> complex:
    """Arc piece at level s, scale j: the sum over canonical (a, b, q)
    with q in [2^(s-1), 2^s) of S * Phi*_{j,lam-a/q}(xi-b/q) * chi_s.
    Requires s <= eps1*j."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s > params.eps1 * j + 1e-9:
        raise ValueError(f"s = {s} exceeds eps1*j = {params.eps1 * j:.6g}")
    total = 0.0 + 0.0j
    for entry in lsj_terms(fam, s, j, lam, xi, params, cut, quad):
        total += entry["term"]
    return total


def E_j(
    fam: KernelFamily,
    j: int,
    lam: float,
    xi,
    params: ArcParams,
    cut: CutoffSpec,
    quad: QuadratureSpec,
    budget: int = DEFAULT_LATTICE_BUDGET,
) -> complex:
    """E_{j,lam}(xi) = m_{j,lam}(xi) * 1_{X_j}(lam) - sum_s L_sj, with s
    running over 1..floor(eps1*j) (which tiles the X_j denominators
    exactly).  The X_j indicator is closed at the window boundary,
    matching the windowed-Phi convention."""
    xi = _as_xi(xi, fam.n)
    total = 0.0 + 0.0j
    if in_Xj(lam, j, params):
        total = m_lattice(fam, j, lam, xi, budget)
    for s in range(1, params.s_max(j) + 1):
        total -= L_sj(fam, s, j, lam, xi, params, cut.at_scale(s), quad)
    return total


# ==================== symbol-valued arc operators ====================


def bsharp_set(s: int, n: int) -> list[tuple[Fraction, ...]]:
    """The distinct frequency values of the level-s blocks: vectors of
    reduced fractions in [0,1)^n whose componentwise-lcm denominator
    lies below 2^s."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    top = (1 << s) - 1
    singles = [Fraction(0, 1)]
    for den in range(2, top + 1):
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                singles.append(Fraction(num, den))
    singles.sort()
    if n == 1:
        return [(f,) for f in singles]
    out = []

    def rec(prefix: tuple, lcm_so_far: int):
        if len(prefix) == n:
            out.append(prefix)
            return
        for f in singles:
            l = lcm_so_far * f.denominator // math.gcd(
                lcm_so_far, f.denominator
            )
            if l <= top:
                rec(prefix + (f,), l)

    rec((), 1)
    return out


def script_L(
    s: int,
    alpha: ReducedRational,
    m: Callable[[np.ndarray], complex],
    xi,
    cut: CutoffSpec,
    d: int,
    n: int,
) -> complex:
    """Arc operator applied to a bounded symbol handle:

        sum over beta in B_s(alpha) of S(alpha, beta) m(xi-beta)
                                                     chi_s(xi-beta),

    where B_s(alpha) holds the beta whose joint denominator
    lcm(den(alpha), den(beta_1..n)) falls in [2^(s-1), 2^s); the sum is
    empty (0) when den(alpha) >= 2^s.  The symbol handle receives the
    wrapped offset.  Each block is enumerated in full, so s above
    enum_cap(n) is refused.
    """
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
            off = _wrap_vec(xi - np.array(b, dtype=np.float64) / q)
            chi_val = cut.chi_s(off)
            if chi_val == 0.0:
                continue
            total += _weyl_value(a, tuple(b), q, d) * m(off) * chi_val
    return total


def sharp_terms(
    s: int,
    m: Callable[[np.ndarray], complex],
    xi,
    cut: CutoffSpec,
    n: int,
) -> list[tuple[tuple[Fraction, ...], complex, float]]:
    """Candidate terms of script_L_sharp with nonzero wide-cutoff
    factor (disjointness holds when at most one comes back), over the
    whole of Bsharp_s; s above enum_cap(n) is refused."""
    if not 1 <= s <= enum_cap(n):
        raise ValueError(f"need 1 <= s <= {enum_cap(n)} for n = {n}, got {s}")
    xi = _as_xi(xi, n)
    cut = cut.at_scale(s)
    out = []
    for beta in bsharp_set(s, n):
        off = _wrap_vec(xi - np.array([float(f) for f in beta]))
        w = cut.chi_tilde_s(off)
        if w != 0.0:
            out.append((beta, m(off), w))
    return out


def script_L_sharp(
    s: int,
    m: Callable[[np.ndarray], complex],
    xi,
    cut: CutoffSpec,
    n: int,
) -> complex:
    """Denominator-free companion sum over the distinct frequency
    values: sum over beta in Bsharp_s of m(xi-beta) chi_tilde_s(xi-beta).
    Window separation (>= 2^(-2s)) versus support radius (~2^(-10s))
    leaves at most one nonzero term."""
    total = 0.0 + 0.0j
    for _, mval, w in sharp_terms(s, m, xi, cut, n):
        total += mval * w
    return total


def factorization_residual(
    s: int,
    alpha: ReducedRational,
    m: Callable[[np.ndarray], complex],
    xi,
    cut: CutoffSpec,
    d: int,
    n: int,
) -> float:
    """|script_L[m] - script_L[1] * script_L_sharp[m]| at xi; zero
    (to rounding) whenever chi_tilde is 1 on the support of chi."""
    one = lambda off: 1.0 + 0.0j
    lhs = script_L(s, alpha, m, xi, cut, d, n)
    rhs = script_L(s, alpha, one, xi, cut, d, n) * script_L_sharp(
        s, m, xi, cut, n
    )
    return abs(lhs - rhs)

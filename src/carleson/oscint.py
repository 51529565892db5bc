"""Oscillatory integrals of the dyadic kernel pieces.

The basic object is

    Phi_{j,lam}(xi) = integral e( lam*|y|^(2d) + xi.y ) K_j(y) dy,

a continuum companion to the lattice symbols.  Two structural facts shape
the implementation:

* Exact dilation invariance: substituting y = 2^j t shows that for j >= 2

      Phi_{j,lam}(xi) = integral_{1/2<=|t|<=2} e( u|t|^(2d) + v.t )
                                  psi(|t|) Omega(t)/|t|^n dt

  with u = 2^(2dj) lam, v = 2^j xi.  The integral depends on (j, lam, xi)
  only through (u, v), which keeps node counts scale-free and makes the
  van der Corput products directly comparable across j.  The cumulative
  piece j = 1 is integrated in the original variables over |y| <= 4; its
  radial integrand extends continuously to r = 0 because Omega has zero
  spherical mean.

* One nested trapezoid rule: with r = r(s) for s in (0, 1) the integral
  is sum_k w_k f(r(k/N)) over the interior nodes.  For j >= 2,
  r = 1/2 + 3s/2; the radial integrand psi(r)/r vanishes with all its
  derivatives at both ends, so the plain rule converges faster than any
  power of 1/N.  For j = 1, r = 4 tau(s) with tau the smooth_step
  transition, whose derivatives all vanish at s = 0; this makes the
  mapped integrand flat at r = 0 whatever the parity of Omega (the plain
  rule on [0, 4] is O(1/N^2) for even Omega).  Nodes whose mapped weight
  underflows to 0 are dropped.  The first level's N follows the top
  phase frequency (2d|u| r_max^(2d-1) + |v| cycles per unit r) plus a
  floor for the cutoff's own spectrum; the sum over every second node
  is the same rule at N/2, and the difference of the two is the error
  estimate.  While it exceeds tol, N doubles.  For n = 2 the spherical
  factor is a periodic trapezoid on the nodes k/m, with m following |v|
  and the degree of Omega; it is halved in the estimate and doubles with
  N.

Quadrature failures are loud: exceeding the node budget raises
BudgetExceededError, running out of refinement depth raises
ToleranceNotReachedError carrying the best value and achieved estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, ToleranceNotReachedError
from .kernels import KernelFamily, eta, psi_profile, smooth_step
from .rationals import ArcParams

__all__ = [
    "QuadratureSpec",
    "phi",
    "phi_star",
    "vdc_profile",
]

# first-level intervals spent on the cutoff's own spectrum, whatever the phase
_FLOOR = 128


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the nested trapezoid rule.

    resolution   first-level density: resolution/2 nodes per wavelength
                 of the fastest phase term (plus _FLOOR intervals), so
                 the embedded half rule has resolution/4 >= 1
    max_depth    number of times the node count may double after the
                 first level
    tol          absolute bound on |level - embedded half rule|, the
                 error estimate
    node_budget  hard cap on the nodes (radial times angular) of one
                 evaluation over all its levels, checked before each
                 level is built; at least the smallest level,
                 _FLOOR - 1 nodes
    """

    resolution: float = 8.0
    max_depth: int = 12
    tol: float = 1e-10
    node_budget: int = 1 << 22

    def __post_init__(self):
        if not 4.0 <= self.resolution < math.inf:
            raise ValueError(f"need 4 <= resolution < inf, got {self.resolution}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"need 0 < tol < inf, got {self.tol}")
        if self.node_budget < _FLOOR - 1:
            raise ValueError(
                f"node_budget too small for the smallest quadrature level "
                f"({_FLOOR - 1} nodes)"
            )


def _trapezoid_nodes(j: int, intervals: int):
    """Interior nodes r(k/N) and weights w_k of the N-interval trapezoid
    rule in s, r = 1/2 + 3s/2 for j >= 2 and r = 4 tau(s) for j = 1, from
    k = first on; nodes of zero weight (both ends for j = 1) are dropped."""
    s = np.arange(1, intervals) / intervals
    if j >= 2:
        return 0.5 + 1.5 * s, 1.5 / intervals, 1
    a, b = smooth_step(s), smooth_step(1.0 - s)
    w = 4.0 * a * b * (s**-2 + (1.0 - s) ** -2) / ((a + b) ** 2 * intervals)
    lo, hi = np.flatnonzero(w)[[0, -1]]
    keep = slice(lo, hi + 1)
    return (4.0 * a / (a + b))[keep], w[keep], int(lo) + 1


def _trapezoid(fam, j, u, v, intervals, m_nodes) -> tuple[complex, complex]:
    """The rule with the given intervals (and m_nodes angular nodes for
    n = 2) and its embedded half rule on the even k (and every second
    angular node)."""
    r, w, first = _trapezoid_nodes(j, intervals)
    cut = psi_profile(r) if j >= 2 else eta(r / 2.0)
    f = w * cut / r * np.exp(2j * np.pi * (u * r ** (2 * fam.d)))
    if fam.n == 1:
        om_p, om_m = fam.omega(np.array([[1.0], [-1.0]]))
        ang = np.exp(2j * np.pi * (v[0] * r))
        f = f * (om_p * ang + om_m * np.conj(ang))
        return complex(f.sum()), complex(2.0 * f[first % 2 :: 2].sum())
    th = 2.0 * np.pi * np.arange(m_nodes) / m_nodes
    circ = np.stack([np.cos(th), np.sin(th)], axis=-1)
    om = fam.omega(circ) * (2.0 * np.pi / m_nodes)
    proj = circ @ v
    # near r = 0 the j = 1 factor e(r v.t) - 1 keeps its relative accuracy;
    # the dropped 1 integrates Omega to its zero mean
    wave = np.expm1 if j == 1 else np.exp
    full = half = 0.0 + 0.0j
    block = max(2, (1 << 20) // m_nodes) // 2 * 2
    for start in range(0, r.shape[0], block):
        rows = slice(start, start + block)
        terms = wave(2j * np.pi * (r[rows, None] * proj[None, :])) * om
        even = terms[:, ::2].sum(axis=1)
        full += complex(np.sum(f[rows] * (even + terms[:, 1::2].sum(axis=1))))
        half += complex(4.0 * np.sum((f[rows] * even)[first % 2 :: 2]))
    return full, half


def phi(fam: KernelFamily, j: int, lam: float, xi, quad: QuadratureSpec) -> complex:
    """Phi_{j,lam}(xi) by the nested trapezoid rule, to quad.tol.

    Supports n in {1, 2}.  Raises BudgetExceededError /
    ToleranceNotReachedError when the quadrature cannot deliver.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if xi.shape != (fam.n,):
        raise ValueError(f"xi must have shape ({fam.n},), got {xi.shape}")
    if fam.n not in (1, 2):
        raise NotImplementedError("oscillatory integrals support n <= 2")

    if j >= 2:
        u, v, hi, span = 2.0 ** (2 * fam.d * j) * lam, 2.0**j * xi, 2.0, 1.5
    else:
        # span is max dr/ds = 4 max tau' = 8
        u, v, hi, span = float(lam), xi, 4.0, 8.0
    vmag = float(np.linalg.norm(v))
    cycles = span * (2 * fam.d * abs(u) * hi ** (2 * fam.d - 1) + vmag)
    half_intervals = quad.resolution / 4.0 * cycles + _FLOOR / 2
    m_nodes = 1
    if fam.n == 2:
        # the half rule's m/2 nodes cover the band 2 pi hi |v| of e(r v.t)
        # and the degree of Omega; were Omega's degree a multiple of both
        # node counts, the two rules would alias it alike and the estimate
        # would miss the error
        m_nodes = (2 * int(math.ceil(quad.resolution * hi * vmag))
                   + 4 * max(fam.degree, 8))
    intervals = 2 * int(math.ceil(half_intervals))
    used = 0
    for depth in range(quad.max_depth + 1):
        step = (intervals - 1) * m_nodes
        if used + step > quad.node_budget:
            raise BudgetExceededError(
                f"quadrature level {depth} would bring the nodes to "
                f"{used + step} (> {quad.node_budget})"
            )
        used += step
        value, half = _trapezoid(fam, j, u, v, intervals, m_nodes)
        estimate = abs(value - half)
        if estimate <= quad.tol:
            return value
        intervals *= 2
        if fam.n == 2:
            m_nodes *= 2
    raise ToleranceNotReachedError(
        f"refinement limit {quad.max_depth} reached with estimate "
        f"{estimate:.3e} > tol {quad.tol:.3e}",
        value=value,
        estimate=estimate,
    )


def phi_star(
    fam: KernelFamily,
    j: int,
    nu: float,
    xi,
    params: ArcParams,
    quad: QuadratureSpec,
) -> complex:
    """Windowed piece: Phi_{j,nu}(xi) when |nu| <= 2^(-2dj + eps1*j),
    else 0.  The threshold is closed (equality is inside)."""
    if fam.d != params.d or fam.n != params.n:
        raise ValueError(
            f"kernel family (d={fam.d}, n={fam.n}) does not match "
            f"params (d={params.d}, n={params.n})"
        )
    if abs(nu) > params.xj_halfwidth(j):
        return 0.0 + 0.0j
    return phi(fam, j, nu, xi, quad)


def vdc_profile(
    fam: KernelFamily,
    j_values: Iterable[int],
    grid: Sequence,
    quad: QuadratureSpec,
    scaled: bool = True,
) -> dict[int, float]:
    """Per-j maxima of |Phi_{j,lam}(xi)| * (1 + 2^(2dj)|lam| + 2^j|xi|)^(1/(2d)).

    The grid holds (u, v) points interpreted per scale as lam = u 2^(-2dj),
    xi = v 2^(-j), making rows directly comparable; scaled=False (raw
    (lam, xi) points) is refused.  Rows with j >= 2 probe the same (u, v),
    so they are bitwise equal by dilation invariance; the first of them is
    computed and copied."""
    if not scaled:
        raise ValueError("vdc_profile takes scaled (u, v) grids only")
    out: dict[int, float] = {}
    shared = None
    for j in j_values:
        if j >= 2 and shared is not None:
            out[j] = shared
            continue
        best = 0.0
        for uu, vv in grid:
            lam = float(uu) * 2.0 ** (-2 * fam.d * j)
            xi = np.atleast_1d(np.asarray(vv, dtype=np.float64)) * 2.0**-j
            mag = abs(phi(fam, j, lam, xi, quad))
            factor = (
                1.0
                + 2.0 ** (2 * fam.d * j) * abs(lam)
                + 2.0**j * float(np.linalg.norm(xi))
            ) ** (1.0 / (2 * fam.d))
            best = max(best, mag * factor)
        out[j] = best
        if j >= 2:
            shared = best
    return out

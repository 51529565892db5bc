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

* Phase-resolved panels: the radial domain is split until each panel
  carries at most nodes_per_panel/resolution wavelengths of the phase
  u r^(2d) +- |v| r, then fixed 16-node Gauss-Legendre is applied per
  panel.  Refinement bisects every panel; the error estimate is the
  difference between consecutive levels.  For n = 2 the spherical factor
  is a periodic trapezoid whose node count also follows |v| and doubles
  with each refinement.

Quadrature failures are loud: exceeding the node budget raises
BudgetExceededError, running out of refinement depth raises
ToleranceNotReachedError carrying the best value and achieved estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, ToleranceNotReachedError
from .kernels import KernelFamily, eta, psi_profile
from .rationals import ArcParams

__all__ = [
    "QuadratureSpec",
    "phi",
    "phi_star",
    "vdc_profile",
]

_NODES_PER_PANEL = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive quadrature parameters.

    resolution   target nodes per wavelength of phase (>= 4)
    max_depth    maximum number of panel bisection rounds
    tol          absolute tolerance on the two-level difference
    node_budget  hard cap on total quadrature nodes per evaluation
    """

    resolution: float = 8.0
    max_depth: int = 12
    tol: float = 1e-10
    node_budget: int = 1 << 22

    def __post_init__(self):
        if self.resolution < 4.0:
            raise ValueError(f"resolution must be >= 4, got {self.resolution}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.node_budget < _NODES_PER_PANEL:
            raise ValueError("node_budget too small for a single panel")


@lru_cache(maxsize=8)
def _gauss_legendre(k: int):
    x, w = np.polynomial.legendre.leggauss(k)
    return x, w


def _wavelengths(a: float, b: float, u: float, vmag: float, d: int) -> float:
    """Upper bound on phase wavelengths of u r^(2d) +- vmag r across [a, b]."""
    return abs(u) * (b ** (2 * d) - a ** (2 * d)) + vmag * (b - a)


def _build_panels(
    a: float, b: float, u: float, vmag: float, d: int, max_wl: float
) -> list[tuple[float, float]]:
    panels: list[tuple[float, float]] = []
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        if _wavelengths(lo, hi, u, vmag, d) <= max_wl or (hi - lo) < 1e-12:
            panels.append((lo, hi))
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
    panels.sort()
    return panels


def _split_panels(panels: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    for lo, hi in panels:
        mid = 0.5 * (lo + hi)
        out.append((lo, mid))
        out.append((mid, hi))
    return out


def _panel_nodes(panels: list[tuple[float, float]]):
    x, w = _gauss_legendre(_NODES_PER_PANEL)
    los = np.array([p[0] for p in panels])
    his = np.array([p[1] for p in panels])
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _eval_level_1d(panels, u, v, d, env_fn, om_plus, om_minus) -> complex:
    r, w = _panel_nodes(panels)
    env = env_fn(r)
    radial = np.exp(2j * np.pi * (u * r ** (2 * d)))
    ang = np.exp(2j * np.pi * (v * r))
    bracket = om_plus * ang + om_minus * np.conj(ang)
    return complex(np.sum(w * env * radial * bracket))


def _eval_level_2d(panels, u, vvec, d, env_fn, fam, m_nodes) -> complex:
    r, w = _panel_nodes(panels)
    env = env_fn(r)
    radial = np.exp(2j * np.pi * (u * r ** (2 * d)))
    th = 2.0 * np.pi * (np.arange(m_nodes) + 0.5) / m_nodes
    circ = np.stack([np.cos(th), np.sin(th)], axis=-1)
    om = fam.omega(circ)
    proj = circ @ np.asarray(vvec, dtype=np.float64)
    total = 0.0 + 0.0j
    block = max(1, (1 << 20) // max(1, m_nodes))
    for start in range(0, r.shape[0], block):
        rr = r[start : start + block]
        inner = (np.exp(2j * np.pi * (rr[:, None] * proj[None, :])) * om).sum(
            axis=1
        ) * (2.0 * np.pi / m_nodes)
        total += complex(
            np.sum(w[start : start + block] * env[start : start + block]
                   * radial[start : start + block] * inner)
        )
    return total


def phi(fam: KernelFamily, j: int, lam: float, xi, quad: QuadratureSpec) -> complex:
    """Phi_{j,lam}(xi), adaptively integrated to quad.tol.

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
        u = 2.0 ** (2 * fam.d * j) * lam
        v = 2.0**j * xi
        lo, hi = 0.5, 2.0

        def env_fn(r):
            return psi_profile(r) / r**fam.n * r ** (fam.n - 1)

    else:
        u = float(lam)
        v = xi
        lo, hi = 0.0, 4.0

        def env_fn(r):
            return eta(r / 2.0) / r**fam.n * r ** (fam.n - 1)

    vmag = float(np.linalg.norm(v))
    max_wl = _NODES_PER_PANEL / quad.resolution
    m_nodes = int(math.ceil(quad.resolution * 2.0 * hi * vmag)) + 32
    # estimate the panel count before building: a huge phase would blow the
    # panel stack long before the node budget check ran
    est = (_wavelengths(lo, hi, u, vmag, fam.d) / max_wl + 1.0) * _NODES_PER_PANEL
    if fam.n == 2:
        est *= m_nodes
    if est > quad.node_budget:
        raise BudgetExceededError(
            f"initial quadrature level needs ~{est:.3g} nodes "
            f"(> {quad.node_budget})"
        )
    panels = _build_panels(lo, hi, u, vmag, fam.d, max_wl)

    def level_value(p, m_nodes):
        if fam.n == 1:
            om_p = float(fam.omega(np.array([[1.0]]))[0])
            om_m = float(fam.omega(np.array([[-1.0]]))[0])
            return _eval_level_1d(p, u, float(v[0]), fam.d, env_fn, om_p, om_m)
        return _eval_level_2d(p, u, v, fam.d, env_fn, fam, m_nodes)

    def level_nodes(p, m_nodes):
        return len(p) * _NODES_PER_PANEL * (m_nodes if fam.n == 2 else 1)

    used = level_nodes(panels, m_nodes)
    if used > quad.node_budget:
        raise BudgetExceededError(
            f"initial quadrature level needs {used} nodes (> {quad.node_budget})"
        )
    value = level_value(panels, m_nodes)
    estimate = math.inf
    for _ in range(quad.max_depth):
        panels = _split_panels(panels)
        m_nodes *= 2
        step = level_nodes(panels, m_nodes)
        if used + step > quad.node_budget:
            raise BudgetExceededError(
                f"refinement would use {used + step} nodes (> {quad.node_budget})"
            )
        used += step
        refined = level_value(panels, m_nodes)
        estimate = abs(refined - value)
        value = refined
        if estimate <= quad.tol:
            return value
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

    With scaled=True the grid holds (u, v) points interpreted per scale as
    lam = u 2^(-2dj), xi = v 2^(-j), making rows directly comparable; with
    scaled=False the grid holds raw (lam, xi) applied to every j."""
    out: dict[int, float] = {}
    for j in j_values:
        best = 0.0
        for entry in grid:
            uu, vv = entry
            vv = np.atleast_1d(np.asarray(vv, dtype=np.float64))
            if scaled:
                lam = float(uu) * 2.0 ** (-2 * fam.d * j)
                xi = vv * 2.0**-j
            else:
                lam, xi = float(uu), vv
            mag = abs(phi(fam, j, lam, xi, quad))
            factor = (
                1.0
                + 2.0 ** (2 * fam.d * j) * abs(lam)
                + 2.0**j * float(np.linalg.norm(xi))
            ) ** (1.0 / (2 * fam.d))
            best = max(best, mag * factor)
        out[j] = best
    return out

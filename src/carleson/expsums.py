"""Complete Weyl sums and their verification scans.

The central object is the normalized complete sum over residues,

    S(a/q, b/q) = q^-n * sum_{r in [0,q)^n} e( a|r|^(2d)/q + b.r/q ),

with e(x) = exp(2*pi*i*x) and gcd(a, b, q) = 1.  Two structural facts are
exercised numerically throughout the lab:

  * orthogonality: S vanishes whenever gcd(a, q) > 1 (while gcd(a,b,q)=1);
  * power decay: max_{gcd(a,q)=1, b} |S| decays like q^(-delta).

All phases are integer residues, so values are exact up to the final
q-term root-of-unity dot product; results are independent of iteration
order and thread count by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import accel
from .errors import BudgetExceededError
from .rationals import ArcPair

__all__ = [
    "WeylSumResult",
    "complete_weyl_sum",
    "weyl_table",
    "OrthogonalityReport",
    "verify_orthogonality",
    "DecayFit",
    "fit_decay_exponent",
]

DEFAULT_TERM_BUDGET = 10**9


@dataclass(frozen=True)
class WeylSumResult:
    """Normalized complete sum; |value| <= 1 always."""

    value: complex


@lru_cache(maxsize=256)
def _roots_of_unity(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


def _sum_from_counts(counts: np.ndarray, q: int, terms: int) -> complex:
    return complex(np.dot(counts.astype(np.float64), _roots_of_unity(q))) / terms


def complete_weyl_sum(
    pair: ArcPair,
    d: int,
    method: str = "auto",
    budget: int = DEFAULT_TERM_BUDGET,
) -> WeylSumResult:
    """S(a/q, b/q) for the canonical pair, phase degree d.

    method:
      "auto"     coordinate-factored product of 1-d quadratic sums when
                 d = 1 (the phase a|r|^2 + b.r splits), direct otherwise
      "direct"   always the n-dimensional residue histogram
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if method not in ("auto", "direct"):
        raise ValueError(f"unknown method {method!r}")
    q, a, b, n = pair.q, pair.a, pair.b, pair.n
    terms = q**n
    if terms > budget:
        raise BudgetExceededError(
            f"complete sum needs q^n = {terms} terms (> {budget})"
        )
    if d == 1 and method == "auto":
        value = 1.0 + 0.0j
        for bk in b:
            counts = accel.weyl_phase_counts(q, 1, 1, a, np.array([bk], np.int64))
            value *= _sum_from_counts(counts, q, q)
        return WeylSumResult(value=value)
    counts = accel.weyl_phase_counts(q, d, n, a, np.array(b, np.int64))
    return WeylSumResult(value=_sum_from_counts(counts, q, terms))


@lru_cache(maxsize=200_000)
def _weyl_value(a: int, b: tuple, q: int, d: int) -> complex:
    """complete_weyl_sum(ArcPair(a, b, q), d).value, cached per
    (a, b, q, d) for the pair-sum and arc-operator loops."""
    return complete_weyl_sum(ArcPair(a=a, b=b, q=q), d).value


def weyl_table(q: int, a: int, d: int, n: int) -> np.ndarray:
    """All values S(a/q, b/q) for b in [0,q)^n at once, shape (q,)*n,
    computed as an inverse DFT of the pure-phase grid e(a|r|^(2d)/q)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    idx = np.indices((q,) * n, dtype=np.int64)
    ph = (a % q) * accel._norm_power_mod(idx, d, q) % q
    grid = _roots_of_unity(q)[ph]
    # ifftn(G)[b] = q^-n sum_r G[r] e(+b.r/q), exactly the normalized sum
    return np.fft.ifftn(grid)


@dataclass(frozen=True)
class OrthogonalityReport:
    q_max: int
    d: int
    n: int
    tol: float
    cases: int
    max_abs: float
    worst: Optional[tuple[int, tuple[int, ...], int]]
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _gcd_grid(base: int, q: int, n: int) -> np.ndarray:
    """gcd(base, b_1, ..., b_n) over the grid b in [0,q)^n."""
    gcd_1d = np.array([math.gcd(base, v) for v in range(q)], dtype=np.int64)
    g = gcd_1d.reshape((q,) + (1,) * (n - 1))
    for k in range(1, n):
        shape = [1] * n
        shape[k] = q
        g = np.gcd(g, gcd_1d.reshape(shape))
    return np.broadcast_to(g, (q,) * n) if n > 1 else gcd_1d


def verify_orthogonality(
    q_max: int, d: int, n: int, tol: float = 1e-9
) -> OrthogonalityReport:
    """Check S(a/q, b/q) = 0 for every canonical pair with q <= q_max,
    gcd(a, q) > 1 and gcd(a, b, q) = 1.

    Scans whole b-tables per (a, q) via the DFT form, so the work is
    ~ sum q^n log q rather than sum q^(2n)."""
    cases = 0
    max_abs = 0.0
    worst = None
    violations = 0
    for q in range(2, q_max + 1):
        for a in range(q):
            ga = math.gcd(a, q)
            if ga == 1:
                continue
            table = np.abs(weyl_table(q, a, d, n))
            mask = _gcd_grid(ga, q, n) == 1
            cases += int(mask.sum())
            masked = np.where(mask, table, 0.0)
            local = float(masked.max()) if masked.size else 0.0
            if local > max_abs:
                max_abs = local
                b_idx = np.unravel_index(int(masked.argmax()), masked.shape)
                worst = (a, tuple(int(v) for v in b_idx), q)
            violations += int((masked > tol).sum())
    return OrthogonalityReport(
        q_max=q_max,
        d=d,
        n=n,
        tol=tol,
        cases=cases,
        max_abs=max_abs,
        worst=worst,
        violations=violations,
    )


@dataclass(frozen=True)
class DecayFit:
    delta_hat: float
    table: tuple[tuple[int, float], ...]


def fit_decay_exponent(q_max: int, d: int, n: int) -> DecayFit:
    """Least-squares slope of log max_b,gcd(a,q)=1 |S| against log q.

    Returns delta_hat such that max |S| ~ q^(-delta_hat), together with
    the per-q maxima.  Rows with vanishing maximum (never observed in the
    supported ranges) are excluded from the fit."""
    rows: list[tuple[int, float]] = []
    for q in range(1, q_max + 1):
        best = 0.0
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            best = max(best, float(np.abs(weyl_table(q, a, d, n)).max()))
        rows.append((q, best))
    pts = [(math.log(q), math.log(m)) for q, m in rows if m > 0]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(pts) >= 2 else 0.0
    return DecayFit(delta_hat=-slope, table=tuple(rows))

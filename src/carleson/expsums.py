"""Complete Weyl sums and their verification scans.

The central object is the normalized complete sum over residues,

    S(a/q, b/q) = q^-n * sum_{r in [0,q)^n} e( a|r|^(2d)/q + b.r/q ),

with e(x) = exp(2*pi*i*x) and gcd(a, b, q) = 1.  Two structural facts are
exercised numerically throughout the lab:

  * orthogonality: S vanishes whenever gcd(a, q) > 1 (while gcd(a,b,q)=1);
  * power decay: max_{gcd(a,q)=1, b} |S| decays like q^(-delta).

All phases are integer residues, so values are exact up to the final
root-of-unity sum.  Both scans run per modulus q: weyl_table(q, d, n)
gives every S(a/q, b/q) as one inverse DFT batched over a, and the scans
read its rows in bounded runs.  complete_weyl_sum, a residue histogram
per pair, is the independent reference.  Results are independent of
iteration order and thread count by construction.
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


def complete_weyl_sum(
    pair: ArcPair,
    d: int,
    method: str = "auto",
    budget: int = DEFAULT_TERM_BUDGET,
) -> WeylSumResult:
    """S(a/q, b/q) for the canonical pair, phase degree d, from the
    n-dimensional residue histogram of the integer phase.  It shares no
    code with weyl_table, so it is the reference the tables are checked
    against.  method "auto" and "direct" name the same computation."""
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
    counts = accel.weyl_phase_counts(q, d, n, a, np.array(b, np.int64))
    value = complex(np.dot(counts.astype(np.float64), _roots_of_unity(q)))
    return WeylSumResult(value=value / terms)


def weyl_table(q: int, d: int, n: int, a=None) -> np.ndarray:
    """S(a/q, b/q) for each numerator in a (default every a in [0, q))
    and every b in [0,q)^n, shape (len(a),) + (q,)*n: one inverse DFT of
    the pure-phase grids e(a|r|^(2d)/q) over the r axes."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    a = np.arange(q) if a is None else np.asarray(a, dtype=np.int64) % q
    x = accel._norm_power_mod(np.indices((q,) * n, dtype=np.int64), d, q)
    grid = _roots_of_unity(q)[a.reshape((-1,) + (1,) * n) * x % q]
    # ifftn(G)[b] = q^-n sum_r G[r] e(+b.r/q), exactly the normalized sum
    return np.fft.ifftn(grid, axes=tuple(range(1, n + 1)))


# Table cells (complex) a scan holds at once.
_TABLE_CELLS = 1 << 22


def _table_runs(q: int, d: int, n: int, rows: np.ndarray):
    """(numerators, weyl_table rows) over rows, at most _TABLE_CELLS
    cells at a time."""
    step = max(1, _TABLE_CELLS // q**n)
    for i in range(0, len(rows), step):
        yield rows[i : i + step], weyl_table(q, d, n, rows[i : i + step])


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


def verify_orthogonality(
    q_max: int, d: int, n: int, tol: float = 1e-9
) -> OrthogonalityReport:
    """Check S(a/q, b/q) = 0 for every canonical pair with q <= q_max,
    gcd(a, q) > 1 and gcd(a, b, q) = 1.

    Scans one modulus q at a time: the weyl_table rows with
    gcd(a, q) > 1, at most _TABLE_CELLS cells per run, so the work is
    ~ sum q^(n+1) log q rather than sum q^(2n+1)."""
    cases = 0
    max_abs = 0.0
    worst = None
    violations = 0
    for q in range(2, q_max + 1):
        nums = np.arange(q)
        gcd_b = np.gcd.reduce(np.indices((q,) * n), axis=0)
        for a, table in _table_runs(q, d, n, nums[np.gcd(nums, q) > 1]):
            ga = np.gcd(a, q).reshape((-1,) + (1,) * n)
            mask = np.gcd(ga, gcd_b) == 1
            cases += int(mask.sum())
            masked = np.where(mask, np.abs(table), 0.0)
            local = float(masked.max())
            if local > max_abs:
                max_abs = local
                row, *b_idx = np.unravel_index(
                    int(masked.argmax()), masked.shape
                )
                worst = (int(a[row]), tuple(int(v) for v in b_idx), q)
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
        nums = np.arange(q)
        runs = _table_runs(q, d, n, nums[np.gcd(nums, q) == 1])
        rows.append((q, max(float(np.abs(t).max()) for _, t in runs)))
    pts = [(math.log(q), math.log(m)) for q, m in rows if m > 0]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(pts) >= 2 else 0.0
    return DecayFit(delta_hat=-slope, table=tuple(rows))

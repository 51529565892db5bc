"""Exact rational and arc-set machinery.

This module owns every Diophantine object the lab needs: reduced fractions,
Farey sets, the dyadic families of rational pairs (a/q, b/q) with
gcd(a, b, q) = 1 grouped by denominator block q in [2^(s-1), 2^s), and the
modulation windows around them.

Conventions
-----------
* All set memberships with a real tolerance use closed inequalities (<=),
  so boundary points are members.
* Window tests against a rational a/q are performed against the nearest
  integer translate (the underlying objects are 1-periodic), while the
  returned representatives are canonical: ArcPair has a, b_k in [0, q);
  the rational returned by in_Xj keeps its true (untranslated) value.
* Numerator candidates are found by rounding; windows are always far
  smaller than the 1/(2q) spacing at the parameter ranges the lab admits,
  so the nearest candidate is the only possible member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import BudgetExceededError

__all__ = [
    "ReducedRational",
    "ArcPair",
    "ArcParams",
    "farey_set",
    "in_Xj",
    "enumerate_Rs",
    "rs_block",
    "lcm_range",
]

DEFAULT_ENUM_LIMIT = 5_000_000


@dataclass(frozen=True)
class ReducedRational:
    """A fraction num/den in lowest terms with den >= 1."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise ValueError(f"denominator must be >= 1, got {self.den}")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not reduced")

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class ArcPair:
    """A canonical pair (a/q, b/q) with common denominator q.

    a in [0, q), every b_k in [0, q), and gcd(a, b_1, ..., b_n, q) = 1.
    The pair need not be reduced coordinate-wise: (2/4, 1/4) is canonical.
    """

    a: int
    b: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if len(self.b) < 1:
            raise ValueError("b must have at least one component")
        if not 0 <= self.a < self.q:
            raise ValueError(f"a={self.a} outside [0, q={self.q})")
        if any(not 0 <= bk < self.q for bk in self.b):
            raise ValueError(f"b={self.b} outside [0, q={self.q})^n")
        if math.gcd(self.a, *self.b, self.q) != 1:
            raise ValueError(
                f"gcd(a, b, q) must be 1, got ({self.a}, {self.b}, {self.q})"
            )

    @property
    def n(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class ArcParams:
    """Shared arc-geometry parameters.

    eps1 controls the modulation arcs (denominators below 2^floor(j*eps1),
    window half-width 2^(-2dj+eps1*j)).  eps2 only enters the check
    0 < eps1 < eps2 < 1; no computation reads it.  The classical regime
    keeps eps1 < eps2 = 2^-5; desk-scale sweeps at small j may rescale
    both upward jointly with j.
    """

    d: int
    n: int
    eps1: float = 2.0**-6
    eps2: float = 2.0**-5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.eps1 < self.eps2 < 1.0):
            raise ValueError(
                f"need 0 < eps1 < eps2 < 1, got eps1={self.eps1}, eps2={self.eps2}"
            )

    def aj_denominator_bound(self, j: int) -> int:
        """Exclusive upper bound 2^floor(j*eps1) for modulation-arc
        denominators at scale j (bound 1 means the family is empty)."""
        return 1 << self.s_max(j)

    def s_max(self, j: int) -> int:
        """Largest integer s with s <= j*eps1 (0 when even s=1 fails).

        The dyadic blocks [2^(s-1), 2^s) for 1 <= s <= s_max(j) tile
        [1, aj_denominator_bound(j)) exactly, so the arc-piece sum over s
        covers precisely the denominators admitted at scale j.
        """
        return max(0, math.floor(j * self.eps1))

    def xj_halfwidth(self, j: int) -> float:
        return 2.0 ** (-2 * self.d * j + self.eps1 * j)


def _nearest_int(x: float) -> int:
    """Nearest integer with deterministic half-up tie break."""
    return math.floor(x + 0.5)


def farey_set(Q: int) -> list[ReducedRational]:
    """All reduced fractions a/q with 0 <= a < q <= Q, ascending by value.

    The cardinality is 1 + sum_{q=2..Q} phi(q) (the single q=1 element
    is 0/1).
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    out = [ReducedRational(0, 1)]
    for q in range(2, Q + 1):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                out.append(ReducedRational(a, q))
    out.sort(key=lambda r: Fraction(r.num, r.den))
    return out


def in_Xj(lam: float, j: int, params: ArcParams) -> Optional[ReducedRational]:
    """The unique rational a/q with q < 2^floor(j*eps1) whose window
    |lam - a/q| <= 2^(-2dj + eps1*j) contains lam, or None.

    The window bound is closed, so boundary points are members.  The
    returned rational keeps its true value (it is not translated into
    [0, 1)).  Raises if the windows at the given parameters are not
    disjoint and several match.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    qmax = params.aj_denominator_bound(j)
    width = params.xj_halfwidth(j)
    hits: list[ReducedRational] = []
    for q in range(1, qmax):
        a = _nearest_int(lam * q)
        if math.gcd(a, q) != 1:
            continue  # same value appears reduced at denominator q/gcd
        if abs(lam - a / q) <= width:
            cand = ReducedRational(a, q)
            if all(
                cand.as_fraction() != h.as_fraction() for h in hits
            ):
                hits.append(cand)
    if not hits:
        return None
    if len(hits) > 1:
        raise ValueError(
            f"windows overlap at lam={lam}, j={j}: {[str(h) for h in hits]}"
        )
    return hits[0]


def rs_block(s: int) -> range:
    """Denominator block [2^(s-1), 2^s) for s >= 1."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return range(1 << (s - 1), 1 << s)


def enumerate_Rs(
    s: int, n: int, max_size: int = DEFAULT_ENUM_LIMIT
) -> list[ArcPair]:
    """All canonical pairs (a, b, q) with q in [2^(s-1), 2^s), a in [0,q),
    b in [0,q)^n and gcd(a, b, q) = 1, ordered by (q, a, b).

    Raises BudgetExceededError when the candidate count q^(n+1) summed
    over the block exceeds max_size.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    block = rs_block(s)
    candidates = sum(q ** (n + 1) for q in block)
    if candidates > max_size:
        raise BudgetExceededError(
            f"enumerate_Rs(s={s}, n={n}) needs {candidates} candidates "
            f"(> {max_size}); use the window-based lookups instead"
        )
    out: list[ArcPair] = []
    for q in block:
        for a in range(q):
            ga = math.gcd(a, q)
            if ga == 1:
                # every b works
                for b in np.ndindex(*(q,) * n):
                    out.append(ArcPair(a, tuple(int(x) for x in b), q))
            else:
                for b in np.ndindex(*(q,) * n):
                    if math.gcd(ga, *b) == 1:
                        out.append(ArcPair(a, tuple(int(x) for x in b), q))
    return out


def lcm_range(s: int) -> int:
    """Least common multiple of every integer in [2^(s-1), 2^s] (closed).

    Exact integer result.  s <= 6 is supported (the s=6 value needs 90
    bits; anything larger would not even fit 128-bit, so it raises
    OverflowError rather than silently extending)."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s > 6:
        raise OverflowError(
            f"lcm over [2^{s-1}, 2^{s}] exceeds 128-bit integer range"
        )
    return math.lcm(*range(1 << (s - 1), (1 << s) + 1))

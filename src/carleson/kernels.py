"""Truncated-kernel families and their dyadic pieces.

A kernel family is K(x) = Omega(x/|x|) / |x|^n with Omega smooth on the
sphere, homogeneous of degree zero, and of zero spherical mean.  The
dyadic pieces are

    K_j(x) = psi(2^-j x) K(x)              for j >= 2,
    K_1(x) = sum_{i <= 1} psi(2^-i x) K(x) = eta(|x|/2) K(x),

where psi(x) = eta(|x|) - eta(2|x|) for a smooth cutoff eta that is 1 on
(-inf, 1] and 0 on [2, inf).  The pieces telescope:
sum_{j <= J} K_j = eta(2^-J |x|) K(x), and sum_{j in Z} psi(2^-j x) = 1
for x != 0.

Piece j is supported in {|x| <= 2^(j+1)}; for j >= 2 it also vanishes for
|x| < 2^(j-1).  The cumulative piece K_1 inherits the |x|^-n singularity
of K at the origin, so its size bound 2^-n only holds away from 0 (on the
lattice |x| >= 1, which is where it is ever evaluated); by convention
every piece evaluates to 0 at x = 0.

The phase degree d rides along in the family record: lattice samples are
cached together with the integer phase weights |y|^(2d) they will be
summed against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import MAX_PHASE_INT
from .errors import BudgetExceededError

__all__ = [
    "KernelFamily",
    "make_kernel",
    "smooth_step",
    "eta",
    "psi_profile",
    "kernel_value",
    "kernel_piece",
    "kernel_cumulative",
    "lattice_arrays",
    "cumulative_lattice_arrays",
    "exact_phase_weights",
]

DEFAULT_LATTICE_BUDGET = 20_000_000

_OMEGA_NAMES = ("sign", "riesz", "harmonic")


def smooth_step(t):
    """exp(-1/t) for t > 0, 0 otherwise; the basic C^inf glue."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _transition(t, lo, hi):
    """Smooth profile: 1 for t <= lo, 0 for t >= hi, monotone between."""
    t = np.asarray(t, dtype=np.float64)
    u = (t - lo) / (hi - lo)
    up = smooth_step(1.0 - u)
    down = smooth_step(u)
    return up / (up + down)


def eta(t):
    """Radial cutoff: 1 on (-inf, 1], 0 on [2, inf), smooth and monotone."""
    return _transition(t, 1.0, 2.0)


def psi_profile(r):
    """Radial profile of the dyadic bump: eta(r) - eta(2r), supported in
    [1/2, 2], and sum_j psi_profile(2^-j r) = 1 for r > 0."""
    r = np.asarray(r, dtype=np.float64)
    return eta(r) - eta(2.0 * r)


@dataclass(frozen=True)
class KernelFamily:
    """Immutable kernel-family record (name, dimension n, phase degree d).

    name/param select the spherical part:
      * "sign"      n = 1,       Omega(x) = sign(x)
      * "riesz"     any n,       Omega(x) = x_k / |x| with k = param
      * "harmonic"  n = 2,       Omega(x) = Re((x_1 + i x_2)^m)/|x|^m, m = param
    """

    name: str
    n: int
    d: int
    param: int = 0
    j_min: int = 1

    def __post_init__(self):
        if self.name not in _OMEGA_NAMES:
            raise ValueError(f"unknown kernel {self.name!r}; use {_OMEGA_NAMES}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.j_min != 1:
            raise ValueError("the decomposition starts at j_min = 1")
        if self.name == "sign" and self.n != 1:
            raise ValueError("sign kernel requires n = 1")
        if self.name == "riesz" and not 0 <= self.param < self.n:
            raise ValueError(f"riesz axis {self.param} outside [0, {self.n})")
        if self.name == "harmonic":
            if self.n != 2:
                raise ValueError("harmonic kernel requires n = 2")
            if self.param < 1:
                raise ValueError("harmonic kernel requires degree param >= 1")

    @property
    def degree(self) -> int:
        """Spherical-harmonic degree of Omega: the angular frequency that an
        equispaced rule on the sphere must resolve."""
        return self.param if self.name == "harmonic" else 1

    def omega(self, x) -> np.ndarray:
        """Spherical part evaluated at points x (shape (..., n)); degree-0
        homogeneous, so any nonzero scaling of x gives the same value."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n:
            raise ValueError(f"points must have last axis {self.n}")
        if self.name == "sign":
            return np.sign(x[..., 0])
        r = np.sqrt((x * x).sum(axis=-1))
        safe = np.where(r > 0, r, 1.0)
        if self.name == "riesz":
            return np.where(r > 0, x[..., self.param] / safe, 0.0)
        theta = np.arctan2(x[..., 1], x[..., 0])
        return np.where(r > 0, np.cos(self.param * theta), 0.0)


def make_kernel(name: str, n: int, d: int, param: int | None = None) -> KernelFamily:
    if param is None:
        param = 1 if name == "harmonic" else 0
    return KernelFamily(name=name, n=n, d=d, param=param)


def _as_points(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        if n != 1:
            raise ValueError("scalar point only valid for n = 1")
        x = x.reshape(1)
    if x.shape[-1] != n:
        raise ValueError(f"points must have last axis {n}, got {x.shape}")
    return x


def kernel_value(fam: KernelFamily, x) -> np.ndarray:
    """Full kernel Omega(x/|x|)/|x|^n; 0 at the origin by convention."""
    x = _as_points(x, fam.n)
    r = np.sqrt((x * x).sum(axis=-1))
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, fam.omega(x) / safe**fam.n, 0.0)


def kernel_piece(fam: KernelFamily, j: int, x) -> np.ndarray:
    """Dyadic piece K_j at points x; supported in {|x| <= 2^(j+1)}."""
    if j < fam.j_min:
        raise ValueError(f"j must be >= {fam.j_min}, got {j}")
    x = _as_points(x, fam.n)
    r = np.sqrt((x * x).sum(axis=-1))
    if j == 1:
        cut = eta(r / 2.0)
    else:
        cut = psi_profile(r * 2.0**-j)
    return cut * kernel_value(fam, x)


def kernel_cumulative(fam: KernelFamily, J: int, x) -> np.ndarray:
    """sum_{j=1..J} K_j(x) = eta(2^-J |x|) K(x) (telescoped closed form)."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    x = _as_points(x, fam.n)
    r = np.sqrt((x * x).sum(axis=-1))
    return eta(r * 2.0**-J) * kernel_value(fam, x)


# ==================== lattice samples ====================

_LATTICE_CACHE: dict = {}


def _lattice_box(j: int, n: int, budget: int) -> np.ndarray:
    half = 1 << (j + 1)
    count = (2 * half + 1) ** n
    if count > budget:
        raise BudgetExceededError(
            f"lattice box for j={j}, n={n} has {count} points (> {budget})"
        )
    axes = [np.arange(-half, half + 1, dtype=np.int64)] * n
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def exact_phase_weights(pts: np.ndarray, d: int) -> np.ndarray:
    """|y|^(2d) for integer points, computed in exact integer arithmetic
    and guarded against exceeding the range the phase-reduction
    primitive can split losslessly."""
    norm2 = (np.asarray(pts).astype(object) ** 2).sum(axis=1)
    nvals_obj = norm2**d
    if len(nvals_obj) and max(nvals_obj) >= MAX_PHASE_INT:
        raise BudgetExceededError(
            f"|y|^(2d) up to {max(nvals_obj)} exceeds the exact phase "
            f"range 2^50"
        )
    return np.ascontiguousarray(nvals_obj.astype(np.int64))


def _cached_lattice(key, fam: KernelFamily, j: int, budget: int, profile):
    """(points, values, phase_weights) of profile(fam, j, y) at the
    lattice points y != 0 of the scale-j box where it is nonzero; built
    once per cache key."""
    hit = _LATTICE_CACHE.get(key)
    if hit is not None:
        return hit
    pts = _lattice_box(j, fam.n, budget)
    pts = pts[np.any(pts != 0, axis=1)]
    vals = profile(fam, j, pts.astype(np.float64))
    keep = vals != 0.0
    pts = np.ascontiguousarray(pts[keep])
    vals = np.ascontiguousarray(vals[keep])
    result = (pts, vals, exact_phase_weights(pts, fam.d))
    _LATTICE_CACHE[key] = result
    return result


def lattice_arrays(
    fam: KernelFamily, j: int, budget: int = DEFAULT_LATTICE_BUDGET
):
    """Cached arrays (points, values, phase_weights) for the nonzero
    lattice samples of K_j:

      points         int64, shape (m, n), all y != 0 with K_j(y) != 0
      values         float64, K_j(y)
      phase_weights  int64, |y|^(2d) (exact; guarded against exceeding
                     the range the phase-reduction primitive supports)
    """
    return _cached_lattice((fam, j), fam, j, budget, kernel_piece)


def cumulative_lattice_arrays(
    fam: KernelFamily, J: int, budget: int = DEFAULT_LATTICE_BUDGET
):
    """Arrays (points, values, phase_weights) for sum_{j<=J} K_j on the
    lattice, via the telescoped form eta(2^-J |y|) K(y)."""
    return _cached_lattice(
        (fam, J, "cumulative"), fam, J, budget, kernel_cumulative
    )

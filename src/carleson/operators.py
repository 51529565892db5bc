"""Operators on lattice functions: the maximal (supremum over
modulation) operator, the rational-block pair sums, and the dyadic
chaining inequality used to control maxima over modulation grids.

The supremum over the modulation parameter runs over the uniform grid
i/M in [0,1) (integer phase weights make every symbol 1-periodic).  On
it the phase of a kernel point depends only on the exact residue
|y|^(2d) mod M, so the maximal operator scatters f x K pairs into
per-site residue-class sums and takes one length-M transform per site
instead of one convolution per grid value.  Grid coarseness is
accounted for by a reported modulus-of-continuity bound instead of being
silently ignored.

Maximum reductions keep the first attaining grid index, so results are
reproducible and independent of any worker-pool layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accel import _norm_power_mod
from .errors import BudgetExceededError
from .expsums import _TABLE_CELLS, _roots_of_unity, weyl_table
from .kernels import (
    DEFAULT_LATTICE_BUDGET,
    KernelFamily,
    cumulative_lattice_arrays,
)
from .parallel import ordered_map

__all__ = [
    "LatticeFunction",
    "LambdaGrid",
    "CarlesonResult",
    "delta_function",
    "random_function",
    "carleson_apply",
    "norm_ratio_stats",
    "kappa_table",
    "rm_bound",
]


# ==================== lattice functions ====================


@dataclass(frozen=True)
class LatticeFunction:
    """Complex function supported on the box center +- halfwidth."""

    n: int
    center: tuple[int, ...]
    halfwidth: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.center) != self.n or len(self.halfwidth) != self.n:
            raise ValueError("center/halfwidth must have length n")
        if any(h < 0 for h in self.halfwidth):
            raise ValueError("halfwidths must be >= 0")
        expected = tuple(2 * h + 1 for h in self.halfwidth)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} != {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values.ravel()))

    def norm_inf(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0


def delta_function(n: int, radius: int = 0) -> LatticeFunction:
    """Point mass at the origin on a box of the given half-width."""
    shape = (2 * radius + 1,) * n
    values = np.zeros(shape, dtype=np.complex128)
    values[(radius,) * n] = 1.0
    return LatticeFunction(n, (0,) * n, (radius,) * n, values)


def random_function(n: int, radius: int, seed_key) -> LatticeFunction:
    """Seeded complex-normal values on [-radius, radius]^n.  seed_key is
    any sequence acceptable to numpy's seeding (e.g. (seed, trial)), so
    per-trial streams are independent of execution order."""
    rng = np.random.default_rng(seed_key)
    shape = (2 * radius + 1,) * n
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return LatticeFunction(n, (0,) * n, (radius,) * n, values)


# ==================== modulation grids ====================


@dataclass(frozen=True)
class LambdaGrid:
    """The uniform modulation grid i/M, i = 0..M-1, inside [0,1); its
    spacing 1/M drives the sup-approximation error bound."""

    M: int

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError(f"M must be an integer >= 1, got {self.M!r}")

    @classmethod
    def uniform(cls, M: int) -> "LambdaGrid":
        return cls(M)

    @property
    def spacing(self) -> float:
        return 1.0 / self.M


# ==================== the maximal operator ====================

# Bytes of class sums G[site, class] carleson_apply holds at once.
_CLASS_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class CarlesonResult:
    """Gridded maximal-operator output.

    cf holds max over the grid of |sum_{j<=J} modulated convolution|;
    argmax_index the index i of the first grid value i/M attaining it
    per site; and grid_error_bound the worst-case shortfall against the
    true supremum over [0,1):
    (spacing/2) * 2*pi * sum_y |y|^(2d) |K^(J)(y)| * ||f||_inf, from the
    exact modulation-derivative bound.
    """

    cf: LatticeFunction
    argmax_index: np.ndarray
    grid_error_bound: float


def carleson_apply(
    fam: KernelFamily,
    f: LatticeFunction,
    J: int,
    grid: LambdaGrid,
    budget: int = DEFAULT_LATTICE_BUDGET,
) -> CarlesonResult:
    """Maximal modulated convolution against the cumulative kernel
    sum_{j<=J} K_j, maximized over the uniform grid lam = i/M.

    On that grid e(lam |y|^(2d)) depends only on the exact residue
    r = |y|^(2d) mod M, so the values at one site x over the whole grid
    are the length-M inverse DFT of the class sums
    G(x, r) = sum_{|y|^(2d) = r mod M} f(x-y) K(y).  Sites are taken in
    runs whose class-sum block stays under _CLASS_BLOCK_BYTES (at least
    one site per run); ties go to the first grid index.
    """
    if fam.n != f.n:
        raise ValueError(f"function dimension {f.n} != kernel n {fam.n}")
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    M = grid.M
    pts, vals, nvals = cumulative_lattice_arrays(fam, J, budget)
    radius = int(np.abs(pts).max()) if len(pts) else 0
    out_half = tuple(h + radius for h in f.halfwidth)
    widths = tuple(2 * h + 1 for h in out_half)
    # f box index u plus kernel box index y + radius is the output box
    # index, so flat positions in output strides add: site = fpos + kpos.
    # key = position * M + class orders the kernel points by position.
    strides = np.cumprod((1,) + widths[:0:-1])[::-1]
    kpos = (pts + radius) @ strides
    order = np.argsort(kpos)
    kval = vals[order]
    kkey = kpos[order] * M + nvals[order] % M
    fidx = np.argwhere(f.values != 0)
    fkey = fidx @ strides * M
    fval = f.values[tuple(fidx.T)]
    sites = int(np.prod(widths))
    step = max(1, _CLASS_BLOCK_BYTES // (16 * M))
    best = np.empty(sites, dtype=np.float64)
    best_idx = np.empty(sites, dtype=np.int64)
    for s0 in range(0, sites, step):
        s1 = min(s0 + step, sites)
        # per f point, the run of kernel points whose site is in [s0, s1)
        lo = np.searchsorted(kkey, s0 * M - fkey)
        count = np.searchsorted(kkey, s1 * M - fkey) - lo
        start = np.cumsum(count) - count
        k = np.arange(count.sum()) + np.repeat(lo - start, count)
        slot = np.repeat(fkey - s0 * M, count) + kkey[k]
        w = np.repeat(fval, count) * kval[k]
        G = np.empty((s1 - s0, M), dtype=np.complex128)
        G.real[...] = np.bincount(slot, w.real, G.size).reshape(G.shape)
        G.imag[...] = np.bincount(slot, w.imag, G.size).reshape(G.shape)
        mag = np.abs(np.fft.ifftn(G, axes=(1,), norm="forward"))
        best_idx[s0:s1] = mag.argmax(axis=1)
        best[s0:s1] = mag[np.arange(s1 - s0), best_idx[s0:s1]]
    weighted = float(
        np.sum(np.abs(vals) * nvals.astype(np.float64))
    )
    bound = 2.0 * math.pi * weighted * f.norm_inf() * grid.spacing / 2.0
    best_idx = best_idx.reshape(widths)
    cf = LatticeFunction(
        f.n, f.center, out_half, best.reshape(widths).astype(np.complex128)
    )
    return CarlesonResult(
        cf=cf, argmax_index=best_idx, grid_error_bound=bound
    )


def norm_ratio_stats(
    fam: KernelFamily,
    J: int,
    grid: LambdaGrid,
    trials: int,
    radius: int,
    seed: int,
    budget: int = DEFAULT_LATTICE_BUDGET,
    workers: int = 1,
) -> tuple[float, list[dict]]:
    """Seeded exploration of ||Cf||_2 / ||f||_2.

    Trial 0 is the point mass (its ratio equals ||sum_{j<=J} K_j||_2
    exactly: modulation factors have unit modulus).  Trials 1.. draw
    complex normals on [-radius, radius]^n from per-trial seed streams,
    so the table is reproducible for any worker count.  The output box,
    which contains the f box, is checked against budget before any
    trial allocates.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    pts = cumulative_lattice_arrays(fam, J, budget)[0]
    reach = radius + (int(np.abs(pts).max()) if len(pts) else 0)
    sites = (2 * reach + 1) ** fam.n
    if sites > budget:
        raise BudgetExceededError(
            f"f box {(2 * radius + 1) ** fam.n} and output box {sites} "
            f"sites exceed budget {budget}"
        )

    def run(trial: int) -> dict:
        if trial == 0:
            f = delta_function(fam.n, radius)
        else:
            f = random_function(fam.n, radius, (seed, trial))
        res = carleson_apply(fam, f, J, grid, budget)
        nf = f.norm2()
        return {
            "trial": trial,
            "norm_f": nf,
            "ratio": res.cf.norm2() / nf,
            "grid_error_bound": res.grid_error_bound,
        }

    rows = ordered_map(run, range(trials), workers=workers)
    max_ratio = max(r["ratio"] for r in rows)
    return max_ratio, rows


# ==================== rational-block pair sums ====================


def kappa_table(
    a,
    q: int,
    ap,
    qp: int,
    shifts: np.ndarray,
    d: int,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Both closed forms of the block pair sum for reduced a/q, a'/q' at
    every row w of shifts (an integer array of shape (count, n)):

    beta form:    sum_{b in [g]^n} S(a/q, b/g) conj(S(a'/q', b/g)) e(w.b/g)
    double form:  (q'/g)^(-n) sum_{u in [q'/g]^n} s(w + u*g),
                  s(w) = q^(-n) sum_{r in [q]^n}
                             e(a|r|^(2d)/q) conj(e(a'|r+w|^(2d)/q'))

    with g = gcd(q, q'); returns the (beta, double) value arrays.  a and
    a' are reduced numerators, or sequences of them: then each array is
    a block of shape (len(a), len(a'), count), one call per (q, q').
    The two forms are equal identically, so callers compare them as a
    check on the exponential-sum machinery.  The beta form depends on w
    only mod g and the double form only mod q', so each is tabulated
    once on its fundamental domain and the shifts are filled by residue
    lookup.  The beta form reads the weyl_table rows of a and a' at the
    multiples of q/g and q'/g; s is an einsum over the exact phase grids
    of the two moduli, each reduced as an integer mod q and mod q'.
    """
    scalar = np.ndim(a) == 0 and np.ndim(ap) == 0
    a = np.atleast_1d(np.asarray(a, dtype=np.int64)) % q
    ap = np.atleast_1d(np.asarray(ap, dtype=np.int64)) % qp
    if np.any(np.gcd(a, q) != 1) or np.any(np.gcd(ap, qp) != 1):
        raise ValueError("a/q and a'/q' must be reduced")
    shifts = np.asarray(shifts, dtype=np.int64)
    if shifts.ndim != 2 or shifts.shape[1] != n:
        raise ValueError(f"shift array must have shape (count, {n})")
    g = math.gcd(q, qp)
    rows = (slice(None),) + (slice(None, None, q // g),) * n
    rows_p = (slice(None),) + (slice(None, None, qp // g),) * n
    prod = (weyl_table(q, d, n, a)[rows][:, None]
            * np.conj(weyl_table(qp, d, n, ap)[rows_p])[None, :])
    # sum_b prod[b] e(+w.b/g) is the unnormalized inverse transform
    beta_dom = np.fft.ifftn(prod, axes=tuple(range(2, n + 2))) * g**n
    zs = np.indices((q,) * n, dtype=np.int64).reshape(n, -1)
    vs = np.indices((qp,) * n, dtype=np.int64).reshape(n, -1)
    x = _norm_power_mod(zs, d, q)
    y = _norm_power_mod(zs[:, None, :] + vs[:, :, None], d, qp)
    E = _roots_of_unity(q)[a[:, None] * x % q]
    # the a' grids, at most _TABLE_CELLS cells at a time
    step = max(1, _TABLE_CELLS // y.size)
    sxy_dom = np.empty((len(a), len(ap), qp**n), dtype=np.complex128)
    for i in range(0, len(ap), step):
        F = np.conj(_roots_of_unity(qp))[ap[i : i + step, None, None] * y % qp]
        sxy_dom[:, i : i + step] = np.einsum("az,bvz->abv", E, F)
    sxy_dom /= float(q**n)
    m = qp // g
    strides = qp ** np.arange(n - 1, -1, -1, dtype=np.int64)
    dbl_dom = np.zeros_like(sxy_dom)
    for u in np.ndindex(*((m,) * n)):
        moved = (vs + g * np.asarray(u, dtype=np.int64).reshape(n, 1)) % qp
        dbl_dom += sxy_dom[..., strides @ moved]
    dbl_dom /= float(m**n)
    beta_vals = beta_dom[(Ellipsis,) + tuple(np.mod(shifts.T, g))]
    dbl_vals = dbl_dom[..., strides @ np.mod(shifts.T, qp)]
    if scalar:
        return beta_vals[0, 0], dbl_vals[0, 0]
    return beta_vals, dbl_vals


# ==================== numerical inequalities ====================


def rm_bound(a: Sequence[complex], j0: int) -> tuple[float, float]:
    """Dyadic chaining bound for a maximum over 2^s + 1 values:

    lhs = max_j |a_j|
    rhs = |a_{j0}| + sqrt(2) * sum_{l=0..s}
              ( sum_{k < 2^(s-l)} |a_{(k+1)2^l} - a_{k 2^l}|^2 )^(1/2)

    Guarantees lhs <= rhs for every anchor index 0 <= j0 <= 2^s.
    """
    arr = np.asarray(a, dtype=np.complex128)
    m = arr.shape[0] - 1
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(
            f"sequence length must be 2^s + 1, got {arr.shape[0]}"
        )
    s = m.bit_length() - 1
    if not 0 <= j0 <= m:
        raise ValueError(f"anchor {j0} outside [0, {m}]")
    lhs = float(np.abs(arr).max())
    rhs = float(abs(arr[j0]))
    for l in range(s + 1):
        step = 1 << l
        diffs = arr[step::step] - arr[:-step:step]
        rhs += math.sqrt(2.0) * float(np.linalg.norm(diffs))
    return lhs, rhs

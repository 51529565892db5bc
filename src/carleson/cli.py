"""Command-line front end: experiment configuration, sweep
orchestration, and deterministic result emission.

Subcommands:

  weyl      per-denominator maxima of the complete sums, decay fit,
            orthogonality verification
  approx    modulation-arc approximation error sweep
  phi       van der Corput profile of the oscillatory factor
  arcs      arc-block census (rational counts, lcm of each block)
  carleson  maximal-operator norm-ratio trials
  kappa     two-form identity scan for the block pair sums
  verify    invariant suites with per-suite pass/fail lines

Every command accepts --config PATH plus a --key value flag for each
configuration key it reads (_KEYS); any other key is a configuration
error, and flags win over the file.  Exit codes: 0 pass,
1 verification failure, 2 configuration error, 3 budget exhausted.
Outputs are byte-identical for a fixed (config, seed) regardless of
the worker count: parallel sweeps run through an order-preserving
map and every reduction scans in task order.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import (
    BudgetExceededError,
    ConfigError,
    ToleranceNotReachedError,
    VerificationError,
)
from .diskio import write_csv, write_json
from .expsums import fit_decay_exponent, verify_orthogonality
from .kernels import cumulative_lattice_arrays, eta, kernel_piece
from .kernels import kernel_value, psi_profile
from .multipliers import (
    approx_error,
    bsharp_set,
    enum_cap,
    factorization_residual,
    lsj_terms,
    m_lattice,
    make_cutoffs,
    sharp_terms,
)
from .operators import (
    LambdaGrid,
    kappa_table,
    norm_ratio_stats,
    rm_bound,
)
from .oscint import phi, vdc_profile
from .parallel import ordered_map
from .rationals import ArcPair, enumerate_Rs, farey_set, lcm_range, rs_block

__all__ = ["main", "build_parser"]


# ==================== weyl ====================


def cmd_weyl(cfg: ExperimentConfig, out: Path) -> int:
    fit = fit_decay_exponent(cfg.q_max, cfg.d, cfg.n)
    write_csv(
        out / "weyl_decay.csv",
        ["q", "max_abs_s"],
        [[q, m] for q, m in fit.table],
    )
    orth = verify_orthogonality(cfg.q_max, cfg.d, cfg.n)
    write_json(
        out / "weyl_summary.json",
        {
            "d": cfg.d,
            "n": cfg.n,
            "q_max": cfg.q_max,
            "delta_hat": fit.delta_hat,
            "orthogonality_cases": orth.cases,
            "orthogonality_max_abs": orth.max_abs,
            "orthogonality_violations": orth.violations,
        },
    )
    print(
        f"weyl: q <= {cfg.q_max}, delta_hat = {fit.delta_hat:.6f}, "
        f"orthogonality violations = {orth.violations}/{orth.cases}"
    )
    return 0 if orth.ok else 1


# ==================== approx ====================


def _approx_group(cfg: ExperimentConfig, j: int, q: int) -> list[list]:
    fam, quad = cfg.family(), cfg.quad()
    rows = []
    for k in range(cfg.samples):
        rng = np.random.default_rng((cfg.seed, 101, j, q, k))
        while True:
            a = int(rng.integers(0, q)) if q > 1 else 0
            b = tuple(int(t) for t in rng.integers(0, q, size=cfg.n))
            if math.gcd(a, *b, q) == 1:
                break
        pair = ArcPair(a, b, q)
        t = float(rng.uniform(-0.9, 0.9))
        off = rng.uniform(-0.45, 0.45, size=cfg.n) / math.sqrt(cfg.n)
        lam = a / q + t * 2.0 ** (-(2 * fam.d - 1) * j)
        xi = np.array(b, dtype=np.float64) / q + off
        err, ratio = approx_error(fam, j, pair, lam, xi, quad)
        delta = max(
            abs(t),
            float(np.linalg.norm(off)),
            math.nextafter(2.0 ** (-j), math.inf),
        )
        rows.append([j, q, k, delta, abs(err), ratio])
    return rows


def cmd_approx(cfg: ExperimentConfig, out: Path) -> int:
    groups = [
        (j, q)
        for j in range(cfg.j_lo, cfg.j_hi + 1)
        if j >= 3
        for q in range(1, min(cfg.q_max, 2 ** (j - 2)) + 1)
    ]
    chunks = ordered_map(
        lambda jq: _approx_group(cfg, *jq), groups, workers=cfg.workers
    )
    rows = [row for chunk in chunks for row in chunk]
    write_csv(
        out / "approx_sweep.csv",
        ["j", "q", "sample", "delta", "abs_err", "bound_ratio"],
        rows,
    )
    per_j: dict[int, float] = {}
    for row in rows:
        per_j[row[0]] = max(per_j.get(row[0], 0.0), row[5])
    write_json(
        out / "approx_summary.json",
        {
            "per_j_max_bound_ratio": {str(j): v for j, v in per_j.items()},
            "rows": len(rows),
        },
    )
    if per_j:
        spread = max(per_j.values()) / min(per_j.values())
        print(
            f"approx: {len(rows)} samples, max bound_ratio "
            f"{max(per_j.values()):.6f}, spread across j = {spread:.3f}x"
        )
    else:
        print("approx: empty sweep range")
    return 0


# ==================== phi ====================


def _profile_grid(cfg: ExperimentConfig) -> list[tuple[float, np.ndarray]]:
    side = max(2, int(math.isqrt(cfg.profile_points)))
    us = np.linspace(-4.0, 4.0, side)
    vs = np.linspace(-8.0, 8.0, side)
    e1 = np.eye(cfg.n)[0]
    return [(float(u), v * e1) for u in us for v in vs]


def cmd_phi(cfg: ExperimentConfig, out: Path) -> int:
    fam, quad = cfg.family(), cfg.quad()
    grid = _profile_grid(cfg)
    profile = vdc_profile(fam, range(cfg.j_lo, cfg.j_hi + 1), grid, quad)
    rows = [[j, value] for j, value in profile.items()]
    write_csv(out / "phi_profile.csv", ["j", "c_vdc"], rows)
    best = max(r[1] for r in rows)
    write_json(
        out / "phi_summary.json",
        {
            "c_vdc_max": best,
            "grid_points": len(grid),
            "per_j": {str(r[0]): r[1] for r in rows},
        },
    )
    print(f"phi: c_vdc = {best:.6f} over j in [{cfg.j_lo}, {cfg.j_hi}]")
    return 0


# ==================== arcs ====================


def cmd_arcs(cfg: ExperimentConfig, out: Path) -> int:
    rows = []
    for s in range(1, cfg.s_hi + 1):
        block = rs_block(s)
        alphas = len(farey_set(2**s - 1)) if s > 1 else 1
        triples = len(enumerate_Rs(s, cfg.n))
        sharps = len(bsharp_set(s, cfg.n))
        rows.append(
            [s, block.start, block.stop - 1, alphas, triples, sharps,
             lcm_range(s)]
        )
    write_csv(
        out / "arc_census.csv",
        ["s", "q_lo", "q_hi", "alpha_count", "triple_count",
         "bsharp_count", "range_lcm"],
        rows,
    )
    print(
        "arcs: "
        + "; ".join(
            f"s={r[0]}: {r[4]} triples, {r[5]} sharp freqs" for r in rows
        )
    )
    return 0


# ==================== carleson ====================


def cmd_carleson(cfg: ExperimentConfig, out: Path) -> int:
    fam = cfg.family()
    grid = LambdaGrid.uniform(cfg.lambda_count)
    results = {}
    for J in (cfg.carleson_j, cfg.carleson_j2):
        results[J] = norm_ratio_stats(
            fam,
            J,
            grid,
            cfg.trials,
            cfg.radius,
            cfg.seed,
            cfg.budget,
            workers=cfg.workers,
        )
    j1, j2 = cfg.carleson_j, cfg.carleson_j2
    rows = [
        [r1["trial"], r1["norm_f"], r1["ratio"], r2["ratio"]]
        for r1, r2 in zip(results[j1][1], results[j2][1])
    ]
    write_csv(
        out / "carleson_trials.csv",
        ["trial", "norm_f", f"ratio_J{j1}", f"ratio_J{j2}"],
        rows,
    )
    deltas = {}
    for J in (j1, j2):
        _, vals, _ = cumulative_lattice_arrays(fam, J, cfg.budget)
        deltas[J] = abs(
            results[J][1][0]["ratio"] - float(np.linalg.norm(vals))
        )
    stabilization = (results[j2][0] - results[j1][0]) / results[j1][0]
    write_json(
        out / "carleson_summary.json",
        {
            "J_lo": j1,
            "J_hi": j2,
            "max_ratio_J_lo": results[j1][0],
            "max_ratio_J_hi": results[j2][0],
            "stabilization_delta": stabilization,
            "point_mass_residual_J_lo": deltas[j1],
            "point_mass_residual_J_hi": deltas[j2],
            "grid_error_bound_J_hi": results[j2][1][0]["grid_error_bound"],
            "trials": cfg.trials,
            "lambda_count": cfg.lambda_count,
        },
    )
    print(
        f"carleson: max ratio {results[j1][0]:.6f} (J={j1}) -> "
        f"{results[j2][0]:.6f} (J={j2}), delta = {stabilization * 100:.2f}%"
    )
    worst = max(deltas.values())
    if worst > 1e-10:
        print(f"carleson: point-mass ratio off by {worst:.3e}")
        return 1
    return 0


# ==================== kappa ====================


def _form_gaps(q_max: int, w: int, cfg: ExperimentConfig):
    """Rows [q, q', largest gap between the two kappa forms over the
    reduced a/q, a'/q' and the shifts in [-w, w]^n] for q, q' <= q_max,
    and the number of rational pairs."""
    nums = {q: [a for a in range(q) if math.gcd(a, q) == 1]
            for q in range(1, q_max + 1)}
    rows = []
    for q in nums:
        for qp in nums:
            # both forms depend on a shift only mod q': the distinct
            # residues of [-w, w] mod q' stand for the whole box
            res = (np.arange(qp) if 2 * w + 1 >= qp
                   else np.arange(-w, w + 1) % qp)
            shifts = np.stack(np.meshgrid(*[res] * cfg.n, indexing="ij"), -1)
            beta, dbl = kappa_table(nums[q], q, nums[qp], qp,
                                    shifts.reshape(-1, cfg.n), cfg.d, cfg.n)
            rows.append([q, qp, float(np.abs(beta - dbl).max())])
    return rows, sum(map(len, nums.values())) ** 2


def cmd_kappa(cfg: ExperimentConfig, out: Path) -> int:
    rows, pairs = _form_gaps(cfg.q_max, cfg.w_max, cfg)
    worst = max(row[2] for row in rows)
    write_csv(out / "kappa_gaps.csv", ["q", "q_prime", "max_gap"], rows)
    write_json(
        out / "kappa_summary.json",
        {
            "d": cfg.d,
            "n": cfg.n,
            "q_max": cfg.q_max,
            "w_max": cfg.w_max,
            "pairs": pairs,
            "max_gap": worst,
        },
    )
    print(
        f"kappa: {pairs} rational pairs, |w| <= {cfg.w_max}, "
        f"max form gap = {worst:.3e}"
    )
    return 0 if worst <= 1e-9 else 1


# ==================== verify ====================


def _suite_partition(cfg: ExperimentConfig) -> tuple[bool, str]:
    fam = cfg.family()
    r = np.logspace(-2, 7, 400)
    J = 24
    total = eta(r / 2.0) + sum(
        psi_profile(r * 2.0**-j) for j in range(2, J + 1)
    )
    worst = float(np.abs(total - eta(r * 2.0**-J)).max())
    pts = np.array([[3.0], [7.0], [12.0]]) if cfg.n == 1 else np.array(
        [[3.0, 1.0], [7.0, -2.0], [0.0, 12.0]]
    )
    direct = sum(kernel_piece(fam, j, pts) for j in range(1, 7))
    closed = eta(
        np.sqrt((pts * pts).sum(axis=1)) * 2.0**-6
    ) * kernel_value(fam, pts)
    worst = max(worst, float(np.abs(direct - closed).max()))
    return worst <= 1e-12, f"max telescoping defect {worst:.3e}"


def _suite_symmetry(cfg: ExperimentConfig) -> tuple[bool, str]:
    fam, quad = cfg.family(), cfg.quad()
    e1 = np.eye(cfg.n)[0]
    worst = 0.0
    for u, v in ((0.7, 1.3), (-1.9, 0.4)):
        vals = [
            phi(fam, j, u * 2.0 ** (-2 * fam.d * j), v * 2.0**-j * e1, quad)
            for j in (2, 5, 8)
        ]
        worst = max(
            worst, max(abs(t - vals[0]) for t in vals[1:])
        )
    zero = max(abs(phi(fam, j, 0.3 * 4.0**-j, np.zeros(cfg.n), quad))
               for j in (3, 6))
    rng = np.random.default_rng((cfg.seed, 33))
    exact = True
    for _ in range(5):
        lam = float(rng.integers(0, 512)) / 512.0
        xi = rng.integers(0, 512, size=cfg.n) / 512.0
        base = m_lattice(fam, 5, lam, xi)
        exact = exact and base == m_lattice(fam, 5, lam + 1.0, xi)
        exact = exact and base == m_lattice(fam, 5, lam, xi + 1.0)
    ok = worst <= 100 * quad.tol and zero <= 1e-9 and exact
    return ok, (
        f"dilation defect {worst:.3e}, center value {zero:.3e}, "
        f"periodicity exact = {exact}"
    )


def _suite_orthogonality(cfg: ExperimentConfig) -> tuple[bool, str]:
    q_top = max(12, min(cfg.q_max, 30 if cfg.n > 1 else 50))
    rep = verify_orthogonality(q_top, cfg.d, cfg.n)
    return rep.ok, (
        f"{rep.violations} violations in {rep.cases} cases "
        f"(q <= {q_top}, max |S| = {rep.max_abs:.3e})"
    )


def _suite_disjointness(cfg: ExperimentConfig) -> tuple[bool, str]:
    fam, quad = cfg.family(), cfg.quad()
    params = cfg.arc_params()
    cut = make_cutoffs(1, cfg.n)
    count = min(cfg.samples * 5, 2000)
    j = max(cfg.j_lo, 8)
    bad = 0
    checked = 0
    for s in range(1, min(cfg.s_hi, 3) + 1):
        if s > params.eps1 * j:
            continue
        for k in range(count):
            rng = np.random.default_rng((cfg.seed, 55, s, k))
            q = int(rng.integers(rs_block(s).start, rs_block(s).stop))
            a = int(rng.integers(0, q)) if q > 1 else 0
            b = rng.integers(0, q, size=cfg.n)
            lam = a / q + float(rng.uniform(-1, 1)) * params.xj_halfwidth(j)
            radius = cut.at_scale(s).support_radius_s
            xi = b / q + rng.uniform(-3, 3, size=cfg.n) * radius
            hits = len(lsj_terms(fam, s, j, lam, xi, params, cut, quad))
            sharp = len(sharp_terms(s, lambda off: 1.0 + 0.0j, xi, cut,
                                    cfg.n))
            checked += 1
            if hits > 1 or sharp > 1:
                bad += 1
    return bad == 0, f"{bad} multi-term events in {checked} draws"


def _suite_factorization(cfg: ExperimentConfig) -> tuple[bool, str]:
    fam, quad = cfg.family(), cfg.quad()
    cut = make_cutoffs(1, cfg.n)
    handles = [
        lambda off: 1.5 + 0.0j,
        lambda off: np.exp(2j * np.pi * float(np.sum(off)))
        + 0.25 * np.exp(-4j * np.pi * float(np.sum(off))),
        lambda off: phi(fam, 4, 0.3 * 4.0 ** (-2 * fam.d),
                        np.asarray(off) * 2.0**-4, quad),
    ]
    worst = 0.0
    count = 0
    for s in range(1, min(cfg.s_hi, 3) + 1):
        scaled = cut.at_scale(s)
        for k in range(60):
            rng = np.random.default_rng((cfg.seed, 77, s, k))
            alphas = farey_set(2**s - 1)
            alpha = alphas[int(rng.integers(0, len(alphas)))]
            q = int(rng.integers(rs_block(s).start, rs_block(s).stop))
            b = rng.integers(0, q, size=cfg.n)
            xi = b / q + rng.uniform(-1, 1, size=cfg.n) * (
                scaled.support_radius_s
            )
            m = handles[k % len(handles)]
            worst = max(
                worst,
                factorization_residual(
                    s, alpha, m, xi, cut, fam.d, cfg.n
                ),
            )
            count += 1
    return bool(worst <= 1e-10), f"max residual {worst:.3e} over {count} draws"


def _suite_kappa(cfg: ExperimentConfig) -> tuple[bool, str]:
    w_top = min(cfg.w_max, 24)
    q_top = min(cfg.q_max, 12 if cfg.n == 1 else 8)
    rows, pairs = _form_gaps(q_top, w_top, cfg)
    worst = max(row[2] for row in rows)
    return worst <= 1e-9, (
        f"max form gap {worst:.3e} over {pairs} pairs, |w| <= {w_top}"
    )


def _suite_rm(cfg: ExperimentConfig) -> tuple[bool, str]:
    worst = -math.inf
    for s in range(1, 9):
        for k in range(min(cfg.samples, 1000)):
            rng = np.random.default_rng((cfg.seed, 99, s, k))
            a = rng.standard_normal(2**s + 1) + 1j * rng.standard_normal(
                2**s + 1
            )
            lhs, rhs = rm_bound(a, int(rng.integers(0, 2**s + 1)))
            worst = max(worst, lhs - rhs)
    l1, r1 = rm_bound([0, 1, 2], 0)
    l2, r2 = rm_bound([0, 1, 0], 0)
    hand = max(abs(r1 - (2 + 2 * math.sqrt(2))), abs(r2 - 2.0))
    ok = worst <= 1e-12 and hand <= 1e-12
    return ok, f"max lhs-rhs = {worst:.3e}, hand-case defect {hand:.3e}"


def _suite_decay(cfg: ExperimentConfig) -> tuple[bool, str]:
    fit = fit_decay_exponent(min(max(cfg.q_max, 32), 64), cfg.d, cfg.n)
    floor_needed = {(1, 1): 0.4, (1, 2): 0.05}.get((cfg.n, cfg.d), 0.0)
    fam, quad = cfg.family(), cfg.quad()
    side = 8
    grid = [
        (float(u), np.full(cfg.n, float(v) / math.sqrt(cfg.n)))
        for u in np.linspace(-3, 3, side)
        for v in np.linspace(-6, 6, side)
    ]
    prof = vdc_profile(fam, [4, 5, 6], grid, quad)
    finite = all(math.isfinite(v) for v in prof.values())
    ok = fit.delta_hat > floor_needed and finite
    return ok, (
        f"delta_hat = {fit.delta_hat:.4f} (floor {floor_needed}), "
        f"c_vdc finite = {finite}"
    )


_SUITES = {
    "partition": _suite_partition,
    "symmetry": _suite_symmetry,
    "orthogonality": _suite_orthogonality,
    "disjointness": _suite_disjointness,
    "factorization": _suite_factorization,
    "kappa": _suite_kappa,
    "rm": _suite_rm,
    "decay": _suite_decay,
}


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    results = {}
    for name in cfg.suites():
        ok, detail = _SUITES[name](cfg)
        results[name] = {"ok": ok, "detail": detail}
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    write_json(out / "verify_summary.json", results)
    return 0 if all(r["ok"] for r in results.values()) else 1


# ==================== entry point ====================


_COMMANDS = {
    "weyl": cmd_weyl,
    "approx": cmd_approx,
    "phi": cmd_phi,
    "arcs": cmd_arcs,
    "carleson": cmd_carleson,
    "kappa": cmd_kappa,
    "verify": cmd_verify,
}

# the configuration keys each command reads besides the global ones;
# no other key is accepted
_GLOBAL = ("seed", "workers", "out")
_FAM = ("kernel", "kernel_param", "d", "n")
_QUAD = ("quad_resolution", "quad_max_depth", "quad_tol", "quad_node_budget")
_KEYS = {
    "weyl": ("d", "n", "q_max"),
    "approx": _FAM + _QUAD + ("j_lo", "j_hi", "q_max", "samples"),
    "phi": _FAM + _QUAD + ("j_lo", "j_hi", "profile_points"),
    "arcs": ("n", "s_hi"),
    "carleson": _FAM + ("lambda_count", "carleson_j", "carleson_j2",
                        "trials", "radius", "budget"),
    "kappa": ("d", "n", "q_max", "w_max"),
    "verify": _FAM + _QUAD + ("eps1", "eps2", "q_max", "w_max", "samples",
                              "j_lo", "j_hi", "s_hi", "suite"),
}

# commands and verify suites built on phi or on fixed 1-D/2-D points
_PLANAR = ("approx", "phi", "partition", "symmetry", "disjointness",
           "factorization", "decay")


def _check_dimension(command: str, cfg: ExperimentConfig) -> None:
    uses = cfg.suites() if command == "verify" else (command,)
    planar = [name for name in uses if name in _PLANAR]
    if cfg.n > 2 and planar:
        raise ConfigError(
            f"{', '.join(planar)}: only n <= 2 is supported, got n = {cfg.n}"
        )
    cap = enum_cap(cfg.n)
    if command == "arcs" and cfg.s_hi > cap:
        raise ConfigError(
            f"arcs census enumerates blocks only up to s = {cap} "
            f"for n = {cfg.n}, got s_hi = {cfg.s_hi}"
        )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="carleson",
        description="numerical laboratory for a discrete maximal "
        "modulated singular operator",
    )
    sub = top.add_subparsers(dest="command", required=True)
    kinds = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for name, keys in _KEYS.items():
        p = sub.add_parser(name, help=f"run the {name} command",
                           allow_abbrev=False)
        # every field is an attribute of the namespace, None unless given
        p.set_defaults(**dict.fromkeys(kinds))
        p.add_argument("--config", default=None, metavar="PATH")
        for key in keys + _GLOBAL:
            p.add_argument(f"--{key}", metavar=kinds[key].upper())
    return top


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    keys = _KEYS[args.command] + _GLOBAL
    overrides = {key: getattr(args, key) for key in keys
                 if getattr(args, key) is not None}
    try:
        if unread:
            raise ConfigError(
                f"{args.command} does not read {' '.join(unread)} "
                f"(it reads {', '.join(keys)})"
            )
        cfg = load_config(args.config, overrides, keys)
        _check_dimension(args.command, cfg)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, ToleranceNotReachedError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: which `carleson` commands one workload run
launches, what each must write, and how many items a run computes.

Each workload is a closed loop with one client: the next command starts
only after the previous one exits.  Every command runs at `--workers 1`
and gets the workload seed as `--seed`.  Sizes are scaled from the
commands' defaults (`samples`, `trials`) so a run takes a few seconds on
a 2-core box while keeping each workload's balance between layers.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2025


@dataclass(frozen=True)
class Invocation:
    """One command line (without --seed, --workers and --out) and the
    result files it must write: CSV name -> data rows, JSON name -> None.
    seeded is False for commands that ignore the seed; their results are
    checked against the references at every seed."""

    argv: tuple[str, ...]
    outputs: dict
    seeded: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    items: int  # items computed by one workload run
    item: str  # what one item is
    setup: str  # set-up kind, see child.py
    # seconds one workload run and its set-up block take on a 2-core box;
    # a measured run of S seconds makes int(S // pass_s) of them
    pass_s: float


# approx at its defaults visits 48 (j, q) groups: j in 6..11, q <= 8.
_APPROX_SAMPLES = 40
_APPROX_ROWS = 48 * _APPROX_SAMPLES
_TRIALS_1D = 8
_TRIALS_2D = 4

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="approx-sweep",
            why="oscint.phi quadrature dominates; the mechanism workload "
            "for oscint and multipliers changes, the control for operators",
            invocations=(
                Invocation(
                    ("approx", "--samples", str(_APPROX_SAMPLES)),
                    {"approx_sweep.csv": _APPROX_ROWS,
                     "approx_summary.json": None},
                ),
            ),
            items=_APPROX_ROWS,
            item="approx_error sample",
            setup="lattice",
            pass_s=8.0,
        ),
        Workload(
            name="maximal-1d",
            why="accel.frac_mul rerun per lambda and trial dominates; the "
            "mechanism workload for the maximal operator, control for oscint",
            invocations=(
                Invocation(
                    ("carleson", "--trials", str(_TRIALS_1D)),
                    {"carleson_trials.csv": _TRIALS_1D,
                     "carleson_summary.json": None},
                ),
            ),
            items=2 * _TRIALS_1D,
            item="carleson_apply call",
            setup="cumulative",
            pass_s=5.0,
        ),
        Workload(
            name="maximal-2d",
            why="same maximal-operator path with 2-D FFT dominating and a "
            "large working set; shows time or memory a 1-D gain costs in 2-D",
            invocations=(
                Invocation(
                    ("carleson", "--n", "2", "--kernel", "riesz",
                     "--carleson_j", "4", "--carleson_j2", "5",
                     "--lambda_count", "512", "--radius", "24",
                     "--trials", str(_TRIALS_2D)),
                    {"carleson_trials.csv": _TRIALS_2D,
                     "carleson_summary.json": None},
                ),
            ),
            items=2 * _TRIALS_2D,
            item="carleson_apply call",
            setup="cumulative",
            pass_s=7.0,
        ),
        Workload(
            name="exact-scan",
            why="integer-residue sums, rational enumeration and arc terms "
            "with few phi calls and no large FFT; the only expsums and "
            "rationals workload",
            invocations=(
                Invocation(("weyl", "--q_max", "300"),
                           {"weyl_decay.csv": 300, "weyl_summary.json": None},
                           seeded=False),
                Invocation(("kappa", "--q_max", "20"),
                           {"kappa_gaps.csv": 400, "kappa_summary.json": None},
                           seeded=False),
                Invocation(("arcs", "--s_hi", "6"), {"arc_census.csv": 6},
                           seeded=False),
                Invocation(("verify", "--j_lo", "12", "--j_hi", "12"),
                           {"verify_summary.json": None}),
                Invocation(("verify", "--j_lo", "12", "--j_hi", "12",
                            "--n", "2", "--kernel", "riesz"),
                           {"verify_summary.json": None}),
            ),
            items=5,
            item="command",
            setup="none",
            pass_s=9.0,
        ),
    )
}

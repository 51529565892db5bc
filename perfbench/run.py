"""The carleson benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is taken from ``src/``.  NAME is
one of the workloads in ``workloads.py``.  The workload seed is passed to
every command as ``--seed``; every command runs at ``--workers 1`` with one
BLAS thread.

--trace 0 measures for about S seconds with tracing off.  It makes
int(S // pass_s) workload runs (pass_s is the workload's nominal time of
one, in workloads.py), running the workload's commands, each in a fresh
process, in a closed loop, launching the set-up probe (child.py)
SETUP_BLOCK times before each workload run and at least SETUP_LAUNCHES
times in all, and reports

    wall_s       sum over the workload's commands of the median wall time of
                 that command across the run's passes: one workload run
    setup_s      median wall time of a fresh process that imports the CLI,
                 loads the config and builds the lattice arrays it uses
    item_ms      (wall_s - commands * setup_s) / items per workload run
    peak_rss_mb  largest resident set of any command in the run

--trace 1 runs each command once untraced and once under the span tracer
(child.py trace, spans.py) and reports the per-layer metrics of
spans.LAYER_METRICS, the tracing overhead, and whether the traced run's
result files equal the untraced run's byte for byte.  It does the same
work whatever S is, so its counts repeat exactly.

A command fails when it exits non-zero, prints a traceback, times out, or
fails the output check (checks.py); failures are counted, never skipped,
and fail_ratio = failed / attempted is printed with the count per cause.
``correct`` is false when a command that exited cleanly wrote wrong or
missing results, or the traced results differ from the untraced ones.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 after a measurement, 1 when
the set-up probe fails, 2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_LAUNCHES = 20  # at least this many per run,
SETUP_BLOCK = 5  # launched this many before each workload run
RUN_LIMIT_S = 170.0  # a command still running then is killed: a timeout
CAUSES = ("exit", "traceback", "timeout", "check")
CLI = [sys.executable, "-m", "carleson.cli"]
# One compute thread per command: numpy's BLAS would otherwise start a
# thread per core that spins on the second core after each call.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# (metric, unit); the untraced run reports exactly these names.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("item_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Launch:
    wall_s: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


def launch(argv: list[str], log: Path, deadline: float) -> Launch:
    """Run argv from the repository root and wait for it, killing it at
    the deadline; wall time and peak resident set come from this child
    alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    with open(log.with_suffix(".out"), "w+") as out, \
            open(log.with_suffix(".err"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(1.0, deadline - t0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        out.seek(0)
        err.seek(0)
        return Launch(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      killed.is_set(), out.read(), err.read())


@dataclass
class Command:
    launch: Launch
    cause: str | None  # one of CAUSES, None when the command succeeded
    detail: str


def run_command(prefix, wl, index, seed, out: Path, deadline) -> Command:
    """One command of the workload with its result files written to out,
    classified and checked."""
    inv = wl.invocations[index]
    shutil.rmtree(out, ignore_errors=True)
    argv = [*prefix, *inv.argv, "--seed", str(seed), "--workers", "1",
            "--out", str(out)]
    run = launch(argv, out.with_name(out.name + "-log"), deadline)
    last = (run.stderr.strip().splitlines() or [""])[-1]
    if run.timed_out:
        return Command(run, "timeout", f"killed at the {RUN_LIMIT_S:.0f} s run limit")
    if "Traceback (most recent call last)" in run.stderr:
        return Command(run, "traceback", last)
    if run.code != 0:
        return Command(run, "exit", f"exit code {run.code}: {last}")
    checked = seed == DEFAULT_SEED or not inv.seeded
    ref = REFS / wl.name / str(index) if checked else None
    problem = checks.check_outputs(inv.outputs, out, ref)
    if problem:
        return Command(run, "check", problem)
    return Command(run, None, "")


def setup_probe(wl, seed, work: Path, deadline) -> Launch:
    inv = wl.invocations[0]
    argv = [sys.executable, str(BENCH / "child.py"), "setup", wl.setup, "--",
            *inv.argv, "--seed", str(seed), "--workers", "1",
            "--out", str(work / "setup-out")]
    run = launch(argv, work / "setup-log", deadline)
    if run.code != 0:
        raise RuntimeError(f"set-up probe failed: {run.stderr.strip()}")
    return run


class Tally:
    """Attempted and failed commands, failures counted by cause."""

    def __init__(self):
        self.attempted = 0
        self.by_cause = dict.fromkeys(CAUSES, 0)
        self.notes: list[str] = []
        self.correct = True

    def add(self, wl, index, cmd: Command) -> None:
        self.attempted += 1
        if cmd.cause is None:
            return
        self.by_cause[cmd.cause] += 1
        if cmd.cause == "check":
            self.correct = False
        note = f"{wl.invocations[index].argv[0]} #{index}: {cmd.cause}: {cmd.detail}"
        if note not in self.notes:
            self.notes.append(note)

    @property
    def failed(self) -> int:
        return sum(self.by_cause.values())


def measure(wl, seed, seconds, work: Path, tally: Tally, limit) -> dict:
    """End-to-end metrics of one untraced run.  The number of workload runs
    follows from seconds and wl.pass_s alone, not from the clock, so the
    attempted and failed counts of a seed repeat exactly."""
    passes = max(1, int(seconds // wl.pass_s))
    setup_probe(wl, seed, work, limit)  # untimed: fills bytecode caches
    setups: list[float] = []
    walls: list[list[float]] = [[] for _ in wl.invocations]
    peak = 0.0
    for _ in range(passes):
        # set-up launches are spread over the run so their median sees the
        # same machine conditions as the workload runs
        for _ in range(SETUP_BLOCK):
            setups.append(setup_probe(wl, seed, work, limit).wall_s)
        for i in range(len(wl.invocations)):
            cmd = run_command(CLI, wl, i, seed, work / f"out{i}", limit)
            tally.add(wl, i, cmd)
            walls[i].append(cmd.launch.wall_s)
            peak = max(peak, cmd.launch.rss_mb)
    while len(setups) < SETUP_LAUNCHES:
        setups.append(setup_probe(wl, seed, work, limit).wall_s)
    wall_s = sum(statistics.median(w) for w in walls)
    setup_s = statistics.median(setups)
    print(f"{wl.name}: {passes} workload runs of {len(wl.invocations)} "
          f"command(s), {wl.items} {wl.item}(s) each; "
          f"{len(setups)} set-up launches")
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "item_ms": (wall_s - len(wl.invocations) * setup_s) / wl.items * 1e3,
        "peak_rss_mb": peak,
    }


def _summary(out_dirs, name):
    for out in out_dirs:
        if (out / name).is_file():
            return json.loads((out / name).read_text())
    return None


def traced(wl, seed, work: Path, tally: Tally, limit) -> dict:
    """Per-layer metrics from one traced workload run."""
    sets, plain_dirs = [], []
    plain_s = traced_s = 0.0
    identical, max_dev = True, 0.0
    for i in range(len(wl.invocations)):
        plain_out, traced_out = work / f"plain{i}", work / f"traced{i}"
        span_file = work / f"spans{i}.npz"
        plain = run_command(CLI, wl, i, seed, plain_out, limit)
        tally.add(wl, i, plain)
        prefix = [sys.executable, str(BENCH / "child.py"), "trace",
                  str(span_file), "--"]
        run = run_command(prefix, wl, i, seed, traced_out, limit)
        tally.add(wl, i, run)
        plain_s += plain.launch.wall_s
        traced_s += run.launch.wall_s
        same, dev = checks.diff_dirs(plain_out, traced_out)
        identical = identical and same
        max_dev = max(max_dev, dev)
        plain_dirs.append(plain_out)
        if span_file.is_file():
            sets.append(spans.load(span_file))
        else:
            tally.correct = False
            tally.notes.append(f"#{i}: traced run wrote no spans")
    if not identical:
        tally.correct = False
        tally.notes.append("traced result files differ from untraced ones")
    metrics = spans.layer_metrics(sets)
    metrics["cli.output_files_identical"] = int(identical)
    metrics["cli.output_max_abs_dev"] = min(max_dev, sys.float_info.max)
    approx = _summary(plain_dirs, "approx_summary.json")
    per_j = list(approx["per_j_max_bound_ratio"].values()) if approx else []
    metrics["cli.approx_spread"] = max(per_j) / min(per_j) if per_j else 0.0
    maximal = _summary(plain_dirs, "carleson_summary.json") or {}
    for end in ("lo", "hi"):
        metrics[f"cli.point_mass_residual_{end}"] = maximal.get(
            f"point_mass_residual_J_{end}", 0.0)
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    return metrics


def run_workload(wl, seed, seconds, trace) -> dict:
    """One run; prints the human-readable report and returns the result
    object of the last stdout line."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tally = Tally()
    limit = time.perf_counter() + RUN_LIMIT_S
    try:
        env = setup_probe(wl, seed, work, limit).stdout.split()
        if trace:
            values = traced(wl, seed, work, tally, limit)
            table = [(m, u) for m, u, _ in spans.LAYER_METRICS]
        else:
            values = measure(wl, seed, seconds, work, tally, limit)
            table = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m: {"value": values[m], "unit": u} for m, u in table}
    for m, u in table:
        print(f"  {m:<42} {values[m]:.6g} {u}")
    causes = ", ".join(f"{c} {n}" for c, n in tally.by_cause.items())
    print(f"  {'fail_ratio':<42} {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g} ({causes})")
    for note in tally.notes:
        print(f"  failed: {note}")
    print(f"env: nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} {' '.join(env)} workers=1 "
          f"blas_threads=1")
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (SRC / "carleson" / "cli.py").is_file():
        print(f"perfbench: no carleson sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed,
                                         args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

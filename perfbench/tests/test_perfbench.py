"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_of_nested_spans():
    #   0 [0, 100]
    #   +-- 1 [10, 40]
    #   |   +-- 2 [15, 25]
    #   +-- 3 [50, 90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_tracer_records_parents_and_failures():
    tracer = spans.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_t = tracer.wrap("m.leaf", leaf)
    outer_t = tracer.wrap("m.outer", lambda xs: [leaf_t(x) for x in xs])
    assert outer_t([1, 2]) == [1, 2]
    with pytest.raises(ValueError):
        leaf_t(-1)
    assert list(tracer.parent) == [-1, 0, 0, -1]
    assert list(tracer.failed) == [0, 0, 0, 1]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


@pytest.mark.parametrize(
    "count, pct",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
     (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_keeps_ten_calls_beyond(count, pct):
    assert spans.tail_percentile(count) == pct
    if pct is not None:
        values = list(range(count))
        assert sum(v > spans.rank_value(values, pct) for v in values) >= 10


def test_frac_mul_is_traced_through_every_importer():
    from carleson import accel, kernels, multipliers, operators

    original = accel.frac_mul
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert accel.frac_mul is not original
        assert operators.frac_mul is accel.frac_mul
        assert multipliers.frac_mul is accel.frac_mul
        fam = kernels.make_kernel("sign", 1, 1)
        multipliers.m_lattice(fam, 3, 0.25, [0.125])
        f = operators.delta_function(1, 2)
        operators.carleson_apply(fam, f, 2, operators.LambdaGrid.uniform(4))
    finally:
        tracer.uninstall()
    assert accel.frac_mul is original
    assert operators.frac_mul is original and multipliers.frac_mul is original

    names = [tracer.names[i] for i in tracer.name]
    callers = {names[tracer.parent[i]] for i, n in enumerate(names)
               if n == "accel.frac_mul"}
    assert callers == {"multipliers.m_lattice", "operators.carleson_apply"}
    assert "numpy.fft.fftn" in names and "numpy.fft.ifftn" in names


def _cli(prefix, args, out):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.ONE_THREAD)
    done = subprocess.run([*prefix, *args, "--workers", "1", "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("args", [
    ["weyl", "--q_max", "30"],
    ["carleson", "--trials", "2", "--lambda_count", "64", "--carleson_j2", "6"],
])
def test_traced_run_matches_untraced_and_keeps_out_clean(tmp_path, args):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    span_file = tmp_path / "spans.npz"
    _cli([sys.executable, "-m", "carleson.cli"], args, plain)
    _cli([sys.executable, str(BENCH / "child.py"), "trace", str(span_file), "--"],
         args, traced)
    assert sorted(p.name for p in traced.iterdir()) == sorted(
        p.name for p in plain.iterdir())
    assert checks.diff_dirs(plain, traced) == (True, 0.0)
    metrics = spans.layer_metrics([spans.load(span_file)])
    assert metrics["cli.command.self_s"] > 0
    assert metrics["diskio.write.calls"] == 2


def test_compare_reads_numbers_inside_strings():
    ref = {"detail": "max residual 1.000e-15 over 180 draws", "ok": True}
    close = {"detail": "max residual 3.000e-15 over 180 draws", "ok": True}
    other = {"detail": "max residual 1.000e-15 over 181 draws", "ok": True}
    assert checks.compare(close, ref) == (True, pytest.approx(2e-15))
    assert checks.compare(other, ref)[0] is False
    assert checks.compare({"x": [1.0, 2.0]}, {"x": [1.0]}) == (False, float("inf"))


def test_check_outputs_counts_rows_and_rejects_non_finite(tmp_path):
    (tmp_path / "t.csv").write_text("a,b\n1,2\n3,nan\n")
    assert checks.check_outputs({"t.csv": 3}, tmp_path, None) == (
        "t.csv has 2 rows, expected 3")
    assert "non-finite" in checks.check_outputs({"t.csv": 2}, tmp_path, None)
    assert checks.check_outputs({"u.json": None}, tmp_path, None) == "missing u.json"


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])

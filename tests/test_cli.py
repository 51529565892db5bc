"""Configuration parsing, deterministic result files, the ordered
parallel map, and end-to-end runs of every command-line entry point
with its documented exit codes.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from carleson import cli
from carleson.cli import main
from carleson.config import (
    VERIFY_SUITES,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from carleson.diskio import format_value, write_csv, write_json
from carleson.errors import ConfigError
from carleson.multipliers import make_cutoffs
from carleson.parallel import ordered_map


# ==================== configuration ====================


def test_config_defaults_and_derived():
    cfg = ExperimentConfig()
    fam = cfg.family()
    assert (fam.name, fam.d, fam.n) == ("sign", 1, 1)
    assert cfg.arc_params().eps1 == 0.25
    assert cfg.quad().tol == 1e-10
    assert cfg.suites() == VERIFY_SUITES
    assert ExperimentConfig(suite="rm, kappa").suites() == ("rm", "kappa")


def test_parse_config_text():
    pairs = parse_config_text(
        "q_max = 4   # trailing comment\n"
        "\n"
        "# full-line comment\n"
        "eps1 = 0.2\n"
        "budget = 0x10\n"
        "kernel = riesz\n"
    )
    assert pairs == {"q_max": 4, "eps1": 0.2, "budget": 16,
                     "kernel": "riesz"}
    with pytest.raises(ConfigError):
        parse_config_text("mystery = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("q_max = 3\nq_max = 4\n")
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("q_max = lots\n")


def test_load_config_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("q_max = 4\nseed = 7\n")
    cfg = load_config(path, {"q_max": "6"})
    assert cfg.q_max == 6 and cfg.seed == 7
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")
    with pytest.raises(ConfigError):
        load_config(None, {"grid_size": "96"})  # no longer a key
    # a command's key set refuses every other key, from the file too
    assert load_config(path, None, ("q_max", "seed")).q_max == 4
    with pytest.raises(ConfigError):
        load_config(path, None, ("q_max",))


@pytest.mark.parametrize("bad", [
    dict(kernel="mystery"),
    dict(eps1=0.5, eps2=0.3),
    dict(j_lo=8, j_hi=6),
    dict(lambda_count=0),
    dict(q_max=0),
    dict(workers=0),
    dict(suite="rm,mystery"),
    dict(fault="mystery"),          # no longer a key
    dict(quad_resolution=1.0),      # wrapped quadrature validation
    dict(kernel="harmonic", n=1),   # wrapped kernel-family validation
    dict(quad_resolution="inf"),    # non-finite floats are refused
    dict(quad_resolution="nan"),
    dict(quad_tol="inf"),
    dict(quad_tol="nan"),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        load_config(None, bad)


# ==================== result files ====================


def test_format_value():
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(42) == "42"
    assert format_value(True) == "1"
    assert float(format_value(math.pi)) == math.pi
    with pytest.raises(TypeError):
        format_value(1 + 2j)


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1, 0.1], [2, -math.pi]]
    write_csv(path, ["k", "v"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,v" and len(lines) == 3
    assert path.read_text().endswith("\n")
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == [0.1, -math.pi]
    with pytest.raises(ValueError):
        write_csv(path, ["k", "v"], [[1]])


def test_write_json_sorted(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"zeta": 1, "alpha": 0.25})
    text = path.read_text()
    assert text.index("alpha") < text.index("zeta")
    assert json.loads(text) == {"zeta": 1, "alpha": 0.25}
    # numpy scalars are written exactly as the Python values they hold
    plain = {"ok": True, "n": 7, "x": 0.1, "rows": [False, -3, 1e300]}
    boxed = {"ok": np.bool_(True), "n": np.int64(7), "x": np.float64(0.1),
             "rows": [np.bool_(False), np.int64(-3), np.float64(1e300)]}
    write_json(path, boxed)
    write_json(tmp_path / "p.json", plain)
    assert path.read_bytes() == (tmp_path / "p.json").read_bytes()


# ==================== parallel map ====================


def test_ordered_map_preserves_order():
    work = lambda k: (k, sum(range((37 * k) % 11 * 1000)))
    seq = ordered_map(work, range(40), workers=1)
    par = ordered_map(work, range(40), workers=4)
    assert seq == par
    assert [r[0] for r in par] == list(range(40))


# ==================== command-line entry points ====================


def run_cli(tmp_path, name, **kv):
    out = tmp_path / "out"
    argv = [name, "--out", str(out)]
    for key, val in kv.items():
        argv += [f"--{key}", str(val)]
    return main(argv), out


def test_cmd_weyl(tmp_path):
    code, out = run_cli(tmp_path, "weyl", q_max=8)
    assert code == 0
    lines = (out / "weyl_decay.csv").read_text().splitlines()
    assert lines[0] == "q,max_abs_s" and len(lines) == 9
    summary = json.loads((out / "weyl_summary.json").read_text())
    assert summary["orthogonality_violations"] == 0
    assert summary["orthogonality_max_abs"] <= 1e-9


def test_cmd_approx(tmp_path):
    code, out = run_cli(tmp_path, "approx", j_lo=4, j_hi=4, q_max=2,
                        samples=3, seed=11)
    assert code == 0
    lines = (out / "approx_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # (j=4, q in {1,2}) x 3 samples
    summary = json.loads((out / "approx_summary.json").read_text())
    assert "4" in summary["per_j_max_bound_ratio"]


def test_cmd_approx_empty_sweep(tmp_path):
    # no admissible (j, q) groups below j = 3: header-only table, still 0
    code, out = run_cli(tmp_path, "approx", j_lo=1, j_hi=2, q_max=8)
    assert code == 0
    assert (out / "approx_sweep.csv").read_text().splitlines() == [
        "j,q,sample,delta,abs_err,bound_ratio"]


def test_cmd_phi(tmp_path):
    code, out = run_cli(tmp_path, "phi", j_lo=4, j_hi=5, profile_points=9)
    assert code == 0
    lines = (out / "phi_profile.csv").read_text().splitlines()
    assert lines[0] == "j,c_vdc" and len(lines) == 3
    assert json.loads((out / "phi_summary.json").read_text())["c_vdc_max"] > 0.0


def test_cmd_arcs_frozen_census(tmp_path):
    code, out = run_cli(tmp_path, "arcs", s_hi=3)
    assert code == 0
    lines = (out / "arc_census.csv").read_text().splitlines()
    assert lines[0] == (
        "s,q_lo,q_hi,alpha_count,triple_count,bsharp_count,range_lcm")
    assert lines[1:] == ["1,1,1,1,1,1,2", "2,2,3,4,11,4,12",
                         "3,4,7,18,108,18,840"]


def test_cmd_kappa(tmp_path):
    code, out = run_cli(tmp_path, "kappa", q_max=4, w_max=2)
    assert code == 0
    lines = (out / "kappa_gaps.csv").read_text().splitlines()
    assert len(lines) == 1 + 16
    summary = json.loads((out / "kappa_summary.json").read_text())
    assert summary["max_gap"] <= 1e-9


def test_cmd_carleson(tmp_path):
    code, out = run_cli(tmp_path, "carleson", trials=2, radius=4,
                        lambda_count=16, carleson_j=2, carleson_j2=3)
    assert code == 0
    lines = (out / "carleson_trials.csv").read_text().splitlines()
    assert len(lines) == 3
    summary = json.loads((out / "carleson_summary.json").read_text())
    assert summary["point_mass_residual_J_hi"] <= 1e-10
    assert summary["max_ratio_J_hi"] >= summary["max_ratio_J_lo"] > 0.0


def test_cmd_verify_single_suite(tmp_path, capsys):
    code, out = run_cli(tmp_path, "verify", suite="rm", samples=50)
    assert code == 0
    assert "rm: PASS" in capsys.readouterr().out
    summary = json.loads((out / "verify_summary.json").read_text())
    assert summary["rm"]["ok"] is True


def test_cmd_verify_fault_injection(tmp_path, capsys, monkeypatch):
    # designed fault: the wide cutoff stops covering supp chi
    monkeypatch.setattr(cli, "make_cutoffs", lambda s, n: make_cutoffs(
        s, n, tilde_plateau=0.05, tilde_support=0.15))
    code, out = run_cli(tmp_path, "verify", suite="factorization",
                        samples=50)
    assert code == 1
    assert "factorization: FAIL" in capsys.readouterr().out


def test_exit_code_config_error(tmp_path):
    code, _ = run_cli(tmp_path, "weyl", q_max=0)
    assert code == 2
    code, _ = run_cli(tmp_path, "weyl", q_max="lots")
    assert code == 2


def test_internal_value_error_is_not_a_configuration_error(
        tmp_path, capsys, monkeypatch):
    # only ConfigError exits 2; a ValueError raised inside a command is a
    # fault of the program, so it propagates instead
    def broken(cfg, out):
        raise ValueError("broken invariant")

    monkeypatch.setitem(cli._COMMANDS, "weyl", broken)
    with pytest.raises(ValueError, match="broken invariant"):
        main(["weyl", "--q_max", "3", "--out", str(tmp_path / "out")])
    assert "configuration error" not in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("approx", "budget", 10),
    ("weyl", "trials", 99),
    ("arcs", "kernel", "riesz"),
    ("kappa", "radius", 7),
    ("phi", "samples", 3),
    ("carleson", "suite", "rm"),
    ("verify", "lambda_count", 16),
])
def test_key_outside_command_is_refused(tmp_path, capsys, name, key, value):
    code, out = run_cli(tmp_path, name, **{key: value})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert f"--{key}" in err and "Traceback" not in err
    assert not out.exists()


def test_config_file_key_outside_command_is_refused(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("q_max = 4\nbudget = 10\n")
    out = tmp_path / "out"
    assert main(["weyl", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "budget" in err
    assert not out.exists()


@pytest.mark.parametrize("name, kv", [
    ("weyl", dict(q_max=3)),
    ("arcs", dict(s_hi=2)),
    ("kappa", dict(q_max=3, w_max=1)),
])
def test_commands_without_kernel_run_at_n2(tmp_path, name, kv):
    code, _ = run_cli(tmp_path, name, n=2, **kv)
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["phi", "--profile_points", "4", "--j_lo", "3", "--j_hi", "3"],
    ["approx", "--samples", "1", "--j_lo", "4", "--j_hi", "4"],
    *(["verify", "--suite", suite] for suite in
      ("partition", "symmetry", "disjointness", "factorization", "decay")),
])
def test_planar_paths_refuse_n3(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main([*argv, "--n", "3", "--kernel", "riesz", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "n <= 2" in err and not out.exists()


def test_verify_rm_runs_at_n3(tmp_path):
    code, _ = run_cli(tmp_path, "verify", suite="rm", samples=5, n=3,
                      kernel="riesz")
    assert code == 0


def test_exit_code_budget_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "phi", j_lo=4, j_hi=4, profile_points=9,
                      quad_node_budget=160)
    assert code == 3
    # refused from the box sizes, before the 4e12-site f box is allocated
    capsys.readouterr()
    code, _ = run_cli(tmp_path, "carleson", n=2, kernel="riesz",
                      radius=1000000)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("budget error:") and err.count("\n") == 1


def test_approx_budget_refused_before_allocating(tmp_path, capsys):
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, "approx", samples=2,
                          quad_node_budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("budget error:") and err.count("\n") == 1
    assert "Traceback" not in err
    # the first level is refused from its size before it is built; a
    # level within the budget takes 16 kB, and 8 MB leaves room for the
    # lattice arrays
    assert peak < 8 << 20


def test_arcs_s_hi_cap_refused_before_out(tmp_path, capsys):
    for n, s_hi in ((1, 7), (2, 5)):
        code, out = run_cli(tmp_path, "arcs", n=n, s_hi=s_hi)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "s_hi" in err
        assert not out.exists()


def test_worker_count_never_changes_bytes(tmp_path):
    runs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        code = main(["approx", "--out", str(out), "--j_lo", "4",
                     "--j_hi", "5", "--q_max", "2", "--samples", "2",
                     "--workers", str(workers)])
        assert code == 0
        runs[workers] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    assert runs[1] == runs[4]

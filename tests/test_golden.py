"""Golden-output gate: every command at a small config, n = 1 and n = 2,
compared file by file with the results recorded under tests/golden/.

Integers, strings and booleans must match exactly.  Every float,
including the numbers embedded in verify's detail strings, must lie
within GOLDEN_ATOL of its recorded value; the test prints each case's
largest deviation.  A change that is meant to move last digits records
the files again in the same commit:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from carleson.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ATOL = 1e-12

_RIESZ2 = ("--n", "2", "--kernel", "riesz")
_VERIFY = ("--samples", "10", "--q_max", "8", "--w_max", "3",
           "--j_lo", "8", "--j_hi", "8")

# case name -> command line without --out; every case exits 0
CASES = {
    "weyl-n1": ("weyl", "--q_max", "12"),
    "weyl-n2": ("weyl", "--n", "2", "--q_max", "6", "--d", "2"),
    "approx-n1": ("approx", "--j_lo", "4", "--j_hi", "5", "--q_max", "2",
                  "--samples", "2"),
    "approx-n2": ("approx", *_RIESZ2, "--j_lo", "4", "--j_hi", "4",
                  "--q_max", "2", "--samples", "2"),
    "phi-n1": ("phi", "--j_lo", "4", "--j_hi", "5", "--profile_points", "9"),
    "phi-n2": ("phi", *_RIESZ2, "--j_lo", "3", "--j_hi", "3",
               "--profile_points", "4"),
    "arcs-n1": ("arcs", "--s_hi", "3"),
    "arcs-n2": ("arcs", "--n", "2", "--s_hi", "2"),
    "carleson-n1": ("carleson", "--trials", "3", "--radius", "4",
                    "--lambda_count", "16", "--carleson_j", "2",
                    "--carleson_j2", "3"),
    "carleson-n2": ("carleson", *_RIESZ2, "--trials", "2", "--radius", "2",
                    "--lambda_count", "8", "--carleson_j", "2",
                    "--carleson_j2", "3"),
    "kappa-n1": ("kappa", "--q_max", "4", "--w_max", "2"),
    "kappa-n2": ("kappa", "--n", "2", "--q_max", "3", "--w_max", "1"),
    "verify-n1": ("verify", *_VERIFY),
    "verify-n2": ("verify", *_RIESZ2, *_VERIFY),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _run(name: str, out: Path) -> None:
    code = main([*CASES[name], "--out", str(out)])
    assert code == 0, f"{name} exited {code}"


class _Deviation:
    """Largest float deviation seen; mismatches of anything else raise."""

    def __init__(self):
        self.worst = 0.0

    def number(self, got: str, want: str, where: str) -> None:
        if re.fullmatch(r"[-+]?\d+", want):
            assert got == want, f"{where}: integer {got} != {want}"
        else:
            self.worst = max(self.worst, abs(float(got) - float(want)))

    def text(self, got: str, want: str, where: str) -> None:
        """Strings compare exactly outside their numbers."""
        assert _NUMBER.split(got) == _NUMBER.split(want), (
            f"{where}: {got!r} != {want!r}")
        for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
            self.number(g, w, where)

    def json(self, got, want, where: str) -> None:
        assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
        if isinstance(want, dict):
            assert sorted(got) == sorted(want), f"{where}: keys differ"
            for key in want:
                self.json(got[key], want[key], f"{where}.{key}")
        elif isinstance(want, list):
            assert len(got) == len(want), f"{where}: lengths differ"
            for k, (g, w) in enumerate(zip(got, want)):
                self.json(g, w, f"{where}[{k}]")
        elif isinstance(want, float):
            self.worst = max(self.worst, abs(got - want))
        elif isinstance(want, str):
            self.text(got, want, where)
        else:
            assert got == want, f"{where}: {got!r} != {want!r}"

    def csv(self, got: Path, want: Path, where: str) -> None:
        g_rows = list(csv.reader(got.read_text().splitlines()))
        w_rows = list(csv.reader(want.read_text().splitlines()))
        assert g_rows[0] == w_rows[0], f"{where}: header differs"
        assert len(g_rows) == len(w_rows), f"{where}: row count differs"
        for k, (g, w) in enumerate(zip(g_rows[1:], w_rows[1:]), start=1):
            assert len(g) == len(w), f"{where}:{k}: width differs"
            for g_cell, w_cell in zip(g, w):
                self.text(g_cell, w_cell, f"{where}:{k}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    _run(name, tmp_path)
    want_dir = GOLDEN / name
    got = sorted(p.name for p in tmp_path.iterdir())
    assert got == sorted(p.name for p in want_dir.iterdir())
    dev = _Deviation()
    for fname in got:
        g, w = tmp_path / fname, want_dir / fname
        where = f"{name}/{fname}"
        if fname.endswith(".json"):
            dev.json(json.loads(g.read_text()), json.loads(w.read_text()),
                     where)
        else:
            dev.csv(g, w, where)
    print(f"golden {name}: max float deviation {dev.worst:.3e}")
    assert dev.worst <= GOLDEN_ATOL


def record() -> None:
    """Rewrite tests/golden/ from the current code."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in sorted(CASES):
        _run(name, GOLDEN / name)


if __name__ == "__main__":
    record()
    sys.exit(0)

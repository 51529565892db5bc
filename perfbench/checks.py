"""Output checks for the benchmark's commands.

A command's result files must exist, parse, hold the expected number of
CSV data rows and only finite numbers.  At the default seed, and at every
seed for commands that do not use it, they must also match the references
under ``refs/`` (written by the program as first benchmarked) within
``RTOL``/``ATOL``.  Numbers inside JSON strings, such as
the ``detail`` lines of ``verify``, are compared as numbers; the rest of a
string must match exactly.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-8

_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:inf|nan)\b"
)


def load_result(path: Path):
    """A CSV file as {"header": [...], "rows": [[...]]} with numeric cells
    as floats; a JSON file as its value."""
    text = path.read_text(encoding="ascii")
    if path.suffix == ".json":
        return json.loads(text)
    table = list(csv.reader(text.splitlines()))
    if not table:
        raise ValueError("empty CSV file")
    header, rows = table[0], table[1:]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
    return {"header": header, "rows": [[_cell(c) for c in row] for row in rows]}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def leaves(obj, prefix=""):
    """(path, value) for every number or string in a nested value; strings
    are split into their text and number parts."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from leaves(obj[key], f"{prefix}/{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from leaves(item, f"{prefix}[{i}]")
    elif isinstance(obj, str):
        numbers = [float(t) for t in _NUMBER.findall(obj)]
        yield prefix, _NUMBER.sub("#", obj)
        for i, v in enumerate(numbers):
            yield f"{prefix}#{i}", v
    elif isinstance(obj, bool) or obj is None:
        yield prefix, obj
    else:
        yield prefix, float(obj)


def compare(got, ref) -> tuple[bool, float]:
    """(same structure and within tolerance, max absolute deviation)."""
    a, b = list(leaves(got)), list(leaves(ref))
    if [p for p, _ in a] != [p for p, _ in b]:
        return False, math.inf
    ok, worst = True, 0.0
    for (_, x), (_, y) in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
                same = x == y or (math.isnan(x) and math.isnan(y))
                ok = ok and same
                worst = max(worst, 0.0 if same else math.inf)
                continue
            dev = abs(x - y)
            worst = max(worst, dev)
            ok = ok and dev <= ATOL + RTOL * abs(y)
        else:
            ok = ok and x == y
    return ok, worst


def check_outputs(outputs: dict, out_dir: Path, ref_dir: Path | None) -> str | None:
    """None when every expected result file is valid, else the first
    problem found.  ref_dir, when given, holds reference files to match."""
    for name, rows in outputs.items():
        path = out_dir / name
        if not path.is_file():
            return f"missing {name}"
        try:
            value = load_result(path)
        except (ValueError, UnicodeDecodeError) as exc:
            return f"{name} does not parse: {exc}"
        if rows is not None and len(value["rows"]) != rows:
            return f"{name} has {len(value['rows'])} rows, expected {rows}"
        bad = [p for p, v in leaves(value)
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            return f"{name} holds a non-finite value at {bad[0]}"
        if ref_dir is not None and (ref_dir / name).is_file():
            ok, dev = compare(value, load_result(ref_dir / name))
            if not ok:
                return f"{name} differs from its reference (max dev {dev:.3g})"
    return None


def diff_dirs(a: Path, b: Path) -> tuple[bool, float]:
    """(byte-identical file sets, max absolute deviation over numbers of
    files present in both; inf when their structure differs)."""
    names_a = sorted(p.name for p in a.iterdir()) if a.is_dir() else []
    names_b = sorted(p.name for p in b.iterdir()) if b.is_dir() else []
    identical = names_a == names_b and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names_a
    )
    worst = 0.0 if names_a == names_b else math.inf
    for name in set(names_a) & set(names_b):
        if (a / name).read_bytes() == (b / name).read_bytes():
            continue
        try:
            _, dev = compare(load_result(a / name), load_result(b / name))
        except (ValueError, UnicodeDecodeError):
            dev = math.inf
        worst = max(worst, dev)
    return identical, worst

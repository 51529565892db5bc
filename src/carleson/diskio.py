"""Deterministic result emission: CSV tables and JSON summaries.

Every float is written with 17 significant digits, enough to round-trip
an IEEE double exactly, so reruns can be compared byte-for-byte.  JSON
keys are sorted and no timestamps or environment details are embedded;
two runs with the same configuration produce identical files no matter
how many workers computed the rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "format_value",
    "write_csv",
    "write_json",
]


def format_value(v) -> str:
    """One CSV cell: floats at 17 significant digits, ints verbatim."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (complex, np.complexfloating)):
        raise TypeError("split complex values into re/im columns")
    return str(v)


def write_csv(path, header, rows) -> None:
    """Plain comma-separated table with a mandatory header row."""
    header = list(header)
    lines = [",".join(header)]
    for row in rows:
        row = list(row)
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} != header width {len(header)}"
            )
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_json(path, obj) -> None:
    """Sorted, indented JSON; numpy scalars are written as the Python
    values they hold."""
    text = json.dumps(obj, sort_keys=True, indent=2, default=np.generic.item)
    Path(path).write_text(text + "\n", encoding="ascii")

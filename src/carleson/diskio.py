"""Deterministic result emission: CSV tables, JSON summaries, and a
flat binary layout for sampled grids and lattice functions.

Every float is written with 17 significant digits, enough to round-trip
an IEEE double exactly, so reruns can be compared byte-for-byte.  JSON
keys are sorted and no timestamps or environment details are embedded;
two runs with the same configuration produce identical files no matter
how many workers computed the rows.

Binary files share one payload convention: little-endian 64-bit floats,
complex values interleaved re, im in C order.  Headers are little-
endian 64-bit integers (plus one double for the modulation parameter of
a multiplier grid).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .multipliers import MultiplierGrid
from .operators import LatticeFunction

__all__ = [
    "format_value",
    "write_csv",
    "write_json",
    "write_grid_bin",
    "read_grid_bin",
    "write_lattice_bin",
    "read_lattice_bin",
    "write_lattice_csv",
]

_INT = np.dtype("<i8")
_FLOAT = np.dtype("<f8")


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


# ==================== binary layouts ====================


def _interleave(values: np.ndarray) -> np.ndarray:
    flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1)
    out = np.empty(2 * flat.shape[0], dtype=_FLOAT)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


def _deinterleave(raw: np.ndarray) -> np.ndarray:
    return raw[0::2] + 1j * raw[1::2]


def write_grid_bin(path, grid: MultiplierGrid) -> None:
    """Header: n, N, j as little-endian int64, lambda as float64;
    payload: N^n complex values interleaved re, im in C index order."""
    head = np.array([grid.n, grid.N, grid.j], dtype=_INT)
    lam = np.array([grid.lam], dtype=_FLOAT)
    with open(path, "wb") as fh:
        fh.write(head.tobytes())
        fh.write(lam.tobytes())
        fh.write(_interleave(grid.values).tobytes())


def read_grid_bin(path, kind: str = "m") -> MultiplierGrid:
    raw = Path(path).read_bytes()
    n, N, j = (int(t) for t in np.frombuffer(raw[:24], dtype=_INT))
    lam = float(np.frombuffer(raw[24:32], dtype=_FLOAT)[0])
    payload = np.frombuffer(raw[32:], dtype=_FLOAT)
    if payload.shape[0] != 2 * N**n:
        raise ConfigError(
            f"grid payload holds {payload.shape[0] // 2} values, "
            f"expected {N**n}"
        )
    values = _deinterleave(payload).reshape((N,) * n)
    return MultiplierGrid(n=n, N=N, j=j, lam=lam, kind=kind, values=values)


def write_lattice_bin(path, f: LatticeFunction) -> None:
    """Header: n, then center[n] and halfwidth[n], little-endian int64;
    payload in the same interleaved convention as multiplier grids."""
    head = np.array(
        [f.n, *f.center, *f.halfwidth], dtype=_INT
    )
    with open(path, "wb") as fh:
        fh.write(head.tobytes())
        fh.write(_interleave(f.values).tobytes())


def read_lattice_bin(path) -> LatticeFunction:
    raw = Path(path).read_bytes()
    n = int(np.frombuffer(raw[:8], dtype=_INT)[0])
    head = np.frombuffer(raw[8 : 8 + 16 * n], dtype=_INT)
    center = tuple(int(t) for t in head[:n])
    halfwidth = tuple(int(t) for t in head[n:])
    payload = np.frombuffer(raw[8 + 16 * n :], dtype=_FLOAT)
    shape = tuple(2 * h + 1 for h in halfwidth)
    count = int(np.prod(shape))
    if payload.shape[0] != 2 * count:
        raise ConfigError(
            f"lattice payload holds {payload.shape[0] // 2} values, "
            f"expected {count}"
        )
    values = _deinterleave(payload).reshape(shape)
    return LatticeFunction(
        n=n, center=center, halfwidth=halfwidth, values=values
    )


def write_lattice_csv(path, f: LatticeFunction) -> None:
    """One row per lattice site: coordinates, then re and im."""
    header = [f"x{k}" for k in range(f.n)] + ["re", "im"]
    rows = []
    for idx in np.ndindex(*f.values.shape):
        coords = [
            f.center[k] - f.halfwidth[k] + idx[k] for k in range(f.n)
        ]
        v = complex(f.values[idx])
        rows.append(coords + [v.real, v.imag])
    write_csv(path, header, rows)

"""Span tracing for the benchmark's traced run, from outside the program.

``Tracer.install`` wraps every public module-level function of each
``carleson`` module, plus ``numpy.fft.fftn`` and ``numpy.fft.ifftn``, and
rebinds every module-level name (and module-level dict value) that refers
to one of them, so a function imported by name into another module
(``from .accel import frac_mul``) is traced there too.  Each call records
one span: name, start, end, parent span, a failure flag, and two numbers a
probe derives from the call's arguments (``work`` and ``tag``, see
``_PROBES``).  Spans live in compact ``array`` columns, so a few hundred
thousand calls cost a few megabytes, and are written out once, by
``save``.

The tracer keeps one span stack, so it assumes one thread: the benchmark
runs every command at ``--workers 1``.

``layer_metrics`` turns saved span files into the per-layer metrics listed
in ``LAYER_METRICS``.  Work counts (elements, flops, bytes, distinct keys)
are computed from call arguments, not measured.
"""

from __future__ import annotations

import array
import functools
import importlib
import math
import os
import pkgutil
import time
import types
from fractions import Fraction

import numpy as np

# (metric, unit, better); the traced run reports exactly these names.
LAYER_METRICS = (
    ("oscint.phi.calls", "count", "lower"),
    ("oscint.phi.self_s", "s", "lower"),
    ("oscint.phi.ms_p50", "ms", "lower"),
    ("oscint.phi.ms_tail", "ms", "lower"),
    ("oscint.phi.tail_pct", "%", "higher"),
    ("oscint.phi.fails", "count", "lower"),
    ("oscint.vdc_profile.self_s", "s", "lower"),
    ("kernels.lattice.calls", "count", "lower"),
    ("kernels.lattice.hit_ratio", "ratio", "higher"),
    ("kernels.lattice.points_built", "count", "lower"),
    ("kernels.lattice.self_s", "s", "lower"),
    ("kernels.profile.self_s", "s", "lower"),
    ("multipliers.approx_error.calls", "count", "lower"),
    ("multipliers.approx_error.self_s", "s", "lower"),
    ("multipliers.m_lattice.calls", "count", "lower"),
    ("multipliers.m_lattice.self_s", "s", "lower"),
    ("multipliers.arc_terms.calls", "count", "lower"),
    ("multipliers.arc_terms.self_s", "s", "lower"),
    ("expsums.complete_weyl_sum.calls", "count", "lower"),
    ("expsums.complete_weyl_sum.distinct_ratio", "ratio", "higher"),
    ("expsums.complete_weyl_sum.self_s", "s", "lower"),
    ("expsums.weyl_table.calls", "count", "lower"),
    ("expsums.weyl_table.self_s", "s", "lower"),
    ("operators.carleson_apply.calls", "count", "lower"),
    ("operators.carleson_apply.self_s", "s", "lower"),
    ("operators.carleson_apply.ms_p50", "ms", "lower"),
    ("operators.carleson_apply.ms_tail", "ms", "lower"),
    ("operators.carleson_apply.tail_pct", "%", "higher"),
    ("operators.fft.calls", "count", "lower"),
    ("operators.fft.self_s", "s", "lower"),
    ("operators.fft.gflop", "GFLOP", "lower"),
    ("operators.fft.gflop_per_s", "GFLOP/s", "higher"),
    ("operators.kappa_table.calls", "count", "lower"),
    ("operators.kappa_table.self_s", "s", "lower"),
    ("accel.frac_mul.calls", "count", "lower"),
    ("accel.frac_mul.elems", "count", "lower"),
    ("accel.frac_mul.self_s", "s", "lower"),
    ("accel.frac_mul.melem_per_s", "Melem/s", "higher"),
    ("accel.frac_mul.distinct_ratio", "ratio", "higher"),
    ("accel.phase_weighted_sum.self_s", "s", "lower"),
    ("accel.weyl_phase_counts.self_s", "s", "lower"),
    ("rationals.calls", "count", "lower"),
    ("rationals.self_s", "s", "lower"),
    ("diskio.write.calls", "count", "lower"),
    ("diskio.write.bytes", "B", "lower"),
    ("diskio.write.self_s", "s", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("parallel.ordered_map.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.output_files_identical", "bool", "higher"),
    ("cli.output_max_abs_dev", "abs", "lower"),
    ("cli.approx_spread", "ratio", "lower"),
    ("cli.point_mass_residual_lo", "abs", "lower"),
    ("cli.point_mass_residual_hi", "abs", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Metric prefix -> span names it aggregates.  A name ending in "." matches
# every span of that module.
_GROUPS = {
    "oscint.phi": ("oscint.phi",),
    "oscint.vdc_profile": ("oscint.vdc_profile",),
    "kernels.lattice": (
        "kernels.lattice_arrays",
        "kernels.cumulative_lattice_arrays",
    ),
    # kernel profile evaluation: the cutoffs and the kernel itself
    "kernels.profile": (
        "kernels.eta",
        "kernels.psi_profile",
        "kernels.smooth_step",
        "kernels.kernel_piece",
        "kernels.kernel_value",
        "kernels.kernel_cumulative",
    ),
    "multipliers.approx_error": ("multipliers.approx_error",),
    "multipliers.m_lattice": ("multipliers.m_lattice",),
    "multipliers.arc_terms": (
        "multipliers.lsj_terms",
        "multipliers.sharp_terms",
        "multipliers.factorization_residual",
    ),
    "expsums.complete_weyl_sum": ("expsums.complete_weyl_sum",),
    "expsums.weyl_table": ("expsums.weyl_table",),
    "operators.carleson_apply": ("operators.carleson_apply",),
    "operators.fft": ("numpy.fft.fftn", "numpy.fft.ifftn"),
    "operators.kappa_table": ("operators.kappa_table",),
    "accel.frac_mul": ("accel.frac_mul",),
    "accel.phase_weighted_sum": ("accel.phase_weighted_sum",),
    "accel.weyl_phase_counts": ("accel.weyl_phase_counts",),
    "rationals": ("rationals.",),
    "diskio.write": (
        "diskio.write_csv",
        "diskio.write_json",
        "diskio.write_grid_bin",
        "diskio.write_lattice_bin",
        "diskio.write_lattice_csv",
    ),
    "config.load_config": ("config.load_config",),
    "parallel.ordered_map": ("parallel.ordered_map",),
    "cli.command": ("cli.cmd_",),
}

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

_SPAN_FIELDS = ("name", "parent", "start", "end", "work", "tag", "failed")


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.work = array.array("d")
        self.tag = array.array("q")
        self.failed = array.array("b")
        self._stack: list[int] = []
        self._undo: list[tuple[object, object, object]] = []
        self._keys: dict = {}
        self._pinned: dict = {}

    # ---- recording ----

    def intern(self, key) -> int:
        """Small integer id for a hashable key, stable within this tracer."""
        got = self._keys.get(key)
        if got is None:
            got = self._keys[key] = len(self._keys)
        return got

    def array_identity(self, arr) -> tuple:
        """Identity of the memory an array views (the lattice it belongs
        to); the owner is kept alive so its id cannot be reused."""
        arr = np.asarray(arr)
        key = (arr.__array_interface__["data"][0], arr.shape, arr.strides)
        if key not in self._pinned:
            self._pinned[key] = arr
        return key

    def wrap(self, name: str, fn, probe=None):
        """fn wrapped so each call records a span called name.  probe, if
        given, is (pre, post): pre(args, kwargs) runs before the call and
        post(tracer, args, kwargs, result, pre_state) -> (work, tag)
        after it."""
        self.names.append(name)
        nid = len(self.names) - 1
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        works, tags, failed = self.work, self.tag, self.failed
        clock = time.perf_counter_ns
        pre, post = probe if probe is not None else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            works.append(0.0)
            tags.append(0)
            failed.append(0)
            state = pre(args, kwargs) if pre is not None else None
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                works[idx], tags[idx] = post(self, args, kwargs, result, state)
            return result

        return traced

    # ---- installation ----

    def install(self, package: str = "carleson") -> None:
        """Wrap and rebind the package's public functions and numpy's
        n-dimensional FFTs; ``uninstall`` undoes it."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__
                    or id(obj) in wrapped
                ):
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, _PROBES.get(name))
        for attr in ("fftn", "ifftn"):
            fn = getattr(np.fft, attr)
            name = f"numpy.fft.{attr}"
            wrapped[id(fn)] = self.wrap(name, fn, _PROBES.get(name))
            self._rebind(np.fft, attr, wrapped[id(fn)])
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._rebind(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append((obj, key, value))
                            obj[key] = wrapped[id(value)]

    def _rebind(self, mod, attr, value) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # ---- output ----

    def save(self, path) -> None:
        columns = {f: np.asarray(getattr(self, f)) for f in _SPAN_FIELDS}
        np.savez(path, names=np.array(self.names, dtype=str), **columns)


# ==================== probes: work and tag per call ====================


def _frac_mul_post(tracer, args, kwargs, result, state):
    lam, nvals = args[0], args[1]
    key = ("frac_mul", float(lam), tracer.array_identity(nvals))
    return float(np.size(nvals)), tracer.intern(key)


def _weyl_post(tracer, args, kwargs, result, state):
    key = ("complete_weyl_sum", args, tuple(sorted(kwargs.items())))
    return 0.0, tracer.intern(key)


def _lattice_pre(args, kwargs):
    return len(importlib.import_module("carleson.kernels")._LATTICE_CACHE)


def _lattice_post(tracer, args, kwargs, result, before):
    """work = points built on a miss; tag = 1 on a cache hit."""
    after = len(importlib.import_module("carleson.kernels")._LATTICE_CACHE)
    if after > before:
        return float(len(result[0])), 0
    return 0.0, 1


def _write_post(tracer, args, kwargs, result, state):
    return float(os.path.getsize(args[0])), 0


def _fft_post(tracer, args, kwargs, result, state):
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    return fft_flops(result.shape, axes), 0


_LATTICE = (_lattice_pre, _lattice_post)
_WRITE = (None, _write_post)
_PROBES = {
    "accel.frac_mul": (None, _frac_mul_post),
    "expsums.complete_weyl_sum": (None, _weyl_post),
    "kernels.lattice_arrays": _LATTICE,
    "kernels.cumulative_lattice_arrays": _LATTICE,
    "numpy.fft.fftn": (None, _fft_post),
    "numpy.fft.ifftn": (None, _fft_post),
    **{name: _WRITE for name in _GROUPS["diskio.write"]},
}


def fft_flops(shape, axes=None) -> float:
    """Computed flops of a complex FFT over axes of an array of this
    shape: 5 N log2 N per transform of N points, times the batch count."""
    shape = tuple(int(s) for s in shape)
    axes = range(len(shape)) if axes is None else axes
    points = math.prod(shape[a] for a in axes)
    if points <= 1:
        return 0.0
    batch = math.prod(shape) // points
    return 5.0 * points * math.log2(points) * batch


# ==================== analysis ====================


def load(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its child spans."""
    start = np.asarray(start, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of a percentile, in exact decimal arithmetic."""
    return max(1, math.ceil(Fraction(str(pct)) * count / 100))


def rank_value(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(count: int):
    """Highest percentile in TAIL_LADDER with at least TAIL_MIN_BEYOND
    calls ranked above its nearest-rank value, or None if too few calls."""
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= TAIL_MIN_BEYOND:
            return pct
    return None


def _matches(name: str, patterns) -> bool:
    return any(
        name.startswith(p) if p.endswith((".", "_")) else name == p
        for p in patterns
    )


def layer_metrics(traces) -> dict:
    """Per-layer metrics from loaded span sets (one per process)."""
    stats = {g: {"calls": 0, "self": 0, "fails": 0, "work": 0.0, "tag": 0,
                 "distinct": 0, "durs": []} for g in _GROUPS}
    spans = 0
    for tr in traces:
        spans += len(tr["name"])
        selfs = self_times(tr["start"], tr["end"], tr["parent"])
        durs = tr["end"] - tr["start"]
        for group, patterns in _GROUPS.items():
            ids = [i for i, n in enumerate(tr["names"]) if _matches(str(n), patterns)]
            mask = np.isin(tr["name"], ids)
            st = stats[group]
            st["calls"] += int(mask.sum())
            st["self"] += int(selfs[mask].sum())
            st["fails"] += int(tr["failed"][mask].sum())
            st["work"] += float(tr["work"][mask].sum())
            st["tag"] += int(tr["tag"][mask].sum())
            st["distinct"] += len(np.unique(tr["tag"][mask]))
            st["durs"].extend(durs[mask].tolist())

    out = {}
    for group, st in stats.items():
        calls = st["calls"]
        self_s = st["self"] / 1e9
        out[f"{group}.calls"] = calls
        out[f"{group}.self_s"] = self_s
        out[f"{group}.fails"] = st["fails"]
        durs = sorted(st["durs"])
        out[f"{group}.ms_p50"] = rank_value(durs, 50.0) / 1e6 if durs else 0.0
        pct = tail_percentile(calls)
        out[f"{group}.tail_pct"] = pct or 0.0
        out[f"{group}.ms_tail"] = rank_value(durs, pct) / 1e6 if pct else 0.0
        out[f"{group}.distinct_ratio"] = st["distinct"] / calls if calls else 0.0
        out[f"{group}.hit_ratio"] = st["tag"] / calls if calls else 0.0
        out[f"{group}.work"] = st["work"]
    out["kernels.lattice.points_built"] = int(out["kernels.lattice.work"])
    out["accel.frac_mul.elems"] = int(out["accel.frac_mul.work"])
    fm_self = out["accel.frac_mul.self_s"]
    out["accel.frac_mul.melem_per_s"] = (
        out["accel.frac_mul.elems"] / fm_self / 1e6 if fm_self else 0.0
    )
    out["operators.fft.gflop"] = out["operators.fft.work"] / 1e9
    fft_self = out["operators.fft.self_s"]
    out["operators.fft.gflop_per_s"] = (
        out["operators.fft.gflop"] / fft_self if fft_self else 0.0
    )
    out["diskio.write.bytes"] = int(out["diskio.write.work"])
    out["trace.spans"] = spans
    return out

"""Experiment configuration: a flat key = value file format, command-
line overrides, and validation of every field before any compute runs.

The file format is one `key = value` assignment per line with `#`
comments; every key can also be supplied as a `--key value` flag, and
flags win over the file.  Unknown keys are rejected rather than
ignored, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .kernels import KernelFamily, make_kernel
from .oscint import QuadratureSpec
from .rationals import ArcParams

__all__ = [
    "ExperimentConfig",
    "parse_config_text",
    "load_config",
    "VERIFY_SUITES",
    "FAULT_KEYS",
]

VERIFY_SUITES = (
    "partition",
    "symmetry",
    "orthogonality",
    "disjointness",
    "factorization",
    "kappa",
    "rm",
    "decay",
)

FAULT_KEYS = ("none", "chi_tilde_shrink")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of the command-line front end, with defaults sized
    for a desk-scale run of each command."""

    kernel: str = "sign"
    kernel_param: int = -1  # -1 selects the family default
    d: int = 1
    n: int = 1
    eps1: float = 0.25
    eps2: float = 0.3
    j_lo: int = 6
    j_hi: int = 11
    s_hi: int = 3
    q_max: int = 8
    lambda_count: int = 4096
    samples: int = 200
    profile_points: int = 1000
    w_max: int = 24
    trials: int = 50
    radius: int = 64
    carleson_j: int = 6
    carleson_j2: int = 8
    quad_resolution: float = 8.0
    quad_max_depth: int = 12
    quad_tol: float = 1e-10
    quad_node_budget: int = 1 << 22
    seed: int = 2025
    workers: int = 1
    budget: int = 10**8
    out: str = "results"
    suite: str = "all"
    fault: str = "none"

    def __post_init__(self):
        if self.kernel not in ("sign", "riesz", "harmonic"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.d < 1 or self.n < 1:
            raise ConfigError(f"need d, n >= 1, got d={self.d}, n={self.n}")
        if not 0.0 < self.eps1 < self.eps2 < 1.0:
            raise ConfigError(
                f"need 0 < eps1 < eps2 < 1, got {self.eps1}, {self.eps2}"
            )
        if self.j_lo < 1 or self.j_hi < self.j_lo:
            raise ConfigError(
                f"need 1 <= j_lo <= j_hi, got [{self.j_lo}, {self.j_hi}]"
            )
        if self.s_hi < 1:
            raise ConfigError(f"s_hi must be >= 1, got {self.s_hi}")
        if self.q_max < 1:
            raise ConfigError(f"q_max must be >= 1, got {self.q_max}")
        if self.lambda_count < 1:
            raise ConfigError(
                f"lambda_count must be >= 1, got {self.lambda_count}"
            )
        if min(self.samples, self.profile_points, self.trials) < 1:
            raise ConfigError("samples, profile_points, trials must be >= 1")
        if self.w_max < 0:
            raise ConfigError(f"w_max must be >= 0, got {self.w_max}")
        if self.radius < 1:
            raise ConfigError(f"radius must be >= 1, got {self.radius}")
        if self.carleson_j < 1 or self.carleson_j2 < self.carleson_j:
            raise ConfigError(
                "need 1 <= carleson_j <= carleson_j2, got "
                f"{self.carleson_j}, {self.carleson_j2}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.fault not in FAULT_KEYS:
            raise ConfigError(f"unknown fault {self.fault!r}; use {FAULT_KEYS}")
        for name in self.suites():
            if name not in VERIFY_SUITES:
                raise ConfigError(
                    f"unknown suite {name!r}; use {VERIFY_SUITES}"
                )
        try:
            self.quad()
            self.family()
            self.arc_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # ---- derived objects ----

    def family(self) -> KernelFamily:
        param = None if self.kernel_param < 0 else self.kernel_param
        return make_kernel(self.kernel, self.n, self.d, param)

    def arc_params(self) -> ArcParams:
        return ArcParams(d=self.d, n=self.n, eps1=self.eps1, eps2=self.eps2)

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(
            resolution=self.quad_resolution,
            max_depth=self.quad_max_depth,
            tol=self.quad_tol,
            node_budget=self.quad_node_budget,
        )

    def suites(self) -> tuple[str, ...]:
        if self.suite == "all":
            return VERIFY_SUITES
        return tuple(t.strip() for t in self.suite.split(",") if t.strip())


_FIELD_TYPES = {
    f.name: f.type for f in dataclasses.fields(ExperimentConfig)
}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw, 0)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """Key/value pairs from flat config text; raises on unknown or
    repeated keys and on lines that are not assignments."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        pairs[key] = _coerce(key, raw)
    return pairs


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """File pairs, then override pairs (raw strings), then validation."""
    pairs = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        pairs.update(parse_config_text(p.read_text(encoding="utf-8")))
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        pairs[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    return ExperimentConfig(**pairs)

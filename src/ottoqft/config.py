"""Flat key=value configuration for sweeps and verification runs.

Documents are line oriented, UTF-8, with ``#`` comments; keys are
case-sensitive and unknown keys are rejected with their line number.
Command-line ``--set key=value`` entries override file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .verification import DEFAULT_TOLERANCES

__all__ = ["Axis", "SweepSpec", "ConfigError", "parse_config", "MODES"]

MODES = ("curve-tau2", "grid-couplings", "single-point", "verify")

_FLOAT_KEYS = {
    "omega1", "omega2", "tau1", "tau2", "lambda1", "lambda2",
    "tau2_start", "tau2_stop",
    "lambda1_start", "lambda1_stop", "lambda2_start", "lambda2_stop",
    "initial_p",
}
_INT_KEYS = {"tau2_count", "lambda1_count", "lambda2_count", "seed", "cases", "dim"}
_STR_KEYS = {"mode", "output"}
_TOL_KEYS = {f"tol_{name}" for name in DEFAULT_TOLERANCES}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _TOL_KEYS

_REQUIRED = {
    "curve-tau2": ("omega1", "omega2", "tau1", "lambda1", "lambda2",
                   "tau2_start", "tau2_stop", "tau2_count", "output"),
    "grid-couplings": ("omega1", "omega2", "tau1", "tau2",
                       "lambda1_start", "lambda1_stop", "lambda1_count",
                       "lambda2_start", "lambda2_stop", "lambda2_count", "output"),
    "single-point": ("omega1", "omega2", "tau1", "tau2", "lambda1", "lambda2"),
    "verify": (),
}

_ALLOWED = {
    "curve-tau2": set(_REQUIRED["curve-tau2"]),
    "grid-couplings": set(_REQUIRED["grid-couplings"]),
    "single-point": set(_REQUIRED["single-point"]) | {"initial_p"},
    "verify": {"seed", "cases", "dim"} | _TOL_KEYS,
}


class ConfigError(ValueError):
    """Invalid configuration document or override."""


@dataclass(frozen=True)
class Axis:
    """One swept variable: count evenly spaced points from start to stop."""

    start: float
    stop: float
    count: int

    def points(self) -> list[float]:
        n = self.count - 1
        step = (self.stop - self.start) / n
        if step == math.inf:  # a span beyond the float range: divide each end first
            return [self.start + i * (self.stop / n) - i * (self.start / n) for i in range(n)] + [self.stop]
        return [self.start + i * step for i in range(n)] + [self.stop]


@dataclass(frozen=True)
class SweepSpec:
    """Fully validated run description for one CLI invocation."""

    mode: str
    omega1: Optional[float] = None
    omega2: Optional[float] = None
    tau1: Optional[float] = None
    tau2: Optional[float] = None
    lambda1: Optional[float] = None
    lambda2: Optional[float] = None
    tau2_axis: Optional[Axis] = None
    lambda1_axis: Optional[Axis] = None
    lambda2_axis: Optional[Axis] = None
    initial_p: Optional[float] = None
    output_path: Optional[str] = None
    seed: Optional[int] = None
    cases: Optional[int] = None
    dim: Optional[int] = None
    tolerance_overrides: dict[str, float] = field(default_factory=dict)


def _parse_lines(text: str) -> dict[str, tuple[str, str]]:
    """key -> (raw value, source label); rejects unknown and duplicate keys."""
    entries: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        entries[key] = (value, f"line {lineno}")
    return entries


def _apply_overrides(entries: dict[str, tuple[str, str]], overrides: Iterable[str]) -> None:
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"--set #{i}: expected key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"--set #{i}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"--set #{i}: empty value for key {key!r}")
        entries[key] = (value, f"--set #{i}")


def _number(entries: dict, key: str, kind: str) -> object:
    value, source = entries[key]
    try:
        if kind == "int":
            return int(value)
        return float(value)
    except ValueError:
        raise ConfigError(f"{source}: key {key!r}: cannot parse {value!r} as {kind}") from None


def _fail_range(entries: dict, key: str, requirement: str) -> None:
    _, source = entries[key]
    raise ConfigError(f"{source}: key {key!r} out of range: must be {requirement}")


def parse_config(text: str, overrides: Iterable[str] = ()) -> SweepSpec:
    """Parse and validate a configuration document plus --set overrides."""
    entries = _parse_lines(text)
    _apply_overrides(entries, overrides)

    if "mode" not in entries:
        raise ConfigError("missing key: mode")
    mode = entries["mode"][0]
    if mode not in MODES:
        raise ConfigError(
            f"{entries['mode'][1]}: key 'mode' must be one of {', '.join(MODES)}, got {mode!r}"
        )

    allowed = _ALLOWED[mode] | {"mode"}
    for key in entries:
        if key not in allowed:
            raise ConfigError(
                f"{entries[key][1]}: key {key!r} is not valid in mode {mode!r}"
            )
    for key in _REQUIRED[mode]:
        if key not in entries:
            raise ConfigError(f"missing key: {key}")

    values: dict[str, object] = {}
    for key in entries:
        if key == "mode" or key == "output":
            continue
        if key in _INT_KEYS:
            values[key] = _number(entries, key, "int")
        else:
            number = _number(entries, key, "float")
            if not math.isfinite(number):
                _fail_range(entries, key, "finite")
            values[key] = number

    for key in ("omega1", "omega2"):
        if key in values and not values[key] > 0.0:
            _fail_range(entries, key, "> 0")
    for key in ("lambda1", "lambda2", "lambda1_start", "lambda1_stop",
                "lambda2_start", "lambda2_stop"):
        if key in values and values[key] < 0.0:
            _fail_range(entries, key, ">= 0")
    for key in ("tau2_count", "lambda1_count", "lambda2_count"):
        if key in values and values[key] < 2:
            _fail_range(entries, key, ">= 2")
    for key in ("cases", "dim"):
        if key in values and values[key] < 2:
            _fail_range(entries, key, ">= 2")
    if "initial_p" in values and not 0.0 <= values["initial_p"] <= 1.0:
        _fail_range(entries, "initial_p", "in [0, 1]")
    for prefix in ("tau2", "lambda1", "lambda2"):
        start, stop = f"{prefix}_start", f"{prefix}_stop"
        if start in values and not values[start] < values[stop]:
            _fail_range(entries, start, f"< {stop}")
    for key in _TOL_KEYS:
        if key in values and values[key] < 0.0:
            _fail_range(entries, key, ">= 0")

    if mode == "curve-tau2" and not values["tau2_start"] > values["tau1"]:
        _fail_range(entries, "tau2_start", "> tau1 (second kick strictly later)")
    if mode in ("grid-couplings", "single-point") and not values["tau2"] > values["tau1"]:
        _fail_range(entries, "tau2", "> tau1 (second kick strictly later)")

    def axis(prefix: str) -> Optional[Axis]:
        if f"{prefix}_start" not in values:
            return None
        return Axis(
            start=float(values[f"{prefix}_start"]),
            stop=float(values[f"{prefix}_stop"]),
            count=int(values[f"{prefix}_count"]),
        )

    return SweepSpec(
        mode=mode,
        omega1=values.get("omega1"),
        omega2=values.get("omega2"),
        tau1=values.get("tau1"),
        tau2=values.get("tau2"),
        lambda1=values.get("lambda1"),
        lambda2=values.get("lambda2"),
        tau2_axis=axis("tau2"),
        lambda1_axis=axis("lambda1"),
        lambda2_axis=axis("lambda2"),
        initial_p=values.get("initial_p"),
        output_path=entries["output"][0] if "output" in entries else None,
        seed=values.get("seed"),
        cases=values.get("cases"),
        dim=values.get("dim"),
        tolerance_overrides={
            name: float(values[f"tol_{name}"])
            for name in DEFAULT_TOLERANCES
            if f"tol_{name}" in values
        },
    )

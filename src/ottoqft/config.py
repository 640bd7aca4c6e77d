"""Flat key=value configuration for sweeps and verification runs.

Documents are line oriented, UTF-8, with ``#`` comments; keys are
case-sensitive and an unknown key is rejected with its line or ``--set #N``.
Command-line ``--set key=value`` entries override file values, not the mode.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

from .record import Record, factory

__all__ = ["Axis", "SweepSpec", "ConfigError", "parse_config", "MODES", "DEFAULT_TOLERANCES"]

# verify's checks and their default thresholds; each is a tol_<check> key
DEFAULT_TOLERANCES: dict[str, float] = {
    "fock_p1": 1e-8,
    "fock_p2": 1e-6,
    "weyl_moments": 1e-8,
    "weyl_partition": 1e-12,
    "appendix_identities": 1e-12,
    "quadrature_kernel": 1e-3,  # relative
    "dawson_spot": 1e-12,
    "first_law": 1e-12,
    "fixed_point": 1e-12,
    "no_signaling": 0.0,  # exact zero
    "thermal_e12": 1e-15,
}
_TOL_KEYS = tuple(f"tol_{name}" for name in DEFAULT_TOLERANCES)

# mode -> (the keys it requires, the keys it allows besides them and mode)
_MODE_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "curve-tau2": (("omega1", "omega2", "tau1", "lambda1", "lambda2",
                    "tau2_start", "tau2_stop", "tau2_count", "output"), ()),
    "grid-couplings": (("omega1", "omega2", "tau1", "tau2",
                        "lambda1_start", "lambda1_stop", "lambda1_count",
                        "lambda2_start", "lambda2_stop", "lambda2_count", "output"), ()),
    "single-point": (("omega1", "omega2", "tau1", "tau2", "lambda1", "lambda2"), ("initial_p",)),
    "verify": ((), ("seed", "cases", "dim", *_TOL_KEYS)),
}
MODES = tuple(_MODE_KEYS)

# a range requirement: the text a diagnostic prints after "must be", and a
# test of the value given the values parsed before it
_FINITE = ("finite", lambda value, parsed: math.isfinite(value))
_POSITIVE = ("> 0", lambda value, parsed: value > 0.0)
_NON_NEGATIVE = (">= 0", lambda value, parsed: value >= 0)
_AT_LEAST_TWO = (">= 2", lambda value, parsed: value >= 2)
_AFTER_TAU1 = ("> tau1 (second kick strictly later)", lambda value, parsed: value > parsed["tau1"])


def _below(key: str) -> tuple:
    return (f"< {key}", lambda value, parsed: value < parsed[key])


# key -> (type, range requirements); parse_config checks the keys in this
# order, so a requirement reads only keys above it. Floats must be finite.
_KEYS: dict[str, tuple] = {
    "mode": (str,),
    "output": (str,),
    "omega1": (float, _POSITIVE),
    "omega2": (float, _POSITIVE),
    "tau1": (float,),
    "tau2": (float, _AFTER_TAU1),
    "lambda1": (float, _NON_NEGATIVE),
    "lambda2": (float, _NON_NEGATIVE),
    "initial_p": (float, ("in [0, 1]", lambda value, parsed: 0.0 <= value <= 1.0)),
    "tau2_stop": (float,),
    "tau2_start": (float, _below("tau2_stop"), _AFTER_TAU1),
    "tau2_count": (int, _AT_LEAST_TWO),
    "lambda1_stop": (float, _NON_NEGATIVE),
    "lambda1_start": (float, _NON_NEGATIVE, _below("lambda1_stop")),
    "lambda1_count": (int, _AT_LEAST_TWO),
    "lambda2_stop": (float, _NON_NEGATIVE),
    "lambda2_start": (float, _NON_NEGATIVE, _below("lambda2_stop")),
    "lambda2_count": (int, _AT_LEAST_TWO),
    "seed": (int, _NON_NEGATIVE),
    "cases": (int, (">= 1", lambda value, parsed: value >= 1)),
    "dim": (int, _AT_LEAST_TWO),
    **{key: (float, _NON_NEGATIVE) for key in _TOL_KEYS},
}


class ConfigError(ValueError):
    """Invalid configuration document or override."""


class Axis(Record):
    """One swept variable: count evenly spaced points from start to stop."""

    start: float
    stop: float
    count: int

    def points(self) -> Iterator[float]:
        """The points in order, one at a time: a long axis is never held whole."""
        n = self.count - 1
        step = (self.stop - self.start) / n
        if step == math.inf:  # a span beyond the float range: divide each end first
            yield from (self.start + i * (self.stop / n) - i * (self.start / n) for i in range(n))
        else:
            yield from (self.start + i * step for i in range(n))
        yield self.stop


class SweepSpec(Record):
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
    tolerance_overrides: dict[str, float] = factory(dict)


def _read(text: str, overrides: Iterable[str]) -> dict[str, tuple[str, str]]:
    """key -> (raw value, source label): the file lines, then the --set entries."""
    lines = [(f"line {n}", raw.split("#", 1)[0].strip(), f"'key = value', got {raw.strip()!r}")
             for n, raw in enumerate(text.splitlines(), start=1)]
    sets = [(f"--set #{i}", item, f"key=value, got {item!r}")
            for i, item in enumerate(overrides, start=1)]
    entries: dict[str, tuple[str, str]] = {}
    for source, item, form in [line for line in lines if line[1]] + sets:
        if "=" not in item:
            raise ConfigError(f"{source}: expected {form}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}")
        if key in entries and source.startswith("line"):  # a --set may override, a line may not
            raise ConfigError(f"{source}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}: empty value for key {key!r}")
        if key == "mode" and key in entries and value != entries[key][0]:
            raise ConfigError(f"{source}: key 'mode' must be {entries[key][0]!r}, got {value!r}")
        entries[key] = (value, source)
    return entries


def parse_config(text: str, overrides: Iterable[str] = ()) -> SweepSpec:
    """Parse and validate a configuration document plus --set overrides."""
    entries = _read(text, overrides)

    if "mode" not in entries:
        raise ConfigError("missing key: mode")
    mode = entries["mode"][0]
    if mode not in MODES:
        raise ConfigError(
            f"{entries['mode'][1]}: key 'mode' must be one of {', '.join(MODES)}, got {mode!r}"
        )

    required, optional = _MODE_KEYS[mode]
    allowed = {"mode", *required, *optional}
    for key in entries:
        if key not in allowed:
            raise ConfigError(
                f"{entries[key][1]}: key {key!r} is not valid in mode {mode!r}"
            )
    for key in required:
        if key not in entries:
            raise ConfigError(f"missing key: {key}")

    values: dict[str, object] = {}
    for key, (kind, *requirements) in _KEYS.items():
        if key not in entries:
            continue
        raw, source = entries[key]
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"{source}: key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None
        for requirement, test in (_FINITE, *requirements) if kind is float else requirements:
            if not test(value, values):
                raise ConfigError(f"{source}: key {key!r} out of range: must be {requirement}")
        values[key] = value

    axes = {f"{prefix}_axis": Axis(values.pop(f"{prefix}_start"), values.pop(f"{prefix}_stop"),
                                   values.pop(f"{prefix}_count"))
            for prefix in ("tau2", "lambda1", "lambda2") if f"{prefix}_start" in values}
    tolerances = {key[len("tol_"):]: values.pop(key) for key in _TOL_KEYS if key in values}
    return SweepSpec(output_path=values.pop("output", None), tolerance_overrides=tolerances,
                     **axes, **values)

"""The benchmark's workloads and the checks made on every output.

A sweep workload is a config document; its expected CSV shape (header, row
count, grid order) is derived here from that document, independently of
the program.  Spot checks re-evaluate a seeded sample of rows with the
scalar public API (``minkowski_moments`` + ``stroke_ledger``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

CURVE_COLUMNS = (
    "tau2_over_sigma", "theta", "nu1", "nu2", "E12", "mu12",
    "p_cyclic", "p1", "w_ext_sigma", "pwc",
)
GRID_COLUMNS = ("lambda1_over_sigma", "lambda2_over_sigma", "w_ext_sigma", "pwc")

# rows re-evaluated with the scalar API per checked CSV
SPOT_ROWS = 64
# a spot value may differ from the scalar API by this much (relative to
# max(1, |value|)); at the commit that defined the benchmark every value is
# bit-identical and the report counts exact matches separately
SPOT_TOL = 1e-14
# grid coordinates are compared with this relative tolerance; the CSV
# bytes themselves are compared exactly between invocations
GRID_TOL = 1e-12

_FIG4A = (
    ("mode", "curve-tau2"),
    ("omega1", "1.0"), ("omega2", "3.0"), ("tau1", "0.0"),
    ("lambda1", "100.0"), ("lambda2", "1.0"),
    ("tau2_start", "0.05"), ("tau2_stop", "8.0"), ("tau2_count", "200"),
)
_CURVE_DENSE = (
    ("mode", "curve-tau2"),
    ("omega1", "1.0"), ("omega2", "3.0"), ("tau1", "0.0"),
    ("lambda1", "100.0"), ("lambda2", "1.0"),
    ("tau2_start", "0.05"), ("tau2_stop", "12.0"), ("tau2_count", "20000"),
)
_GRID_STRESS = (
    ("mode", "grid-couplings"),
    ("omega1", "1.0"), ("omega2", "3.0"), ("tau1", "0.0"), ("tau2", "1.5"),
    ("lambda1_start", "0.5"), ("lambda1_stop", "100.0"), ("lambda1_count", "1001"),
    ("lambda2_start", "0.0"), ("lambda2_stop", "3.0"), ("lambda2_count", "61"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "verify"
    config: tuple[tuple[str, str], ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4a", "sweep", _FIG4A),
        Workload("grid-stress", "sweep", _GRID_STRESS),
        Workload("curve-dense", "sweep", _CURVE_DENSE),
        Workload("verify", "verify"),
    )
}


def split_sets(sets: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for item in sets:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        pairs.append((key.strip(), value.strip()))
    return pairs


def sweep_values(workload: Workload, sets: list[str]) -> dict[str, str]:
    """The workload's config with --set overrides applied."""
    values = dict(workload.config)
    values.update(split_sets(sets))
    return values


def config_text(values: dict[str, str], output: str) -> str:
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines.append(f"output = {output}")
    return "\n".join(lines) + "\n"


def cli_args(workload: Workload, config_path: str, seed: int, sets: list[str]) -> list[str]:
    """Arguments after ``python -m ottoqft.cli``, as a user types them."""
    if workload.command == "sweep":
        return ["sweep", "--config", config_path]
    args = ["verify", "--set", f"seed={seed}"]
    for item in sets:
        args += ["--set", item]
    return args


def _axis(values: dict[str, str], prefix: str) -> list[float]:
    start = float(values[f"{prefix}_start"])
    stop = float(values[f"{prefix}_stop"])
    count = int(values[f"{prefix}_count"])
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def expected_shape(values: dict[str, str]) -> tuple[tuple[str, ...], int]:
    """(header, row count) implied by a sweep config."""
    if values["mode"] == "curve-tau2":
        return CURVE_COLUMNS, int(values["tau2_count"])
    return GRID_COLUMNS, int(values["lambda1_count"]) * int(values["lambda2_count"])


def _grid_coordinates(values: dict[str, str]):
    if values["mode"] == "curve-tau2":
        for tau2 in _axis(values, "tau2"):
            yield (tau2,)
    else:
        lambda2_axis = _axis(values, "lambda2")
        for lambda1 in _axis(values, "lambda1"):
            for lambda2 in lambda2_axis:
                yield (lambda1, lambda2)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_sweep_csv(text: str, values: dict[str, str], seed: int, api) -> tuple[list[str], dict]:
    """Check one CSV document against its config; returns (problems, counts)."""
    header, rows = expected_shape(values)
    lines = text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"], {}
    lines.pop()
    if tuple(lines[0].split(",")) != header:
        return [f"CSV header {lines[0]!r} differs from {','.join(header)!r}"], {}
    body = lines[1:]
    if len(body) != rows:
        return [f"CSV has {len(body)} rows, config implies {rows}"], {}
    problems: list[str] = []
    width = len(header)
    for index, (line, coords) in enumerate(zip(body, _grid_coordinates(values))):
        fields = line.split(",")
        if len(fields) != width:
            problems.append(f"row {index}: {len(fields)} fields, expected {width}")
            break
        if not all(_close(float(f), c, GRID_TOL) for f, c in zip(fields, coords)):
            problems.append(f"row {index}: grid coordinates {fields[:len(coords)]} out of order")
            break
    if problems:
        return problems, {}
    sample = sorted(random.Random(seed).sample(range(rows), min(SPOT_ROWS, rows)))
    exact = total = 0
    for index in sample:
        fields = body[index].split(",")
        reference = _reference_row(api, values, [float(f) for f in fields[:-1]])
        for column, got, want in zip(header, fields, reference):
            total += 1
            if isinstance(want, bool):
                ok = got == ("true" if want else "false")
                exact += ok
            else:
                value = float(got)
                exact += value == want
                ok = _close(value, want, SPOT_TOL)
            if not ok:
                problems.append(f"row {index} column {column}: CSV {got} vs scalar API {want!r}")
    return problems, {"spot_rows": len(sample), "spot_values": total, "spot_exact": exact}


def _reference_row(api, values: dict[str, str], parsed: list[float]) -> tuple:
    omega1, omega2 = float(values["omega1"]), float(values["omega2"])
    tau1 = float(values["tau1"])
    if values["mode"] == "curve-tau2":
        tau2 = parsed[0]
        lambda1, lambda2 = float(values["lambda1"]), float(values["lambda2"])
    else:
        lambda1, lambda2 = parsed[0], parsed[1]
        tau2 = float(values["tau2"])
    m = api.minkowski_moments(api.MinkowskiParams(lambda1=lambda1, lambda2=lambda2, dtau=tau2 - tau1))
    config = api.CycleConfig(
        first=api.InteractionEvent(tau=tau1, gap=omega1, coupling=lambda1),
        second=api.InteractionEvent(tau=tau2, gap=omega2, coupling=lambda2),
    )
    report = api.stroke_ledger(config, m)
    w = report.w_ext if report.w_ext is not None else 0.0
    if values["mode"] == "curve-tau2":
        return (tau2, api.theta(config), m.nu1, m.nu2, m.e12, m.mu12,
                report.p, report.p1, w, report.pwc)
    return (lambda1, lambda2, w, report.pwc)


_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed")


def check_verify_output(status: int, stdout: str) -> list[str]:
    """``ottoqft verify`` must exit 0 and print an all-passed summary line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    problems = []
    if status != 0:
        problems.append(f"verify exited {status}")
    match = _SUMMARY.match(lines[-1]) if lines else None
    if match is None or match.group(1) != match.group(2) or "FAILURES" in lines[-1]:
        problems.append(f"no all-passed summary line: {lines[-1] if lines else ''!r}")
    return problems


"""Smoke check of the benchmark harness at tiny sizes.

    python3 bench/smoke.py

Runs every workload on a tiny grid, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed, by name and with its unit;
that a deliberately failing invocation (``verify --set tol_dawson_spot=0``
exits 2) is counted as failed; and that the harness refuses to run without
the program's sources.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["bench/run.py", "--seed", "5", "--seconds", "1"]

TINY = {
    "fig4a": ["tau2_count=20"],
    "grid-stress": ["lambda1_count=11", "lambda2_count=7"],
    "curve-dense": ["tau2_count=300"],
    "verify": [],
}


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict, str]:
    """(last-line result, detail line, readable report) of one benchmark run."""
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), "\n".join(lines[:-2])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems: list[str] = []

    for workload, sets in TINY.items():
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            argv = [*RUN, "--workload", workload, "--trace", str(trace)]
            for item in sets:
                argv += ["--set", item]
            proc = run(argv)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result, _, report = result_of(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{label}: not correct: {report[-800:]}")
            for entry in declared[trace]:
                got = result["metrics"].get(entry["name"])
                if got is None or got.get("unit") != entry["unit"]:
                    problems.append(f"{label}: metric {entry['name']} missing or unit {got}")
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {entry['name']} value {got.get('value')!r}")
                if entry["name"] not in report:
                    problems.append(f"{label}: {entry['name']} not in the printed report")
            extra = set(result["metrics"]) - {entry["name"] for entry in declared[trace]}
            if extra:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
            if trace == 0 and "failed_frac" not in report:
                problems.append(f"{label}: failed_frac not printed")

    proc = run([*RUN, "--workload", "verify", "--set", "tol_dawson_spot=0"])
    if proc.returncode != 0:
        problems.append(f"failing verify: harness exit {proc.returncode}")
    else:
        result, detail, _ = result_of(proc)
        attempted, failed = result["attempted"], result["failed"]
        if result["correct"] or failed != attempted or attempted < 1:
            problems.append(f"failing verify: counted {failed}/{attempted} failed")
        if detail["detail"]["failed_frac"] != failed / attempted:
            problems.append(f"failing verify: failed_frac {detail['detail']['failed_frac']}")

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run([*RUN, "--workload", "fig4a"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

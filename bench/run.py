"""Benchmark of the ottoqft command line, one workload per run.

    python3 bench/run.py --workload fig4a --seed 7 --seconds 10 --trace 0

With ``--trace 0`` the workload runs as a closed loop with one client:
``python -m ottoqft.cli`` is started again as soon as the previous
invocation exits, until ``--seconds`` have passed.  Every invocation's
output is checked, and wall time, CPU and peak RSS of its process tree come
from ``os.wait4``.  With ``--trace 1`` the same workload runs in this
process instead, with the program's public functions wrapped, and the
per-layer metrics are reported (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a JSON line with the environment and details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from launch import REF_NOMINAL_S
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

# fresh imports timed before and again after the closed loop, so the
# set-up median spans the run rather than one moment of machine load
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# wall_s_p90 is reported only from this many invocations up
P90_MIN_SAMPLES = 100


class Run(NamedTuple):
    code: int
    wall: float  # s, spawn to exit, taken by the launcher
    cpu: float  # s, user + sys of the process tree
    rss_mb: float  # largest resident set in the process tree
    out: str  # standard output, when captured
    ref_wall: float  # reference wall and CPU time around the process, s
    ref_cpu: float


def child_env() -> dict[str, str]:
    """The environment of a user running from a source checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict[str, str], stdout=subprocess.DEVNULL,
          stderr=subprocess.DEVNULL) -> Run:
    """Run argv to completion under launch.py.

    The launcher times argv from spawn to exit, takes CPU and peak RSS of its
    whole process tree (reaped pool workers included) from wait4, and times
    the reference workload around it.
    """
    result = WORK / "launch.json"
    proc = subprocess.Popen([sys.executable, "-S", str(LAUNCH), str(result), *argv],
                            env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
    with proc:
        out = proc.stdout.read().decode("utf-8", "replace") if proc.stdout else ""
    if proc.returncode != 0:
        raise RuntimeError(f"launcher exited {proc.returncode} for {argv}")
    usage = json.loads(result.read_text(encoding="utf-8"))
    return Run(usage["code"], usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"] / 1024.0, out,
               usage["ref_wall_s"], usage["ref_cpu_s"])


def scaled(runs: list[Run], field: str) -> float:
    """Median of each run's wall or CPU time scaled by its own reference."""
    return statistics.median(
        getattr(run, field) * REF_NOMINAL_S / getattr(run, f"ref_{field}") for run in runs)


def measure_setup(env: dict[str, str], warm_up: bool) -> list[Run]:
    """Fresh ``import ottoqft.cli`` processes; the warm-up compiles bytecode, untimed."""
    argv = [sys.executable, "-c", "import ottoqft.cli"]
    if warm_up:
        spawn(argv, env)
    runs = [spawn(argv, env) for _ in range(SETUP_REPEATS)]
    for run in runs:
        if run.code != 0:
            raise RuntimeError(f"'import ottoqft.cli' exited {run.code}")
    return runs


def closed_loop(workload, values, seed, seconds, sets, work, env, api):
    """Invoke the CLI back to back for `seconds`; check each output."""
    csv_path = work / "out.csv"
    config_path = work / "run.cfg"
    if workload.command == "sweep":
        config_path.write_text(workloads.config_text(values, str(csv_path)), encoding="utf-8")
    argv = [sys.executable, "-m", "ottoqft.cli",
            *workloads.cli_args(workload, str(config_path), seed, sets)]
    runs, problems = [], []
    failed = 0
    digest = None
    detail: dict = {}
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        csv_path.unlink(missing_ok=True)
        with open(work / "stderr.txt", "wb") as err:
            run = spawn(argv, env, stdout=subprocess.PIPE, stderr=err)
        runs.append(run)
        if workload.command == "verify":
            found = workloads.check_verify_output(run.code, run.out)
        elif run.code != 0:
            found = [f"sweep exited {run.code}: {(work / 'stderr.txt').read_text().strip()[-300:]}"]
        elif not csv_path.exists():
            found = [f"sweep exited 0 without writing {csv_path.name}"]
        else:
            data = csv_path.read_bytes()
            this = hashlib.sha256(data).hexdigest()
            if digest is None:
                found, detail = workloads.check_sweep_csv(data.decode("utf-8"), values, seed, api)
                digest = this
                detail.update(csv_sha256=this, csv_bytes=len(data))
            else:
                found = [] if this == digest else [f"CSV sha256 {this} differs from first {digest}"]
        if found:
            failed += 1
            problems.extend(found[:3])
    csv_path.unlink(missing_ok=True)
    return runs, failed, problems, detail


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "thread_env": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
    }
    env.update(_git_state())
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> float:
    return os.getloadavg()[0]


def _git_state() -> dict:
    # a benchmark checkout need not be a repository; never look above ROOT
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"git_sha": "unknown", "git_dirty": None}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"git_sha": "unknown", "git_dirty": None}
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip() != ""
    return {"git_sha": head.stdout.strip(), "git_dirty": dirty}


def _numpy_versions() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, values, args, env, api) -> tuple[dict, dict, int, int]:
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    setup = measure_setup(env, warm_up=True)
    runs, failed, problems, detail = closed_loop(
        workload, values, args.seed, args.seconds, args.set, work, env, api)
    setup += measure_setup(env, warm_up=False)
    walls = [run.wall for run in runs]
    wall = statistics.median(walls)
    setup_raw = statistics.median(run.wall for run in setup)
    # an import is short against the reference's own noise, so set-up is
    # scaled by the run's median reference rather than each import's own
    reference_s = statistics.median(run.ref_wall for run in runs + setup)
    metrics = {
        "wall_norm_s": metric(scaled(runs, "wall"), "s"),
        "cpu_norm_s": metric(scaled(runs, "cpu"), "s"),
        "peak_rss_mb": metric(statistics.median(run.rss_mb for run in runs), "MB"),
        "setup_s": metric(setup_raw * REF_NOMINAL_S / reference_s, "s"),
    }
    detail.update(wall_s=wall, cpu_s=statistics.median(run.cpu for run in runs),
                  setup_raw_s=setup_raw, reference_s=reference_s, invocations=len(runs))
    detail["samples"] = {field: [getattr(run, field) for run in runs]
                         for field in ("wall", "cpu", "ref_wall", "ref_cpu")}
    detail["failed_frac"] = failed / len(runs)
    if workload.command == "sweep":
        detail["points_per_s"] = workloads.expected_shape(values)[1] / wall
    if len(walls) >= P90_MIN_SAMPLES:
        detail["wall_s_p90"] = statistics.quantiles(walls, n=10)[8]
    detail["wall_s_quartiles"] = statistics.quantiles(walls, n=4) if len(walls) > 1 else [wall] * 3
    if problems:
        detail["problems"] = problems[:10]
    return metrics, detail, len(walls), failed


def report_lines(workload: str, metrics: dict, detail: dict, attempted: int, failed: int) -> list[str]:
    lines = [f"workload {workload}: {attempted} attempted, {failed} failed"]
    for name, entry in metrics.items():
        lines.append(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    for name in ("wall_s", "cpu_s", "setup_raw_s", "reference_s"):
        if name in detail:
            lines.append(f"  {name:<32} {detail[name]:.6g} s (not normalized)")
    if "points_per_s" in detail:
        lines.append(f"  {'points_per_s':<32} {detail['points_per_s']:.6g} 1/s")
    if "invocations" in detail:
        n = detail["invocations"]
        if "wall_s_p90" in detail:
            lines.append(f"  {'wall_s_p90':<32} {detail['wall_s_p90']:.6g} s (n={n})")
        else:
            lines.append(f"  {'wall_s_p90':<32} not reported (n={n} < {P90_MIN_SAMPLES})")
        lines.append(f"  {'failed_frac':<32} {detail['failed_frac']:.6g} ({failed}/{attempted})")
    if "csv_sha256" in detail:
        lines.append(f"  csv sha256 {detail['csv_sha256']} ({detail['csv_bytes']} bytes)")
    for problem in detail.get("problems", []):
        lines.append(f"  problem: {problem}")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the spot-checked rows; passed to verify as seed=")
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process traced run reporting the per-layer metrics")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key of a sweep workload, or pass --set to verify")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ottoqft" / "cli.py").is_file():
        print(f"error: no ottoqft sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import ottoqft as api

    workload = WORKLOADS[args.workload]
    try:
        values = workloads.sweep_values(workload, args.set) if workload.command == "sweep" else {}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    record = environment()
    record.update(_numpy_versions())
    record["loadavg_before"] = _loadavg()
    if args.trace:
        import tracer

        metrics, detail, attempted, failed = tracer.traced_run(
            workload, values, args, env, spawn, api, WORK / workload.name)
    else:
        metrics, detail, attempted, failed = untraced(workload, values, args, env, api)
    record["loadavg_after"] = _loadavg()
    record["loaded"] = record["loadavg_before"] > (record["nproc"] or 1)

    print("\n".join(report_lines(workload.name, metrics, detail, attempted, failed)))
    if record["loaded"]:
        print(f"  warning: load average {record['loadavg_before']:.2f} above nproc at start")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "environment": record, "detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced in-process run: per-layer metrics from wrapped public functions.

The program is not changed.  Public names are replaced where they are
looked up (``ottoqft.sweeps.minkowski_moments`` and so on) by wrappers that
count calls and time them.  Per-point calls are aggregated into call counts,
busy time and the time their own wrapped callees cover, so a layer's self
time is busy time minus that covered time.  Coarse boundaries (parse,
run_sweep, write, run_verification, each oracle call) also get a span with a
name, start, end and parent; spans are kept in memory and written to
``.bench_out/<workload>/spans.json`` when the run ends.

Call-level numbers come from ``run_sweep(spec, jobs=1)``, because calls made
inside pool workers are not seen here.  End-to-end numbers are never taken
from this run.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import re
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import workloads

REPEATS = 5
PARSE_REPEATS = 200

# (module, attribute, bucket, span): every wrapped name, grouped into the
# buckets the per-layer metrics are computed from
WRAPPED = (
    ("sweeps", "minkowski_moments", "minkowski.moments", False),
    ("verification", "minkowski_moments", "minkowski.moments", False),
    ("minkowski", "dawson", "minkowski.dawson", False),
    ("minkowski", "MomentSet", "algebra.momentset", False),
    ("verification", "MomentSet", "algebra.momentset", False),
    ("algebra", "MomentSet", "algebra.momentset", False),
    ("cycle", "p_after_first", "algebra.p_maps", False),
    ("cycle", "p_after_second", "algebra.p_maps", False),
    ("verification", "p_after_first", "algebra.p_maps", False),
    ("verification", "p_after_second", "algebra.p_maps", False),
    ("sweeps", "InteractionEvent", "cycle.build", False),
    ("sweeps", "CycleConfig", "cycle.build", False),
    ("sweeps", "stroke_ledger", "cycle.ledger", False),
    ("verification", "cyclic_initial_population", "verification.cycle", False),
    ("verification", "extracted_work", "verification.cycle", False),
    ("verification", "simulate_cycle_fock", "oracle.fock", True),
    ("verification", "verify_weyl_moments", "oracle.fock", True),
    ("verification", "quadrature_minkowski_moments", "oracle.quadrature", True),
    ("verification", "run_verification", "verification.run_verification", True),
    ("cli", "parse_config", "config.parse", True),
)


class Tracer:
    """Call counts, busy time and covered time per bucket, plus coarse spans."""

    def __init__(self) -> None:
        # bucket -> [calls, busy seconds, seconds covered by wrapped callees]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[dict] = []
        self.degenerate = 0
        self._covered = [[0.0]]
        self._open_spans: list[int] = []
        self._undo: list[tuple] = []

    def install(self, package) -> None:
        for module_name, attr, bucket, span in WRAPPED:
            module = getattr(package, module_name, None)
            original = getattr(module, attr, None)
            if original is None:  # a name the program no longer has; its metrics read 0
                continue
            wrapper = self._span_wrapper(original, bucket) if span else self._wrapper(original, bucket)
            setattr(module, attr, wrapper)
            self._undo.append((module, attr, original))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, bucket: str):
        stat = self.stats[bucket]
        covered = self._covered
        on_ledger = bucket == "cycle.ledger"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            covered.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                covered.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                covered[-1][0] += elapsed
            if on_ledger and getattr(result, "degenerate", False):
                self.degenerate += 1
            return result

        return wrapper

    def _span_wrapper(self, fn, bucket: str):
        def wrapper(*args, **kwargs):
            with self.span(bucket):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A coarse span that is also accounted like a wrapped call."""
        stat = self.stats[name]
        frame = [0.0]
        index = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"name": name, "start": 0.0, "end": 0.0, "parent": parent})
        self._open_spans.append(index)
        self._covered.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._covered.pop()
            self._open_spans.pop()
            self.spans[index].update(start=t0, end=t1)
            stat[0] += 1
            stat[1] += t1 - t0
            stat[2] += frame[0]
            self._covered[-1][0] += t1 - t0

    def calls(self, bucket: str) -> int:
        return self.stats[bucket][0] if bucket in self.stats else 0

    def busy(self, bucket: str) -> float:
        return self.stats[bucket][1] if bucket in self.stats else 0.0

    def self_time(self, bucket: str) -> float:
        if bucket not in self.stats:
            return 0.0
        _, busy, covered = self.stats[bucket]
        return busy - covered

    def per_call_us(self, bucket: str, self_only: bool = False) -> float:
        calls = self.calls(bucket)
        if not calls:
            return 0.0
        return 1e6 * (self.self_time(bucket) if self_only else self.busy(bucket)) / calls


def _cpu_self() -> float:
    return sum(resource.getrusage(resource.RUSAGE_SELF)[:2])


def _cpu_tree() -> float:
    return _cpu_self() + sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2])


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def startup_metrics(env: dict, spawn) -> dict:
    """Interpreter start and import cost of the CLI, each a median of fresh processes."""
    python = sys.executable
    interp = [spawn([python, "-c", "pass"], env).wall for _ in range(REPEATS)]
    imports, numpy_imports = [], []
    spawn([python, "-c", "import ottoqft.cli"], env)  # compile bytecode once
    for _ in range(REPEATS):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import ottoqft.cli"],
                              env=env, capture_output=True, text=True, check=True)
        entries = [(len(m.group(3)), m.group(4), int(m.group(2)))
                   for m in map(_IMPORTTIME.match, proc.stderr.splitlines()) if m]
        # the outermost ottoqft entries hold everything the import statement cost
        ours = [entry for entry in entries if entry[1].split(".")[0] == "ottoqft"]
        top = min(depth for depth, _, _ in ours)
        imports.append(sum(us for depth, _, us in ours if depth == top) / 1e6)
        numpy_imports.append(sum(us for _, name, us in entries if name == "numpy") / 1e6)
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.import_numpy_s": statistics.median(numpy_imports),
    }


def _run_sweep(package, spec, serial: bool) -> str:
    # jobs=1 while run_sweep takes it; a run_sweep without a pool is serial anyway
    run_sweep = package.sweeps.run_sweep
    if serial and "jobs" in inspect.signature(run_sweep).parameters:
        return run_sweep(spec, jobs=1)
    return run_sweep(spec)


def _write(path, text: str) -> None:
    # the same file mode as the command line's writer
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _traced_sweep(package, values, seed, seconds, work):
    config = workloads.config_text(values, str(work / "traced.csv"))
    parse_config = package.config.parse_config
    spec = parse_config(config)
    parse_times = []
    for _ in range(PARSE_REPEATS):
        t0 = perf_counter()
        parse_config(config)
        parse_times.append(perf_counter() - t0)

    tracer = Tracer()
    serial, default, traced, serial_cpu, default_cpu, writes = [], [], [], [], [], []
    digest = None
    attempted = failed = 0
    problems: list[str] = []
    detail: dict = {}
    text = ""
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        outputs = []
        c0, t0 = _cpu_self(), perf_counter()
        outputs.append(_run_sweep(package, spec, serial=True))
        serial.append(perf_counter() - t0)
        serial_cpu.append(_cpu_self() - c0)

        c0, t0 = _cpu_tree(), perf_counter()
        outputs.append(_run_sweep(package, spec, serial=False))
        default.append(perf_counter() - t0)
        default_cpu.append(_cpu_tree() - c0)

        tracer.install(package)
        try:
            with tracer.span("config.parse"):
                parse_config(config)
            with tracer.span("sweeps.run_sweep"):
                t0 = perf_counter()
                text = _run_sweep(package, spec, serial=True)
                traced.append(perf_counter() - t0)
            with tracer.span("cli.write"):
                t0 = perf_counter()
                _write(work / "traced.csv", text)
                writes.append(perf_counter() - t0)
        finally:
            tracer.restore()
        outputs.append((work / "traced.csv").read_text(encoding="utf-8"))

        for output in outputs:
            attempted += 1
            this = hashlib.sha256(output.encode("utf-8")).hexdigest()
            if digest is None:
                found, detail = workloads.check_sweep_csv(output, values, seed, package)
                digest = this
                detail.update(csv_sha256=this, csv_bytes=len(output.encode("utf-8")))
            else:
                found = [] if this == digest else [f"CSV sha256 {this} differs from {digest}"]
            if found:
                failed += 1
                problems.extend(found[:3])
        del outputs
    (work / "traced.csv").unlink(missing_ok=True)

    reps = len(traced)
    rows = workloads.expected_shape(values)[1]
    run_serial = statistics.median(serial)
    run_default = statistics.median(default)
    cpu_serial = statistics.median(serial_cpu)
    cpu_default = statistics.median(default_cpu)
    csv_bytes = len(text.encode("utf-8"))
    metrics = {
        "cli.write_s": statistics.median(writes),
        "cli.write_bytes": csv_bytes,
        "config.parse_s": statistics.median(parse_times),
        "sweeps.run_serial_s": run_serial,
        "sweeps.run_default_s": run_default,
        "sweeps.pool_speedup": run_serial / run_default,
        "sweeps.serial_cpu_s": cpu_serial,
        "sweeps.default_cpu_s": cpu_default,
        "sweeps.pool_cpu_ratio": cpu_default / cpu_serial if cpu_serial > 0 else 0.0,
        "sweeps.rows": rows,
        "sweeps.self_us_per_row": 1e6 * tracer.self_time("sweeps.run_sweep") / (reps * rows),
        "sweeps.csv_bytes": csv_bytes,
        "cycle.degenerate_frac": tracer.degenerate / (reps * rows),
        "trace.overhead_frac": statistics.median(traced) / run_serial - 1.0,
    }
    detail.update(repetitions=reps, degenerate_rows=tracer.degenerate / reps)
    if problems:
        detail["problems"] = problems[:10]
    return tracer, reps, metrics, detail, attempted, failed


def _traced_verify(package, seed, sets, seconds):
    argv = ["verify", "--set", f"seed={seed}"]
    for item in sets:
        argv += ["--set", item]
    parse_config = package.config.parse_config
    overrides = [f"seed={seed}", *sets]
    parse_times = []
    for _ in range(PARSE_REPEATS):
        t0 = perf_counter()
        parse_config("mode = verify", overrides)
        parse_times.append(perf_counter() - t0)

    tracer = Tracer()
    untraced, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        for trace in (False, True):
            out = io.StringIO()
            if trace:
                tracer.install(package)
            try:
                with contextlib.redirect_stdout(out):
                    t0 = perf_counter()
                    status = package.cli.main(argv)
                    elapsed = perf_counter() - t0
            finally:
                tracer.restore()
            (traced if trace else untraced).append(elapsed)
            attempted += 1
            found = workloads.check_verify_output(status, out.getvalue())
            if found:
                failed += 1
                problems.extend(found)

    reps = len(traced)
    run = tracer.stats["verification.run_verification"]
    metrics = {
        "config.parse_s": statistics.median(parse_times),
        "oracle.fock_calls": tracer.calls("oracle.fock") / reps,
        "oracle.fock_s": tracer.busy("oracle.fock") / reps,
        "oracle.quadrature_calls": tracer.calls("oracle.quadrature") / reps,
        "oracle.quadrature_s": tracer.busy("oracle.quadrature") / reps,
        "verification.run_s": statistics.median(untraced),
        "verification.cycle_calls": tracer.calls("verification.cycle") / reps,
        "verification.cycle_s": tracer.busy("verification.cycle") / reps,
        "verification.self_s": (run[1] - run[2]) / reps,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    detail = {"repetitions": reps}
    if problems:
        detail["problems"] = problems[:10]
    return tracer, reps, metrics, detail, attempted, failed


def traced_run(workload, values, args, env, spawn, package, work):
    """The per-layer metrics of one workload, every name in PER_LAYER."""
    import ottoqft.cli  # noqa: F401  (binds package.cli, package.sweeps, package.config)

    work.mkdir(parents=True, exist_ok=True)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(startup_metrics(env, spawn))
    if workload.command == "sweep":
        tracer, reps, found, detail, attempted, failed = _traced_sweep(
            package, values, args.seed, args.seconds, work)
    else:
        tracer, reps, found, detail, attempted, failed = _traced_verify(
            package, args.seed, args.set, args.seconds)
    metrics.update(found)
    # (metric prefix, bucket, per-call time is self time); calls are per sweep or verify
    for prefix, bucket, self_only in (
        ("minkowski.moments", "minkowski.moments", True),
        ("minkowski.dawson", "minkowski.dawson", False),
        ("algebra.momentset", "algebra.momentset", False),
        ("algebra.p_maps", "algebra.p_maps", False),
        ("cycle.build", "cycle.build", False),
        ("cycle.ledger", "cycle.ledger", True),
    ):
        metrics[f"{prefix}_calls"] = tracer.calls(bucket) / reps
        metrics[f"{prefix}_self_us" if self_only else f"{prefix}_us"] = tracer.per_call_us(
            bucket, self_only)

    spans_path = work / "spans.json"
    spans_path.write_text(json.dumps({"workload": workload.name, "spans": tracer.spans}),
                          encoding="utf-8")
    detail["spans"] = len(tracer.spans)
    detail["spans_file"] = str(spans_path.relative_to(work.parent.parent))
    detail["calls"] = {bucket: {"calls": s[0] / reps, "busy_s": s[1] / reps,
                                "self_s": (s[1] - s[2]) / reps}
                       for bucket, s in sorted(tracer.stats.items())}
    units = dict(PER_LAYER)
    return ({name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            detail, attempted, failed)


# every per-layer metric and its unit, in report order
PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "config.parse_s": "s",
    "sweeps.run_serial_s": "s",
    "sweeps.run_default_s": "s",
    "sweeps.pool_speedup": "ratio",
    "sweeps.serial_cpu_s": "s",
    "sweeps.default_cpu_s": "s",
    "sweeps.pool_cpu_ratio": "ratio",
    "sweeps.rows": "count",
    "sweeps.self_us_per_row": "us",
    "sweeps.csv_bytes": "bytes",
    "minkowski.moments_calls": "count",
    "minkowski.moments_self_us": "us",
    "minkowski.dawson_calls": "count",
    "minkowski.dawson_us": "us",
    "algebra.momentset_calls": "count",
    "algebra.momentset_us": "us",
    "algebra.p_maps_calls": "count",
    "algebra.p_maps_us": "us",
    "cycle.build_calls": "count",
    "cycle.build_us": "us",
    "cycle.ledger_calls": "count",
    "cycle.ledger_self_us": "us",
    "cycle.degenerate_frac": "ratio",
    "oracle.fock_calls": "count",
    "oracle.fock_s": "s",
    "oracle.quadrature_calls": "count",
    "oracle.quadrature_s": "s",
    "verification.run_s": "s",
    "verification.cycle_calls": "count",
    "verification.cycle_s": "s",
    "verification.self_s": "s",
    "trace.overhead_frac": "ratio",
}

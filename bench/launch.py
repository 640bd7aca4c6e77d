"""Run one command; record its wall time, exit code, rusage and a reference.

    python3 -S bench/launch.py RESULT_FILE COMMAND [ARG ...]

The harness starts every measured process through this small launcher, for
two reasons.  At exec, Linux folds the peak RSS of the process that forked
the child into the child's ``ru_maxrss``; forked straight from the harness,
which holds numpy and at times a whole CSV, a small program would report the
harness's peak instead of its own.  And the speed of identical code on a
shared virtual machine drifts from minute to minute and differs from
process to process, so the launcher also times a fixed reference workload
just before and just after the command, in a fresh process like the
command's own, for the harness to scale the command's times by.
"""

import json
import math
import os
import sys
import time

REF_ITERATIONS = 10_000
REF_SAMPLES = 5
# the reference's time on a nominal machine; scaled times are in its seconds
REF_NOMINAL_S = 0.01


def _reference_work() -> int:
    # float math, 17-digit formatting and a join, like a sweep's inner loop
    parts = []
    acc = 0.0
    for i in range(REF_ITERATIONS):
        x = i * 1e-3
        acc += math.exp(-x * x) * math.sin(x) / (1.0 + x)
        parts.append(format(acc, ".17g"))
    return len(",".join(parts))


def reference() -> tuple:
    """Fastest wall and CPU time of a few runs of the reference workload."""
    walls, cpus = [], []
    for _ in range(REF_SAMPLES):
        wall, cpu = time.perf_counter(), time.process_time()
        _reference_work()
        cpus.append(time.process_time() - cpu)
        walls.append(time.perf_counter() - wall)
    return min(walls), min(cpus)


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    before = reference()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    after = reference()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "ref_wall_s": 0.5 * (before[0] + after[0]),
            "ref_cpu_s": 0.5 * (before[1] + after[1]),
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

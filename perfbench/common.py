"""Helpers shared by the benchmark's orchestrator and round processes."""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parents[1]
#: The program's sources, put on ``sys.path`` of every round process.
SRC = ROOT / "src"
#: Per-round scratch directories (corpus caches); removed after use.
SCRATCH = ROOT / ".perfbench_tmp"
#: Chrome trace files written by traced runs.
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("protocol", "serve", "stream")

#: One BLAS/OpenMP thread: the default (one per core) contends with the
#: service's event loop and executor threads on a small machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SCRIPT_START = time.monotonic()


def process_age() -> float:
    """Seconds since this process was started by the kernel.

    Read from ``/proc/self/stat`` (start time in clock ticks since
    boot) against ``CLOCK_BOOTTIME``, so interpreter start-up counts
    too.  Where ``/proc`` is missing, falls back to the time since this
    module was imported.
    """
    try:
        with open("/proc/self/stat") as handle:
            stat = handle.read()
        ticks = int(stat[stat.rfind(")") + 2 :].split()[19])
        started = ticks / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.monotonic() - _SCRIPT_START


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def emit(payload: dict) -> None:
    """Print ``payload`` as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(payload, sort_keys=True), flush=True)


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])

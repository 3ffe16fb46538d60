"""Shared pieces: statistics, host facts, process accounting, result shape."""

from __future__ import annotations

import asyncio
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable

#: Units of every metric the benchmark can emit, keyed by name.  The
#: untraced and traced runs each emit exactly the names listed for them
#: in BENCHMARK.json; this table is the single place their units live.
UNITS = {
    # end to end (untraced runs)
    "setup_s": "s",
    "elems_per_s": "elem/s",
    "lat_p50_us": "us",
    "lat_p95_us": "us",
    "peak_rss_mb": "MB",
    # per layer (traced runs)
    "sim.run_s": "s",
    "sim.ns_per_step": "ns",
    "sim.steps_per_elem": "count",
    "sim.makespan_cycles": "cycles",
    "sim.py_elems_per_s": "elem/s",
    "core.suspends_per_kelem": "count",
    "core.restarts_per_kelem": "count",
    "core.poisoned_frac": "ratio",
    "core.segments_per_kelem": "count",
    "obs.hook_calls_per_step": "count",
    "obs.hook_s": "s",
    "obs.report_s": "s",
    "obs.tax": "ratio",
    "net.client.op_p50_us": "us",
    "net.client.op_p99_us": "us",
    "net.client.encode_us": "us",
    "net.client.decode_us": "us",
    "net.client.frames_per_read": "count",
    "net.client.cpu_us_per_op": "us",
    "net.iobuf.client.frames_per_flush": "count",
    "net.iobuf.client.bytes_per_flush": "B",
    "net.iobuf.server.frames_per_flush": "count",
    "net.iobuf.server.bytes_per_flush": "B",
    "net.server.decode_us": "us",
    "net.server.frames_per_read": "count",
    "net.server.ops_per_batch": "count",
    "net.server.cpu_us_per_op": "us",
    "net.server.busy_frac": "ratio",
    "net.registry.lookup_us": "us",
    "net.registry.lookups_per_op": "count",
    "aio.try_us": "us",
    "aio.park_frac": "ratio",
    "aio.park_wait_p50_us": "us",
    "aio.park_wait_p99_us": "us",
    "net.wait_us": "us",
    "loadgen.late_p99_us": "us",
    "trace.overhead": "ratio",
}

END_TO_END = ("setup_s", "elems_per_s", "lat_p50_us", "lat_p95_us", "peak_rss_mb")
PER_LAYER = tuple(k for k in UNITS if k not in END_TO_END)


class BenchFailure(RuntimeError):
    """A check failed in a way that leaves no number worth printing."""


def median(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else 0.0


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.fmean(vals) if vals else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""

    vals = sorted(values)
    if not vals:
        return 0.0
    rank = max(1, -(-len(vals) * q // 100))  # ceil without floats
    return float(vals[int(rank) - 1])


#: CPU seconds one ``calibrate`` repetition takes at the reference speed:
#: the fast level of the 2-vCPU KVM host (Xeon, Python 3.11) this
#: benchmark was built on.  Only the scale of the reported figures
#: depends on it.
CALIB_REF_S = 0.00033


def calibrate(reps: int) -> float:
    """CPU seconds per repetition of a fixed pure-Python loop.

    The host's speed is not steady.  On the shared host this benchmark
    was built on, a fixed loop took 15 ms or 23-26 ms, switching every
    few seconds and for minutes at a stretch (another tenant on the same
    core, not steal: CPU time slows as much as wall time).  Timing this
    loop next to the workload and scaling by ``CALIB_REF_S / result``
    cancels most of that: over 20-second stretches of ``sim-fig5`` the
    raw round time moved by +-13%, the scaled one by +-3%.
    """

    t0 = time.process_time()
    d: dict[int, int] = {}
    acc = 0
    for i in range(2000 * reps):
        d[i & 1023] = i
        acc += d.get((i * 7) & 1023, 0) & 0xFF
    return (time.process_time() - t0) / reps


def speed(reps: int) -> float:
    """The host's current speed relative to the reference (1.0 = reference)."""

    return CALIB_REF_S / calibrate(reps)


#: Period of the speed samples a served-workload process takes.  One
#: sample stalls its event loop for ~0.3 ms, i.e. 0.15% of the time:
#: well below the 5% a p95 looks at.
SPEED_EVERY_S = 0.2


async def sample_speed(samples: list) -> None:
    """Append ``(wall time, speed)`` every ``SPEED_EVERY_S`` until cancelled."""

    while True:
        await asyncio.sleep(SPEED_EVERY_S)
        samples.append((time.perf_counter(), speed(1)))


#: Served runs are cut into windows of this many wall seconds; each
#: window's samples are scaled by that window's speed.
WINDOW_S = 1.0


def window_speeds(t0: float, n: int, width: float, *series: list) -> list[float]:
    """Per-window speed: the mean over *series* of each one's window median.

    Each series is a list of ``(wall time, speed)`` from one process.  A
    window a series has no sample in takes that series' median.
    """

    out = []
    for w in range(n):
        lo, hi = t0 + w * width, t0 + (w + 1) * width
        per_series = []
        for samples in series:
            inside = [v for t, v in samples if lo <= t < hi]
            per_series.append(median(inside or [v for _, v in samples] or [1.0]))
        out.append(sum(per_series) / len(per_series))
    return out


def peak_rss_self_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """CPU seconds *pid*'s threads have run, from ``/proc/<pid>/task/*/schedstat``.

    Nanosecond resolution, and — like ``time.process_time`` — it leaves
    out time the hypervisor stole from the vCPU.
    """

    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of *pid* in MB, from ``/proc``."""

    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


def cpu_times() -> list[int]:
    """The host's aggregate ``cpu`` line from ``/proc/stat`` (jiffies)."""

    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_frac(before: list[int], after: list[int]) -> float:
    """Share of host CPU time the hypervisor stole between two readings."""

    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def host_facts() -> dict[str, Any]:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def metric_block(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    return {name: {"value": float(v), "unit": UNITS[name]} for name, v in values.items()}


def emit(result: dict[str, Any], meta: dict[str, Any], out=None) -> None:
    """Print the human summary and stamps, then the result as the last line."""

    out = out or sys.stdout
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=out)
    attempted, failed = result["attempted"], result["failed"]
    print(f"# fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})", file=out)
    print("# meta " + json.dumps(meta, sort_keys=True), file=out)
    print(json.dumps(result), file=out)
    out.flush()


def repo_root() -> Path:
    """The checkout root: the parent of this package's directory."""

    return Path(__file__).resolve().parent.parent


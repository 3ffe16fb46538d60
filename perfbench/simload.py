"""Simulation-stack workloads: ``sim-fig5`` and ``sim-profile``.

Both run in this single-threaded process.  A *round* is one pass over a
workload's points; each point is one call of
:func:`repro.bench.harness.run_producer_consumer`, so the numbers are
those of the paper's producer/consumer benchmark.  The benchmark passes
the channel in, to check its stats and count its segments afterwards.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from common import BenchFailure, median, peak_rss_self_mb, percentile, speed
from tracer import Tracer

#: (impl, threads, capacity, coroutines) per point.  sim-fig5 is the two
#: Figure 5 configurations the issue names at t=64; sim-profile is the
#: ``bench profile`` pair at capacity 64, t=16.
POINTS = {
    "sim-fig5": (
        ("faa-channel", 64, 0, 64),
        ("faa-channel", 64, 64, 1000),
    ),
    "sim-profile": (
        ("faa-channel", 16, 64, 16),
        ("go-channel", 16, 64, 16),
    ),
}
#: Elements per point: large enough that the run, not the spawn, is
#: most of a point; small enough for hundreds of rounds per run.
ELEMENTS = {"sim-fig5": 1000, "sim-profile": 300}
WORK_MEAN = 100
#: Calibration repetitions between rounds (about 5 ms).
CALIB_REPS = 16
#: Fresh interpreters started per run to take the median set-up time.
SETUP_PROBES = 7
#: Peak RSS is read after this many measured rounds, not at the end: the
#: retained segments grow the heap per round, and a faster build must
#: not read as a bigger one for having run more rounds.
RSS_ROUNDS = 20


@dataclass
class Point:
    impl: str
    elements: int
    makespan: int = 0
    steps: int = 0
    #: ``ChannelStats`` snapshot; empty for channels without stats
    stats: dict[str, Any] = field(default_factory=dict)
    segments: int = 0
    #: CPU seconds of this process from build to results ready
    cpu_s: float = 0.0
    error: Optional[str] = None


@dataclass
class Round:
    points: list[Point] = field(default_factory=list)
    #: host speed during the round: the mean of the samples taken just
    #: before and just after it (see ``common.speed``)
    speed: float = 1.0

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.points)

    @property
    def ref_s(self) -> float:
        """The round's CPU time scaled to the reference host speed."""

        return self.cpu_s * self.speed

    @property
    def elements(self) -> int:
        return sum(p.elements for p in self.points)


def point_seed(seed: int, rnd: int, impl: str, threads: int, capacity: int) -> int:
    from repro.bench.harness import point_seed as harness_seed

    return harness_seed(seed * 1_000_003 + rnd, impl, threads, capacity)


def run_point(impl, threads, capacity, coroutines, elements, seed, *, engine=None,
              observed=False) -> Point:
    """One point from build to results ready (contention report included).

    Timed in CPU seconds of this process: the process only computes, so
    on an idle host that is its wall time, and unlike wall time it leaves
    out what the hypervisor steals from a shared vCPU.
    """

    from repro.bench.harness import make_impl, run_producer_consumer

    t0 = time.process_time()
    # The benchmark builds the channel (and the session) itself to read
    # its stats and segment count after the run.
    chan = make_impl(impl, capacity)
    session = None
    if observed:
        from repro.obs import ObsSession

        session = ObsSession(label=impl)
    point = Point(impl=impl, elements=elements)
    try:
        res = run_producer_consumer(
            impl, threads, capacity, coroutines, elements, work_mean=WORK_MEAN, seed=seed,
            channel=chan, profile=session, engine=engine,
        )
        if session is not None:
            session.contention_report()
        point.makespan, point.steps, point.stats = res.makespan, res.steps, res.channel_stats
    except Exception as exc:  # noqa: BLE001 - a failed point is counted, not fatal
        point.error = f"{type(exc).__name__}: {exc}"
    point.segments = getattr(getattr(chan, "_list", None), "segments_allocated", 0)
    # A point's cyclic garbage (tasks, generators, waiters, segments) is
    # collected before its clock stops, so each point pays for its own
    # and a full collection cannot land at random in a later point.
    # What survives is frozen: the segment pool's finalizers keep every
    # channel's last segments alive for good (see README), and a heap
    # growing by that much per point would make each collection slower
    # than the last.
    del chan, session
    gc.collect()
    gc.freeze()
    point.cpu_s = time.process_time() - t0
    return point


def run_round(workload: str, seed: int, rnd: int, *, engine=None, observed=None) -> Round:
    if observed is None:
        observed = workload == "sim-profile"
    out = Round()
    for impl, threads, capacity, coroutines in POINTS[workload]:
        out.points.append(
            run_point(
                impl, threads, capacity, coroutines, ELEMENTS[workload],
                point_seed(seed, rnd, impl, threads, capacity),
                engine=engine, observed=observed,
            )
        )
    return out


def point_failures(p: Point) -> int:
    """Elements a point failed to move.

    A run that raised (deadlock, task failure) failed them all.  Where
    the channel keeps stats, ``sends == receives == elements`` must hold.
    A channel without stats (``go-channel``) rests on deadlock detection
    alone: a lost element leaves a consumer waiting forever.
    """

    if p.error is not None:
        return p.elements
    s = p.stats
    if s and not s["sends"] == s["receives"] == p.elements:
        return max(abs(s["sends"] - p.elements), abs(s["receives"] - p.elements), 1)
    return 0


def warm_up(workload: str, seed: int) -> None:
    """One untimed round: lazy imports, the engine's caches, the first
    collection of the imported modules (frozen after it, see run_point)."""

    run_round(workload, seed, 0)


def rounds_for(workload: str, seed: int, seconds: float, rss=None, **kw) -> list[Round]:
    """Run rounds until *seconds* of wall time have passed (at least one).

    With *rss* (a list), the peak RSS after ``RSS_ROUNDS`` rounds — or
    after the last, if fewer ran — is appended to it.
    """

    rounds = []
    end = time.perf_counter() + seconds
    rnd = 0
    before = speed(CALIB_REPS)
    while not rounds or time.perf_counter() < end:
        r = run_round(workload, seed, rnd, **kw)
        after = speed(CALIB_REPS)
        r.speed = (before + after) / 2
        before = after
        rounds.append(r)
        rnd += 1
        if rss is not None and len(rounds) == RSS_ROUNDS:
            rss.append(peak_rss_self_mb())
    if rss is not None and not rss:
        rss.append(peak_rss_self_mb())
    return rounds


def measure_setup(root: Path, engine_dir: Optional[Path], workload: str, seed: int) -> float:
    """Median CPU seconds of fresh interpreters, start to first ``Scheduler.run``,
    each scaled to the reference host speed by the probe's own calibration."""

    impl, threads, capacity, coroutines = POINTS[workload][0]
    samples = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [
                sys.executable,
                str(root / "perfbench" / "setup_probe.py"),
                str(engine_dir or ""),
                impl, str(threads), str(capacity), str(coroutines),
                str(ELEMENTS[workload]),
                str(point_seed(seed, k, impl, threads, capacity)),
                "1" if workload == "sim-profile" else "0",
            ],
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchFailure(f"setup probe failed: {proc.stderr[-2000:]}")
        cpu_s, probe_speed = map(float, proc.stdout.split()[-2:])
        samples.append(cpu_s * probe_speed)
    return median(samples)


def rate(rounds: list[Round]) -> float:
    """Elements per second at the reference host speed."""

    return sum(r.elements for r in rounds) / sum(r.ref_s for r in rounds)


def _check_rounds(rounds: list[Round]) -> tuple[int, int]:
    attempted = sum(r.elements for r in rounds)
    failed = sum(point_failures(p) for r in rounds for p in r.points)
    return attempted, failed


def _makespans(r: Round) -> list[int]:
    return [p.makespan for p in r.points]


def measure(workload: str, seed: int, seconds: float, root: Path, engine_dir) -> dict[str, Any]:
    """The untraced run: every end-to-end metric plus the checks."""

    setup_s = measure_setup(root, engine_dir, workload, seed)
    warm_up(workload, seed)
    rss: list[float] = []
    rounds = rounds_for(workload, seed, seconds, rss=rss)
    # Same seed, same round: the simulated schedule must repeat exactly.
    again = run_round(workload, seed, 0)
    deterministic = _makespans(again) == _makespans(rounds[0])
    times_us = [r.ref_s * 1e6 for r in rounds]
    attempted, failed = _check_rounds(rounds + [again])
    return {
        "values": {
            "setup_s": setup_s,
            "elems_per_s": rate(rounds),
            "lat_p50_us": median(times_us),
            "lat_p95_us": percentile(times_us, 95),
            "peak_rss_mb": rss[0],
        },
        "attempted": attempted,
        "failed": failed,
        "checks": {"makespan_repeats": deterministic},
        "info": {"rounds": len(rounds), "lat_p99_us": percentile(times_us, 99)},
    }


def install_sim_wrappers(tracer: Tracer) -> None:
    """Wrap the simulation stack's public entry points."""

    from repro.obs.events import SchedulerObserver
    from repro.obs.profiler import ContentionProfiler
    from repro.sim.scheduler import Scheduler

    observed = tracer.counts

    def make_run(fn):
        durations = tracer.spans["sim.run"]

        def run(self, *args, **kwargs):
            if self._hooks or self.alloc_stats is not None or self.cost.audit is not None:
                observed["sim.observed_runs"] += 1
            t0 = time.process_time_ns()
            try:
                return fn(self, *args, **kwargs)
            finally:
                durations.append(time.process_time_ns() - t0)

        return run

    tracer.patch(Scheduler, "run", make_run)
    # The session's hook objects are called through their type's
    # ``__call__`` by both engine loops, so the class is where to patch.
    tracer.time_call(SchedulerObserver, "__call__", "obs.hook.observer")
    tracer.time_call(ContentionProfiler, "__call__", "obs.hook.profiler")
    tracer.time_call(ContentionProfiler, "report", "obs.report")


def _core_metrics(points: list[Point]) -> dict[str, float]:
    faa = [p for p in points if p.stats]
    kelem = sum(p.elements for p in faa) / 1000.0 or 1.0
    s = {k: sum(p.stats[k] for p in faa) for k in (
        "send_suspends", "rcv_suspends", "send_restarts", "rcv_restarts",
        "poisoned", "cells_processed")}
    return {
        "core.suspends_per_kelem": (s["send_suspends"] + s["rcv_suspends"]) / kelem,
        "core.restarts_per_kelem": (s["send_restarts"] + s["rcv_restarts"]) / kelem,
        "core.poisoned_frac": s["poisoned"] / s["cells_processed"] if s["cells_processed"] else 0.0,
        "core.segments_per_kelem": sum(p.segments for p in faa) / kelem,
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """The traced run: per-layer metrics, with an untraced control phase.

    Budget: 30% untraced rounds (the trace-overhead base), 40% traced
    rounds, 30% for the second configuration — the ``engine="py"``
    variant on sim-fig5, the unobserved variant (observation tax) on
    sim-profile.
    """

    fig5 = workload == "sim-fig5"
    warm_up(workload, seed)
    base = rounds_for(workload, seed, 0.3 * seconds)
    tracer = Tracer()
    try:
        install_sim_wrappers(tracer)
        traced = rounds_for(workload, seed, 0.4 * seconds)
    finally:
        tracer.remove()
    ref = run_round(workload, seed, 0)
    # sim-fig5: the py reference tier; sim-profile: the same points
    # unobserved.  Either way round 0 must reproduce the same makespans.
    variant = rounds_for(workload, seed, 0.3 * seconds,
                         **({"engine": "py"} if fig5 else {"observed": False}))
    elems_t = sum(r.elements for r in traced)
    steps = sum(p.steps for r in traced for p in r.points)
    hook_calls = tracer.calls("obs.hook.observer") + tracer.calls("obs.hook.profiler")
    hook_s = tracer.total_s("obs.hook.observer") + tracer.total_s("obs.hook.profiler")
    if fig5 and tracer.counts["sim.observed_runs"]:
        raise BenchFailure("sim-fig5 ran an observed scheduler")
    # Spans are CPU or wall time as measured; scale them like the rounds.
    scale = sum(r.speed for r in traced) / len(traced)
    run_s = tracer.total_s("sim.run") * scale
    values = {
        "sim.run_s": run_s / len(traced),
        "sim.ns_per_step": run_s * 1e9 / steps,
        "sim.steps_per_elem": steps / elems_t,
        "sim.makespan_cycles": float(sum(_makespans(ref))),
        "sim.py_elems_per_s": rate(variant) if fig5 else 0.0,
        **_core_metrics([p for r in traced for p in r.points]),
        "obs.hook_calls_per_step": hook_calls / steps,
        "obs.hook_s": hook_s * scale / len(traced),
        "obs.report_s": tracer.mean_us("obs.report") * scale / 1e6,
        # Observed over unobserved host time for the same points; sim-fig5
        # attaches no observer (checked above), so its tax is exactly 1.
        "obs.tax": 1.0 if fig5 else rate(variant) / rate(base),
        "trace.overhead": rate(traced) / rate(base),
    }
    attempted, failed = _check_rounds(base + traced + variant + [ref])
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "makespan_repeats": _makespans(ref) == _makespans(base[0]),
            "variant_makespans_identical": _makespans(variant[0]) == _makespans(ref),
        },
        "info": {"rounds": [len(base), len(traced), len(variant)]},
    }

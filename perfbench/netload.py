"""Served-stack workloads: ``net-closed`` and ``net-open``.

The server runs in its own process (``server_main.py``), started and
stopped — with drain — by :class:`ServerProcess`; this process is the
load generator, with two connections: one producer and one consumer.
Concurrency comes from each connection's window of ops in flight.

Every message carries ``(producer, seq)``; the :class:`Ledger` counts
errored, lost, duplicated and unknown messages, and ops still pending
when the watchdog fires, into the run's ``failed`` count.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import select
import struct
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from common import (
    WINDOW_S,
    BenchFailure,
    mean,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    sample_speed,
    speed,
    window_speeds,
)
from tracer import Tracer

PAYLOAD_BYTES = 64
WINDOW = 16
#: net-closed: buffered channel.  net-open: rendezvous channel.
CAPACITY = {"net-closed": 64, "net-open": 0}
#: net-open offered load, msg/s: the low end, well below saturation.
OPEN_RATE = 1000.0
#: net-open is invalid when the generator itself ran this late (p99).
LATE_BOUND_US = 10_000.0
#: Messages pushed through a warm-up channel during set-up.
WARMUP_MESSAGES = 400
#: Messages delivered before the server's peak RSS is read (or the run's
#: end, if fewer).
RSS_MESSAGES = 50_000
#: Server starts per run; set-up time is their median.
SETUP_PROBES = 9
_HEADER = struct.Struct(">II")
PRODUCER_ID = 1


def make_pad(seed: int) -> bytes:
    """The seed's payload filler; receivers check it arrives intact."""

    return random.Random(seed).randbytes(PAYLOAD_BYTES - _HEADER.size)


# ----------------------------------------------------------------------
# server process


class ServerProcess:
    """One ``server_main.py`` child; always reaped, even on failure."""

    def __init__(self, root: Path, engine_dir: Optional[Path], trace: bool):
        self.root = root
        self.args = [sys.executable, str(root / "perfbench" / "server_main.py"),
                     str(engine_dir or ""), "1" if trace else "0"]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            self.args, cwd=self.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        line = self._readline(timeout)
        parts = line.split()
        if len(parts) != 2 or parts[0] != "READY":
            raise BenchFailure(f"server did not start: {line!r} {self._stderr()}")
        self.port = int(parts[1])

    def _readline(self, timeout: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buf = b""
        end = time.monotonic() + timeout
        while not buf.endswith(b"\n"):
            left = end - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchFailure("server did not answer in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            buf += chunk
        return buf.decode()

    def _stderr(self) -> str:
        if self.proc is None or self.proc.poll() is None or self.proc.stderr is None:
            return ""
        return self.proc.stderr.read().decode(errors="replace")[-2000:]

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid)

    def stop(self, timeout: float = 30.0) -> dict[str, Any]:
        """Ask for a drained shutdown and return the server's final stats."""

        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(b"STOP\n")
        self.proc.stdin.close()
        line = self._readline(timeout)
        try:
            self.proc.wait(timeout)
        finally:
            self.kill()
        if not line.startswith("STATS "):
            raise BenchFailure(f"server stopped without stats: {line!r}")
        return json.loads(line[len("STATS "):])

    def kill(self) -> None:
        """Reap the child: terminate, then kill; never leaves it running."""

        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None and not stream.closed:
                stream.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.kill()


# ----------------------------------------------------------------------
# load generation


@dataclass
class Ledger:
    """Per-message accounting and latency samples of one load phase."""

    pad: bytes = b""
    issued: int = 0
    acked: set = field(default_factory=set)
    errored: int = 0
    received: Counter = field(default_factory=Counter)
    stuck: int = 0
    corrupt: int = 0
    #: (completion time s, latency us) per client op, sends and receives
    ops: list = field(default_factory=list)
    #: receipt time s per message
    receipts: list = field(default_factory=list)
    #: wall time each message was issued at, by seq, net-open
    issued_at: list = field(default_factory=list)
    #: (receipt time s, generator lateness us, issue to receipt us) per
    #: message, net-open; the two add up to the time from due to receipt
    deliveries: list = field(default_factory=list)
    #: generator lateness in us per message, net-open
    late_us: list = field(default_factory=list)

    def failures(self) -> int:
        lost = sum(1 for seq in self.acked if seq not in self.received)
        dup = sum(n - 1 for n in self.received.values() if n > 1)
        unknown = sum(1 for seq in self.received if seq >= self.issued)
        return self.errored + lost + dup + unknown + self.stuck + self.corrupt


async def _consume(ch, ledger: Ledger, due_of=None) -> None:
    clock = time.perf_counter
    while True:
        t0 = clock()
        try:
            ok, value = await ch.receive_catching()
        except Exception:  # noqa: BLE001 - counted, the run goes on
            ledger.errored += 1
            return
        t1 = clock()
        if not ok:
            return
        ledger.ops.append((t1, (t1 - t0) * 1e6))
        pid, seq = _HEADER.unpack_from(value)
        if pid != PRODUCER_ID or value[_HEADER.size:] != ledger.pad:
            ledger.corrupt += 1
            continue
        ledger.received[seq] += 1
        ledger.receipts.append(t1)
        if due_of is not None:
            issued = ledger.issued_at[seq]
            ledger.deliveries.append((t1, (issued - due_of(seq)) * 1e6, (t1 - issued) * 1e6))


async def _send(ch, seq: int, ledger: Ledger) -> None:
    clock = time.perf_counter
    t0 = clock()
    try:
        await ch.send(_HEADER.pack(PRODUCER_ID, seq) + ledger.pad)
    except Exception:  # noqa: BLE001 - counted, the run goes on
        ledger.errored += 1
        return
    t1 = clock()
    ledger.ops.append((t1, (t1 - t0) * 1e6))
    ledger.acked.add(seq)


async def closed_loop(prod_ch, cons_ch, ledger: Ledger, *, until: float = 0.0,
                      count: int = 0) -> None:
    """Each side keeps ``WINDOW`` ops in flight until *until* (or *count* sends)."""

    async def producer_lane() -> None:
        while (time.perf_counter() < until) if until else (ledger.issued < count):
            seq = ledger.issued
            ledger.issued += 1
            await _send(prod_ch, seq, ledger)

    consumers = [asyncio.ensure_future(_consume(cons_ch, ledger)) for _ in range(WINDOW)]
    try:
        await asyncio.gather(*(producer_lane() for _ in range(WINDOW)))
        await prod_ch.close()
        await asyncio.gather(*consumers)
    finally:
        for task in consumers:
            task.cancel()


async def open_loop(prod_ch, cons_ch, ledger: Ledger, *, t0: float, rate: float,
                    seconds: float) -> None:
    """Send on a fixed schedule from *t0*; time each message from when it was due."""

    total = int(rate * seconds)

    def due_of(seq: int) -> float:
        return t0 + seq / rate

    consumers = [asyncio.ensure_future(_consume(cons_ch, ledger, due_of)) for _ in range(WINDOW)]
    sends: set = set()
    try:
        while ledger.issued < total:
            now = time.perf_counter()
            due = due_of(ledger.issued)
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            while ledger.issued < total and due_of(ledger.issued) <= now:
                seq = ledger.issued
                ledger.issued += 1
                ledger.late_us.append((now - due_of(seq)) * 1e6)
                ledger.issued_at.append(now)
                task = asyncio.ensure_future(_send(prod_ch, seq, ledger))
                sends.add(task)
                task.add_done_callback(sends.discard)
        await asyncio.gather(*list(sends))
        await prod_ch.close()
        await asyncio.gather(*consumers)
    finally:
        for task in consumers + list(sends):
            task.cancel()


async def _rss_after(server: ServerProcess, ledger: Ledger, out: list) -> None:
    """Read the server's peak RSS once ``RSS_MESSAGES`` have been delivered.

    A served channel keeps every segment it ever used (see README), so
    the server grows with the messages it moved: read at a fixed count,
    a faster server does not read as a bigger one.
    """

    while len(ledger.receipts) < RSS_MESSAGES:
        await asyncio.sleep(0.05)
    out.append(server.peak_rss_mb())


async def _guarded(coro, ledger: Ledger, timeout: float) -> None:
    """One watchdog per phase: a wedged run counts its pending ops as stuck."""

    try:
        await asyncio.wait_for(coro, timeout)
    except asyncio.TimeoutError:
        ledger.stuck += max(1, ledger.issued - len(ledger.received))


class Session:
    """Producer and consumer connections to one server."""

    def __init__(self, port: int, workload: str, pad: bytes):
        self.port = port
        self.capacity = CAPACITY[workload]
        self.pad = pad
        self.prod = self.cons = None

    async def connect(self) -> None:
        from repro.net.client import connect

        # No per-op deadlines: they put a timer on every op; each phase
        # has one watchdog instead.
        self.prod = await connect("127.0.0.1", self.port, deadline=None)
        self.cons = await connect("127.0.0.1", self.port, deadline=None)

    async def channels(self, name: str):
        return (await self.prod.channel(name, capacity=self.capacity),
                await self.cons.channel(name, capacity=self.capacity))

    async def warmup(self) -> Ledger:
        ledger = Ledger(pad=self.pad)
        p, c = await self.channels("warmup")
        await _guarded(closed_loop(p, c, ledger, count=WARMUP_MESSAGES), ledger, 60.0)
        return ledger

    async def close(self) -> None:
        for client in (self.prod, self.cons):
            if client is not None:
                await client.close()


@dataclass
class Phase:
    ledger: Ledger
    #: wall time the measured load started at, and its length
    t0: float
    seconds: float
    window_s: float
    client_cpu_s: float
    server_cpu_s: float
    stats: dict
    #: (wall time, speed) samples of the load generator
    client_speeds: list
    #: set-up seconds of every server started for this phase
    setup_s: list
    #: warm-up messages sent, and how many of them failed
    warm_attempted: int
    warm_failed: int


async def _phase(root, engine_dir, workload: str, seed: int, seconds: float, *,
                 trace: bool = False, setups: int = 1) -> Phase:
    """Start *setups* servers (keeping the last), then run one measured load.

    Set-up of each server is timed from spawn through ready, connect,
    HELLO and the warm-up messages, and scaled to the reference speed by
    the load generator's speed around it.
    """

    pad = make_pad(seed)
    setup_s: list[float] = []
    warm_attempted = warm_failed = 0
    speeds: list = []
    rss: list = []
    for k in range(setups):
        server = ServerProcess(root, engine_dir, trace)
        with server:
            before = speed(16)
            t0 = time.perf_counter()
            server.start()
            session = Session(server.port, workload, pad)
            try:
                await session.connect()
                warm = await session.warmup()
                took = time.perf_counter() - t0
                setup_s.append(took * (before + speed(16)) / 2)
                warm_attempted += warm.issued
                warm_failed += warm.failures()
                if k == setups - 1:
                    ledger = Ledger(pad=pad)
                    p, c = await session.channels("bench")
                    # The load generator's start-up heap is frozen like
                    # the server's (server_main.py), so that its full
                    # collections do not stall the measured load.
                    gc.collect()
                    gc.freeze()
                    sampler = asyncio.ensure_future(sample_speed(speeds))
                    rss_probe = asyncio.ensure_future(_rss_after(server, ledger, rss))
                    cpu_c0, cpu_s0 = time.process_time(), server.cpu_s()
                    t0 = time.perf_counter()
                    try:
                        if workload == "net-closed":
                            load = closed_loop(p, c, ledger, until=t0 + seconds)
                        else:
                            load = open_loop(p, c, ledger, t0=t0, rate=OPEN_RATE, seconds=seconds)
                        await _guarded(load, ledger, seconds + 60.0)
                    finally:
                        sampler.cancel()
                        rss_probe.cancel()
                    t1 = time.perf_counter()
                    cpu_c1, cpu_s1 = time.process_time(), server.cpu_s()
                    if not rss:
                        rss.append(server.peak_rss_mb())
            finally:
                await session.close()
            stats = server.stop()
            _check_server(stats, trace)
    stats["peak_rss_mb"] = rss[0]
    return Phase(ledger, t0, seconds, t1 - t0, cpu_c1 - cpu_c0, cpu_s1 - cpu_s0, stats,
                 speeds, setup_s, warm_attempted, warm_failed)


def _check_server(stats: dict, trace: bool) -> None:
    if not stats["restored"]:
        raise BenchFailure("server wrappers were not removed")
    if not trace and stats["wrappers"]:
        raise BenchFailure("untraced server installed wrappers")


def summary(workload: str, phase: Phase) -> dict[str, float]:
    """Throughput and latency of the measured load, at the reference speed.

    The load is cut into ``WINDOW_S`` windows; every latency sample and
    every window's duration is scaled by its window's speed (the mean of
    the server's and the load generator's), and the percentiles are taken
    over all scaled samples.  net-open's throughput is the offered rate,
    reported as delivered and unscaled.
    """

    width = min(WINDOW_S, phase.seconds)
    n = int(phase.seconds / width)
    speeds = window_speeds(phase.t0, n, width, phase.client_speeds, phase.stats["speeds"])
    ledger = phase.ledger
    # net-open: the generator's own lateness (mostly the event loop's
    # millisecond timer granularity) is not the program's time and is
    # kept as measured; only issue-to-receipt is scaled.
    samples = (((t, 0.0, lat) for t, lat in ledger.ops) if workload == "net-closed"
               else ledger.deliveries)
    scaled = []
    for t, late, lat in samples:
        w = int((t - phase.t0) / width)
        if 0 <= w < n:
            scaled.append(late + lat * speeds[w])
    if not ledger.receipts:
        throughput = 0.0
    elif workload == "net-open":
        # The offered rate, as delivered: first due time to last receipt.
        throughput = len(ledger.receipts) / (max(ledger.receipts) - phase.t0)
    else:
        delivered = sum(1 for t in ledger.receipts if phase.t0 <= t < phase.t0 + n * width)
        throughput = delivered / sum(width * s for s in speeds)
    return {
        "elems_per_s": throughput,
        "lat_p50_us": percentile(scaled, 50),
        "lat_p95_us": percentile(scaled, 95),
        "lat_p99_us": percentile(scaled, 99),
        "samples": len(scaled),
        "speed": sum(speeds) / n,
    }


def _validity(workload: str, ledger: Ledger) -> dict[str, bool]:
    if workload != "net-open":
        return {}
    return {"generator_on_time": percentile(ledger.late_us, 99) <= LATE_BOUND_US}


def measure(workload: str, seed: int, seconds: float, root: Path, engine_dir) -> dict[str, Any]:
    phase = asyncio.run(_phase(root, engine_dir, workload, seed, seconds, setups=SETUP_PROBES))
    ledger = phase.ledger
    figures = summary(workload, phase)
    return {
        "values": {
            "setup_s": median(phase.setup_s),
            "elems_per_s": figures["elems_per_s"],
            "lat_p50_us": figures["lat_p50_us"],
            "lat_p95_us": figures["lat_p95_us"],
            "peak_rss_mb": phase.stats["peak_rss_mb"],
        },
        "attempted": ledger.issued + phase.warm_attempted,
        "failed": ledger.failures() + phase.warm_failed,
        "checks": _validity(workload, ledger),
        "info": {
            "server_tier": phase.stats["tier"],
            "mean_speed": round(figures["speed"], 4),
            "raw_msgs_per_s": len(ledger.receipts) / phase.window_s,
            # Stamped, not a BENCHMARK.json metric: on a shared host the
            # hypervisor's stalls decide it (see README).
            "lat_p99_us": figures["lat_p99_us"],
            "lat_samples": figures["samples"],
            "late_p99_us": percentile(ledger.late_us, 99),
            "messages": ledger.issued,
        },
    }


def _core(stats: dict) -> dict[str, float]:
    ch = stats["channels"].get("bench", {})
    kelem = max(ch.get("receives", 0), 1) / 1000.0
    cells = ch.get("cells_processed", 0)
    return {
        "core.suspends_per_kelem": (ch.get("send_suspends", 0) + ch.get("rcv_suspends", 0)) / kelem,
        "core.restarts_per_kelem": (ch.get("send_restarts", 0) + ch.get("rcv_restarts", 0)) / kelem,
        "core.poisoned_frac": ch.get("poisoned", 0) / cells if cells else 0.0,
        "core.segments_per_kelem": ch.get("segments_allocated", 0) / kelem,
    }


def measure_traced(workload: str, seed: int, seconds: float, root: Path,
                   engine_dir) -> dict[str, Any]:
    """Untraced control phase (40%), then a traced phase (60%)."""

    from netwrap import install_client_wrappers

    async def both():
        base = await _phase(root, engine_dir, workload, seed, 0.4 * seconds)
        tracer = Tracer()
        try:
            install_client_wrappers(tracer)
            traced = await _phase(root, engine_dir, workload, seed, 0.6 * seconds, trace=True)
        finally:
            tracer.remove()
        return base, traced, tracer

    base, traced, tracer = asyncio.run(both())
    s = traced.stats
    ledger = traced.ledger
    client_ops = len(ledger.ops)
    ops = max(client_ops, 1)
    client_cpu = traced.client_cpu_s * 1e6 / ops
    server_cpu = traced.server_cpu_s * 1e6 / ops
    op_us = [d / 1e3 for d in tracer.spans.get("net.client.op", ())]
    c_frames = tracer.counts["net.decode.op_frames"]
    fig_b, fig_t = summary(workload, base), summary(workload, traced)
    if workload == "net-closed":
        overhead = fig_t["elems_per_s"] / fig_b["elems_per_s"]
    else:
        overhead = fig_b["lat_p50_us"] / fig_t["lat_p50_us"]
    served = max(s["ops_served"], 1)
    values = {
        **_core(s),
        # No observability session runs in the served stack.
        "obs.tax": 1.0,
        "net.client.op_p50_us": percentile(op_us, 50),
        "net.client.op_p99_us": percentile(op_us, 99),
        "net.client.encode_us": tracer.mean_us("net.client.encode"),
        "net.client.decode_us": sum(tracer.spans["net.decode"]) / 1e3 / max(c_frames, 1),
        "net.client.frames_per_read": c_frames / max(tracer.calls("net.decode"), 1),
        "net.client.cpu_us_per_op": client_cpu,
        "net.iobuf.client.frames_per_flush":
            tracer.counts["net.flush.frames"] / max(tracer.counts["net.flush.count"], 1),
        "net.iobuf.client.bytes_per_flush":
            tracer.counts["net.flush.bytes"] / max(tracer.counts["net.flush.count"], 1),
        "net.iobuf.server.frames_per_flush": s["flush_frames"] / max(s["flushes"], 1),
        "net.iobuf.server.bytes_per_flush": s["flush_bytes"] / max(s["flushes"], 1),
        "net.server.decode_us": s["decode_ns"] / 1e3 / max(s["op_frames"], 1),
        "net.server.frames_per_read": s["op_frames"] / max(s["feeds"], 1),
        "net.server.ops_per_batch": s["batched_ops"] / max(s["batches"], 1),
        "net.server.cpu_us_per_op": server_cpu,
        "net.server.busy_frac": traced.server_cpu_s / traced.window_s,
        "net.registry.lookup_us": s["lookup_us"],
        "net.registry.lookups_per_op": s["lookups"] / served,
        "aio.try_us": s["try_us"],
        "aio.park_frac": s["park_calls"] / served,
        "aio.park_wait_p50_us": s["park_p50_us"],
        "aio.park_wait_p99_us": s["park_p99_us"],
        "net.wait_us": mean(op_us) - client_cpu - server_cpu,
        "loadgen.late_p99_us": percentile(ledger.late_us, 99),
        "trace.overhead": overhead,
    }
    checks = {**_validity(workload, ledger), "traced_server": s["wrappers"] > 0}
    return {
        "values": values,
        "attempted": sum(p.ledger.issued + p.warm_attempted for p in (base, traced)),
        "failed": sum(p.ledger.failures() + p.warm_failed for p in (base, traced)),
        "checks": checks,
        "info": {"server_tier": s["tier"], "ops_served": s["ops_served"], "client_ops": client_ops},
    }

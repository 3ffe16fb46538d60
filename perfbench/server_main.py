"""Server launcher for the served workloads: one ``ChannelServer`` process.

    python3 perfbench/server_main.py ENGINE_DIR TRACE

Prints ``READY <port>`` once listening.  A line on stdin (or EOF,
if the parent dies) triggers ``shutdown(drain=True)``; the process then
prints ``STATS <json>`` and exits 0.  With ``TRACE`` = 1 the timing
wrappers are installed *before* ``serve`` is called and removed after
the drain; with 0 nothing is wrapped.
"""

import asyncio
import gc
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import engine_build  # noqa: E402
from common import percentile, proc_peak_rss_mb, sample_speed  # noqa: E402
from netwrap import install_common_net_wrappers, wrapped_originals  # noqa: E402
from tracer import Tracer  # noqa: E402


def install_server_wrappers(tracer: Tracer) -> None:
    from repro.aio.channel import AsyncChannel
    from repro.net.registry import ChannelRegistry

    install_common_net_wrappers(tracer)
    tracer.time_call(ChannelRegistry, "get", "net.registry.lookup")
    tracer.time_call(ChannelRegistry, "open", "net.registry.lookup")
    tracer.time_call(AsyncChannel, "try_send", "aio.try")
    tracer.time_call(AsyncChannel, "try_receive", "aio.try")
    tracer.time_call(AsyncChannel, "send", "aio.park")
    tracer.time_call(AsyncChannel, "receive", "aio.park")


def server_targets():
    """Every (owner, name) the server side may wrap, for restore checks."""

    from repro.aio.channel import AsyncChannel
    from repro.net.registry import ChannelRegistry

    return wrapped_originals() + [
        (ChannelRegistry, "get"), (ChannelRegistry, "open"),
        (AsyncChannel, "try_send"), (AsyncChannel, "try_receive"),
        (AsyncChannel, "send"), (AsyncChannel, "receive"),
    ]


def _channel_stats(server) -> dict:
    out = {}
    for entry in server.registry.entries():
        ch = entry.channel._ch
        lst = getattr(ch, "_list", None)
        out[entry.name] = {
            **ch.stats.snapshot(),
            "segments_allocated": getattr(lst, "segments_allocated", 0),
        }
    return out


async def _serve(trace: bool) -> dict:
    from repro import _engine
    from repro.net.server import serve

    tier = _engine.resolve()
    targets = server_targets()
    originals = [vars(owner).get(name) for owner, name in targets]
    tracer = Tracer()
    if trace:
        install_server_wrappers(tracer)
    installed = tracer.installed
    try:
        server = await serve("127.0.0.1", 0)
        # Freeze the start-up heap (imports, the listening server), as a
        # long-running server commonly does: full collections then scan
        # only what serving accumulates, not every module object.
        gc.collect()
        gc.freeze()
        speeds: list = []
        sampler = asyncio.ensure_future(sample_speed(speeds))
        print(f"READY {server.port}", flush=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.readline)
        sampler.cancel()
        await server.shutdown(drain=True, timeout=10.0)
    finally:
        tracer.remove()
    restored = all(vars(owner).get(name) is orig
                   for (owner, name), orig in zip(targets, originals))
    park = [d / 1e3 for d in tracer.spans.get("aio.park", ())]
    return {
        "tier": tier,
        "wrappers": installed,
        "restored": restored,
        "ops_served": server.ops_served,
        "speeds": speeds,
        "peak_rss_mb": proc_peak_rss_mb(os.getpid()),
        "channels": _channel_stats(server),
        "decode_ns": sum(tracer.spans.get("net.decode", ())),
        "feeds": tracer.calls("net.decode"),
        "op_frames": tracer.counts["net.decode.op_frames"],
        "batches": tracer.counts["net.decode.batches"],
        "batched_ops": tracer.counts["net.decode.batched_ops"],
        "lookups": tracer.calls("net.registry.lookup"),
        "lookup_us": tracer.mean_us("net.registry.lookup"),
        "try_calls": tracer.calls("aio.try"),
        "try_us": tracer.mean_us("aio.try"),
        "park_calls": len(park),
        "park_p50_us": percentile(park, 50),
        "park_p99_us": percentile(park, 99),
        "flushes": tracer.counts["net.flush.count"],
        "flush_bytes": tracer.counts["net.flush.bytes"],
        "flush_frames": tracer.counts["net.flush.frames"],
    }


def main(argv: list[str]) -> int:
    engine_dir, trace = argv
    engine_build.activate(Path(engine_dir) if engine_dir else None)
    stats = asyncio.run(_serve(trace == "1"))
    print("STATS " + json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

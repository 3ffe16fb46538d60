"""The repository benchmark: one command for both stacks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It first builds the compiled engine
from that checkout's own C source (cached under ``.bench_build/``), then
runs one workload and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics with no wrapper installed; ``--trace 1``
reports the per-layer metrics from a separate traced run.  Lines before
it, prefixed ``#``, give each metric with its unit, ``fail_frac``, and the
run's stamps (engine tier, host facts).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path

from common import (
    END_TO_END,
    PER_LAYER,
    BenchFailure,
    cpu_times,
    emit,
    host_facts,
    metric_block,
    repo_root,
    steal_frac,
)

WORKLOADS = ("sim-fig5", "sim-profile", "net-closed", "net-open")


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def prepare(root: Path):
    """Build and activate the engine; return (engine dir, expected tier)."""

    if not (root / "src" / "repro" / "__init__.py").is_file() or not (root / "setup.py").is_file():
        raise BenchFailure(f"{root} is not a checkout of this repository (no src/repro, setup.py)")
    sys.path.insert(0, str(root / "src"))
    import engine_build

    engine_dir = None
    expected = "py"
    if engine_build.has_c_source(root):
        engine_dir = engine_build.ensure_built(root, root / ".bench_build")
        expected = "c"
    engine_build.activate(engine_dir)
    return engine_dir, expected


def pin_to_one_cpu() -> int:
    """Run this process and every child it starts on one vCPU.

    On a shared host a cross-vCPU wake-up costs from tens of microseconds
    to milliseconds, depending on the neighbours: unpinned, net-closed
    moved 4.7k-16.8k msg/s between runs.  On one vCPU the server and the
    load generator take turns, so the served figures measure the CPU
    both sides spend per message, and one speed sample describes both.
    """

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args: argparse.Namespace) -> None:
    root = repo_root()
    cpu = pin_to_one_cpu()
    load_before, cpu_before = os.getloadavg(), cpu_times()
    t_build = time.perf_counter()
    engine_dir, expected = prepare(root)
    build_s = time.perf_counter() - t_build

    from repro import _engine

    import engine_build

    tier = _engine.resolve()
    if tier != expected:
        # A silent fallback would compare a different program.
        raise BenchFailure(f"engine tier {tier!r} resolved, {expected!r} expected: "
                           f"{_engine.probe_error()}")
    if args.workload.startswith("sim-"):
        import simload

        if args.trace:
            out = simload.measure_traced(args.workload, args.seed, args.seconds)
        else:
            out = simload.measure(args.workload, args.seed, args.seconds, root, engine_dir)
    else:
        import netload

        if args.trace:
            out = netload.measure_traced(args.workload, args.seed, args.seconds, root, engine_dir)
        else:
            out = netload.measure(args.workload, args.seed, args.seconds, root, engine_dir)
        if out["info"]["server_tier"] != tier:
            raise BenchFailure(f"server ran tier {out['info']['server_tier']!r}, client {tier!r}")

    names = PER_LAYER if args.trace else END_TO_END
    values = out["values"]
    if set(values) - set(names) or (not args.trace and set(values) != set(names)):
        raise BenchFailure(f"metric set mismatch: {sorted(set(values) ^ set(names))}")
    checks = out["checks"]
    result = {
        "correct": all(checks.values()) and out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        # A layer the workload never enters did no work: it reads 0.
        "metrics": metric_block({n: values.get(n, 0.0) for n in names}),
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine_tier": tier,
        "pinned_cpu": cpu,
        "engine_so": engine_build.loaded_from(),
        "build_s": round(build_s, 3),
        "checks": checks,
        "info": out["info"],
        **host_facts(),
        "loadavg_before": list(load_before),
        # Time the hypervisor took from this VM's vCPUs during the run.
        "steal_frac": round(steal_frac(cpu_before, cpu_times()), 4),
    }
    meta["loadavg_after"] = meta.pop("loadavg")
    emit(result, meta)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        run(args)
    except Exception as exc:  # noqa: BLE001 - any failure: no result line
        traceback.print_exc()
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

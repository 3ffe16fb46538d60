"""Set-up probe: a fresh interpreter from start to its first ``Scheduler.run``.

Run by :func:`simload.measure_setup`.  It calls
:func:`repro.bench.harness.run_producer_consumer` as a measured point
does, with ``Scheduler.run`` replaced — in this throwaway process only —
by a stop that records ``time.process_time()``: this process's CPU
seconds since it started.  That covers interpreter start, imports, the
engine probe and configure, channel build and spawn, without the time a
shared host steals from the vCPU.  It prints that figure and then the
host speed (``common.speed``) measured right after, for the parent to
scale by.

    python3 perfbench/setup_probe.py ENGINE_DIR IMPL THREADS CAPACITY COROUTINES ELEMENTS SEED OBSERVED
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import engine_build  # noqa: E402
import simload  # noqa: E402
from common import speed  # noqa: E402


class Started(Exception):
    """Raised by the first ``Scheduler.run``; carries the CPU time."""


def main(argv: list[str]) -> None:
    engine_dir, impl, threads, capacity, coroutines, elements, seed, observed = argv
    engine_build.activate(Path(engine_dir) if engine_dir else None)
    from repro.bench.harness import run_producer_consumer
    from repro.sim.scheduler import Scheduler

    def first_run(sched, *args, **kwargs):
        raise Started(time.process_time())

    Scheduler.run = first_run
    session = None
    if observed == "1":
        from repro.obs import ObsSession

        session = ObsSession(label=impl)
    try:
        run_producer_consumer(
            impl, int(threads), int(capacity), int(coroutines), int(elements),
            work_mean=simload.WORK_MEAN, seed=int(seed), profile=session,
        )
    except Started as started:
        cpu_s = started.args[0]
    else:
        raise SystemExit("Scheduler.run was never called")
    print(cpu_s, speed(simload.CALIB_REPS))


if __name__ == "__main__":
    main(sys.argv[1:])

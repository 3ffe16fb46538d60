"""Engine-tier resolution, fallback telemetry, and c-vs-py identity.

The compiled tier (:mod:`repro._engine._enginec`) is a *transcription*
of the pure-Python fused loop, not a reimplementation: every observable
— makespan, per-task clocks and step counts, task end states, raised
errors, and the final jitter-LCG state — must be bit-identical under
both tiers.  ``tests/test_golden_determinism.py`` proves that for the
16 golden configs; this file covers the resolution machinery itself and
the edge paths the goldens never reach (ClockSync fallback,
park/interrupt/retry, deadlock, step limit, task failure).

Fallback behavior is exercised in subprocesses with
``REPRO_NO_ENGINE_EXT=1`` so the probe's process-wide caching cannot
leak between tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import _engine
from repro.concurrent.cells import IntCell, RefCell
from repro.concurrent.ops import (
    Cas,
    ClockSync,
    CurrentTask,
    Faa,
    GetAndSet,
    ParkTask,
    Read,
    Spin,
    UnparkTask,
    Work,
    Write,
    Yield,
)
from repro.errors import Interrupted, RetryWakeup
from repro.sim.costmodel import CostModel
from repro.sim.scheduler import DesPolicy, Scheduler

SRC = str(Path(__file__).resolve().parents[1] / "src")

needs_c = pytest.mark.skipif(
    not _engine.available(),
    reason=f"compiled engine unavailable: {_engine.probe_error()}",
)


@pytest.fixture
def clean_default():
    """Run the test with no process-default engine; restore afterwards."""

    prev = _engine.set_default_engine(None)
    yield
    _engine.set_default_engine(prev)


class TestResolution:
    def test_explicit_py(self, clean_default):
        assert _engine.resolve("py") == "py"

    @needs_c
    def test_explicit_c(self, clean_default):
        assert _engine.resolve("c") == "c"

    def test_unknown_request_rejected(self, clean_default):
        with pytest.raises(ValueError, match="unknown engine"):
            _engine.resolve("warp")
        with pytest.raises(ValueError, match="unknown engine"):
            _engine.set_default_engine("warp")

    def test_default_used_when_no_request(self, clean_default):
        _engine.set_default_engine("py")
        assert _engine.resolve() == "py"

    @needs_c
    def test_explicit_request_beats_default(self, clean_default):
        _engine.set_default_engine("c")
        assert _engine.resolve("py") == "py"

    def test_env_used_when_no_default(self, clean_default, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "py")
        assert _engine.resolve() == "py"

    def test_default_beats_env(self, clean_default, monkeypatch):
        monkeypatch.setenv(
            "REPRO_ENGINE", "c" if _engine.available() else "auto"
        )
        _engine.set_default_engine("py")
        assert _engine.resolve() == "py"

    def test_bogus_env_rejected(self, clean_default, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ValueError, match="unknown engine"):
            _engine.resolve()

    def test_auto_resolves_to_concrete_tier(self, clean_default, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        want = "c" if _engine.available() else "py"
        assert _engine.resolve("auto") == want
        assert _engine.resolve() == want

    def test_auto_probe_metric_emitted_exactly_once(self, clean_default):
        # The announce is a process-wide one-shot: no matter how many
        # auto resolutions have happened by the time this test runs, the
        # engine_tier series must hold exactly one count, on the tier
        # that actually won.
        _engine.resolve("auto")
        _engine.resolve("auto")
        tier = "c" if _engine.available() else "py"
        assert _engine.METRICS.counter("engine_tier", tier=tier).value == 1
        other = "py" if tier == "c" else "c"
        assert _engine.METRICS.counter("engine_tier", tier=other).value == 0

    def test_scheduler_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Scheduler(policy=DesPolicy(), cost_model=CostModel(), engine="warp")


def _run_probeless(code: str, **env_extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_NO_ENGINE_EXT="1")
    env.pop("REPRO_ENGINE", None)
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestFallback:
    """Probe-disabled subprocesses: auto degrades, explicit 'c' refuses."""

    def test_auto_falls_back_with_one_notice_and_metric(self):
        cp = _run_probeless(
            """
            from repro import _engine
            assert _engine.resolve("auto") == "py"
            assert _engine.resolve("auto") == "py"
            assert not _engine.available()
            assert "REPRO_NO_ENGINE_EXT" in _engine.probe_error()
            assert _engine.METRICS.counter("engine_tier", tier="py").value == 1
            """
        )
        assert cp.returncode == 0, cp.stderr
        assert cp.stderr.count("compiled engine unavailable") == 1

    def test_explicit_c_raises_engine_unavailable(self):
        cp = _run_probeless(
            """
            from repro import _engine
            from repro.concurrent.ops import Work
            from repro.errors import EngineUnavailableError
            from repro.sim.costmodel import CostModel
            from repro.sim.scheduler import DesPolicy, Scheduler

            try:
                _engine.resolve("c")
            except EngineUnavailableError as exc:
                assert "REPRO_NO_ENGINE_EXT" in str(exc)
            else:
                raise SystemExit("resolve('c') did not raise")

            sched = Scheduler(policy=DesPolicy(), cost_model=CostModel(), engine="c")
            sched.spawn((op for op in (Work(1),)), "t")
            try:
                sched.run()
            except EngineUnavailableError:
                pass
            else:
                raise SystemExit("Scheduler(engine='c').run() did not raise")
            """
        )
        assert cp.returncode == 0, cp.stdout + cp.stderr

    def test_disabled_notice_names_kind_without_rebuild_hint(self):
        # An environment opt-out is intentional: the notice names the
        # [disabled] kind and must NOT nag about rebuilding.
        cp = _run_probeless(
            """
            from repro import _engine
            assert _engine.resolve("auto") == "py"
            """
        )
        assert cp.returncode == 0, cp.stderr
        assert "[disabled]" in cp.stderr
        assert "disabled by environment" in cp.stderr
        assert "rebuild:" not in cp.stderr

    def test_import_error_notice_names_kind_with_rebuild_hint(self):
        # A missing/unimportable build is fixable: the notice names the
        # [import-error] kind and points at the rebuild command.
        cp = _run_probeless(
            """
            import sys

            class _Block:
                def find_spec(self, name, path=None, target=None):
                    if name == "repro._engine._enginec":
                        raise ImportError("blocked for test")
                    return None

            sys.meta_path.insert(0, _Block())
            from repro import _engine
            assert _engine.resolve("auto") == "py"
            assert _engine.probe_error_kind() == "import-error"
            """,
            REPRO_NO_ENGINE_EXT="0",
        )
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert "[import-error]" in cp.stderr
        assert "not built or not importable" in cp.stderr
        assert "rebuild: python setup.py build_ext --inplace" in cp.stderr

    def test_stale_build_serves_through_python_driver(self):
        # A build from an older tree imports and configures but lacks the
        # sync driver.  The probe must class it stale, so the first
        # AsyncChannel falls back (one notice) instead of its first op
        # failing with AttributeError.
        cp = _run_probeless(
            """
            import asyncio, sys, types

            stub = types.ModuleType("repro._engine._enginec")
            stub.configure = lambda cfg: None
            stub.run_fast = stub.run_observed = lambda sched: None
            stub.kernel_rz_send = lambda *args: None
            sys.modules["repro._engine._enginec"] = stub

            from repro import _engine
            from repro.aio import AsyncChannel

            async def main():
                ch = AsyncChannel(1)
                return ch.try_send(1), ch.try_receive(), ch.close()

            assert asyncio.run(main()) == (True, (True, 1), True)
            assert _engine.probe_error_kind() == "stale-build"
            assert "step" in _engine.probe_error()
            assert _engine.resolve("auto") == "py"
            """,
            REPRO_NO_ENGINE_EXT="0",
        )
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert cp.stderr.count("compiled engine unavailable [stale-build]") == 1
        assert "rebuild: python setup.py build_ext --inplace" in cp.stderr

    def test_sync_driver_only_build_is_stale(self):
        # A build with the 3-argument drive_sync but not the stepping
        # core that replaced it: the served ops must fall back to the
        # Python core, send/receive included, rather than fail.
        cp = _run_probeless(
            """
            import asyncio, sys, types

            stub = types.ModuleType("repro._engine._enginec")
            stub.configure = lambda cfg: None
            stub.run_fast = stub.run_observed = lambda sched: None
            stub.kernel_rz_send = lambda *args: None
            stub.drive_sync = lambda gen, handle, fallback: None
            sys.modules["repro._engine._enginec"] = stub

            from repro import _engine
            from repro.aio import AsyncChannel

            async def main():
                ch = AsyncChannel(0)
                receiver = asyncio.ensure_future(ch.receive())
                await asyncio.sleep(0)
                await ch.send("x")
                return await receiver, ch.try_send(1), ch.close()

            assert asyncio.run(main()) == ("x", False, True)
            assert _engine.probe_error_kind() == "stale-build"
            assert "missing step" in _engine.probe_error()
            """,
            REPRO_NO_ENGINE_EXT="0",
        )
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert cp.stderr.count("compiled engine unavailable [stale-build]") == 1

    def test_explicit_c_async_channel_raises(self):
        cp = _run_probeless(
            """
            from repro.aio import AsyncChannel
            from repro.errors import EngineUnavailableError

            try:
                AsyncChannel(1)
            except EngineUnavailableError as exc:
                assert "REPRO_NO_ENGINE_EXT" in str(exc)
            else:
                raise SystemExit("AsyncChannel under REPRO_ENGINE=c did not raise")
            """,
            REPRO_ENGINE="c",
        )
        assert cp.returncode == 0, cp.stdout + cp.stderr

    def test_explicit_py_never_probes_or_warns(self):
        cp = _run_probeless(
            """
            from repro import _engine
            assert _engine.resolve() == "py"
            """,
            REPRO_ENGINE="py",
        )
        assert cp.returncode == 0, cp.stderr
        assert "compiled engine unavailable" not in cp.stderr

    def test_buildless_run_is_bit_identical_to_py(self):
        # A checkout that never built the extension must produce the
        # exact numbers the reference tier does.
        code = """
            from repro.bench.harness import run_producer_consumer
            r = run_producer_consumer("faa-channel", 4, elements=400, seed=3)
            print(r.makespan, r.steps, r.throughput)
            """
        probeless = _run_probeless(code)
        assert probeless.returncode == 0, probeless.stderr
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_ENGINE="py")
        env.pop("REPRO_NO_ENGINE_EXT", None)
        reference = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert reference.returncode == 0, reference.stderr
        assert probeless.stdout == reference.stdout


def _run_tiered(tier: str, scenario, **sched_kwargs):
    """Run *scenario* under *tier*; return every observable as one dict."""

    sched = Scheduler(
        policy=DesPolicy(),
        cost_model=CostModel(),
        processors=sched_kwargs.pop("processors", 4),
        engine=tier,
        **sched_kwargs,
    )
    extra = scenario(sched)
    err = None
    try:
        sched.run()
    except Exception as exc:  # noqa: BLE001 - error parity is under test
        err = (type(exc).__name__, str(exc))
    return {
        "makespan": sched.makespan,
        "steps": sched.total_steps,
        "tasks": [(t.name, t.clock, t.steps, t.state.name) for t in sched.tasks],
        "lcg": sched.cost._lcg,
        "err": err,
        "extra": extra,
    }


@needs_c
class TestTierIdentity:
    """Edge paths the golden configs never reach must also match bit-for-bit."""

    def both(self, scenario, **kwargs):
        py = _run_tiered("py", scenario, **kwargs)
        c = _run_tiered("c", scenario, **kwargs)
        assert py == c
        return py

    def test_memory_op_mix(self):
        def scenario(sched):
            icell = IntCell(0, "id.i")
            rcell = RefCell(None, "id.r")
            token = object()

            def worker(k, n):
                for j in range(n):
                    v = yield Read(icell)
                    yield Faa(icell, 1)
                    yield Cas(icell, v, v + 2)  # races: some succeed, some fail
                    yield Write(rcell, token if j % 2 else None)
                    yield Cas(rcell, None, token)  # identity compare on RefCell
                    yield GetAndSet(icell, j * k)
                    yield Work(3)
                    yield Spin("id")
                    yield Yield()

            for k in range(4):
                sched.spawn(worker(k, 40), f"mix-{k}")

        snap = self.both(scenario)
        assert snap["err"] is None and snap["steps"] > 0

    def test_clocksync_fallback(self):
        # ClockSync routes through the general op handlers from inside
        # the fused loop; both tiers must publish the same clocks.
        def scenario(sched):
            seen = []

            def observer():
                me = yield CurrentTask()
                for _ in range(6):
                    yield Work(7)
                    yield ClockSync()
                    seen.append(me.clock)
                    yield Yield()

            def noise():
                for _ in range(10):
                    yield Work(5)
                    yield Yield()

            sched.spawn(observer(), "obs")
            sched.spawn(noise(), "noise")
            return seen

        snap = self.both(scenario)
        assert snap["err"] is None and len(snap["extra"]) == 6

    def test_park_unpark_interrupt_retry_permit(self):
        def scenario(sched):
            log = []
            box = {}

            def waiter():
                me = yield CurrentTask()
                box["w"] = me
                try:
                    yield ParkTask(None)
                except Interrupted:
                    log.append("interrupted")
                try:
                    yield ParkTask(None)
                except RetryWakeup:
                    log.append("retry")
                yield ParkTask(None)
                log.append("plain")
                yield Work(400)  # stay un-parked across the early unpark
                yield ParkTask(None)  # consumes the pending permit
                log.append("permit")

            def partner():
                yield Work(100)  # let the waiter publish its handle
                target = box["w"]
                for mode in ({"interrupt": True}, {"retry": True}, {}):
                    # Unparking a not-yet-parked task would hand out a
                    # binary permit (merging with the final early unpark
                    # below); wait for the real suspension instead.
                    while target.state.name != "PARKED":
                        yield Yield()
                    yield UnparkTask(target, **mode)
                # The plain unpark above made the waiter RUNNABLE again
                # (it resumes wake_latency later) — this one therefore
                # lands early and must become a pending permit.
                yield UnparkTask(target)

            sched.spawn(waiter(), "waiter")
            sched.spawn(partner(), "partner")
            return log

        snap = self.both(scenario, processors=2)
        assert snap["err"] is None
        assert snap["extra"] == ["interrupted", "retry", "plain", "permit"]

    def test_deadlock(self):
        def scenario(sched):
            def stuck(n):
                yield Work(n)
                yield ParkTask(None)

            sched.spawn(stuck(3), "stuck-0")
            sched.spawn(stuck(9), "stuck-1")

        snap = self.both(scenario, processors=2)
        assert snap["err"] is not None and snap["err"][0] == "DeadlockError"

    def test_step_limit(self):
        def scenario(sched):
            def spinner():
                while True:
                    yield Work(1)
                    yield Yield()

            sched.spawn(spinner(), "spin-0")
            sched.spawn(spinner(), "spin-1")

        snap = self.both(scenario, processors=2, max_steps=500)
        assert snap["err"] is not None and snap["err"][0] == "StepLimitExceeded"

    def test_task_failure_propagates(self):
        def scenario(sched):
            def fails():
                yield Work(5)
                raise ValueError("boom at step three")

            def survives():
                for _ in range(20):
                    yield Work(2)
                    yield Yield()

            sched.spawn(fails(), "bad")
            sched.spawn(survives(), "good")

        snap = self.both(scenario, processors=2)
        assert snap["err"] == ("ValueError", "boom at step three")
        states = {name: state for name, _, _, state in snap["tasks"]}
        assert states == {"bad": "FAILED", "good": "DONE"}


needs_kernels = pytest.mark.skipif(
    not _engine.alg_kernels_available(),
    reason="compiled tier lacks the algorithm kernels",
)


@needs_c
@needs_kernels
class TestKernelIdentity:
    """The native algorithm kernels (PR 10) are observationally invisible.

    Every scenario runs three ways — pure-Python tier, compiled tier with
    the kernels installed, and compiled tier with the kernels disabled
    (fused generators inside the C stint loop) — and all observables
    (makespan, per-task clocks/steps/end states, jitter LCG, raised
    errors, channel stats) must match bit for bit.  The scenarios target
    the abort edges where a kernel hands off mid-operation to a Python
    delegate: cancel while a sender is parked, close mid cell-walk, and
    interrupt before the waiter's first resume.
    """

    def _run(self, tier: str, kernels_on: bool, scenario):
        import dataclasses

        prev = _engine.alg_kernels_enabled()
        _engine.set_alg_kernels(kernels_on)
        try:
            sched = Scheduler(
                policy=DesPolicy(),
                cost_model=CostModel(),
                processors=4,
                engine=tier,
            )
            chans, extra = scenario(sched)
            err = None
            try:
                sched.run()
            except Exception as exc:  # noqa: BLE001 - error parity under test
                err = (type(exc).__name__, str(exc))
            return {
                "makespan": sched.makespan,
                "steps": sched.total_steps,
                "tasks": [
                    (t.name, t.clock, t.steps, t.state.name) for t in sched.tasks
                ],
                "lcg": sched.cost._lcg,
                "err": err,
                "extra": extra,
                "stats": [dataclasses.asdict(ch.stats) for ch in chans],
            }
        finally:
            _engine.set_alg_kernels(prev)

    def all_ways(self, make_scenario):
        py = self._run("py", True, make_scenario())
        c_kern = self._run("c", True, make_scenario())
        c_gen = self._run("c", False, make_scenario())
        assert c_kern == py, "kernel run diverged from pure-Python tier"
        assert c_gen == py, "generator-fallback run diverged"
        return py

    def test_cancel_while_sender_parked(self):
        from repro.core import RendezvousChannel
        from repro.errors import ChannelClosedForSend

        def make():
            def scenario(sched):
                ch = RendezvousChannel(seg_size=2, name="ki-rz")
                out = []

                def sender(i):
                    try:
                        yield from ch.send(i)
                        out.append(("sent", i))
                    except ChannelClosedForSend:
                        out.append(("closed", i))

                def canceller():
                    yield Work(200_000)  # let both senders park first
                    yield from ch.cancel()

                sched.spawn(sender(1), "s1")
                sched.spawn(sender(2), "s2")
                sched.spawn(canceller(), "x")
                return [ch], out

            return scenario

        snap = self.all_ways(make)
        assert snap["err"] is None
        assert sorted(snap["extra"]) == [("closed", 1), ("closed", 2)]

    def test_close_mid_walk_with_parked_and_buffered(self):
        from repro.core import BufferedChannel
        from repro.errors import ChannelClosedForReceive, ChannelClosedForSend

        def make():
            def scenario(sched):
                ch = BufferedChannel(2, seg_size=2, name="ki-buf")
                out = []

                def sender(base):
                    for i in range(4):  # overflows capacity 2: parks
                        try:
                            yield from ch.send(base + i)
                        except ChannelClosedForSend:
                            out.append(("closed", base + i))
                            return

                def closer():
                    yield Work(300_000)  # senders buffered two, parked rest
                    yield from ch.close()

                def drainer():
                    yield Work(600_000)  # after close: drain, then raise
                    while True:
                        try:
                            v = yield from ch.receive()
                        except ChannelClosedForReceive:
                            out.append("drained")
                            return
                        out.append(("got", v))

                sched.spawn(sender(10), "s")
                sched.spawn(closer(), "x")
                sched.spawn(drainer(), "d")
                return [ch], out

            return scenario

        snap = self.all_ways(make)
        assert snap["err"] is None
        assert "drained" in snap["extra"]
        assert any(isinstance(e, tuple) and e[0] == "got" for e in snap["extra"])

    def test_interrupt_before_first_resume(self):
        from repro.core import RendezvousChannel
        from repro.runtime import interrupt_task

        def make():
            def scenario(sched):
                ch = RendezvousChannel(seg_size=2, name="ki-int")
                out = []

                def receiver():
                    try:
                        v = yield from ch.receive()
                        out.append(("got", v))
                    except Interrupted:
                        out.append("interrupted")

                def interrupter(target):
                    yield Work(200_000)  # receiver parks first
                    ok = yield from interrupt_task(target)
                    out.append(("ok", ok))

                t = sched.spawn(receiver(), "r")
                sched.spawn(interrupter(t), "i")
                return [ch], out

            return scenario

        snap = self.all_ways(make)
        assert snap["err"] is None
        assert sorted(snap["extra"], key=str) == [("ok", True), "interrupted"]
        assert snap["stats"][0]["rcv_interrupts"] == 1

    def test_faaq_poisoning_and_segment_walks(self):
        from repro.baselines.faa_queue import FAAQueue

        def make():
            def scenario(sched):
                q = FAAQueue(name="ki-q")
                out = []

                def enq():
                    for i in range(40):  # spans 3 segments of 16
                        yield from q.enqueue(i + 1)
                        yield Yield()

                def deq():
                    empties = got = 0
                    while got < 40:
                        v = yield from q.dequeue()
                        if v is None:
                            empties += 1  # hasty dequeuer: poisons cells
                            yield Yield()
                        else:
                            got += 1
                    out.append(("empties>0", empties > 0))

                sched.spawn(enq(), "e")
                sched.spawn(deq(), "d")
                return [], out

            return scenario

        snap = self.all_ways(make)
        assert snap["err"] is None

    def test_fuzz_and_recycling_under_kernels(self):
        # The randomized close/cancel/interrupt storms (lincheck-style
        # fuzz + segment-recycling storm) must hold with the kernels
        # live inside the compiled stint loop.
        from repro.core import BufferedChannel, RendezvousChannel
        from repro.verify import fuzz_channel
        from repro.verify.fuzz import fuzz_segment_recycling

        prev_tier = _engine.set_default_engine("c")
        prev_kern = _engine.alg_kernels_enabled()
        _engine.set_alg_kernels(True)
        try:
            reports = fuzz_channel(
                lambda: RendezvousChannel(seg_size=2), 0, cases=20, seed=11
            )
            assert any(r.checked_linearizability for r in reports)
            reports = fuzz_channel(
                lambda: BufferedChannel(2, seg_size=2), 2, cases=20, seed=7
            )
            assert sum(len(r.received) for r in reports) > 0
            totals = fuzz_segment_recycling(cases=15, seed=2, seg_size=2)
            assert totals["rejected"] == 0
            assert totals["recycled"] > 0 and totals["hits"] > 0
        finally:
            _engine.set_alg_kernels(prev_kern)
            _engine.set_default_engine(prev_tier)


def _row(name: str, engine: str | None, ops: float) -> dict:
    row = {"command": "selfperf", "name": name, "ops_per_sec": ops}
    if engine is not None:
        row["engine"] = engine
    return row


class TestBenchEngineGating:
    def test_selfperf_rows_stamped_py(self):
        from repro.bench.selfperf import run_selfperf

        rows = run_selfperf(repeat=1, names=["counter-faa-t8"], engine="py")
        assert rows and all(r["engine"] == "py" for r in rows)

    @needs_c
    def test_selfperf_rows_stamped_c(self):
        from repro.bench.selfperf import run_selfperf

        rows = run_selfperf(repeat=1, names=["counter-faa-t8"], engine="c")
        assert rows and all(r["engine"] == "c" for r in rows)

    def test_selfperf_explicit_c_unavailable_fails_loudly(self, monkeypatch):
        # Pin the probe outcome to "not built" so the check runs whether
        # or not this tree holds a usable extension; the subprocess
        # variants in TestFallback drive the real probe paths.
        monkeypatch.setattr(_engine, "_probed", True)
        monkeypatch.setattr(_engine, "_ext", None)
        monkeypatch.setattr(
            _engine, "_probe_error", "extension import failed: not built"
        )
        monkeypatch.setattr(_engine, "_probe_error_kind", "import-error")
        assert not _engine.available()
        from repro.bench.selfperf import run_selfperf
        from repro.errors import EngineUnavailableError

        with pytest.raises(EngineUnavailableError):
            run_selfperf(repeat=1, names=["counter-faa-t8"], engine="c")

    def test_compare_refuses_cross_engine(self):
        from repro.bench.selfperf import compare_rows

        ok, report = compare_rows([_row("a", "py", 100.0)], [_row("a", "c", 210.0)])
        assert not ok
        assert "engine mismatch" in report and "--allow-engine-mismatch" in report

    def test_compare_cross_engine_override(self):
        from repro.bench.selfperf import compare_rows

        ok, report = compare_rows(
            [_row("a", "py", 100.0)],
            [_row("a", "c", 210.0)],
            allow_engine_mismatch=True,
        )
        assert ok and "engines: old=py new=c" in report

    def test_compare_legacy_rows_default_to_py(self):
        # Dumps predating the tier split carry no engine field; they ran
        # pure Python and must compare cleanly against a py dump.
        from repro.bench.selfperf import compare_rows

        ok, report = compare_rows([_row("a", None, 100.0)], [_row("a", "py", 101.0)])
        assert ok and "engines: old=py new=py" in report

    def test_compare_multi_engine_dump_keys_by_engine(self):
        # BENCH_08-style paired dump: the same point name appears once
        # per tier; keying by name[engine] matches like to like instead
        # of letting one tier's row shadow the other.
        from repro.bench.selfperf import compare_rows

        paired = [_row("a", "py", 100.0), _row("a", "c", 300.0)]
        ok, report = compare_rows(paired, list(paired))
        assert ok
        assert "a[py]" in report and "a[c]" in report
        assert "(keyed name[engine])" in report

    def test_compare_gates_alg_subset_independently(self):
        # A 30% loss on the four algorithm-bound points hides inside a
        # flat 20-point matrix's overall geomean; the alg subset gate
        # must still flag it.
        from repro.bench.selfperf import ALG_SUBSET, compare_rows

        old = [_row(f"pt-{i}", "c", 100.0) for i in range(16)]
        old += [_row(n, "c", 100.0) for n in ALG_SUBSET]
        new = [_row(f"pt-{i}", "c", 100.0) for i in range(16)]
        new += [_row(n, "c", 70.0) for n in ALG_SUBSET]
        ok, report = compare_rows(old, new)
        assert not ok
        assert "geomean[alg]" in report
        assert "geomean[alg]" in [
            line[:24].strip() for line in report.splitlines() if "REGRESSION" in line
        ]

    def test_compare_gates_obs_subset_independently(self):
        from repro.bench.selfperf import OBS_SUBSET, compare_rows

        old = [_row(n, "c", 100.0) for n in OBS_SUBSET]
        new = [_row(n, "c", 60.0) for n in OBS_SUBSET]
        ok, report = compare_rows(old, new)
        assert not ok and "geomean[obs]" in report

    def test_compare_subset_gates_pass_and_skip_when_absent(self):
        from repro.bench.selfperf import ALG_SUBSET, compare_rows

        # Subset present and healthy: reported as OK.
        old = [_row(n, "c", 100.0) for n in ALG_SUBSET]
        new = [_row(n, "c", 101.0) for n in ALG_SUBSET]
        ok, report = compare_rows(old, new)
        assert ok and "geomean[alg]" in report
        # No subset points in either dump: no phantom subset line.
        ok, report = compare_rows([_row("a", "c", 100.0)], [_row("a", "c", 99.0)])
        assert ok and "geomean[alg]" not in report and "geomean[obs]" not in report

    def test_compare_subset_gates_key_by_engine_in_paired_dumps(self):
        # In a paired py/c dump the subset slice must match like tiers:
        # a c-side alg regression is flagged even though the py side of
        # the same points is flat.
        from repro.bench.selfperf import ALG_SUBSET, compare_rows

        old = [_row(n, t, 100.0) for n in ALG_SUBSET for t in ("py", "c")]
        new = [_row(n, "py", 100.0) for n in ALG_SUBSET]
        new += [_row(n, "c", 70.0) for n in ALG_SUBSET]
        ok, report = compare_rows(old, new)
        assert not ok and "geomean[alg]" in report

    def test_compare_multi_engine_vs_single_not_refused(self):
        # A quick single-tier rerun against the paired baseline is the
        # CI engine-tier job's shape: keyed comparison, missing points
        # waived by --allow-missing.
        from repro.bench.selfperf import compare_rows

        paired = [_row("a", "py", 100.0), _row("a", "c", 300.0)]
        ok, report = compare_rows(
            paired, [_row("a", "c", 305.0)], allow_missing=True
        )
        assert ok and "a[c]" in report and "a[py]" in report

    def test_compare_paired_cancels_uniform_host_drift(self):
        # Both tiers 40% slower on the new recording day (well past the
        # 15% absolute gate): absolute mode fails, paired mode passes,
        # because the within-dump c/py ratio is unchanged.
        from repro.bench.selfperf import compare_rows

        old = [_row("a", "py", 100.0), _row("a", "c", 300.0)]
        new = [_row("a", "py", 60.0), _row("a", "c", 180.0)]
        ok, _ = compare_rows(old, new)
        assert not ok
        ok, report = compare_rows(old, new, paired=True)
        assert ok and "paired mode" in report and "3.00x" in report

    def test_compare_paired_still_fails_on_c_only_regression(self):
        # A genuine compiled-tier regression (py flat, c down 30%) must
        # not hide behind paired mode — the ratio itself drops.  Subset
        # gates apply to the paired ratios too.
        from repro.bench.selfperf import ALG_SUBSET, compare_rows

        old = [_row(n, t, {"py": 100.0, "c": 300.0}[t]) for n in ALG_SUBSET for t in ("py", "c")]
        new = [_row(n, t, {"py": 100.0, "c": 210.0}[t]) for n in ALG_SUBSET for t in ("py", "c")]
        ok, report = compare_rows(old, new, paired=True)
        assert not ok and "geomean[alg]" in report
        assert any("REGRESSION" in line for line in report.splitlines())

    def test_compare_paired_requires_both_tier_dumps(self):
        from repro.bench.selfperf import compare_rows

        both = [_row("a", "py", 100.0), _row("a", "c", 300.0)]
        single = [_row("a", "c", 300.0)]
        ok, report = compare_rows(both, single, paired=True)
        assert not ok and "--engine both" in report
        ok, report = compare_rows(single, both, paired=True)
        assert not ok and "--engine both" in report

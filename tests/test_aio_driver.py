"""Unit tests for the asyncio driver internals.

The sync lane has two drivers: the Python reference
:func:`~repro.aio.channel.drive_sync` and the compiled
``_enginec.drive_sync`` that :class:`~repro.aio.AsyncChannel` binds on
the c tier.  :class:`TestDriveSync` runs on the reference and
:class:`TestDriveSyncNative` reruns every case on the native driver;
:class:`TestSyncDriverParity` runs each differential case on both and
compares what they return, raise and leave behind.  The native cases
are skipped only when the extension is missing.
"""

import asyncio
import random

import pytest

from repro import _engine
from repro.aio import AsyncChannel
from repro.aio import channel as aio_channel
from repro.aio.channel import (
    _AioTaskHandle,
    _sync_fallback,
    _unwind_with,
    drive_async,
    drive_sync,
)
from repro.concurrent import (
    Alloc,
    Cas,
    Cell,
    CurrentTask,
    Faa,
    IntCell,
    Label,
    ParkTask,
    Read,
    RefCell,
    Spin,
    UnparkTask,
    Work,
    Write,
    Yield,
)
from repro.core.debug import dump_channel
from repro.errors import Interrupted, SchedulerError
from repro.obs.events import EventBus, OpEvent
from repro.runtime import make_waiter


def run(coro):
    return asyncio.run(coro)


def native_drive_sync(gen, handle=None):
    """The native driver, called the way :class:`AsyncChannel` calls it."""

    return _engine.sync_driver()(gen, handle or _AioTaskHandle("sync-op"), _sync_fallback)


class TracedRead(Read):
    """A memory-op subclass: no driver may apply it as a plain Read."""

    __slots__ = ()


class FoldedCell(Cell):
    """A custom cell whose CAS compares strings case-insensitively."""

    __slots__ = ()

    @staticmethod
    def compare(current, expected):
        return current.lower() == expected.lower()


@pytest.mark.usefixtures("class_tier")
class TestDriveSync:
    """The Python reference driver; rerun natively below."""

    tier = "py"

    @staticmethod
    def drive(gen, handle=None):
        return drive_sync(gen, handle)

    def test_memory_ops_apply(self):
        cell = IntCell(0)

        def gen():
            old = yield Faa(cell, 5)
            v = yield Read(cell)
            return (old, v)

        assert self.drive(gen()) == (0, 5)
        assert cell.value == 5

    def test_non_memory_ops_are_noops(self):
        def gen():
            yield Yield()
            yield Work(100)
            return "ok"

        assert self.drive(gen()) == "ok"

    def test_park_rejected(self):
        def gen():
            w = yield from make_waiter()
            yield ParkTask(w)

        with pytest.raises(SchedulerError):
            self.drive(gen())

    def test_current_task_returns_handle(self):
        def gen():
            handle = yield CurrentTask()
            return handle

        handle = _AioTaskHandle("probe")
        assert self.drive(gen(), handle) is handle

    def test_unpark_before_park_sets_permit(self):
        target = _AioTaskHandle("target")

        def gen():
            yield UnparkTask(target, interrupt=True)
            return "done"

        assert self.drive(gen()) == "done"
        assert target.interrupt_pending and not target.unpark_pending

    def test_memory_op_subclass_rejected(self):
        def gen():
            yield TracedRead(IntCell(1))

        with pytest.raises(SchedulerError, match="not a memory op"):
            self.drive(gen())


class TestDriveSyncNative(TestDriveSync):
    """The same cases on ``_enginec.drive_sync``."""

    tier = "c"
    drive = staticmethod(native_drive_sync)


def _outcome(drive, gen):
    try:
        return ("returned", drive(gen))
    except Exception as exc:  # noqa: BLE001 - compared across drivers
        return ("raised", type(exc).__name__, str(exc))


async def _wake_parked(action, parked):
    """Park three receivers or senders on a rendezvous channel, then run
    ``close()`` or ``cancel()`` twice and collect what everyone saw."""

    ch = AsyncChannel(0, seg_size=2, name="ch")
    if parked == "receivers":
        tasks = [asyncio.create_task(ch.receive()) for _ in range(3)]
    else:
        tasks = [asyncio.create_task(ch.send(i)) for i in range(1, 4)]
    await asyncio.sleep(0)  # every task runs to its park
    returned = (getattr(ch, action)(), getattr(ch, action)())
    woken = await asyncio.wait_for(asyncio.gather(*tasks, return_exceptions=True), 5.0)
    return (
        returned,
        [type(r).__name__ for r in woken],
        ch.stats.snapshot(),
        dump_channel(ch._ch),
    )


def _try_op_mix(capacity, overflow, seed):
    """A seeded mix of try-ops, a close, then a drain on one channel."""

    rng = random.Random(seed)
    ch = AsyncChannel(capacity, seg_size=2, name="mix", overflow=overflow)
    log = []
    for step in range(60):
        if step == 45:
            log.append(("close", ch.close()))
        try:
            if rng.random() < 0.55:
                log.append(("send", ch.try_send(step + 1)))
            else:
                log.append(("receive", ch.try_receive()))
        except Exception as exc:  # noqa: BLE001 - closed-channel errors
            log.append(("raised", type(exc).__name__))
    return log, ch.stats.snapshot(), dump_channel(ch._ch)


@pytest.mark.usefixtures("class_tier")
class TestSyncDriverParity:
    """Differential cases: return values, exceptions, ``ChannelStats``
    and cell states must be identical under both drivers."""

    tier = "c"

    @staticmethod
    def both(scenario):
        ref = scenario(drive_sync)
        assert scenario(native_drive_sync) == ref
        return ref

    @staticmethod
    def both_tiers(scenario):
        observed = {}
        for tier in ("py", "c"):
            prev = _engine.set_default_engine(tier)
            try:
                observed[tier] = scenario()
            finally:
                _engine.set_default_engine(prev)
        assert observed["c"] == observed["py"]
        return observed["py"]

    def test_generator_raising_mid_op(self):
        def scenario(drive):
            n, ref = IntCell(0, "n"), RefCell(None, "ref")

            def gen():
                yield Faa(n, 2)
                yield Write(ref, "half")
                raise ValueError("boom")

            return _outcome(drive, gen()), n.value, ref.value

        assert self.both(scenario) == (("raised", "ValueError", "boom"), 2, "half")

    def test_park_raises_scheduler_error(self):
        def scenario(drive):
            n = IntCell(0, "n")

            def gen():
                yield Faa(n, 1)
                w = yield from make_waiter()
                yield ParkTask(w)
                yield Faa(n, 1)

            return _outcome(drive, gen()), n.value

        outcome, n = self.both(scenario)
        assert outcome == ("raised", "SchedulerError", "drive_sync used on a suspending operation")
        assert n == 1

    def test_cas_equal_but_not_identical(self):
        def scenario(drive):
            current, big = (1, 2), 10**20
            ref, num = RefCell(current, "ref"), IntCell(big, "num")
            same_ref, same_num = tuple([1, 2]), int(str(big))
            assert same_ref == current and same_ref is not current
            assert same_num == big and same_num is not big

            def gen():
                on_ref = yield Cas(ref, same_ref, "swapped")
                on_num = yield Cas(num, same_num, 7)
                return on_ref, on_num

            return _outcome(drive, gen()), ref.value, num.value

        assert self.both(scenario) == (("returned", (False, True)), (1, 2), 7)

    def test_custom_cell_compare(self):
        def scenario(drive):
            cell = FoldedCell("Hello", "folded")

            def gen():
                first = yield Cas(cell, "HELLO", "World")
                second = yield Cas(cell, "hello", "again")
                third = yield Cas(cell, None, "boom")  # compare raises
                return first, second, third

            return _outcome(drive, gen()), cell.value

        outcome, value = self.both(scenario)
        assert outcome[:2] == ("raised", "AttributeError")
        assert value == "World"

    def test_label_alloc_yield_are_noops(self):
        def scenario(drive):
            def gen():
                seen = []
                for op in (Label("mark", 1), Alloc("segment", 4), Yield(), Spin("wait"), Work(3)):
                    seen.append((yield op))
                return seen

            return _outcome(drive, gen())

        assert self.both(scenario) == ("returned", [None] * 5)

    def test_memory_op_subclass_raises(self):
        def scenario(drive):
            cell = IntCell(5, "n")

            def gen():
                yield Read(cell)
                yield TracedRead(cell)

            return _outcome(drive, gen()), cell.value

        (kind, exc, message), value = self.both(scenario)
        assert (kind, exc, value) == ("raised", "SchedulerError", 5)
        assert message.startswith("not a memory op: Read(")

    @pytest.mark.parametrize(
        "action, parked, woken_with",
        [
            ("close", "receivers", "ChannelClosedForReceive"),
            ("cancel", "receivers", "ChannelClosedForReceive"),
            ("cancel", "senders", "ChannelClosedForSend"),
        ],
    )
    def test_close_and_cancel_wake_parked(self, action, parked, woken_with):
        returned, woken, stats, _ = self.both_tiers(lambda: run(_wake_parked(action, parked)))
        assert returned == (True, False)
        assert woken == [woken_with] * 3
        assert stats["rcv_suspends" if parked == "receivers" else "send_suspends"] == 3

    @pytest.mark.parametrize(
        "capacity, overflow",
        [(0, "suspend"), (1, "suspend"), (4, "suspend"), (2, "drop_oldest"), (1, "conflate")],
    )
    def test_try_op_mix(self, capacity, overflow):
        for seed in range(3):
            log, _, _ = self.both_tiers(lambda: _try_op_mix(capacity, overflow, seed))
            assert ("close", True) in log
            assert ("raised", "ChannelClosedForSend") in log


@pytest.mark.usefixtures("class_tier")
class TestSyncDriverBinding:
    """Which driver an :class:`AsyncChannel` binds, per tier and bus."""

    tier = "c"

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        calls = []
        real = aio_channel.drive_sync

        def spy(gen, *args, **kwargs):
            calls.append(gen)
            return real(gen, *args, **kwargs)

        monkeypatch.setattr(aio_channel, "drive_sync", spy)
        return calls

    def test_c_tier_binds_native_driver(self, reference_calls):
        ch = AsyncChannel(1)
        assert ch.try_send(1) and ch.try_receive() == (True, 1) and ch.close()
        assert reference_calls == []

    def test_py_tier_binds_reference_driver(self, reference_calls):
        _engine.set_default_engine("py")
        ch = AsyncChannel(1)
        assert ch.try_send(1) and ch.try_receive() == (True, 1)
        assert len(reference_calls) == 2

    def test_bus_keeps_reference_driver(self, reference_calls):
        bus = EventBus()
        events = []
        bus.subscribe(OpEvent, events.append)
        ch = AsyncChannel(1, bus=bus)
        assert ch.try_send(1)
        assert len(reference_calls) == 1
        assert events and all(e.source == "sync-op" for e in events)


class TestDriveAsync:
    def test_runs_to_completion_without_parks(self):
        async def main():
            cell = IntCell(3)

            def gen():
                return (yield Read(cell))

            return await drive_async(gen())

        assert run(main()) == 3

    def test_park_then_unpark_across_tasks(self):
        async def main():
            from repro.concurrent import RefCell, UnparkTask

            slot = RefCell(None)

            def sleeper():
                w = yield from make_waiter()
                yield Write(slot, w)
                yield from w.park()
                return "woken"

            def waker():
                w = yield Read(slot)
                assert w is not None
                return (yield from w.try_unpark())

            sleeper_task = asyncio.create_task(drive_async(sleeper()))
            await asyncio.sleep(0.01)
            ok = await drive_async(waker())
            result = await sleeper_task
            return ok, result

        assert run(main()) == (True, "woken")

    def test_unpark_before_park_permit(self):
        async def main():
            from repro.concurrent import RefCell

            slot = RefCell(None)
            order = []

            def sleeper():
                w = yield from make_waiter()
                yield Write(slot, w)
                order.append("installed")
                # Spin until the unpark landed, then park: must not block.
                yield from w.park()
                return "never-suspended"

            def waker():
                w = yield Read(slot)
                return (yield from w.try_unpark())

            # Run sequentially on one loop: install+park without awaiting
            # in between means the unpark must come first via the slot.
            async def run_sleeper():
                return await drive_async(sleeper())

            t = asyncio.create_task(run_sleeper())
            await asyncio.sleep(0.01)  # sleeper parked (no permit yet)
            ok = await drive_async(waker())
            got = await t
            return ok, got

        ok, got = run(main())
        assert ok is True and got == "never-suspended"

    def test_cancellation_of_unparked_generator(self):
        """Cancelling a driver that has not parked yet just propagates."""

        async def main():
            started = asyncio.Event()

            def gen():
                w = yield from make_waiter()
                yield from w.park()

            async def run_op():
                started.set()
                await drive_async(gen())

            task = asyncio.create_task(run_op())
            await started.wait()
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return "ok"

        assert run(main()) == "ok"

    def test_memory_op_subclass_rejected(self):
        def gen():
            yield TracedRead(IntCell(1))

        with pytest.raises(SchedulerError, match="not a memory op"):
            run(drive_async(gen()))


class TestUnwind:
    """``_unwind_with`` swallows the cleanup's exceptions, not exits."""

    def _parked_op(self, cleanup_raises):
        cell = IntCell(0)

        def gen():
            try:
                yield Yield()
            except Interrupted:
                yield Write(cell, 1)  # the cleanup still applies its ops
                raise cleanup_raises
            yield Write(cell, 2)

        g = gen()
        next(g)
        return g, cell

    def test_ordinary_exception_is_swallowed(self):
        g, cell = self._parked_op(Interrupted())
        _unwind_with(g, Interrupted(), _AioTaskHandle())
        assert cell.value == 1

    def test_keyboard_interrupt_propagates(self):
        g, cell = self._parked_op(KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            _unwind_with(g, Interrupted(), _AioTaskHandle())
        assert cell.value == 1

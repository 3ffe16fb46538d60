"""Unit tests for the asyncio driver internals.

Every real-time driver in :mod:`repro.aio` is a thin wrapper over one
stepping core: it resumes an operation with a value, or throws an
exception into it, and runs it until it returns or parks.  The core has
a Python reference (``repro.aio.channel._step``) and a native twin
(``_enginec.step``) that :class:`~repro.aio.AsyncChannel` binds on the
c tier, where an exact rendezvous or buffered channel also steps the
native send/receive kernels instead of the fused generators.

:class:`TestDriveSync` and :class:`TestStep` run on the reference and
their ``...Native`` subclasses rerun every case on the native core;
:class:`TestSyncDriverParity` (the sync lane) and
:class:`TestParkedLaneParity` (the parked lane) run each differential
case under every implementation and compare what they return, raise and
leave behind.  The native cases are skipped only when the extension is
missing.
"""

import asyncio
import random

import pytest

from repro import _engine
from repro.aio import AsyncChannel
from repro.aio import channel as aio_channel
from repro.aio.channel import (
    ParkedOp,
    _AioTaskHandle,
    _apply_other,
    _drive,
    _step,
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
from repro.core.states import BROKEN
from repro.errors import ChannelClosedForReceive, Interrupted, RetryWakeup, SchedulerError
from repro.obs.events import EventBus, OpEvent
from repro.runtime import make_waiter


def run(coro):
    return asyncio.run(coro)


def native_drive_sync(gen, handle=None):
    """``drive_sync`` over the native core, as :class:`AsyncChannel` runs it."""

    return _drive(_engine.stepper(), gen, handle)


def native_step(gen, handle, value=None, exc=None):
    return _engine.stepper()(gen, handle, _apply_other, value, exc)


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
    """The same cases with ``drive_sync`` over ``_enginec.step``."""

    tier = "c"
    drive = staticmethod(native_drive_sync)


def _parking_op(cell):
    """Count, park, then count the value it was resumed with."""

    w = yield from make_waiter()
    yield Faa(cell, 1)
    got = yield ParkTask(w)
    yield Faa(cell, 10)
    return ("resumed", got)


@pytest.mark.usefixtures("class_tier")
class TestStep:
    """The stepping core's contract, on the reference; rerun natively."""

    tier = "py"

    @staticmethod
    def step(gen, handle, value=None, exc=None):
        return _step(gen, handle, _apply_other, value, exc)

    def test_returns_the_result(self):
        cell = IntCell(4)

        def gen():
            return (yield Read(cell)) * 2

        assert self.step(gen(), _AioTaskHandle()) == 8

    def test_returns_the_park_and_resumes_with_a_value(self):
        cell = IntCell(0)
        gen, handle = _parking_op(cell), _AioTaskHandle()
        park = self.step(gen, handle)
        assert type(park) is ParkTask and park.waiter.task is handle
        assert cell.value == 1
        assert self.step(gen, handle, "v") == ("resumed", "v")
        assert cell.value == 11

    def test_throws_into_a_parked_op(self):
        cell = IntCell(0)
        gen, handle = _parking_op(cell), _AioTaskHandle()
        self.step(gen, handle)
        with pytest.raises(RetryWakeup):
            self.step(gen, handle, exc=RetryWakeup())
        assert cell.value == 1

    def test_thrown_in_start_runs_nothing(self):
        cell = IntCell(0)
        with pytest.raises(ValueError, match="early"):
            self.step(_parking_op(cell), _AioTaskHandle(), exc=ValueError("early"))
        assert cell.value == 0

    def test_exception_mid_run_propagates(self):
        cell = IntCell(0)

        def gen():
            yield Faa(cell, 3)
            raise KeyError("boom")

        with pytest.raises(KeyError):
            self.step(gen(), _AioTaskHandle())
        assert cell.value == 3


class TestStepNative(TestStep):
    """The same contract on ``_enginec.step``."""

    tier = "c"
    step = staticmethod(native_step)


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


# ----------------------------------------------------------------------
# The parked lane: AsyncChannel.start and ParkedOp
# ----------------------------------------------------------------------

#: Each implementation of a channel's send/receive: the py tier steps the
#: fused generators in Python; the c tier steps the native kernels, or
#: (kernels off) the fused generators natively.
IMPLEMENTATIONS = ("py-generator", "c-kernel", "c-generator")


def _attempt(fn):
    try:
        return ("returned", fn())
    except BaseException as exc:  # noqa: BLE001 - compared across implementations
        return ("raised", type(exc).__name__)


def _settled(op):
    """A started op's outcome: its result, or ``parked`` while it waits."""

    return "parked" if type(op) is ParkedOp else ("done", op)


def _scenario_completion(ch):
    async def main():
        sends = [ch.start("send", i) for i in (1, 2)]
        received = [ch.start("receive"), ch.start("receive_catching")]
        for op in sends:
            if type(op) is ParkedOp:
                await op  # resumed by the receives above
        return [_settled(op) for op in sends + received]

    return run(main())


def _scenario_park(ch):
    async def main():
        receiver = ch.start("receive")
        before = _settled(receiver)
        sent = ch.try_send("x")
        received = await receiver
        senders = [ch.start("send", i) for i in range(3)]
        waiting = [asyncio.ensure_future(op) for op in senders if type(op) is ParkedOp]
        await asyncio.sleep(0)
        taken = [ch.try_receive() for _ in senders]
        await asyncio.gather(*waiting)
        return before, sent, received, [_settled(op) for op in senders], taken

    return run(main())


def _scenario_unpark_permit(ch):
    async def main():
        receiver = ch.start("receive")
        sent = ch.try_send("x")  # resumes a receiver no future awaits yet
        return _settled(receiver), sent, await receiver

    return run(main())


def _scenario_interrupt_permit(ch):
    async def main():
        receiver = ch.start("receive")
        closed = ch.close()  # interrupts the receiver before it awaits
        try:
            got = await receiver
        except ChannelClosedForReceive:
            got = "closed"
        return _settled(receiver), closed, got

    return run(main())


def _scenario_retry_permit(ch):
    """A select clause that lost its race frees a waiting receiver with the
    retry signal and breaks its cell; the receiver moves to a fresh one."""

    async def main():
        receiver = ch.start("receive")
        segm = ch._ch._segm_r.value

        def lost_select_clause():
            waiter = receiver._park.waiter
            if (yield from waiter.try_unpark_retry()):
                yield Write(segm.state_cell(0), BROKEN)

        drive_sync(lost_select_clause())
        retried = receiver._handle.retry_pending
        waiting = asyncio.ensure_future(receiver)
        await asyncio.sleep(0)  # takes the permit, re-parks at cell 1
        resent = ch.try_send("x")
        return retried, waiting.done(), resent, await waiting

    return run(main())


def _scenario_interrupt_while_parked(ch):
    async def main():
        task = asyncio.ensure_future(ch.start("receive"))
        await asyncio.sleep(0)
        task.cancel()
        try:
            cancelled = await task
        except asyncio.CancelledError:
            cancelled = "cancelled"
        receiver = ch.start("receive")
        abandoned_receive = _attempt(receiver.abandon)
        accepted = ch.try_send("z")  # only a buffer takes it: no zombie receiver
        sender = ch.start("send", "w")
        abandoned_send = _attempt(sender.abandon)
        drained = ch.try_receive()  # never the abandoned "w"
        return (cancelled, _settled(receiver), abandoned_receive, accepted,
                _settled(sender), abandoned_send, drained)

    return run(main())


def _scenario_thrown_in_start(ch):
    """Throwing into an operation before its first step runs none of it."""

    send, receive = ch._send_kernel, ch._receive_kernel
    fresh = [
        send(ch._ch, "x") if send else ch._ch.send("x"),
        receive(ch._ch) if receive else ch._ch.receive(),
    ]
    thrown = [
        _attempt(lambda: ch._step(gen, _AioTaskHandle(), _apply_other, None, ValueError("early")))
        for gen in fresh
    ]
    return thrown, ch.try_send("y"), ch.try_receive()


def _scenario_cancel_races_resumption(ch):
    async def main():
        # Cancelled first, resumed second: the element must still arrive.
        late = asyncio.ensure_future(ch.start("receive"))
        await asyncio.sleep(0)
        late.cancel()
        sent_late = ch.try_send("late")
        # Resumed first, cancelled second.
        early = asyncio.ensure_future(ch.start("receive"))
        await asyncio.sleep(0)
        sent_early = ch.try_send("early")
        early.cancel()
        # Resumed before anyone awaited it, then abandoned.
        never = ch.start("receive")
        sent_never = ch.try_send("never")
        return (sent_late, await late, sent_early, await early,
                sent_never, _attempt(never.abandon))

    return run(main())


@pytest.mark.usefixtures("class_tier")
class TestParkedLaneParity:
    """Each parked-lane case under every implementation: results,
    exceptions, ``ChannelStats`` and cell states must be identical,
    kernel or generator, native or Python."""

    tier = "c"

    @staticmethod
    def each(capacity, scenario):
        observed = {}
        prev_kernels = _engine.alg_kernels_enabled()
        for impl in IMPLEMENTATIONS:
            tier, stepped = impl.split("-")
            prev_tier = _engine.set_default_engine(tier)
            _engine.set_alg_kernels(stepped == "kernel")
            try:
                ch = AsyncChannel(capacity, seg_size=2, name="lane")
                if impl == "c-kernel" and _engine.kernels() is None:
                    continue  # kernels disabled through the environment
                assert (ch._send_kernel is not None) == (impl == "c-kernel")
                observed[impl] = (scenario(ch), ch.stats.snapshot(), dump_channel(ch._ch))
            finally:
                _engine.set_alg_kernels(prev_kernels)
                _engine.set_default_engine(prev_tier)
        for impl, seen in observed.items():
            assert seen == observed["py-generator"], impl
        return observed["py-generator"][0]

    @pytest.mark.parametrize("capacity", [0, 2])
    def test_completion(self, capacity):
        out = self.each(capacity, _scenario_completion)
        sends = [("done", None)] * 2 if capacity else ["parked"] * 2
        assert out == sends + [("done", 1), ("done", (True, 2))]

    @pytest.mark.parametrize("capacity", [0, 1])
    def test_park(self, capacity):
        before, sent, received, senders, taken = self.each(capacity, _scenario_park)
        assert (before, sent, received) == ("parked", True, "x")
        assert senders == [("done", None)] * capacity + ["parked"] * (3 - capacity)
        assert taken == [(True, 0), (True, 1), (True, 2)]

    def test_unpark_permit(self):
        assert self.each(0, _scenario_unpark_permit) == ("parked", True, "x")

    def test_interrupt_permit(self):
        assert self.each(0, _scenario_interrupt_permit) == ("parked", True, "closed")

    def test_retry_permit(self):
        assert self.each(0, _scenario_retry_permit) == (True, False, True, "x")

    @pytest.mark.parametrize("capacity", [0, 1])
    def test_interrupt_while_parked(self, capacity):
        out = self.each(capacity, _scenario_interrupt_while_parked)
        cancelled = ("raised", "CancelledError")
        assert out == (
            "cancelled", "parked", cancelled, bool(capacity), "parked", cancelled,
            (True, "z") if capacity else (False, None),
        )

    @pytest.mark.parametrize("capacity", [0, 2])
    def test_thrown_in_start(self, capacity):
        thrown, sent, received = self.each(capacity, _scenario_thrown_in_start)
        assert thrown == [("raised", "ValueError")] * 2
        assert (sent, received) == ((True, (True, "y")) if capacity else (False, (False, None)))

    def test_cancel_races_resumption(self):
        assert self.each(0, _scenario_cancel_races_resumption) == (
            True, "late", True, "early", True, ("returned", "never"),
        )


@pytest.mark.usefixtures("class_tier")
class TestTaskHandle:
    """An operation gets a task handle only on its way to parking, and a
    parked operation's handle is its waiter's task.  Rerun natively."""

    tier = "py"

    def test_made_only_for_a_parking_op(self, monkeypatch):
        made = []

        class Counting(aio_channel._AioTaskHandle):
            __slots__ = ()

            def __init__(self, name="aio-op"):
                super().__init__(name)
                made.append(name)

        monkeypatch.setattr(aio_channel, "_AioTaskHandle", Counting)

        async def main():
            ch = AsyncChannel(1, name="h")
            done = [ch.start("send", 1), ch.start("receive"), ch.try_send(2)]
            made_before_park = list(made)
            ch.try_receive()
            parked = ch.start("receive")
            same = parked._handle is parked._park.waiter.task
            ch.try_send(3)
            return done, made_before_park, same, await parked

        assert run(main()) == ([None, 1, True], [], True, 3)
        assert made == ["h.receive"]


class TestTaskHandleNative(TestTaskHandle):
    tier = "c"


@pytest.mark.usefixtures("class_tier")
class TestBinding:
    """Which stepping core and kernels an :class:`AsyncChannel` binds."""

    tier = "c"

    def test_c_tier_binds_native_core_and_kernels(self):
        assert AsyncChannel(0)._step is _engine.stepper()
        rz, buf = AsyncChannel(0), AsyncChannel(4)
        kernels = _engine.kernels()
        assert (rz._send_kernel, rz._receive_kernel) == (kernels.rz_send, kernels.rz_recv)
        assert (buf._send_kernel, buf._receive_kernel) == (kernels.buf_send, kernels.buf_recv)

    def test_subclasses_and_disabled_kernels_step_generators(self):
        assert AsyncChannel(1, overflow="conflate")._send_kernel is None
        _engine.set_alg_kernels(False)
        try:
            ch = AsyncChannel(4)
        finally:
            _engine.set_alg_kernels(True)
        assert ch._step is _engine.stepper() and ch._send_kernel is None

    def test_kernels_never_installed_process_wide(self):
        from repro.concurrent import ops

        ch = AsyncChannel(0)
        assert type(ch.start("receive")) is ParkedOp
        assert ops.KERNELS is None

    def test_py_tier_binds_reference_core(self):
        _engine.set_default_engine("py")
        ch = AsyncChannel(1)
        assert ch._step is aio_channel._step and ch._send_kernel is None
        assert ch.try_send(1) and ch.try_receive() == (True, 1)

    def test_bus_keeps_reference_core(self):
        bus = EventBus()
        events = []
        bus.subscribe(OpEvent, events.append)
        ch = AsyncChannel(1, bus=bus)
        assert ch._send_kernel is None
        assert ch.try_send(1)
        assert events and all(e.source == "sync-op" for e in events)
        events.clear()
        assert ch.start("receive") == 1
        assert {e.source for e in events} == {f"{ch.name}.receive"}


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

    def test_resumption_beats_cancelled_future(self):
        """A wake-up that finds the park future already cancelled is kept
        as a permit, and the operation completes with it."""

        async def main():
            slot = RefCell(None)

            def sleeper():
                w = yield from make_waiter()
                yield Write(slot, w)
                yield from w.park()
                return "woken"

            task = asyncio.create_task(drive_async(sleeper()))
            await asyncio.sleep(0)
            task.cancel()
            ok = drive_sync(slot.value.try_unpark())
            return ok, await task

        assert run(main()) == (True, "woken")


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

"""asyncio adapter: the paper's channel as a real, usable async library.

The same generator-encoded algorithm that the simulator model-checks and
benchmarks is driven here on the asyncio event loop:

* memory ops apply inline — the loop is single-threaded and the driver
  never awaits between two ops of one operation except at ``ParkTask``,
  so each operation's steps are atomic exactly where the algorithm allows
  suspension;
* ``ParkTask`` awaits a per-suspension :class:`asyncio.Future`;
  ``UnparkTask`` resolves the target's future (or sets the permit flag if
  the target has not reached its ``park`` yet — same lost-wakeup contract
  as the simulator);
* **task cancellation maps to the paper's ``interrupt()``**: when the
  ``await`` is cancelled, the driver runs the waiter's interrupt protocol
  inline — the ``onInterrupt`` cleanup moves the channel cell to
  ``INTERRUPTED_*`` before ``CancelledError`` propagates, and if a
  resumption beat the cancellation the operation completes normally
  (the element is never lost).

Two lanes drive the generators.  The *sync lane* runs the operations
that never suspend (``try_send``, ``try_receive``, ``close``,
``cancel``) to completion in one call; :func:`drive_sync` is its
reference.  On the compiled engine tier (``repro._engine``, selected by
the same ``set_default_engine`` / ``REPRO_ENGINE`` / ``auto`` knob as
the simulator) an :class:`AsyncChannel` without an event bus binds the
native ``_enginec.drive_sync`` instead: it applies the exact-type
memory ops in C and hands every other op to the same Python fallback,
so both drivers produce identical results.  The served stack
(``repro.net``) completes almost every op on this lane.  The *parked
lane*, :func:`drive_async`, stays in Python: there, parking and
wake-ups cost far more than stepping the generator.

Example::

    ch = AsyncChannel(capacity=64)

    async def producer():
        for item in items:
            await ch.send(item)
        ch.close()

    async def consumer():
        async for item in ch:
            handle(item)
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Any, AsyncIterator, Callable, Generator, Optional

from .. import _engine
from ..concurrent.ops import (
    MEMORY_OP_APPLIERS,
    CurrentTask,
    Op,
    ParkTask,
    UnparkTask,
    is_memory_op,
)
from ..core.channel import make_channel
from ..core.segments import DEFAULT_SEGMENT_SIZE
from ..errors import ChannelClosedForReceive, Interrupted, RetryWakeup, SchedulerError
from ..obs.events import EventBus, emit_op_events


def _now_us() -> int:
    """Event timestamp for real-time drivers: monotonic microseconds."""

    return time.monotonic_ns() // 1000

__all__ = ["AsyncChannel", "drive_async", "drive_sync"]


async def _with_deadline(coro, timeout: float):
    """Await ``coro`` with a deadline that maps onto ``interrupt()``.

    On expiry the operation is cancelled — which runs the paper's
    interrupt protocol, neutralizing the parked cell so the channel
    stays fully usable — and :class:`asyncio.TimeoutError` is raised.
    If a resumption beat the cancellation, the operation's result is
    returned despite the expired deadline: the element is never lost
    (the same guarantee the driver gives plain task cancellation).

    Implemented by hand rather than with :func:`asyncio.wait_for`
    because ``wait_for`` discards the result of a task that survives
    its cancellation — exactly the lost-element case we must avoid —
    and :class:`asyncio.timeout` only exists on 3.11+.
    """

    task = asyncio.ensure_future(coro)
    try:
        done, _ = await asyncio.wait({task}, timeout=timeout)
    except asyncio.CancelledError:
        task.cancel()
        with _suppress_cancel(task):
            await task
        raise
    if task in done:
        return task.result()
    task.cancel()
    try:
        return await task  # a resumption may have beaten the cancel
    except asyncio.CancelledError:
        raise asyncio.TimeoutError() from None


class _suppress_cancel:
    """``with``-helper awaiting a cancelled task without re-raising."""

    def __init__(self, task: "asyncio.Task"):
        self.task = task

    def __enter__(self):
        return self.task

    def __exit__(self, exc_type, exc, tb):
        return exc_type is asyncio.CancelledError


class _AioTaskHandle:
    """The driver's task object (what ``curCor()`` binds waiters to)."""

    __slots__ = (
        "future",
        "unpark_pending",
        "interrupt_pending",
        "retry_pending",
        "current_waiter",
        "done",
        "name",
    )

    def __init__(self, name: str = "aio-op"):
        self.future: Optional[asyncio.Future] = None
        self.unpark_pending = False
        self.interrupt_pending = False
        self.retry_pending = False
        self.current_waiter: Any = None
        self.done = False
        self.name = name


def _apply_simple(op: Op, handle: _AioTaskHandle) -> Any:
    """Apply one non-park op; returns the value to send into the generator."""

    apply = MEMORY_OP_APPLIERS.get(type(op))
    if apply is not None:
        return apply(op)
    return _apply_other(op, handle)


def _apply_other(op: Op, handle: _AioTaskHandle) -> Any:
    """Apply one op that is not exactly one of the five memory-op types."""

    t = type(op)
    if t is CurrentTask:
        return handle
    if t is UnparkTask:
        target: _AioTaskHandle = op.task  # type: ignore[attr-defined]
        fut = target.future
        if fut is not None and not fut.done():
            if op.interrupt:  # type: ignore[attr-defined]
                fut.set_exception(Interrupted())
            elif op.retry:  # type: ignore[attr-defined]
                fut.set_exception(RetryWakeup())
            else:
                fut.set_result(None)
        elif op.interrupt:  # type: ignore[attr-defined]
            target.interrupt_pending = True
        elif op.retry:  # type: ignore[attr-defined]
            target.retry_pending = True
        else:
            target.unpark_pending = True
        return None
    if is_memory_op(op):
        # A subclass of a memory op: the appliers match exact types only.
        raise SchedulerError(f"not a memory op: {op!r}")
    # Yield / Spin / Work / Label / Alloc: no-ops on the event loop.
    return None


def _sync_fallback(op: Op, handle: _AioTaskHandle) -> Any:
    """The sync lane's path for every op the appliers do not take.

    Shared by :func:`drive_sync` and the native driver, so both treat
    ``ParkTask``, scheduling ops and memory-op subclasses the same way.
    """

    if type(op) is ParkTask:
        raise SchedulerError("drive_sync used on a suspending operation")
    return _apply_other(op, handle)


def drive_sync(
    gen: Generator[Any, Any, Any],
    handle: Optional[_AioTaskHandle] = None,
    bus: Optional[EventBus] = None,
) -> Any:
    """Drive an operation that must not suspend (try-ops, close, interrupt).

    The reference for the native ``_enginec.drive_sync``, which has the
    same shape without ``bus``: exact-type memory ops through the
    appliers, everything else through :func:`_sync_fallback`.
    """

    handle = handle or _AioTaskHandle("sync-op")
    to_send: Any = None
    while True:
        try:
            op = gen.send(to_send)
        except StopIteration as stop:
            return stop.value
        apply = MEMORY_OP_APPLIERS.get(type(op))
        to_send = apply(op) if apply is not None else _sync_fallback(op, handle)
        if bus is not None and bus.active:
            emit_op_events(bus, handle.name, op, result=to_send, clock=_now_us())


def _sync_driver(bus: Optional[EventBus]) -> Callable[[Generator[Any, Any, Any]], Any]:
    """The sync-lane driver a new :class:`AsyncChannel` binds.

    Native on the c tier; the Python :func:`drive_sync` on the py tier
    and for a channel with a bus, since only it emits per-op events.
    """

    if bus is None and _engine.resolve() == "c":
        native = _engine.sync_driver()
        return lambda gen: native(gen, _AioTaskHandle("sync-op"), _sync_fallback)
    return functools.partial(drive_sync, bus=bus)


def _unwind_with(gen: Generator[Any, Any, Any], exc: BaseException, handle: "_AioTaskHandle") -> None:
    """Throw ``exc`` into ``gen`` and drive its cleanup ops to completion.

    The unwinding path of a channel operation performs memory ops (cell
    neutralization) but never parks; any exception it settles on is
    swallowed — the caller propagates its own.  Interpreter exits
    (``KeyboardInterrupt``, ``SystemExit``) are not swallowed.
    """

    to_send: Any = None
    try:
        op = gen.throw(exc)
        while True:
            if type(op) is ParkTask:
                raise SchedulerError("operation parked while unwinding")
            to_send = _apply_simple(op, handle)
            op = gen.send(to_send)
    except StopIteration:
        pass
    except Exception:  # noqa: BLE001 - the caller raises its own
        pass


async def drive_async(
    gen: Generator[Any, Any, Any],
    name: str = "aio-op",
    bus: Optional[EventBus] = None,
) -> Any:
    """Drive a (possibly suspending) channel operation on the event loop.

    With ``bus`` given, every executed op is translated into structured
    events through the shared :func:`~repro.obs.events.emit_op_events`
    path — the same events the simulator emits, timestamped in
    monotonic microseconds.
    """

    handle = _AioTaskHandle(name)
    observing = bus is not None and bus.active
    to_send: Any = None
    to_throw: Optional[BaseException] = None
    while True:
        try:
            if to_throw is not None:
                exc, to_throw = to_throw, None
                op = gen.throw(exc)
            else:
                op = gen.send(to_send)
                to_send = None
        except StopIteration as stop:
            handle.done = True
            return stop.value
        if type(op) is not ParkTask:
            to_send = _apply_simple(op, handle)
            if observing:
                emit_op_events(bus, name, op, result=to_send, clock=_now_us())
            continue
        # Park: honour permits, then await the suspension future.
        if handle.interrupt_pending:
            handle.interrupt_pending = False
            to_throw = Interrupted()
            continue
        if handle.retry_pending:
            handle.retry_pending = False
            to_throw = RetryWakeup()
            continue
        if handle.unpark_pending:
            handle.unpark_pending = False
            continue
        waiter = op.waiter  # type: ignore[attr-defined]
        handle.future = asyncio.get_running_loop().create_future()
        if observing:
            emit_op_events(bus, name, op, clock=_now_us(), parked=True)
        try:
            await handle.future
            handle.future = None
            continue  # resumed normally
        except (Interrupted, RetryWakeup) as exc:
            handle.future = None
            to_throw = exc  # delivered via the waiter protocol
            continue
        except asyncio.CancelledError:
            fut = handle.future
            handle.future = None
            # Map asyncio cancellation onto the paper's interrupt().  The
            # interrupt generator contains no parks; drive it inline so
            # the onInterrupt cleanup runs before we propagate.
            won = drive_sync(waiter.interrupt(), handle)
            if won:
                # Unwind the operation by delivering Interrupted at the
                # park point and driving its cleanup ops to completion
                # (select uses this to neutralize losing registrations);
                # a plain gen.close() would forbid those yields.
                _unwind_with(gen, Interrupted(), handle)
                raise
            # A resumption beat the cancellation: the operation logically
            # completed — finish it rather than lose the element.
            if fut is not None and fut.done() and fut.exception() is None:
                continue
            if handle.unpark_pending:
                handle.unpark_pending = False
                continue
            _unwind_with(gen, Interrupted(), handle)
            raise


class AsyncChannel:
    """Kotlin-style channel for asyncio, backed by the paper's algorithm.

    ``capacity == 0`` gives rendezvous semantics; suspensions integrate
    with asyncio cancellation, ``close()`` wakes waiting receivers, and
    the channel is an async iterator that terminates on close.
    """

    def __init__(
        self,
        capacity: int = 0,
        seg_size: int = DEFAULT_SEGMENT_SIZE,
        name: str = "async-chan",
        overflow: str = "suspend",
        bus: Optional[EventBus] = None,
    ):
        """``overflow`` selects the kotlinx buffer-overflow policy:
        ``"suspend"`` (default), ``"drop_oldest"``, or ``"conflate"``
        (which forces capacity 1).  ``bus`` opts this channel into the
        :mod:`repro.obs` event stream (pay-for-use: ``None`` emits
        nothing)."""

        if overflow == "suspend":
            self._ch = make_channel(capacity, seg_size=seg_size, name=name)
        elif overflow == "drop_oldest":
            from ..core.conflated import DropOldestChannel

            self._ch = DropOldestChannel(max(1, capacity), seg_size=seg_size, name=name)
        elif overflow == "conflate":
            from ..core.conflated import ConflatedChannel

            self._ch = ConflatedChannel(seg_size=seg_size, name=name)
        else:
            raise ValueError(f"unknown overflow policy: {overflow!r}")
        self.name = name
        self.bus = bus
        self._drive_sync = _sync_driver(bus)

    @property
    def capacity(self) -> int:
        return self._ch.capacity

    @property
    def stats(self):
        """The underlying channel's operation counters."""

        return self._ch.stats

    # ------------------------------------------------------------------

    async def send(self, element: Any, *, timeout: Optional[float] = None) -> None:
        """Send, suspending while the channel is full (or unpaired).

        With ``timeout``, a send still parked after ``timeout`` seconds
        is cancelled (the cell is neutralized via the interrupt
        protocol; the channel stays usable) and
        :class:`asyncio.TimeoutError` is raised.
        """

        op = drive_async(self._ch.send(element), f"{self.name}.send", self.bus)
        if timeout is None:
            await op
        else:
            await _with_deadline(op, timeout)

    async def receive(self, *, timeout: Optional[float] = None) -> Any:
        """Receive, suspending while the channel is empty.

        With ``timeout``, a receive still parked after ``timeout``
        seconds raises :class:`asyncio.TimeoutError`; if an element
        arrived in the same instant the deadline expired, the element
        is returned rather than lost.
        """

        op = drive_async(self._ch.receive(), f"{self.name}.receive", self.bus)
        if timeout is None:
            return await op
        return await _with_deadline(op, timeout)

    async def receive_catching(self, *, timeout: Optional[float] = None) -> tuple[bool, Any]:
        """Like :meth:`receive`, but ``(False, None)`` once closed."""

        op = drive_async(self._ch.receive_catching(), f"{self.name}.receive", self.bus)
        if timeout is None:
            return await op
        return await _with_deadline(op, timeout)

    def try_send(self, element: Any) -> bool:
        """Non-blocking send (synchronous: it never suspends)."""

        return self._drive_sync(self._ch.try_send(element))

    def try_receive(self) -> tuple[bool, Any]:
        """Non-blocking receive (synchronous: it never suspends)."""

        return self._drive_sync(self._ch.try_receive())

    def close(self) -> bool:
        """Close for sending; wakes waiting receivers.  Synchronous.

        Idempotent: only the call that actually closed the channel
        returns ``True``; repeats return ``False`` and wake nobody.
        """

        return self._drive_sync(self._ch.close())

    def cancel(self) -> bool:
        """Close and discard everything.  Synchronous and idempotent."""

        return self._drive_sync(self._ch.cancel())

    @property
    def cancelled(self) -> bool:
        """Was the channel :meth:`cancel`-ed (as opposed to closed)?"""

        return bool(getattr(self._ch, "cancelled", False))

    # ------------------------------------------------------------------

    def __aiter__(self) -> AsyncIterator[Any]:
        return self

    async def __anext__(self) -> Any:
        try:
            return await self.receive()
        except ChannelClosedForReceive:
            raise StopAsyncIteration from None

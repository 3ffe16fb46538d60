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

One stepping core drives every operation: it resumes the operation
with a value, or throws an exception into it, and runs it until it
returns or reaches ``ParkTask``; it then returns the result or the
park.  The drivers are thin wrappers over it: :func:`drive_sync` (the
lane for ``try_send``, ``try_receive``, ``close`` and ``cancel``) raises
on a park, :func:`drive_async` awaits a future between steps, and
unwinding a cancelled operation steps it with a throw.
:meth:`AsyncChannel.start` runs ``send``/``receive`` in one pass and
returns the result or a :class:`ParkedOp`, whose waiter is already in
the channel; ``await`` finishes it and :meth:`ParkedOp.abandon` cancels
it.  The served stack (``repro.net``) runs every ``SEND``/``RECEIVE``
this way.

On the compiled engine tier (``repro._engine``, selected by the same
``set_default_engine`` / ``REPRO_ENGINE`` / ``auto`` knob as the
simulator) an :class:`AsyncChannel` without an event bus binds the
native ``_enginec.step``: it applies the exact-type memory ops in C and
hands every other op to the same Python fallback, so both cores produce
identical results.  An exact rendezvous or buffered channel then also
steps the native send/receive kernels (the compiled fused frames)
instead of the generators.  The Python :func:`_step` is the reference
and serves the py tier and channels with a bus.

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
from ..core.buffered import BufferedChannel
from ..core.channel import make_channel
from ..core.rendezvous import RendezvousChannel
from ..core.segments import DEFAULT_SEGMENT_SIZE
from ..errors import ChannelClosedForReceive, Interrupted, RetryWakeup, SchedulerError
from ..obs.events import EventBus, emit_op_events
from ..runtime.waiter import NO_PERMIT, take_permit


def _now_us() -> int:
    """Event timestamp for real-time drivers: monotonic microseconds."""

    return time.monotonic_ns() // 1000

__all__ = ["AsyncChannel", "ParkedOp", "drive_async", "drive_sync"]


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
    """The driver's task object (what ``curCor()`` binds waiters to).

    One is made only when an operation first asks for it, on its way to
    parking; until then the stepping core carries the operation's name
    in its place (:func:`_apply_other`).
    """

    __slots__ = (
        "future",
        "unpark_pending",
        "interrupt_pending",
        "retry_pending",
        "current_waiter",
        "name",
    )

    def __init__(self, name: str = "aio-op"):
        self.future: Optional[asyncio.Future] = None
        self.unpark_pending = False
        self.interrupt_pending = False
        self.retry_pending = False
        self.current_waiter: Any = None
        self.name = name


def _apply_other(op: Op, handle: Any) -> Any:
    """Apply one op that is neither ``ParkTask`` nor exactly one of the
    five memory-op types; the stepping core's fallback on both tiers.

    ``handle`` is the operation's :class:`_AioTaskHandle`, or its name
    while it has none: ``CurrentTask`` then makes the handle.
    """

    t = type(op)
    if t is CurrentTask:
        return handle if type(handle) is _AioTaskHandle else _AioTaskHandle(handle)
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


def _step(
    gen: Generator[Any, Any, Any],
    handle: Any,
    fallback: Callable[[Op, Any], Any] = _apply_other,
    value: Any = None,
    exc: Optional[BaseException] = None,
    bus: Optional[EventBus] = None,
) -> Any:
    """The stepping core: resume ``gen`` and run it until it returns or parks.

    ``gen`` is resumed with ``value``, or ``exc`` is thrown into it.
    Exact-type memory ops go through the appliers, ``ParkTask`` stops
    the run, and every other op goes to ``fallback(op, handle)``;
    ``handle`` is the operation's task handle or, until it asks for
    one, its name.
    Returns the operation's result, or the ``ParkTask`` op it stopped
    at (no channel operation returns one); exceptions propagate.  With
    an active ``bus`` every executed op is emitted as structured events.
    The native ``_enginec.step`` has the same contract without ``bus``.
    """

    observing = bus is not None and bus.active
    if observing:
        name = handle if type(handle) is str else handle.name
    try:
        op = gen.send(value) if exc is None else gen.throw(exc)
        while type(op) is not ParkTask:
            apply = MEMORY_OP_APPLIERS.get(type(op))
            value = apply(op) if apply is not None else fallback(op, handle)
            if observing:
                emit_op_events(bus, name, op, result=value, clock=_now_us())
            op = gen.send(value)
    except StopIteration as stop:
        return stop.value
    return op


def _drive(step: Callable[..., Any], gen: Generator[Any, Any, Any],
           handle: Optional[_AioTaskHandle] = None) -> Any:
    """Run an operation that must not suspend to completion."""

    result = step(gen, handle or "sync-op", _apply_other, None, None)
    if type(result) is ParkTask:
        raise SchedulerError("drive_sync used on a suspending operation")
    return result


def drive_sync(
    gen: Generator[Any, Any, Any],
    handle: Optional[_AioTaskHandle] = None,
    bus: Optional[EventBus] = None,
) -> Any:
    """Drive an operation that must not suspend (try-ops, close, interrupt).

    A park raises :class:`~repro.errors.SchedulerError`.
    """

    return _drive(_stepper(bus), gen, handle)


def _unwind_with(
    gen: Generator[Any, Any, Any],
    exc: BaseException,
    handle: _AioTaskHandle,
    step: Callable[..., Any] = _step,
) -> None:
    """Throw ``exc`` into ``gen`` and step its cleanup ops.

    The unwinding path of a channel operation performs memory ops (cell
    neutralization) but never parks; any exception it settles on is
    swallowed — the caller propagates its own.  Interpreter exits
    (``KeyboardInterrupt``, ``SystemExit``) are not swallowed.
    """

    try:
        step(gen, handle, _apply_other, None, exc)
    except Exception:  # noqa: BLE001 - the caller raises its own
        pass


class ParkedOp:
    """A started channel operation that is parked in its cell.

    :meth:`AsyncChannel.start` returns one when the operation suspends.
    Its waiter already sits in the channel, so a peer may resume it at
    any time; that resumption is kept as a permit until the op is
    awaited.  Await it once to finish the operation, or call
    :meth:`abandon` to cancel it without awaiting.  Cancelling the task
    that awaits it maps onto the paper's ``interrupt()``: the
    ``onInterrupt`` cleanup moves the cell to ``INTERRUPTED_*`` before
    ``CancelledError`` propagates, and if a resumption beat the
    cancellation the operation completes normally instead, so the
    element is never lost.
    """

    __slots__ = ("_gen", "_handle", "_step", "_bus", "_park")

    def __init__(self, gen: Generator[Any, Any, Any], handle: _AioTaskHandle,
                 step: Callable[..., Any], bus: Optional[EventBus], park: ParkTask):
        self._gen = gen
        self._handle = handle
        self._step = step
        self._bus = bus
        self._park = park

    def _resume(self, result: Any) -> Any:
        """Honour permits at a park; the result, or ``self`` while parked."""

        handle = self._handle
        while type(result) is ParkTask:
            wake = take_permit(handle)
            if wake is NO_PERMIT:
                self._park = result
                return self
            result = self._step(self._gen, handle, _apply_other, None, wake)
        return result

    def __await__(self):
        return self._wait().__await__()

    async def _wait(self) -> Any:
        handle, bus = self._handle, self._bus
        result = self._resume(self._park)  # permits since the park
        while result is self:
            fut = handle.future = asyncio.get_running_loop().create_future()
            if bus is not None and bus.active:
                emit_op_events(bus, handle.name, self._park, clock=_now_us(), parked=True)
            wake: Optional[BaseException] = None
            try:
                await fut
            except (Interrupted, RetryWakeup) as exc:
                wake = exc  # delivered via the waiter protocol
            except asyncio.CancelledError:
                handle.future = None
                return self._abandon(fut)
            handle.future = None
            result = self._resume(self._step(self._gen, handle, _apply_other, None, wake))
        return result

    def abandon(self) -> Any:
        """Cancel the operation now, through the waiter's ``interrupt()``.

        Returns the operation's result if a resumption beat the
        interrupt; otherwise the cell is neutralized, the operation is
        unwound and :class:`asyncio.CancelledError` is raised.
        """

        return self._abandon(None)

    def _abandon(self, fut: Optional[asyncio.Future]) -> Any:
        handle, step, gen = self._handle, self._step, self._gen
        # The interrupt generator contains no parks; drive it inline so
        # the onInterrupt cleanup runs before anything else.
        if not _drive(step, self._park.waiter.interrupt(), handle):  # type: ignore[attr-defined]
            # A resumption won: it reached the future before the
            # cancellation did, or it found the future cancelled (or
            # absent) and left a permit.
            if fut is not None and fut.done() and not fut.cancelled():
                wake = fut.exception()
            else:
                wake = take_permit(handle)
            if wake is None:
                # The operation logically completed: finish it.
                return _drive(step, gen, handle)
        # Unwind by delivering Interrupted at the park point and stepping
        # its cleanup ops (select uses this to neutralize losing
        # registrations); a plain gen.close() would forbid those yields.
        _unwind_with(gen, Interrupted(), handle, step)
        raise asyncio.CancelledError()


def _start(gen: Generator[Any, Any, Any], name: str,
           step: Callable[..., Any], bus: Optional[EventBus]) -> Any:
    """Run ``gen`` until it completes (its result) or parks (a ParkedOp,
    whose task handle is the parked waiter's ``task``)."""

    result = step(gen, name, _apply_other, None, None)
    if type(result) is ParkTask:
        return ParkedOp(gen, result.waiter.task, step, bus, result)._resume(result)
    return result


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

    result = _start(gen, name, _stepper(bus), bus)
    if type(result) is ParkedOp:
        return await result
    return result


def _stepper(bus: Optional[EventBus]) -> Callable[..., Any]:
    """The Python stepping core, bound to ``bus`` when there is one."""

    return _step if bus is None else functools.partial(_step, bus=bus)


def _bind(ch: Any, bus: Optional[EventBus]) -> tuple[Callable[..., Any], Any, Any]:
    """The stepping core and send/receive kernel factories a channel binds.

    On the c tier a channel without a bus steps natively, and an exact
    :class:`~repro.core.rendezvous.RendezvousChannel` or
    :class:`~repro.core.buffered.BufferedChannel` takes its PARK-mode
    send/receive kernels straight from the engine's kernel namespace
    (``None`` when ``REPRO_NO_ALG_KERNELS``/``REPRO_NO_FAST_OPS`` turn
    them off).  The Python :func:`_step` serves the py tier and every
    channel with a bus, since only it emits per-op events.
    """

    if bus is not None or _engine.resolve() != "c":
        return _stepper(bus), None, None
    kernels = _engine.kernels()
    if kernels is not None and type(ch) is RendezvousChannel:
        return _engine.stepper(), kernels.rz_send, kernels.rz_recv
    if kernels is not None and type(ch) is BufferedChannel:
        return _engine.stepper(), kernels.buf_send, kernels.buf_recv
    return _engine.stepper(), None, None


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
        self._send_name = f"{name}.send"
        self._receive_name = f"{name}.receive"
        self._step, self._send_kernel, self._receive_kernel = _bind(self._ch, bus)
        self._drive_sync = functools.partial(_drive, self._step)

    @property
    def capacity(self) -> int:
        return self._ch.capacity

    @property
    def stats(self):
        """The underlying channel's operation counters."""

        return self._ch.stats

    # ------------------------------------------------------------------

    def start(self, op: str, element: Any = None) -> Any:
        """Start ``send``/``receive``/``receive_catching`` synchronously.

        ``op`` names the operation (``element`` is the one to send).  The
        operation runs until it completes or parks: the result is
        returned (``None`` for a send), or a :class:`ParkedOp` whose
        waiter is already in the channel.  Await the :class:`ParkedOp`
        to finish the operation, or :meth:`~ParkedOp.abandon` it.
        Channel errors (closed, ``None`` element) raise here.
        """

        ch = self._ch
        if op == "send":
            kernel = self._send_kernel
            gen = None
            if kernel is not None and element is not None and ch.observer is None:
                gen = kernel(ch, element)
            if gen is None:
                gen = ch.send(element)
            name = self._send_name
        elif op == "receive":
            kernel = self._receive_kernel
            gen = kernel(ch) if kernel is not None and ch.observer is None else None
            if gen is None:
                gen = ch.receive()
            name = self._receive_name
        elif op == "receive_catching":
            gen = ch.receive_catching()
            name = self._receive_name
        else:
            raise ValueError(f"unknown channel operation: {op!r}")
        return _start(gen, name, self._step, self.bus)

    async def send(self, element: Any, *, timeout: Optional[float] = None) -> None:
        """Send, suspending while the channel is full (or unpaired).

        With ``timeout``, a send still parked after ``timeout`` seconds
        is cancelled (the cell is neutralized via the interrupt
        protocol; the channel stays usable) and
        :class:`asyncio.TimeoutError` is raised.
        """

        op = self.start("send", element)
        if type(op) is ParkedOp:
            await (op if timeout is None else _with_deadline(op, timeout))

    async def receive(self, *, timeout: Optional[float] = None) -> Any:
        """Receive, suspending while the channel is empty.

        With ``timeout``, a receive still parked after ``timeout``
        seconds raises :class:`asyncio.TimeoutError`; if an element
        arrived in the same instant the deadline expired, the element
        is returned rather than lost.
        """

        op = self.start("receive")
        if type(op) is not ParkedOp:
            return op
        return await (op if timeout is None else _with_deadline(op, timeout))

    async def receive_catching(self, *, timeout: Optional[float] = None) -> tuple[bool, Any]:
        """Like :meth:`receive`, but ``(False, None)`` once closed."""

        op = self.start("receive_catching")
        if type(op) is not ParkedOp:
            return op
        return await (op if timeout is None else _with_deadline(op, timeout))

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

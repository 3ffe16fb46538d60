"""OS-thread adapter: a ``BlockingChannel`` for preemptive threads.

The generator algorithm runs unchanged; this driver provides the
environment contract differently from the simulator:

* **atomicity** — every op's effect is applied under one channel-wide
  lock, giving the sequentially-consistent single-word atomics of §2.
  (Under CPython's GIL this costs little and makes the memory model
  explicit rather than relying on bytecode-level atomicity.)
* **parking** — a per-suspension :class:`threading.Event`; the permit
  flags handle unpark-before-park, guarded by the same op lock;
* **preemption** — real: the OS interleaves threads between ops, so this
  adapter doubles as a GIL-preemptive stress-test harness for the
  algorithm (see ``tests/test_threads_adapter.py``).

Cancellation of a blocked thread is supported through ``close()`` /
``cancel()`` (which interrupt waiters via the normal protocol); there is
no per-operation cancellation API for threads.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Generator, Optional

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
from ..errors import ChannelClosedForReceive, Interrupted, SchedulerError
from ..obs.events import EventBus, emit_op_events
from ..runtime.waiter import NO_PERMIT, take_permit

__all__ = ["BlockingChannel", "select_blocking"]

#: One lock serializes op application across *all* blocking channels: a
#: cross-channel ``select`` needs its steps atomic with every channel it
#: touches (and under CPython this mirrors the GIL's reality anyway).
_GLOBAL_OP_LOCK = threading.Lock()


class _ThreadTaskHandle:
    """Per-operation task object for the thread driver."""

    __slots__ = ("event", "unpark_pending", "interrupt_pending", "retry_pending", "current_waiter", "done")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.unpark_pending = False
        self.interrupt_pending = False
        self.retry_pending = False
        self.current_waiter: Any = None
        self.done = False


class BlockingChannel:
    """Thread-safe blocking channel backed by the paper's algorithm."""

    def __init__(
        self,
        capacity: int = 0,
        seg_size: int = DEFAULT_SEGMENT_SIZE,
        name: str = "blocking-chan",
        overflow: str = "suspend",
        bus: Optional[EventBus] = None,
    ):
        """``overflow``: ``"suspend"`` (default), ``"drop_oldest"``, or
        ``"conflate"`` — the kotlinx buffer-overflow policies.

        ``bus`` opts this channel into the :mod:`repro.obs` event
        stream; events are emitted under the op lock, so subscribers are
        serialized across threads (they must still be quick — they run
        inside every channel operation)."""

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
        self._op_lock = _GLOBAL_OP_LOCK
        self.name = name
        self.bus = bus

    @property
    def capacity(self) -> int:
        return self._ch.capacity

    @property
    def stats(self):
        return self._ch.stats

    # ------------------------------------------------------------------

    def send(self, element: Any, timeout: Optional[float] = None) -> None:
        """Send, blocking the calling thread while the channel is full."""

        self._drive(self._ch.send(element), timeout)

    def receive(self, timeout: Optional[float] = None) -> Any:
        """Receive, blocking while the channel is empty."""

        return self._drive(self._ch.receive(), timeout)

    def receive_catching(self, timeout: Optional[float] = None) -> tuple[bool, Any]:
        return self._drive(self._ch.receive_catching(), timeout)

    def try_send(self, element: Any) -> bool:
        return self._drive(self._ch.try_send(element), None)

    def try_receive(self) -> tuple[bool, Any]:
        return self._drive(self._ch.try_receive(), None)

    def close(self) -> bool:
        return self._drive(self._ch.close(), None)

    def cancel(self) -> bool:
        return self._drive(self._ch.cancel(), None)

    def __iter__(self):
        """Iterate until the channel is closed and drained."""

        while True:
            try:
                yield self.receive()
            except ChannelClosedForReceive:
                return

    # Expose the wrapped core channel for select clauses.
    @property
    def core(self):
        return self._ch

    # ------------------------------------------------------------------

    def _drive(self, gen: Generator[Any, Any, Any], timeout: Optional[float]) -> Any:
        handle = _ThreadTaskHandle()
        lock = self._op_lock
        wake: Any = None
        while True:
            park = self._step(gen, handle, wake)
            if type(park) is not ParkTask:
                handle.done = True
                return park
            with lock:
                wake = take_permit(handle)
                if wake is NO_PERMIT:
                    handle.event.clear()
                    if self.bus is not None and self.bus.active:
                        self._emit(park, parked=True)
            if wake is not NO_PERMIT:
                continue
            if not handle.event.wait(timeout):
                # Cancel the parked waiter through the paper's interrupt().
                if self._step(park.waiter.interrupt(), handle, None):  # type: ignore[attr-defined]
                    # Its onInterrupt cleanup has neutralized the cell:
                    # unwind the operation at the park point.
                    try:
                        self._step(gen, handle, Interrupted())
                    except Exception:  # noqa: BLE001 - the timeout is what we raise
                        pass
                    raise TimeoutError(
                        f"{self.name}: operation still parked after {timeout}s"
                    )
                # A resumption beat the timeout: finish the operation.  Its
                # UnparkTask may still be on its way (each op applies in
                # its own hold of the op lock).
                handle.event.wait()
            with lock:
                # Exactly one wake flag accompanies the event.set():
                # each waiter is resumed at most once.
                wake = take_permit(handle)
            if wake is NO_PERMIT:
                wake = None

    def _step(self, gen: Generator[Any, Any, Any], handle: _ThreadTaskHandle, wake: Any) -> Any:
        """Resume ``gen`` (throwing ``wake`` in when it is an exception)
        and run it until it returns or parks: its result, or the
        ``ParkTask`` op.  Each op applies under the op lock on its own,
        so threads interleave between ops."""

        lock, bus = self._op_lock, self.bus
        try:
            op = gen.throw(wake) if wake is not None else gen.send(None)
            while type(op) is not ParkTask:
                with lock:
                    value = self._apply(op, handle)
                    if bus is not None and bus.active:
                        self._emit(op, result=value)
                op = gen.send(value)
        except StopIteration as stop:
            return stop.value
        return op

    def _emit(self, op: Op, **fields: Any) -> None:
        emit_op_events(
            self.bus,  # type: ignore[arg-type]
            threading.current_thread().name,
            op,
            clock=time.monotonic_ns() // 1000,
            **fields,
        )

    @staticmethod
    def _apply(op: Op, handle: _ThreadTaskHandle) -> Any:
        apply = MEMORY_OP_APPLIERS.get(type(op))
        if apply is not None:
            return apply(op)
        t = type(op)
        if t is CurrentTask:
            return handle
        if t is UnparkTask:
            target: _ThreadTaskHandle = op.task  # type: ignore[attr-defined]
            if op.interrupt:  # type: ignore[attr-defined]
                target.interrupt_pending = True
            elif op.retry:  # type: ignore[attr-defined]
                target.retry_pending = True
            else:
                target.unpark_pending = True
            target.event.set()
            return None
        if is_memory_op(op):
            # A subclass of a memory op: the appliers match exact types only.
            raise SchedulerError(f"not a memory op: {op!r}")
        return None  # Yield / Spin / Work / Label / Alloc


def select_blocking(*clauses, timeout: Optional[float] = None):
    """``select`` across :class:`BlockingChannel` clauses (thread-blocking).

    Clauses are built with :func:`repro.core.select.send_clause` /
    :func:`receive_clause` over each channel's ``.core``::

        from repro.core import receive_clause
        idx, value = select_blocking(receive_clause(a.core),
                                     receive_clause(b.core))

    Sound because every blocking channel shares one op lock.
    """

    from ..core.select import select as _select

    if not clauses:
        raise ValueError("select requires at least one clause")
    driver = BlockingChannel.__new__(BlockingChannel)
    driver._op_lock = _GLOBAL_OP_LOCK
    driver.name = "select"
    driver.bus = None
    return driver._drive(_select(*clauses), timeout)

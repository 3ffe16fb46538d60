"""The coroutine-management API of the paper (Listing 1), as waiters.

The paper's environment exposes::

    interface Coroutine {
        fun tryUnpark(): Boolean
        fun interrupt()
        fun park(onInterrupt: lambda () -> Unit)
    }
    fun curCor(): Coroutine

We realize one *suspension instance* as a :class:`Waiter` — a fresh object per
``park`` site, as in Kotlin where each suspension creates a new continuation.
Channel cells store waiters; ``tryUnpark``/``interrupt`` target a specific
waiter, so a task that retries its operation gets a clean slate each attempt.

The waiter's life-cycle is itself implemented with the simulated CAS, which
means *every race the paper's algorithm must survive between resumption and
interruption is explorable by the model checker*:

::

            tryUnpark                park
    INIT ─────────────▶ PERMIT ─────────────▶ RESUMED        (unpark-before-park)
    INIT ─────────────▶ PARKED ─────────────▶ RESUMED        (park; tryUnpark)
    INIT ─────────────▶ INTERRUPTED                          (interrupt-before-park;
                                                              handler runs at park)
    PARKED ───────────▶ INTERRUPTED                          (interrupt; handler runs
                                                              in the canceller, then the
                                                              parked task is woken with
                                                              ``Interrupted`` thrown in)

``tryUnpark`` returns ``False`` iff the waiter was already interrupted —
exactly the contract ``updCellSend``/``updCellRcv`` rely on when a rendezvous
partner turns out to be cancelled (Listing 3, lines 20–23).

The ``onInterrupt`` handler is a *generator function* (it cleans the channel
cell with atomic ops).  Per the paper it runs after the interruption takes
effect: in the canceller's context for a parked waiter, or in the parker's own
context when the interruption arrived before ``park``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from ..concurrent.cells import RefCell
from ..concurrent.ops import CURRENT_TASK, Cas, CurrentTask, ParkTask, Read, UnparkTask, read_of
from ..errors import Interrupted, RetryWakeup

__all__ = [
    "Waiter",
    "WaiterState",
    "make_waiter",
    "take_permit",
    "NO_PERMIT",
    "INIT",
    "PARKED",
    "PERMIT",
    "RESUMED",
    "INTERRUPTED",
]

_waiter_ids = itertools.count()


class WaiterState:
    """Named sentinel for a waiter life-cycle state."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


INIT = WaiterState("INIT")
PARKED = WaiterState("PARKED")
PERMIT = WaiterState("PERMIT")
RESUMED = WaiterState("RESUMED")
INTERRUPTED = WaiterState("INTERRUPTED")
#: Resumed with the "retry at a fresh cell" signal (select support).
RETRIED = WaiterState("RETRIED")
#: Retry granted before the waiter parked (permit-style).
RETRY_PERMIT = WaiterState("RETRY_PERMIT")

#: ``onInterrupt`` handlers are nullary generator functions.
InterruptHandler = Callable[[], Generator[Any, Any, None]]


class Waiter:
    """One suspension of one task (the paper's ``Coroutine`` handle)."""

    __slots__ = ("task", "_state", "handler", "wid", "interrupt_cause")

    def __init__(self, task: Any):
        #: Driver-level task handle to park/unpark.
        self.task = task
        self._state = RefCell(INIT, name=f"waiter{next(_waiter_ids)}.state")
        #: Registered ``onInterrupt`` cleanup, set by :meth:`park`.
        self.handler: Optional[InterruptHandler] = None
        self.wid = self._state.loc_id
        #: Optional richer exception to raise instead of plain
        #: :class:`Interrupted` (e.g. "channel closed"); set by
        #: :meth:`interrupt` before its CAS, read by the cancelled
        #: operation after unwinding.
        self.interrupt_cause: Optional[BaseException] = None

    @classmethod
    def of(cls, task: Any) -> "Waiter":
        """Build and publish a waiter for an already-known task handle.

        The non-generator half of :meth:`make`: hot paths that already
        yielded :data:`~repro.concurrent.ops.CURRENT_TASK` themselves
        call this directly to skip a generator frame.
        """

        waiter = cls(task)
        try:
            task.current_waiter = waiter
        except AttributeError:  # driver task types without the slot
            pass
        return waiter

    @classmethod
    def make(cls) -> Generator[Any, Any, "Waiter"]:
        """``curCor()`` for this waiter kind: build one for the running task.

        Also publishes the waiter on ``task.current_waiter`` so external
        cancellation (:func:`repro.runtime.api.interrupt_task`) can find
        the task's in-flight suspension.
        """

        return cls.of((yield CURRENT_TASK))

    # -- non-simulated introspection (tests, between scheduler steps) ----

    @property
    def state(self) -> WaiterState:
        return self._state.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Waiter of {getattr(self.task, 'name', self.task)!r} {self.state!r}>"

    # ------------------------------------------------------------------
    # Listing 1 API (generator methods, driven via the op protocol)
    # ------------------------------------------------------------------

    def park(self, on_interrupt: Optional[InterruptHandler] = None) -> Generator[Any, Any, None]:
        """Suspend until resumed; raises :class:`Interrupted` on cancellation.

        Completes immediately (without suspension) if :meth:`try_unpark`
        already granted a permit.  If the waiter was interrupted before
        parking, the handler runs here, in the parker's own context, and
        the interruption takes effect now — "with the following park
        invocation" (Section 2).
        """

        self.handler = on_interrupt
        while True:
            state = yield read_of(self._state)
            if state is INIT:
                ok = yield Cas(self._state, INIT, PARKED)
                if not ok:
                    continue
                # Actually suspend.  Resumes normally after a successful
                # tryUnpark, or unwinds with Interrupted after interrupt().
                yield ParkTask(self)
                return
            if state is PERMIT:
                ok = yield Cas(self._state, PERMIT, RESUMED)
                if ok:
                    return  # unpark won the race; no suspension needed
                continue
            if state is RETRY_PERMIT:
                raise RetryWakeup()  # retried before parking
            if state is INTERRUPTED:
                if on_interrupt is not None:
                    yield from on_interrupt()
                raise Interrupted()
            raise AssertionError(f"park on a finished waiter: {state!r}")

    def try_unpark(self) -> Generator[Any, Any, bool]:
        """Resume the waiter; ``False`` iff it was already interrupted.

        May be called before :meth:`park` (grants a permit).  At most one
        resumer can succeed; a second concurrent ``try_unpark`` on the
        same waiter returns ``False``.
        """

        while True:
            state = yield read_of(self._state)
            if state is INIT:
                ok = yield Cas(self._state, INIT, PERMIT)
                if ok:
                    return True
                continue
            if state is PARKED:
                ok = yield Cas(self._state, PARKED, RESUMED)
                if ok:
                    yield UnparkTask(self.task, interrupt=False)
                    return True
                continue
            # INTERRUPTED, or someone else already resumed it.
            return False

    def try_unpark_retry(self) -> Generator[Any, Any, bool]:
        """Resume the waiter with the *retry* signal (select support).

        The woken operation abandons its current cell (the caller has
        already neutralized it) and re-reserves a fresh one.  ``False``
        iff the waiter was already resumed or interrupted.
        """

        while True:
            state = yield read_of(self._state)
            if state is INIT:
                ok = yield Cas(self._state, INIT, RETRY_PERMIT)
                if ok:
                    return True
                continue
            if state is PARKED:
                ok = yield Cas(self._state, PARKED, RETRIED)
                if ok:
                    yield UnparkTask(self.task, retry=True)
                    return True
                continue
            return False

    def interrupt(self, cause: Optional[BaseException] = None) -> Generator[Any, Any, bool]:
        """Cancel the waiter; ``True`` iff the interruption took effect.

        For a parked waiter the registered ``onInterrupt`` handler runs
        *here, in the canceller's context* (it must clean the channel
        cell before the cancelled operation unwinds), then the parked
        task is woken with :class:`Interrupted`.  Returns ``False`` when
        the waiter was already resumed (cancellation lost the race).

        ``cause`` (e.g. a "channel closed" exception) is published on
        :attr:`interrupt_cause` before the interruption takes effect, so
        the cancelled operation can surface a precise error.  When
        several cancellers race with distinct causes, the surviving
        cause may come from a losing canceller; all our callers use
        interchangeable causes, so this is benign.
        """

        if cause is not None:
            self.interrupt_cause = cause
        while True:
            state = yield read_of(self._state)
            if state is INIT:
                ok = yield Cas(self._state, INIT, INTERRUPTED)
                if ok:
                    return True  # handler will run at the waiter's park()
                continue
            if state is PARKED:
                ok = yield Cas(self._state, PARKED, INTERRUPTED)
                if ok:
                    handler = self.handler
                    if handler is not None:
                        yield from handler()
                    yield UnparkTask(self.task, interrupt=True)
                    return True
                continue
            return False  # PERMIT / RESUMED / INTERRUPTED: too late


def make_waiter() -> Generator[Any, Any, Waiter]:
    """``curCor()``: a fresh :class:`Waiter` for the running task."""

    return (yield from Waiter.make())


#: :func:`take_permit` found no wake-up.
NO_PERMIT = WaiterState("NO_PERMIT")


def take_permit(task: Any) -> Any:
    """Consume the wake-up a driver recorded on ``task`` for its park.

    The real-time drivers (:mod:`repro.aio`, :mod:`repro.threads`) apply
    an ``UnparkTask`` that finds its target not suspended by setting one
    of the target's ``interrupt_pending`` / ``retry_pending`` /
    ``unpark_pending`` flags; the target's next ``ParkTask`` takes it
    here instead of suspending, so no wake-up is lost.  Returns the
    exception to throw in at the park (:class:`Interrupted` or
    :class:`RetryWakeup`), ``None`` for a plain unpark, or
    :data:`NO_PERMIT`.
    """

    if task.interrupt_pending:
        task.interrupt_pending = False
        return Interrupted()
    if task.retry_pending:
        task.retry_pending = False
        return RetryWakeup()
    if task.unpark_pending:
        task.unpark_pending = False
        return None
    return NO_PERMIT

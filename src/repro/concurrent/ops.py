"""Operation descriptors: the atomic-step protocol between algorithms and drivers.

Every algorithm in this repository (the paper's channel and all baselines) is
written as a Python *generator function*.  Each access to shared memory is an
explicit, atomic step: the generator ``yield``\\ s an :class:`Op` descriptor,
the *driver* (a simulated scheduler, an interleaving explorer, the asyncio
adapter, or the OS-thread adapter) applies its effect atomically and resumes
the generator with the result::

    s = yield Faa(self._senders, +1)         # reserve a cell  (Listing 3, line 2)
    state = yield Read(cell.state)
    ok = yield Cas(cell.state, EMPTY, waiter)

This is the granularity the paper reasons at (sequentially consistent single
reads/writes plus CAS and FAA, Section 2), so an exploration driver that
interleaves tasks *between* yields exercises exactly the races the paper's
cell life-cycle diagrams (Figures 1, 2, 6) are designed to resolve.

Descriptors are plain immutable records; they carry no behaviour.  The single
authoritative implementation of each memory effect lives in
:func:`apply_memory_op`, shared by every driver so that a channel tested under
the model checker is bit-for-bit the channel benchmarked under the
discrete-event simulator and shipped in the asyncio adapter.

Scheduling-related descriptors (:class:`ParkTask`, :class:`UnparkTask`,
:class:`CurrentTask`, …) cannot be applied by :func:`apply_memory_op`; each
driver implements them against its own notion of a task.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Optional

from ..errors import SchedulerError
from .cells import Cell, IntCell, RefCell

__all__ = [
    "Op",
    "Read",
    "Write",
    "Cas",
    "Faa",
    "GetAndSet",
    "Yield",
    "Spin",
    "Work",
    "SampledWork",
    "Alloc",
    "ParkTask",
    "UnparkTask",
    "CurrentTask",
    "Label",
    "ClockSync",
    "apply_memory_op",
    "is_memory_op",
    "MEMORY_OP_APPLIERS",
    "YIELD",
    "CURRENT_TASK",
    "OpKit",
    "FreshOpKit",
    "FRESH_KIT",
    "acquire_kit",
    "release_kit",
    "read_of",
    "faa_of",
    "fast_ops_enabled",
    "set_fast_ops",
    "KERNELS",
]

#: Native algorithm-kernel factories, or ``None`` (the normal state).
#:
#: The compiled engine tier (:func:`repro._engine.native_run`) installs a
#: namespace of kernel factories here for the duration of a native
#: ``run_fast`` and restores ``None`` afterwards.  The channel dispatch
#: wrappers (``RendezvousChannel.send`` et al.) consult this module
#: attribute on every call: when a factory accepts the operation it
#: returns an *iterator* the stint loop recognizes and executes natively;
#: otherwise the wrapper returns the ordinary fused generator.  Kernels
#: are never installed for the pure-Python tier, the observed path, or
#: when ``REPRO_NO_ALG_KERNELS``/``REPRO_NO_FAST_OPS`` is set, so every
#: other driver (explorer, threads) sees plain generators.  The asyncio
#: adapter never reads this slot: on the c tier it binds the factories
#: per channel (``repro._engine.kernels()``).
KERNELS: Any = None


class Op:
    """Base class for one atomic step of an algorithm."""

    __slots__ = ()

    #: Cost-model category; overridden by subclasses.
    kind: str = "nop"


class Read(Op):
    """Atomically read ``cell`` and resume the generator with its value."""

    __slots__ = ("cell",)
    kind = "read"

    def __init__(self, cell: Cell):
        self.cell = cell

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Read({self.cell!r})"


class Write(Op):
    """Atomically store ``value`` into ``cell``.  Resumes with ``None``."""

    __slots__ = ("cell", "value")
    kind = "write"

    def __init__(self, cell: Cell, value: Any):
        self.cell = cell
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Write({self.cell!r}, {self.value!r})"


class Cas(Op):
    """Atomic compare-and-swap.  Resumes with ``True`` on success.

    Comparison semantics are delegated to the cell (identity for
    :class:`~repro.concurrent.cells.RefCell`, equality for
    :class:`~repro.concurrent.cells.IntCell`), matching how CAS compares
    references vs. integers on a real machine.
    """

    __slots__ = ("cell", "expected", "update")
    kind = "rmw"

    def __init__(self, cell: Cell, expected: Any, update: Any):
        self.cell = cell
        self.expected = expected
        self.update = update

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cas({self.cell!r}, {self.expected!r} -> {self.update!r})"


class Faa(Op):
    """Atomic fetch-and-add on an :class:`IntCell`.

    Resumes with the value *before* the increment — the paper's
    ``FAA(&S, +1)`` idiom used to reserve cells unconditionally.
    """

    __slots__ = ("cell", "delta")
    kind = "rmw"

    def __init__(self, cell: IntCell, delta: int):
        self.cell = cell
        self.delta = delta

    def __repr__(self) -> str:  # pragma: no cover
        return f"Faa({self.cell!r}, {self.delta:+d})"


class GetAndSet(Op):
    """Atomic swap; resumes with the previous value."""

    __slots__ = ("cell", "value")
    kind = "rmw"

    def __init__(self, cell: Cell, value: Any):
        self.cell = cell
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"GetAndSet({self.cell!r}, {self.value!r})"


class Yield(Op):
    """A pure preemption point with no memory effect.

    Used by cooperative code (e.g. benchmark workers between channel
    operations) to give the scheduler a chance to switch tasks.
    """

    __slots__ = ()
    kind = "yield"


class Spin(Op):
    """One iteration of a bounded spin-wait loop.

    Semantically identical to :class:`Yield` but tagged so progress
    accounting can distinguish *blocking* spin-waits (the buffered
    channel's ``S_RESUMING`` waits, Section 4.2) from ordinary
    scheduling points, and so the cost model can charge a spin penalty.
    """

    __slots__ = ("reason",)
    kind = "spin"

    def __init__(self, reason: str = ""):
        self.reason = reason


class Work(Op):
    """Local (non-contended) computation consuming ``cycles`` simulated cycles.

    Reproduces the paper's benchmark idiom of "consuming 100 non-contended
    loop cycles on average" between channel operations.  No memory effect.
    """

    __slots__ = ("cycles",)
    kind = "work"

    def __init__(self, cycles: int):
        if cycles < 0:
            raise ValueError("work cycles must be non-negative")
        self.cycles = cycles


class SampledWork(Op):
    """Local work whose cycle count is drawn from ``sampler`` at charge time.

    A reusable (flyweight) variant of :class:`Work` for generated
    workloads: the op holds a sampler — any object with a
    ``sample() -> int`` method, canonically
    :class:`repro.bench.workload.GeometricWork` — and the cost model
    draws the cycle count when the op is *charged*, not when it is
    yielded.  One descriptor therefore serves every iteration of a
    task's work loop, and a compiled engine tier can service the draw
    without re-entering Python.  No memory effect; a zero draw charges
    zero cycles (the sampler's stream advances either way).
    """

    __slots__ = ("sampler",)
    kind = "work"

    def __init__(self, sampler: Any):
        self.sampler = sampler

    def __repr__(self) -> str:  # pragma: no cover
        return f"SampledWork({self.sampler!r})"


class Alloc(Op):
    """Allocation-pressure accounting event (Section 5, "Memory usage").

    ``tag`` names the allocated structure (``"segment"``, ``"ms-node"``,
    ``"descriptor"``, …) and ``units`` its relative size in cells.  Drivers
    forward these to the active :class:`~repro.bench.memstats.AllocStats`
    collector, if any; there is no memory effect.
    """

    __slots__ = ("tag", "units")
    kind = "alloc"

    def __init__(self, tag: str, units: int = 1):
        self.tag = tag
        self.units = units


class ParkTask(Op):
    """Suspend the current task until it is unparked or interrupted.

    Emitted only by :mod:`repro.runtime.waiter`; algorithm code goes
    through the higher-level ``park()`` API from Listing 1.  The driver
    resumes the generator normally after an unpark, or throws
    :class:`~repro.errors.Interrupted` into it after an interruption.
    """

    __slots__ = ("waiter",)
    kind = "park"

    def __init__(self, waiter: Any):
        self.waiter = waiter


class UnparkTask(Op):
    """Make a parked task runnable again (successful ``tryUnpark()``).

    ``interrupt`` makes the target resume with
    :class:`~repro.errors.Interrupted` thrown into its generator;
    ``retry`` resumes it with :class:`~repro.errors.RetryWakeup` (the
    select machinery's "try a fresh cell" signal).  At most one of the
    two may be set.
    """

    __slots__ = ("task", "interrupt", "retry")
    kind = "unpark"

    def __init__(self, task: Any, interrupt: bool = False, retry: bool = False):
        assert not (interrupt and retry)
        self.task = task
        self.interrupt = interrupt
        self.retry = retry


class CurrentTask(Op):
    """Resume with the driver's handle for the running task (``curCor()``)."""

    __slots__ = ()
    kind = "current"


class Label(Op):
    """A named, zero-cost trace marker for tests and debugging.

    Exploration tests use labels as synchronization landmarks ("sender
    reserved cell 0") without depending on internal step counts.
    """

    __slots__ = ("name", "payload")
    kind = "label"

    def __init__(self, name: str, payload: Any = None):
        self.name = name
        self.payload = payload


class ClockSync(Op):
    """Force the simulator to publish ``task.clock`` before resuming.

    The scheduler's fast lane keeps the running task's clock in a local
    and writes it back only at suspension points, so a workload that
    reads ``task.clock`` between ops (e.g. the coordinated-omission
    scenario computing its intended-start schedule) can observe a stale
    value.  Yielding ``ClockSync()`` routes through the general op
    handlers — which synchronize the task state — at zero simulated
    cost.  Simulator-only: workload DSL code may use it; channel
    algorithms must not (the asyncio/thread adapters have no clock).
    """

    __slots__ = ()
    kind = "clock_sync"


_MEMORY_OPS = (Read, Write, Cas, Faa, GetAndSet)


def is_memory_op(op: Op) -> bool:
    """Return ``True`` if *op* has a shared-memory effect."""

    return type(op) in MEMORY_OP_APPLIERS or isinstance(op, _MEMORY_OPS)


# ----------------------------------------------------------------------
# Type-keyed appliers: one hash lookup per op instead of an isinstance
# chain.  These are the single authoritative semantics of the simulated
# shared memory; every driver goes through them (directly or via
# :func:`apply_memory_op`), so a channel tested under the model checker
# is bit-for-bit the channel benchmarked under the simulator.
# ----------------------------------------------------------------------


def _apply_read(op: Read) -> Any:
    return op.cell.value


def _apply_write(op: Write) -> None:
    op.cell.value = op.value
    return None


def _apply_cas(op: Cas) -> bool:
    cell = op.cell
    if cell.compare(cell.value, op.expected):
        cell.value = op.update
        return True
    return False


def _apply_faa(op: Faa) -> int:
    cell = op.cell
    old = cell.value
    cell.value = old + op.delta
    return old


def _apply_get_and_set(op: GetAndSet) -> Any:
    cell = op.cell
    old = cell.value
    cell.value = op.value
    return old


#: ``type(op) -> applier``.  Drivers with a hot loop index this table
#: directly (``MEMORY_OP_APPLIERS.get(type(op))``); everything else uses
#: :func:`apply_memory_op`.
MEMORY_OP_APPLIERS: dict[type, Any] = {
    Read: _apply_read,
    Write: _apply_write,
    Cas: _apply_cas,
    Faa: _apply_faa,
    GetAndSet: _apply_get_and_set,
}


# ----------------------------------------------------------------------
# Flyweight descriptors (algorithm-layer fast path).
#
# Three tiers, cheapest first:
#
# 1. **Singletons** for the parameterless ops.  ``Yield()`` and
#    ``CurrentTask()`` carry no state at all, so one shared instance is
#    indistinguishable from a fresh one.
# 2. **Per-cell interned ops** for the two shapes hot loops repeat
#    against the *same* location forever: ``Read(cell)`` and
#    ``Faa(cell, ±1)``.  The cache lives in slots *on the cell itself*
#    (no global intern dict), so it is process-local by construction —
#    ``sweep(parallel=)`` workers build their own cells and therefore
#    their own caches, and nothing keeps a cell alive beyond its owner.
# 3. **Reusable kits** (:class:`OpKit`) for everything else: one mutable
#    descriptor per op type, reused for the duration of a single channel
#    operation.  Safe because every driver in this repository applies an
#    op *synchronously* after ``gen.send`` returns it, before any other
#    code of the same task can run; consumers that retain descriptors
#    (``obs.OpEvent``) must read fields in-step, which all in-tree
#    subscribers do.
#
# ``REPRO_NO_FAST_OPS=1`` (or :func:`set_fast_ops(False)`) degrades all
# three tiers to fresh immutable allocations — the A/B lever for the
# allocation microbench and the golden identity tests.
# ----------------------------------------------------------------------

#: Shared instances of the parameterless ops.
YIELD = Yield()
CURRENT_TASK = CurrentTask()

_fast_ops = os.environ.get("REPRO_NO_FAST_OPS", "") in ("", "0")


def fast_ops_enabled() -> bool:
    """``True`` when the flyweight/reusable descriptor tiers are active."""

    return _fast_ops


def set_fast_ops(enabled: bool) -> None:
    """Runtime toggle for the fast-op tiers (A/B and identity tests).

    Only affects descriptors created *after* the call; kits already
    handed out keep their mode for the operation in flight.
    """

    global _fast_ops
    _fast_ops = bool(enabled)


def read_of(cell: Cell) -> Read:
    """An interned ``Read(cell)``, cached on the cell itself."""

    if not _fast_ops:
        return Read(cell)
    op = cell.read_op
    if op is None:
        op = cell.read_op = Read(cell)
    return op


def faa_of(cell: IntCell, delta: int) -> Faa:
    """An interned ``Faa(cell, ±1)``; other deltas allocate fresh."""

    if not _fast_ops:
        return Faa(cell, delta)
    if delta == 1:
        op = cell.faa_inc
        if op is None:
            op = cell.faa_inc = Faa(cell, 1)
        return op
    if delta == -1:
        op = cell.faa_dec
        if op is None:
            op = cell.faa_dec = Faa(cell, -1)
        return op
    return Faa(cell, delta)


class OpKit:
    """A reusable set of mutable op descriptors for one task's operation.

    Hot paths acquire a kit at operation entry (``send``/``receive``/…)
    and produce each memory op by *mutating* the kit's single instance of
    that type instead of allocating::

        ok = yield kit.cas(cell, EMPTY, waiter)

    The same kit must never be used by two concurrent operations; the
    acquire/release free-list is thread-local, and an operation passes
    its kit down the call chain rather than re-acquiring.
    """

    __slots__ = ("_read", "_write", "_cas", "_faa", "_gas")

    def __init__(self) -> None:
        self._read = Read.__new__(Read)
        self._write = Write.__new__(Write)
        self._cas = Cas.__new__(Cas)
        self._faa = Faa.__new__(Faa)
        self._gas = GetAndSet.__new__(GetAndSet)

    def read(self, cell: Cell) -> Read:
        op = self._read
        op.cell = cell
        return op

    def write(self, cell: Cell, value: Any) -> Write:
        op = self._write
        op.cell = cell
        op.value = value
        return op

    def cas(self, cell: Cell, expected: Any, update: Any) -> Cas:
        op = self._cas
        op.cell = cell
        op.expected = expected
        op.update = update
        return op

    def faa(self, cell: IntCell, delta: int) -> Faa:
        op = self._faa
        op.cell = cell
        op.delta = delta
        return op

    def get_and_set(self, cell: Cell, value: Any) -> GetAndSet:
        op = self._gas
        op.cell = cell
        op.value = value
        return op


class FreshOpKit:
    """Kit-shaped factory that allocates a fresh immutable op per call.

    Handed out when fast ops are disabled, so call sites need no
    branches: the identity tests compare a run on :class:`OpKit` against
    a run on this class and require bit-identical results.
    """

    __slots__ = ()

    @staticmethod
    def read(cell: Cell) -> Read:
        return Read(cell)

    @staticmethod
    def write(cell: Cell, value: Any) -> Write:
        return Write(cell, value)

    @staticmethod
    def cas(cell: Cell, expected: Any, update: Any) -> Cas:
        return Cas(cell, expected, update)

    @staticmethod
    def faa(cell: IntCell, delta: int) -> Faa:
        return Faa(cell, delta)

    @staticmethod
    def get_and_set(cell: Cell, value: Any) -> GetAndSet:
        return GetAndSet(cell, value)


#: The shared stateless fresh-allocation kit.
FRESH_KIT = FreshOpKit()

# Kits are pooled per OS thread: the simulator and asyncio adapter drive
# every task on one thread, while the threads adapter runs one task per
# thread — in both regimes a popped kit is exclusively owned until
# released.  (Each sweep worker process starts with an empty pool.)
_kit_local = threading.local()
_KIT_POOL_CAP = 64


def acquire_kit() -> Any:
    """Borrow a reusable :class:`OpKit` (or :data:`FRESH_KIT` when off)."""

    if not _fast_ops:
        return FRESH_KIT
    pool = getattr(_kit_local, "pool", None)
    if pool:
        return pool.pop()
    return OpKit()


def release_kit(kit: Any) -> None:
    """Return a kit to the current thread's pool.  Idempotent-ish: only
    real :class:`OpKit` instances are pooled, and the pool is bounded."""

    if type(kit) is not OpKit:
        return
    pool = getattr(_kit_local, "pool", None)
    if pool is None:
        pool = _kit_local.pool = []
    if len(pool) < _KIT_POOL_CAP:
        pool.append(kit)


def apply_memory_op(op: Op) -> Any:
    """Apply a memory op's effect and return the value the generator expects.

    This is the single authoritative semantics of the simulated shared
    memory; every driver calls it (each under its own atomicity regime:
    the simulator applies ops one task at a time, the thread adapter
    holds a lock, the asyncio adapter relies on the event loop).
    """

    fn = MEMORY_OP_APPLIERS.get(type(op))
    if fn is None:
        raise SchedulerError(f"not a memory op: {op!r}")
    return fn(op)

"""Engine-tier resolution: pure-Python reference vs. compiled fast loop.

The simulator has two interchangeable engines for the unobserved
standard configuration (``DesPolicy`` + ``CostModel``, no hooks):

* ``py`` — :meth:`repro.sim.scheduler.Scheduler._run_fast`, the pure
  Python fused loop.  This is the *reference implementation*: it defines
  the semantics, and the 16 golden configs in
  ``tests/data/golden_engine.json`` pin its op streams bit-for-bit.
* ``c`` — :mod:`repro._engine._enginec`, a hand-written CPython
  extension transcribing the same loop.  It must produce byte-identical
  results; the golden suite runs under both tiers to prove it.

Tier selection (`resolve`) follows a strict precedence:

1. an explicit ``engine=`` argument (``Scheduler(engine=...)``,
   ``run_selfperf(engine=...)``);
2. the process default set via :func:`set_default_engine` (the bench
   CLI's ``--engine`` flag uses this);
3. the ``REPRO_ENGINE`` environment variable;
4. ``auto`` — prefer the compiled tier when it imports and configures
   cleanly, else fall back to ``py``.

Requesting ``c`` explicitly when the extension is unavailable raises
:class:`~repro.errors.EngineUnavailableError` — an explicit request must
never silently degrade.  ``auto`` degrades silently *except* that the
first resolution emits exactly one ``engine_tier{tier=py|c}`` counter
into :data:`METRICS` and, on fallback, one line on stderr — so a
silently-broken build cannot masquerade as a perf regression.

``REPRO_NO_ENGINE_EXT=1`` disables the extension probe entirely (used by
tests to exercise the fallback path deterministically).

The compiled tier now covers *both* standard-config loops: the fused
unobserved stint loop (``run_fast``) and the observed general loop
(``run_observed``), which executes heap scheduling and op charge/apply
natively while calling back into Python at the observation points
(scheduler hooks, the CostModel audit tap, alloc-stats recording).
Non-default policies and non-default cost models always route through
Python.

Outside the simulator the compiled tier serves the asyncio adapter's
stepping core (:func:`stepper`, the native twin of
``repro.aio.channel._step``).  An :class:`~repro.aio.AsyncChannel`
built while this module resolves ``c`` (the same precedence as above,
minus the explicit argument) steps every operation through it, and an
exact rendezvous or buffered channel binds its send/receive kernels
from :func:`kernels` directly; channels with an event bus and
:mod:`repro.threads` stay Python.  On a build-less checkout the
``auto`` fallback notice may therefore come from the first
``AsyncChannel`` rather than the first ``Scheduler``.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Optional

from ..errors import EngineUnavailableError
from ..obs.metrics import MetricsRegistry

__all__ = [
    "ENGINES",
    "METRICS",
    "available",
    "alg_kernels_available",
    "alg_kernels_enabled",
    "set_alg_kernels",
    "native_run",
    "native_run_general",
    "kernels",
    "stepper",
    "probe_error",
    "probe_error_kind",
    "resolve",
    "set_default_engine",
    "get_default_engine",
]

ENGINES = ("py", "c", "auto")

#: Registry receiving the one-shot ``engine_tier`` probe metric.  Module
#: level because the probe outcome is a per-process fact, not a
#: per-scheduler one.
METRICS = MetricsRegistry()

_default_engine: Optional[str] = None

_ext: Any = None
_probe_error: Optional[str] = None
#: Structured classification of the probe failure, for the fallback
#: notice and tests: ``"disabled"`` (environment opt-out),
#: ``"import-error"`` (extension missing / not built), ``"configure-error"``
#: (layout mismatch) or ``"stale-build"`` (old .so lacking entry points).
_probe_error_kind: Optional[str] = None
_probed = False
_announced = False

#: Entry points a usable build must export beyond ``configure`` and
#: ``run_fast``; a build lacking any of them is classed ``stale-build``.
_ENTRY_POINTS = ("run_observed", "kernel_rz_send", "step")


def _probe() -> None:
    """Import and configure the extension once; record failure reason."""

    global _ext, _probe_error, _probe_error_kind, _probed
    if _probed:
        return
    _probed = True
    if os.environ.get("REPRO_NO_ENGINE_EXT", "") not in ("", "0"):
        _probe_error = "disabled via REPRO_NO_ENGINE_EXT"
        _probe_error_kind = "disabled"
        return
    try:
        from . import _enginec  # type: ignore[attr-defined]
    except Exception as exc:  # pragma: no cover - exercised via env toggle
        _probe_error = f"extension import failed: {exc!r}"
        _probe_error_kind = "import-error"
        return
    try:
        from ..concurrent.cells import CacheLine, Cell, IntCell, RefCell
        from ..concurrent.ops import (
            Alloc,
            Cas,
            CurrentTask,
            Faa,
            GetAndSet,
            Label,
            ParkTask,
            Read,
            SampledWork,
            Spin,
            UnparkTask,
            Work,
            Write,
            Yield,
        )
        from ..baselines import faa_queue as _faaq
        from ..bench.workload import GeometricWork
        from ..concurrent.ops import CURRENT_TASK, acquire_kit, release_kit
        from ..core import states as _states
        from ..core.segments import Segment
        from ..errors import (
            ChannelClosedForReceive,
            ChannelClosedForSend,
            DeadlockError,
            Interrupted,
            RetryWakeup,
            StepLimitExceeded,
        )
        from ..runtime import waiter as _waiter
        from ..sim.costmodel import CostModel, OpCostAudit
        from ..sim.tasks import Task, TaskState

        _enginec.configure(
            {
                "Read": Read,
                "Write": Write,
                "Cas": Cas,
                "Faa": Faa,
                "GetAndSet": GetAndSet,
                "Work": Work,
                "Yield": Yield,
                "Spin": Spin,
                "ParkTask": ParkTask,
                "UnparkTask": UnparkTask,
                "CurrentTask": CurrentTask,
                "Alloc": Alloc,
                "Label": Label,
                "SampledWork": SampledWork,
                "GeometricWork": GeometricWork,
                "OpCostAudit": OpCostAudit,
                "CostModel": CostModel,
                "RefCell": RefCell,
                "IntCell": IntCell,
                "Task": Task,
                "Cell": Cell,
                "CacheLine": CacheLine,
                "RUNNABLE": TaskState.RUNNABLE,
                "PARKED": TaskState.PARKED,
                "DONE": TaskState.DONE,
                "FAILED": TaskState.FAILED,
                "Interrupted": Interrupted,
                "RetryWakeup": RetryWakeup,
                "DeadlockError": DeadlockError,
                "StepLimitExceeded": StepLimitExceeded,
                # Algorithm-kernel layout (PR 10): cell states, waiter
                # classes/states, segment shapes, and close exceptions the
                # native send/receive/enqueue/dequeue machines compare
                # against by identity.
                "C_BUFFERED": _states.BUFFERED,
                "C_IN_BUFFER": _states.IN_BUFFER,
                "C_DONE": _states.DONE,
                "C_DONE_RCV": _states.DONE_RCV,
                "C_BROKEN": _states.BROKEN,
                "C_CANCELLED": _states.CANCELLED,
                "C_INTERRUPTED_SEND": _states.INTERRUPTED_SEND,
                "C_INTERRUPTED_RCV": _states.INTERRUPTED_RCV,
                "C_S_RESUMING_RCV": _states.S_RESUMING_RCV,
                "C_S_RESUMING_EB": _states.S_RESUMING_EB,
                "W_INIT": _waiter.INIT,
                "W_PARKED": _waiter.PARKED,
                "W_PERMIT": _waiter.PERMIT,
                "W_RESUMED": _waiter.RESUMED,
                "Waiter": _waiter.Waiter,
                "SenderWaiter": _states.SenderWaiter,
                "ReceiverWaiter": _states.ReceiverWaiter,
                "Segment": Segment,
                "QSegment": _faaq._QSegment,
                "ChannelClosedForSend": ChannelClosedForSend,
                "ChannelClosedForReceive": ChannelClosedForReceive,
                "FAAQ_BROKEN": _faaq._BROKEN,
                "CURRENT_TASK": CURRENT_TASK,
                "acquire_kit": acquire_kit,
                "release_kit": release_kit,
            }
        )
    except Exception as exc:
        # A layout mismatch (or any configure failure) means the build is
        # unusable; fall back to the reference tier.
        _probe_error = f"extension configure failed: {exc!r}"
        _probe_error_kind = "configure-error"
        return
    missing = [name for name in _ENTRY_POINTS if not hasattr(_enginec, name)]
    if missing:
        # An .so from an older source tree imports and configures fine
        # but lacks later entry points (the observed-path core, the
        # algorithm kernels, the stepping core); treat it as unusable
        # rather than serving a half-tier.
        _probe_error = (
            f"extension build is stale (missing {', '.join(missing)}); "
            "rebuild it"
        )
        _probe_error_kind = "stale-build"
        return
    _ext = _enginec
    _probe_error = None
    _probe_error_kind = None


def available() -> bool:
    """``True`` when the compiled tier imported and configured cleanly."""

    _probe()
    return _ext is not None


def probe_error() -> Optional[str]:
    """Why the compiled tier is unavailable, or ``None`` when it is."""

    _probe()
    return _probe_error


def probe_error_kind() -> Optional[str]:
    """Structured probe-failure class (see :data:`_probe_error_kind`)."""

    _probe()
    return _probe_error_kind


#: Human framing per probe-failure class for the ``auto`` fallback
#: notice.  ``disabled`` is an intentional opt-out and gets no remedy
#: hint; everything else points at the rebuild command.
_FALLBACK_HINTS = {
    "disabled": "disabled by environment",
    "import-error": "extension is not built or not importable",
    "configure-error": "extension build does not match this source tree",
    "stale-build": "extension build is stale",
}


def _announce(tier: str) -> None:
    """One-shot probe report: one metric, plus stderr on fallback.

    The notice names the *probe failure class* and the underlying reason
    (import error vs. ``REPRO_NO_ENGINE_EXT`` vs. layout mismatch), so a
    silently-broken build is distinguishable from an intentional opt-out
    without rerunning the probe by hand.
    """

    global _announced
    if _announced:
        return
    _announced = True
    METRICS.counter("engine_tier", tier=tier).inc()
    if tier == "py" and _probe_error is not None:
        kind = _probe_error_kind or "unavailable"
        framing = _FALLBACK_HINTS.get(kind, "unavailable")
        msg = (
            f"repro: compiled engine unavailable [{kind}] — {framing}: "
            f"{_probe_error}; using pure-Python tier"
        )
        if kind not in (None, "disabled"):
            msg += " (rebuild: python setup.py build_ext --inplace)"
        print(msg, file=sys.stderr)


def set_default_engine(engine: Optional[str]) -> Optional[str]:
    """Set the process-default engine; returns the previous default.

    ``None`` clears the default (environment/auto take over again).
    """

    global _default_engine
    if engine is not None and engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    prev = _default_engine
    _default_engine = engine
    return prev


def get_default_engine() -> Optional[str]:
    return _default_engine


def resolve(request: Optional[str] = None) -> str:
    """Resolve an engine request to a concrete tier: ``'py'`` or ``'c'``.

    Precedence: explicit *request* > :func:`set_default_engine` >
    ``REPRO_ENGINE`` > ``'auto'``.  An explicit ``'c'`` raises
    :class:`~repro.errors.EngineUnavailableError` when the extension is
    unusable; ``'auto'`` silently degrades (after the one-shot notice).
    """

    if request is None:
        request = _default_engine
    if request is None:
        request = os.environ.get("REPRO_ENGINE", "") or "auto"
    if request not in ENGINES:
        raise ValueError(f"unknown engine {request!r}; expected one of {ENGINES}")
    if request == "py":
        return "py"
    if request == "c":
        if not available():
            raise EngineUnavailableError(_probe_error or "unknown probe failure")
        return "c"
    # auto
    tier = "c" if available() else "py"
    _announce(tier)
    return tier


# ----------------------------------------------------------------------
# Algorithm kernels (PR 10)
# ----------------------------------------------------------------------
#
# The compiled tier carries native transcriptions of the fused PARK-mode
# channel fast paths ("op kernels"), available only when neither
# ``REPRO_NO_ALG_KERNELS`` nor ``REPRO_NO_FAST_OPS`` disables them.  The
# simulator installs them into ``repro.concurrent.ops.KERNELS`` for the
# duration of a native ``run_fast``, where the channels' dispatch
# wrappers find them; the asyncio adapter binds the factories per
# channel instead and never reads that process-global slot.

_alg_kernels = os.environ.get("REPRO_NO_ALG_KERNELS", "") in ("", "0")


def alg_kernels_enabled() -> bool:
    """``True`` when the native algorithm kernels may be installed."""

    return _alg_kernels


def set_alg_kernels(enabled: bool) -> None:
    """Runtime toggle for the algorithm kernels (A/B and identity tests)."""

    global _alg_kernels
    _alg_kernels = bool(enabled)


class _Kernels:
    """The namespace the channel dispatch wrappers consult.

    One attribute per kernel factory; each factory returns a native
    kernel iterator, or ``None`` when the operation is not eligible
    (the wrapper then falls back to the fused generator).
    """

    __slots__ = ("rz_send", "rz_recv", "buf_send", "buf_recv", "faaq_enq", "faaq_deq")

    def __init__(self, ext: Any):
        self.rz_send = ext.kernel_rz_send
        self.rz_recv = ext.kernel_rz_recv
        self.buf_send = ext.kernel_buf_send
        self.buf_recv = ext.kernel_buf_recv
        self.faaq_enq = ext.kernel_faaq_enq
        self.faaq_deq = ext.kernel_faaq_deq


_kernels_ns: Any = None


def alg_kernels_available() -> bool:
    """``True`` when the compiled tier exposes the kernel factories."""

    _probe()
    return _ext is not None and hasattr(_ext, "kernel_rz_send")


def _kernel_namespace() -> Any:
    global _kernels_ns
    if _kernels_ns is None and alg_kernels_available():
        _kernels_ns = _Kernels(_ext)
    return _kernels_ns


def kernels() -> Any:
    """The kernel namespace, or ``None`` when the kernels are off.

    Off when the build lacks them or ``REPRO_NO_ALG_KERNELS`` /
    ``REPRO_NO_FAST_OPS`` (or their runtime toggles) disable them.
    """

    from ..concurrent import ops as _ops

    if _alg_kernels and _ops.fast_ops_enabled():
        return _kernel_namespace()
    return None


def native_run(sched: Any) -> None:
    """Run *sched*'s fused loop on the compiled tier (must be available)."""

    _probe()
    if _ext is None:
        raise EngineUnavailableError(_probe_error or "unknown probe failure")
    from ..concurrent import ops as _ops

    namespace = kernels()
    if namespace is None:
        _ext.run_fast(sched)
        return
    prev = _ops.KERNELS
    _ops.KERNELS = namespace
    try:
        _ext.run_fast(sched)
    finally:
        _ops.KERNELS = prev


def stepper() -> Any:
    """The compiled stepping core, ``step(gen, handle, fallback, value, exc)``.

    :class:`repro.aio.AsyncChannel` binds it on the c tier (the Python
    reference is ``repro.aio.channel._step``).
    """

    _probe()
    if _ext is None:
        raise EngineUnavailableError(_probe_error or "unknown probe failure")
    return _ext.step


def native_run_general(sched: Any) -> None:
    """Run *sched*'s observed general loop on the compiled tier.

    Bit-identical to :meth:`Scheduler._run_general` for the standard
    configuration, including hook/audit/alloc-stats callouts.
    """

    _probe()
    if _ext is None:
        raise EngineUnavailableError(_probe_error or "unknown probe failure")
    _ext.run_observed(sched)

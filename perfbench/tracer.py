"""Timing wrappers around public functions, installed only for traced runs.

The benchmark adds no instrumentation to ``src/``: a :class:`Tracer`
replaces a function *where its caller looks it up* (a class attribute
for methods, a module global for names imported with ``from ... import``)
with a wrapper that records the call's duration and count, and
:meth:`Tracer.remove` puts every original back.  Spans and counts stay
in memory; callers summarise them when the run ends.

Untraced runs never construct a :class:`Tracer`, so nothing is wrapped
while end-to-end numbers are taken.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        #: span name -> call durations in ns
        self.spans: dict[str, list[int]] = defaultdict(list)
        #: counter name -> count
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installing -----------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""

        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr) if own is _MISSING else own
        wrapper = make(original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, own))

    def time_call(self, owner: Any, attr: str, span: str) -> None:
        """Wrap a plain or ``async`` function so each call lands in *span*."""

        durations = self.spans[span]

        def make(fn: Any) -> Any:
            if inspect.iscoroutinefunction(fn):

                @functools.wraps(fn)
                async def timed_async(*args: Any, **kwargs: Any) -> Any:
                    t0 = perf_counter_ns()
                    try:
                        return await fn(*args, **kwargs)
                    finally:
                        durations.append(perf_counter_ns() - t0)

                return timed_async

            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    durations.append(perf_counter_ns() - t0)

            return timed

        self.patch(owner, attr, make)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- removing -------------------------------------------------------

    def remove(self) -> None:
        """Restore every patched name, newest first."""

        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- summaries ------------------------------------------------------

    def total_s(self, span: str) -> float:
        return sum(self.spans.get(span, ())) / 1e9

    def calls(self, span: str) -> int:
        return len(self.spans.get(span, ()))

    def mean_us(self, *spans: str) -> float:
        n = sum(self.calls(s) for s in spans)
        return sum(sum(self.spans.get(s, ())) for s in spans) / 1e3 / n if n else 0.0

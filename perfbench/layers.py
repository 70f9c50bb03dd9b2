"""Layer timing from outside the program, for the traced run.

The program's own tracing (``repro.obs``) stays off.  Instead the traced
run wraps the calls into each layer: instance-attribute wrappers on
planner and executor methods, a proxy around the shard backend, and a
wrapper on the scheduler's ``run_keyed``.  ``LAYERS.md`` maps the
resulting metrics to the layers they time.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional, Tuple


class LayerClock:
    """Wall time per named span, with self time net of nested spans.

    Spans nest on one thread; ``total`` is a span's full duration and
    ``own`` excludes the spans opened inside it.  From :meth:`reset` to
    :meth:`close` the clock also sums this process's garbage-collector
    passes, which overlap whichever spans they interrupt.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._child_time: List[float] = []
        self.gc_s = 0.0
        self.gc_full = 0
        self._gc_start = 0.0

    def reset(self) -> None:
        """Forget every span closed so far (after a warm-up), and time
        garbage collection from here on."""
        self.total.clear()
        self.own.clear()
        self.calls.clear()
        self.gc_s, self.gc_full = 0.0, 0
        if self._gc_pass not in gc.callbacks:
            gc.callbacks.append(self._gc_pass)

    def close(self) -> None:
        if self._gc_pass in gc.callbacks:
            gc.callbacks.remove(self._gc_pass)

    def _gc_pass(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_full += info["generation"] == 2

    @contextmanager
    def span(self, name: str):
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            nested = self._child_time.pop()
            self.total[name] += elapsed
            self.own[name] += elapsed - nested
            self.calls[name] += 1
            if self._child_time:
                self._child_time[-1] += elapsed

    def wrap(self, owner, attr: str, name: Optional[str] = None) -> None:
        """Time every later call of ``owner.attr`` as span ``name``."""
        inner = getattr(owner, attr)
        name = name or attr

        def timed(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(owner, attr, timed)


class UntracedClock:
    """Stands in for :class:`LayerClock` when the run is untraced."""

    @contextmanager
    def span(self, name: str):
        yield

    def reset(self) -> None:
        pass


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    length, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            length += end - max(start, reach)
            reach = end
    return length


class GroupLog:
    """Shard-group answer intervals, and their union per scheduler batch.

    Groups of one batch may run concurrently (the process fleet, or the
    thread backend's pool), so the batch waits for the union of their
    intervals, not their sum; ``critical`` accumulates that union.
    """

    def __init__(self) -> None:
        self.groups: List[Tuple[float, float, int]] = []
        self.critical = 0.0
        self._batch_start = 0

    def reset(self) -> None:
        """Forget every group logged so far (after a warm-up)."""
        self.groups.clear()
        self.critical = 0.0
        self._batch_start = 0

    def add(self, start: float, n_keys: int) -> None:
        # list.append is atomic, so pool threads may log concurrently
        self.groups.append((start, perf_counter(), n_keys))

    def close_batch(self) -> None:
        batch = self.groups[self._batch_start:]
        self.critical += covered([(start, end) for start, end, _ in batch])
        self._batch_start = len(self.groups)

    @property
    def busy(self) -> float:
        return sum(end - start for start, end, _ in self.groups)

    @property
    def keys(self) -> int:
        return sum(n for _, _, n in self.groups)


class _TimedFuture:
    def __init__(self, future, start: float, n_keys: int,
                 log: GroupLog) -> None:
        self._future = future
        self._start = start
        self._n_keys = n_keys
        self._log = log

    def result(self):
        try:
            return self._future.result()
        finally:
            self._log.add(self._start, self._n_keys)


class TimedBackend:
    """A shard backend proxy that logs every group answer's wall time.

    ``submit_group`` exists on the proxy only when the wrapped backend
    has it, because the scheduler picks its dispatch path by looking the
    method up.  Everything else passes through.
    """

    def __init__(self, inner, log: GroupLog) -> None:
        self._inner = inner
        self._log = log
        if hasattr(inner, "submit_group"):
            self.submit_group = self._submit_group

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def answer_group(self, shard_id: int, group, **kwargs):
        start = perf_counter()
        try:
            return self._inner.answer_group(shard_id, group, **kwargs)
        finally:
            self._log.add(start, len(group))

    def _submit_group(self, shard_id: int, group, **kwargs):
        start = perf_counter()
        future = self._inner.submit_group(shard_id, group, **kwargs)
        return _TimedFuture(future, start, len(group), self._log)


def time_scheduler(scheduler, clock: LayerClock, log: GroupLog) -> None:
    """Time ``scheduler.run_keyed`` and close its group batch per call."""
    inner = scheduler.run_keyed

    def timed(*args, **kwargs):
        try:
            with clock.span("run_keyed"):
                return inner(*args, **kwargs)
        finally:
            log.close_batch()

    scheduler.run_keyed = timed

"""Spans and busy-time counters recorded from outside the program.

The traced run wraps the public calls each layer exposes -- methods on
its classes, functions in its modules, the timing model and program
generators the benchmark hands in -- and restores them afterwards.
Nothing under ``src/`` knows it is being measured.

Two kinds of frame share one parent chain:

* a *span* (``span=True``) is stored with name, start, end, parent and
  request id, and written out when the run ends;
* a *hot* frame (``span=False``) wraps a call made once per simulated
  step; it only adds to its name's counters, because storing a record
  per step would cost more than the step.

Both compute self time the same way: the frame's duration minus the
time its child frames took.  The parent chain lives in a context
variable, so concurrent asyncio tasks each see their own.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.sim import TimingModel

# Frames named with this prefix belong to the benchmark, not to a layer:
# they structure the trace but do not count as covered wall time.
BENCH_PREFIX = "bench."


class _Frame:
    __slots__ = ("name", "start", "child", "parent", "span", "layered")

    def __init__(self, name, start, parent, span):
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.span = span
        # True when this frame or an ancestor is a layer frame.
        self.layered = not name.startswith(BENCH_PREFIX) or (
            parent is not None and parent.layered
        )


class Recorder:
    """Collects spans, per-name call counts, inclusive and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        # Outermost layer frames, for the coverage share.
        self.covered: List[Tuple[float, float]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_frame", default=None
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- frames ----------------------------------------------------------

    def enter(self, name: str, span: bool, req: Any = None) -> Tuple[_Frame, Any]:
        parent = self._current.get()
        frame = _Frame(name, self.clock(), parent, span)
        if span:
            ancestor = parent
            while ancestor is not None and not ancestor.span:
                ancestor = ancestor.parent
            frame.span = {
                "id": len(self.spans),
                "name": name,
                "parent": None if ancestor is None else ancestor.span["id"],
                "req": req,
            }
            self.spans.append(frame.span)
        return frame, self._current.set(frame)

    def exit(self, frame: _Frame, token: Any) -> float:
        end = self.clock()
        self._current.reset(token)
        duration = end - frame.start
        name = frame.name
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[name] += duration - frame.child
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        if frame.layered and (parent is None or not parent.layered):
            self.covered.append((frame.start, end))
        if frame.span:
            frame.span["start"] = frame.start
            frame.span["end"] = end
        return duration

    @contextmanager
    def span(self, name: str, req: Any = None) -> Iterator[None]:
        frame, token = self.enter(name, True, req)
        try:
            yield
        finally:
            self.exit(frame, token)

    # -- wrapping --------------------------------------------------------

    def timed(self, fn: Callable, name: str, span: bool = False) -> Callable:
        """``fn`` wrapped in a frame of the given name."""
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame, token = enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, token)

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, span: bool = False) -> None:
        """Time every call of ``owner.attr`` under ``name``."""
        self.patch(owner, attr, self.timed(getattr(owner, attr), name, span))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def program(self, program, name: str):
        """A generator that times every resumption of ``program``."""
        enter, exit_ = self.enter, self.exit
        value = None
        try:
            while True:
                frame, token = enter(name, False)
                try:
                    op = program.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_(frame, token)
                value = yield op
        finally:
            program.close()

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True, default=str) + "\n")


class TimedTiming(TimingModel):
    """A timing model that times and counts the model it wraps.

    ``failures`` counts shared steps stretched beyond ``delta``: the
    proof that the benchmark's failure windows actually fire.
    """

    def __init__(self, inner: TimingModel, delta: float, recorder: Recorder) -> None:
        self.inner = inner
        self.delta = delta
        self.failures = 0
        self._step = recorder.timed(inner.shared_step_duration, "sim.timing")
        self._delay = recorder.timed(inner.delay_duration, "sim.timing")
        self._local = recorder.timed(inner.local_duration, "sim.timing")

    def shared_step_duration(self, ctx) -> float:
        duration = self._step(ctx)
        if duration > self.delta:
            self.failures += 1
        return duration

    def delay_duration(self, pid: int, requested: float, now: float) -> float:
        return self._delay(pid, requested, now)

    def local_duration(self, pid: int, requested: float, now: float) -> float:
        return self._local(pid, requested, now)

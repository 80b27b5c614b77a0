"""Timing models: how long each step takes.

The paper's timing-based model assumes a *known* upper bound ``Δ`` on the
time any process needs to execute one statement involving a single access
to shared memory.  A :class:`TimingModel` decides the actual duration of
every such step; a *timing failure* is, by definition, any step whose
duration exceeds ``Δ``.

The models below cover the regimes the experiments need:

* :class:`ConstantTiming` / :class:`UniformTiming` — well-behaved
  timing-based systems (every step within ``Δ``);
* :class:`FailureWindowTiming` — a well-behaved base model with transient
  timing-failure windows layered on top (experiments E2, E8, E12);
* :class:`PerProcessTiming` — heterogeneous per-process speeds, used to
  model ``δ_i`` with ``Δ = max δ_i``;
* :class:`AsynchronousTiming` — unbounded (heavy-tailed) step durations:
  the fully asynchronous regime, i.e. timing failures may strike at any
  moment (experiments E6, E7, E13 shape checks);
* :class:`HookTiming` — a programmable adversary used to build the
  targeted schedules in :mod:`repro.sim.adversary`.

All randomized models draw from their own ``random.Random`` seeded at
construction, so every simulation is reproducible from its parameters.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from .failures import TimingFailureWindow, WindowIndex
from .ops import Op

__all__ = [
    "StepContext",
    "TimingModel",
    "ConstantTiming",
    "UniformTiming",
    "PerProcessTiming",
    "FailureWindowTiming",
    "AsynchronousTiming",
    "HookTiming",
    "EmpiricalTiming",
]


@dataclass(frozen=True)
class StepContext:
    """Everything a timing model may condition a step duration on."""

    pid: int
    op: Op
    now: float
    step_index: int  # how many shared steps this process completed so far


class TimingModel(ABC):
    """Decides durations for shared steps, delays and local work."""

    @abstractmethod
    def shared_step_duration(self, ctx: StepContext) -> float:
        """Duration of one shared-memory access issued in context ``ctx``."""

    def delay_duration(self, pid: int, requested: float, now: float) -> float:
        """Duration of an explicit ``delay(d)``.

        The paper's accounting convention is that ``delay(Δ)`` takes
        exactly ``Δ`` time units; models may override to stretch delays
        (stretching a delay is harmless for safety — the statement only
        promises *at least* ``d``).
        """
        return requested

    def local_duration(self, pid: int, requested: float, now: float) -> float:
        """Duration of local (non-shared) work; exact by default."""
        return requested


class ConstantTiming(TimingModel):
    """Every shared step takes exactly ``step`` time units.

    With ``step <= Δ`` this is a timing-failure-free system; it is the
    reference model for the efficiency bounds (e.g. Theorem 2.1's
    ``15·Δ``).
    """

    def __init__(self, step: float) -> None:
        if step <= 0:
            raise ValueError(f"step duration must be positive, got {step}")
        self.step = float(step)

    def shared_step_duration(self, ctx: StepContext) -> float:
        return self.step

    def __repr__(self) -> str:
        return f"ConstantTiming(step={self.step})"


class UniformTiming(TimingModel):
    """Step durations drawn uniformly from ``[lo, hi]``.

    Keep ``hi <= Δ`` for a failure-free system with realistic jitter.
    """

    def __init__(self, lo: float, hi: float, seed: int = 0) -> None:
        if not (0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.seed = seed
        self._rng = random.Random(seed)

    def shared_step_duration(self, ctx: StepContext) -> float:
        return self._rng.uniform(self.lo, self.hi)

    def __repr__(self) -> str:
        return f"UniformTiming(lo={self.lo}, hi={self.hi}, seed={self.seed})"


class PerProcessTiming(TimingModel):
    """Heterogeneous speeds: process ``i`` pays ``delta_i`` per step.

    Models the paper's ``δ_i`` with ``Δ = max_i δ_i``; pids missing from
    the map fall back to ``default``.
    """

    def __init__(self, deltas: Dict[int, float], default: float) -> None:
        if default <= 0:
            raise ValueError(f"default step duration must be positive, got {default}")
        for pid, d in deltas.items():
            if d <= 0:
                raise ValueError(f"step duration for pid {pid} must be positive, got {d}")
        self.deltas = dict(deltas)
        self.default = float(default)

    def shared_step_duration(self, ctx: StepContext) -> float:
        return self.deltas.get(ctx.pid, self.default)

    @property
    def max_delta(self) -> float:
        """The ``Δ = max δ_i`` this model realizes."""
        return max([self.default, *self.deltas.values()])

    def __repr__(self) -> str:
        return f"PerProcessTiming({self.deltas!r}, default={self.default})"


class FailureWindowTiming(TimingModel):
    """A base model plus transient timing-failure windows.

    Steps issued inside a window (by an affected process) are stretched by
    the window; overlapping windows compound by taking the worst (longest)
    stretched duration.  Outside every window the base model applies
    unchanged, so "failures stop at time T" is literally true after the
    last window closes.  ``windows`` is a tuple indexed once at
    construction (:class:`~repro.sim.failures.WindowIndex`), so a step
    costs O(log W + k) for the k windows covering its issue time.
    """

    def __init__(
        self, base: TimingModel, windows: Sequence[TimingFailureWindow]
    ) -> None:
        self.base = base
        self.windows = tuple(windows)
        self._index = WindowIndex(self.windows)

    def shared_step_duration(self, ctx: StepContext) -> float:
        nominal = self.base.shared_step_duration(ctx)
        worst = nominal
        for window in self._index.covering(ctx.now):
            if window.affects(ctx.pid, ctx.now):
                worst = max(worst, window.apply(nominal))
        return worst

    def delay_duration(self, pid: int, requested: float, now: float) -> float:
        return self.base.delay_duration(pid, requested, now)

    def local_duration(self, pid: int, requested: float, now: float) -> float:
        return self.base.local_duration(pid, requested, now)

    @property
    def last_failure_end(self) -> float:
        """The time after which no window can stretch a step."""
        return max((w.end for w in self.windows), default=0.0)

    def __repr__(self) -> str:
        return f"FailureWindowTiming(base={self.base!r}, windows={len(self.windows)})"


class AsynchronousTiming(TimingModel):
    """Unbounded step durations: the fully asynchronous regime.

    Durations are ``base`` time units most of the time, but with
    probability ``tail_prob`` a step is stretched by a Pareto-distributed
    factor — so *no* finite ``Δ`` bounds all steps, which is exactly an
    environment where timing failures never provably stop.
    """

    def __init__(
        self,
        base: float,
        tail_prob: float = 0.1,
        tail_alpha: float = 1.2,
        tail_scale: float = 4.0,
        seed: int = 0,
    ) -> None:
        if base <= 0:
            raise ValueError(f"base step duration must be positive, got {base}")
        if not (0.0 <= tail_prob <= 1.0):
            raise ValueError(f"tail_prob must be in [0, 1], got {tail_prob}")
        if tail_alpha <= 0:
            raise ValueError(f"tail_alpha must be positive, got {tail_alpha}")
        self.base = float(base)
        self.tail_prob = tail_prob
        self.tail_alpha = tail_alpha
        self.tail_scale = tail_scale
        self.seed = seed
        self._rng = random.Random(seed)

    def shared_step_duration(self, ctx: StepContext) -> float:
        if self._rng.random() < self.tail_prob:
            factor = self.tail_scale * self._rng.paretovariate(self.tail_alpha)
            return self.base * max(1.0, factor)
        return self.base

    def __repr__(self) -> str:
        return (
            f"AsynchronousTiming(base={self.base}, tail_prob={self.tail_prob}, "
            f"seed={self.seed})"
        )


class EmpiricalTiming(TimingModel):
    """Step durations bootstrapped from a measured sample set.

    Bridges the real-thread backend and the simulator: measure the host's
    inter-step gaps under contention
    (:func:`repro.runtime.timing.measure_host_delta` exposes the samples'
    distribution), rescale them into simulator time units, and replay them
    here — the simulation then exercises the algorithms against the
    *actual* timing texture of the machine, GIL stalls included, while
    staying fully deterministic and replayable.

    Durations are drawn uniformly (with replacement) from ``samples``
    scaled so that the sample quantile ``calibrate_quantile`` maps to
    ``calibrated_to`` time units — e.g. map the p99 to ``Δ``, making
    everything above the p99 a (realistically rare) timing failure.
    """

    def __init__(
        self,
        samples: Sequence[float],
        calibrated_to: float = 1.0,
        calibrate_quantile: float = 0.99,
        seed: int = 0,
    ) -> None:
        cleaned = sorted(s for s in samples if s > 0)
        if not cleaned:
            raise ValueError("need at least one positive sample")
        if not (0.0 < calibrate_quantile <= 1.0):
            raise ValueError(
                f"calibrate_quantile must be in (0, 1], got {calibrate_quantile}"
            )
        if calibrated_to <= 0:
            raise ValueError(f"calibrated_to must be positive, got {calibrated_to}")
        anchor = cleaned[min(len(cleaned) - 1, int(calibrate_quantile * len(cleaned)))]
        self._scale = calibrated_to / anchor
        self._samples = cleaned
        self.seed = seed
        self._rng = random.Random(seed)

    def shared_step_duration(self, ctx: StepContext) -> float:
        return self._rng.choice(self._samples) * self._scale

    def __repr__(self) -> str:
        return (
            f"EmpiricalTiming({len(self._samples)} samples, seed={self.seed})"
        )


class HookTiming(TimingModel):
    """A programmable model: a hook may override any step's duration.

    The hook receives the :class:`StepContext` and the nominal duration
    from ``base``; returning ``None`` keeps the nominal duration.  This is
    the substrate for the targeted adversaries in
    :mod:`repro.sim.adversary` (e.g. "stall exactly the write to ``y[r]``
    that Algorithm 1's agreement argument worries about").
    """

    def __init__(
        self,
        base: TimingModel,
        hook: Callable[[StepContext, float], Optional[float]],
    ) -> None:
        self.base = base
        self.hook = hook

    def shared_step_duration(self, ctx: StepContext) -> float:
        nominal = self.base.shared_step_duration(ctx)
        override = self.hook(ctx, nominal)
        return nominal if override is None else override

    def delay_duration(self, pid: int, requested: float, now: float) -> float:
        return self.base.delay_duration(pid, requested, now)

    def local_duration(self, pid: int, requested: float, now: float) -> float:
        return self.base.local_duration(pid, requested, now)

    def __repr__(self) -> str:
        return f"HookTiming(base={self.base!r})"

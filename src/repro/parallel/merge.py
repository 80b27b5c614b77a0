"""Deterministically merging per-shard campaign runs back into one report.

The contract: **merged shard output is bit-identical to the sequential
run** on the same master seed.  That holds because each run is
independently seeded by its global index (see
:mod:`repro.parallel.shard`), so a shard's records are exactly the
sequential run's slice.

A chaos campaign's sequential loop stops at the first failing run.  A
shard may stop at *its own* first failure; :func:`merge_campaign_runs`
replays the sequential rule over the records sorted by global index,
truncating at the globally-first failure — runs past it are discarded,
so ``schedules_run``/``total_steps`` match the sequential report exactly.

The report type is imported lazily so ``repro.parallel`` stays
importable without the chaos layer (and free of import cycles with the
CLI that calls into it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

__all__ = ["RunRecord", "merge_campaign_runs"]


@dataclass(frozen=True)
class RunRecord:
    """One campaign run's summary as shipped back from a shard.

    ``outcome`` carries the full failing outcome (``SimOutcome`` /
    ``NetOutcome``) only when the run failed — passing runs ship just
    their index and step count, keeping worker results small.
    ``verdict`` is a passing run's positive evidence (a stabilization
    verdict from a recover target), and ``trace`` the run's repro.obs
    records when the campaign ran with tracing on.
    """

    index: int
    steps: int
    outcome: Optional[Any] = None
    verdict: Optional[Any] = None
    trace: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return self.outcome is None


def merge_campaign_runs(campaign: Any, parts: Sequence[Sequence[RunRecord]]) -> Any:
    """Rebuild a chaos :class:`~repro.chaos.runner.CampaignReport`.

    Replays the sequential first-failure rule over the globally sorted
    run records: accumulate until the lowest-indexed failing run, then
    stop.  Records past the first failure (which only exist because
    other shards could not know about it) are discarded, never counted.
    """
    from ..chaos.runner import CampaignReport

    report = CampaignReport(campaign=campaign)
    records: List[RunRecord] = sorted(
        (record for part in parts for record in part),
        key=lambda record: record.index,
    )
    for record in records:
        report.schedules_run += 1
        report.total_steps += record.steps
        if record.trace is not None:
            report.trace_chunks.append((record.index, record.trace))
        if record.verdict is not None:
            report.verdicts += 1
            if report.first_verdict is None:
                report.first_verdict = record.verdict
        if not record.ok:
            report.failing = record.outcome
            break
    return report

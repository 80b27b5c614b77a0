"""Golden pins for the campaign-aware schedule generator.

Committed chaos artifacts pin the runner only through replay, and replay
never consults the timing windows.  These goldens pin *generation*: the
schedules `run_sim` draws for 24-window campaigns, where the generator's
free-pid filter (which processes no window stalls at the current clock)
decides nearly every step.  They were recorded with the original
per-window scan, so the windowed lookup must reproduce them exactly.
"""

import json
import pathlib

import pytest

from repro.chaos.plan import sample_sim_campaign
from repro.chaos.runner import run_sim, sim_target

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "generated_schedules.json").read_text()
)


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_generated_schedule_is_pinned(key):
    name, campaign_seed, run_seed = key.split("/")
    target = sim_target(name)
    campaign = sample_sim_campaign(campaign_seed, pids=target.pids, windows=24)
    outcome = run_sim(target, campaign, run_seed=run_seed)
    assert {
        "schedule": "".join(map(str, outcome.schedule)),
        "steps": outcome.steps,
        "done": outcome.done,
        "violations": [[v.monitor, v.step] for v in outcome.violations],
    } == GOLDENS[key]

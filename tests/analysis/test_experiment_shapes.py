"""Paper-shape assertions over the experiment drivers (E1-E13, A1-A4, X1-X3).

Each test runs one driver from :mod:`repro.analysis.experiments`,
:mod:`repro.analysis.ablations` or :mod:`repro.analysis.extensions`
(usually with reduced parameters so the suite stays fast) and asserts the
shape claim the paper makes — who wins, by roughly what factor, where the
behaviour changes.  Absolute numbers are simulator-specific and not
asserted.  Timing the same drivers is :mod:`repro.bench`'s job (the
``experiments/*`` scenarios).
"""

import pytest

from repro.analysis.ablations import run_a1, run_a2, run_a3, run_a4
from repro.analysis.experiments import (
    run_e1,
    run_e2,
    run_e3,
    run_e4,
    run_e5,
    run_e6,
    run_e7,
    run_e8,
    run_e9,
    run_e10,
    run_e11,
    run_e12,
    run_e13,
)
from repro.analysis.extensions import run_x1, run_x2, run_x3

# -- consensus (§2) -----------------------------------------------------------


def test_e1_decision_within_15_delta():
    """E1 — Theorem 2.1(1): decision within 15·Δ without timing failures."""
    table = run_e1(ns=(1, 2, 4, 8, 16), seeds=(0, 1))
    # Shape: every configuration decides within the paper's 15·Δ bound.
    assert all(table.column("within 15Δ"))
    # Shape: worst time is flat in n (no growth beyond the 2-round bound).
    worst = table.column("worst time (Δ)")
    assert max(worst) <= 15.0
    assert max(worst[1:]) <= worst[1] + 3.0  # contended cases level out
    # Shape: never more than the two rounds of Theorem 2.1(1).
    assert max(table.column("worst rounds")) <= 2


def test_e2_recovery_bound():
    """E2 — Theorem 2.1(2): recovery within ~2 rounds after failures stop."""
    table = run_e2(window_lengths=(2.0, 5.0, 10.0, 20.0))
    # Shape: every run decides, regardless of how long the window was.
    assert all(table.column("decided"))
    # Shape: at most 2 post-failure rounds (decide by round r+1).
    assert all(table.column("within bound"))
    # Shape: post-failure time is flat in the window length — the window
    # only shifts when recovery starts, not how long it takes.
    times = table.column("post-failure time (Δ)")
    assert max(times) - min(times) <= 3.0


def test_e3_survivors_always_decide():
    """E3 — Theorem 2.1(3)/2.4: wait-freedom under crash failures."""
    table = run_e3(ns=(2, 4, 8))
    # Shape: in every configuration all survivors decided and agreed.
    for decided, agreed in zip(table.column("survivors decided"),
                               table.column("agreed")):
        done, expected = decided.split("/")
        assert done == expected, table.render()
        assert agreed
    # Shape: decision time stays within the 15·Δ budget despite crashes.
    assert max(table.column("worst time (Δ)")) <= 15.0


def test_e4_seven_step_fast_path():
    """E4 — Theorem 2.1(4): the 7-step contention-free fast path."""
    table = run_e4()
    rows = {row[0]: row for row in table.rows}
    # Shape: the solo paths take exactly the paper's 7 steps, even while
    # the system is drowning in timing failures, and never delay.
    assert rows["solo, clean"][1] == 7
    assert rows["solo, during timing failures"][1] == 7
    assert rows["solo, clean"][2] == 0
    assert rows["solo, during timing failures"][2] == 0
    # Shape: a late arrival adopts the standing decision in (far) fewer
    # steps than a fresh solo run.
    assert rows["late arrival (decision standing)"][1] <= 7
    # Shape: unanimity decides in round one with zero delays system-wide.
    assert rows["unanimous x4"][2] == 0


def test_e5_flat_time_linear_steps():
    """E5 — Theorem 2.1(5): open participation; flat per-process cost."""
    table = run_e5(ns=(2, 8, 32, 128))
    times = table.column("worst time (Δ)")
    steps = table.column("total shared steps")
    per_process = table.column("steps per process")
    ns = table.column("n")
    # Shape: per-process time and steps are flat in n.
    assert max(times) - min(times) <= 3.0
    assert max(per_process) - min(per_process) <= 4.0
    # Shape: total steps scale linearly with n.
    ratio = steps[-1] / steps[0]
    assert ratio == pytest.approx(ns[-1] / ns[0], rel=0.5)


def test_e6_zero_violations():
    """E6 — Theorems 2.2/2.3: safety, exhaustive and randomized."""
    table = run_e6(random_seeds=100, mc_max_ops=26)
    # Shape: zero safety violations in both the exhaustive model-checking
    # pass and the randomized adversity sweep.
    assert all(v == 0 for v in table.column("violations")), table.render()


# -- mutual exclusion (§3) ----------------------------------------------------


def test_e7_alg3_flat_baselines_grow():
    """E7 — §3 headline: O(Δ) time complexity vs asynchronous baselines."""
    ns = (2, 4, 8, 16)
    table = run_e7(ns=ns)
    by_name = {row[0]: row for row in table.rows}
    grows_col = len(ns) + 1

    # Shape: the timing-based locks stay O(Δ) — flat in n.
    for name in ("alg3", "fischer"):
        assert not by_name[name][grows_col], table.render()
    # Shape: the scan-based asynchronous locks grow with n.
    for name in ("bakery", "filter"):
        assert by_name[name][grows_col], table.render()
    # Shape: the crossover — at the largest n the asynchronous scanners
    # are at least 2x worse than Algorithm 3.
    largest = len(ns)  # column index of the largest-n metric
    assert by_name["bakery"][largest] > 2.0 * by_name["alg3"][largest]
    assert by_name["filter"][largest] > 2.0 * by_name["alg3"][largest]


def test_e8_starvation_free_converges_faster():
    """E8 — Theorems 3.2/3.3: convergence and the embedded lock's fairness."""
    table = run_e8()
    by_name = {row[0]: row for row in table.rows}
    sf = by_name["bar_david(lamport_fast)"]
    df = by_name["lamport_fast"]
    # Shape: mutual exclusion (stabilization) holds for both variants.
    assert sf[1] and df[1]
    # Shape: the starvation-free A drains the flooded victim promptly...
    assert sf[2] is not None and sf[2] <= 30.0
    # ...while the deadlock-free-only A delays it by a large factor (the
    # measurable face of Theorem 3.2's "not guaranteed to converge").
    assert df[3] is None or df[3] >= 2.0, table.render()


def test_e9_register_counts():
    """E9 — Theorem 3.1: the n-register lower bound, from the upper side."""
    n = 8
    table = run_e9(n=n)
    by_name = {row[0]: row for row in table.rows}
    # Shape: Fischer sits below the bound — and indeed is not resilient.
    assert by_name["fischer"][1] == 1
    assert not by_name["fischer"][4]
    # Shape: the time-resilient Algorithm 3 respects Theorem 3.1's bound.
    alg3 = by_name["alg3 (time-resilient)"]
    assert alg3[1] >= n and alg3[3] and alg3[4]
    # Shape: claimed counts upper-bound the registers actually touched.
    for name, row in by_name.items():
        if row[1] is not None:
            assert row[2] <= row[1], (name, table.render())


def test_e10_cliff_at_delta():
    """E10 — optimistic(Δ): the cliff at Δ and AIMD finding the knee."""
    table = run_e10(ratios=(0.25, 0.5, 1.0, 2.0, 5.0), cap=100.0)
    rows = {row[0]: row for row in table.rows}
    # Shape: below Δ the worst legal schedule wins every round — undecided
    # within the cap, but always safe.
    for ratio in (0.25, 0.5):
        assert not rows[ratio][1], table.render()
        assert rows[ratio][4]  # safe
    # Shape: at and above Δ, decided in round 2.
    for ratio in (1.0, 2.0, 5.0):
        assert rows[ratio][1]
        assert rows[ratio][3] <= 2
    # Shape: above the knee, latency grows with the estimate.
    assert rows[5.0][2] > rows[1.0][2]


def test_e11_unknown_bound_pays_log_rounds():
    """E11 — known Δ (c·Δ) vs unknown bound (doubling rounds)."""
    ratios = (1.0, 0.25, 0.0625, 0.015625)
    table = run_e11(est_ratios=ratios)
    alg1_rounds = table.column("alg1 rounds")
    aat_rounds = table.column("aat rounds")
    gaps = table.column("aat/alg1")
    # Shape: Algorithm 1 always needs 2 rounds against the worst legal
    # schedule.
    assert all(r == 2 for r in alg1_rounds)
    # Shape: AAT's rounds grow as the initial estimate shrinks —
    # one extra round per estimate doubling (log2 of the ratio).
    assert aat_rounds == sorted(aat_rounds)
    assert aat_rounds[-1] >= aat_rounds[0] + 4
    # Shape: the time gap widens monotonically.
    assert gaps == sorted(gaps)
    assert gaps[-1] >= 2.0


def test_e12_derived_objects_safe_under_failures():
    """E12 — derived wait-free objects under failure injection."""
    table = run_e12(n=4)
    # Shape: every derived object keeps its safety property with a process
    # suffering an 8x slowdown window (timing failures).
    assert all(table.column("safe under failures")), table.render()
    # Shape: all objects complete in bounded time in both regimes.
    for column in ("clean time (Δ)", "with failures (Δ)"):
        assert all(v is not None and v < 500 for v in table.column(column))


def test_e13_fischer_violated_alg3_immune():
    """E13 — Fischer loses exclusion under asynchrony; Algorithm 3 does not."""
    table = run_e13(max_ops=24)
    by_name = {row[0]: row for row in table.rows}
    fischer = by_name["fischer (Algorithm 2)"]
    alg3 = by_name["Algorithm 3"]
    # Shape: Fischer admits violating interleavings, with a short witness.
    assert fischer[2] > 0
    assert fischer[3] is not None and fischer[3] <= 12
    # Shape: Algorithm 3's exploration is exhaustive at this bound and
    # finds nothing.
    assert alg3[2] == 0
    assert alg3[1] > fischer[1]  # it genuinely explored a larger space


# -- ablations A1-A4: each removed design choice must visibly break its
# property (see repro/analysis/ablations.py for the full rationale) -----------


def test_a1_delay_buys_liveness():
    table = run_a1(cap=120.0)
    paper, ablated = table.rows
    # Both safe; both fine under benign timing.
    assert paper[3] and ablated[3]
    assert "decided" in paper[1] and "decided" in ablated[1]
    # Against the worst legal schedule only the paper variant decides.
    assert "decided" in paper[2]
    assert "undecided" in ablated[2]


def test_a2_conditional_reset_drains_the_flood():
    table = run_a2(max_time=300.0)
    by_name = {row[0]: row for row in table.rows}
    paper = by_name["paper (conditional)"]
    ablated = by_name["ablated (unconditional)"]
    assert paper[1] and ablated[1]  # exclusion held in both
    assert paper[3]  # the paper variant drains A back to solo
    assert not ablated[3]  # the ablated one keeps A contended
    assert ablated[2] > paper[2]


def test_a3_doorway_delay_serializes():
    table = run_a3(seeds=(0, 1))
    by_name = {row[0]: row for row in table.rows}
    paper = by_name["paper (with delay)"]
    ablated = by_name["ablated (no delay)"]
    # Zero timing failures in either run.
    assert paper[3] == 0 and ablated[3] == 0
    # With the delay, the doorway admits one process at a time.
    assert paper[1] == 1
    # Without it, plain jitter floods the embedded lock.
    assert ablated[1] >= 3
    # Exclusion survives in both (A is an asynchronous lock).
    assert paper[2] and ablated[2]


def test_a4_contention_hint_keeps_exit_constant():
    table = run_a4(ns_sweep=(4, 16, 64))
    paper, ablated = table.rows
    # The hinted exit is flat in n...
    assert paper[1] == paper[3]
    # ...the scanning exit grows roughly linearly.
    assert ablated[3] > ablated[1] + 32


# -- extension tables X1-X3: the §4 features must show their shapes -----------


def test_x1_adaptive_mutex_arc():
    table = run_x1()
    rows = {row[0]: row for row in table.rows}
    under, right = rows[0.01], rows[1.0]
    # Exclusion held in both regimes.
    assert under[4] and right[4]
    # The underestimate grew; the correct estimate did not move.
    assert under[1] > 0.01
    assert right[1] == 1.0
    # The underestimate's flood drained back to a serialized doorway.
    assert under[2] >= 2
    assert under[3] == 1


def test_x2_omega_converges():
    table = run_x2()
    rows = {row[0]: row for row in table.rows}
    clean = rows["clean"]
    stalled = rows["node-0 stalled 12 periods"]
    # Both scenarios converge on node 0.
    assert clean[1] == 0 and stalled[1] == 0
    # The stall left a churn footprint; the clean run did not.
    assert stalled[2] and not clean[2]


def test_x3_rmr_shapes():
    table = run_x3(n=8)
    rmr = dict(zip(table.column("lock"), table.column("RMR / entry")))
    # The ticket lock's FAA + local spin is the cheapest.
    assert rmr["ticket"] < rmr["fischer"]
    assert rmr["ticket"] < rmr["alg3"]
    # The bakery's Θ(n) remote doorway scan is the most expensive.
    assert rmr["bakery"] > rmr["ticket"]

"""Section 4.3 — enqueue conflicts between shaping and scheduling.

Regenerates the conflict scenario: a shaping PIFO releasing elements into a
parent block while external (scheduling) enqueues target the same block in
the same cycles.  Paper claim: conflicts are resolved in favour of the
scheduling enqueue, so shaping traffic gets best-effort service and is
delayed by a few cycles under contention, while scheduling enqueues are
never delayed.
"""

from __future__ import annotations

from conftest import report

from repro.hardware import ConflictArbiter


def run_contention(cycles=1000, scheduling_every=1, shaping_every=3):
    """Drive one block with periodic scheduling and shaping enqueue requests."""
    arbiter = ConflictArbiter()
    shaping_wait_cycles = []
    pending_shaping = []  # cycle at which each shaping request was issued
    for cycle in range(cycles):
        if cycle % scheduling_every == 0:
            arbiter.request("root", "scheduling")
        if cycle % shaping_every == 0:
            arbiter.request("root", "shaping")
            pending_shaping.append(cycle)
        granted = arbiter.arbitrate_cycle()
        winner = granted.get("root")
        if winner is not None and winner.kind == "shaping" and pending_shaping:
            shaping_wait_cycles.append(cycle - pending_shaping.pop(0))
    return arbiter, shaping_wait_cycles


def test_sec43_scheduling_enqueues_always_win():
    arbiter, shaping_waits = run_contention()
    report(
        "Section 4.3: conflict arbitration under full contention",
        [
            {
                "granted_scheduling": arbiter.granted_scheduling,
                "granted_shaping": arbiter.granted_shaping,
                "deferred_shaping": arbiter.deferred_shaping,
                "max_shaping_wait_cycles": max(shaping_waits) if shaping_waits else 0,
            }
        ],
    )
    # With a scheduling enqueue every cycle, shaping never gets a slot: it is
    # pure best effort, exactly the policy the paper chooses.
    assert arbiter.granted_scheduling == 1000
    assert arbiter.granted_shaping == 0
    assert arbiter.pending_requests() > 0


def test_sec43_shaping_catches_up_when_line_rate_slack_exists():
    """With spare enqueue slots (scheduling enqueues only every other cycle,
    emulating the paper's over-clocking work-around), shaping releases are
    delayed by at most a couple of cycles."""
    def run():
        return run_contention(cycles=1000, scheduling_every=2, shaping_every=3)

    arbiter, shaping_waits = run()
    report(
        "Section 4.3: shaping delay with spare slots",
        [
            {
                "granted_shaping": arbiter.granted_shaping,
                "mean_wait_cycles": sum(shaping_waits) / max(len(shaping_waits), 1),
                "max_wait_cycles": max(shaping_waits) if shaping_waits else 0,
            }
        ],
    )
    assert arbiter.granted_shaping > 300
    assert max(shaping_waits) <= 3

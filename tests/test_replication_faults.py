"""The leader/follower fault-injection matrix.

The acceptance property, stretched over a socket: at *every* fault —
leader killed and recovered, follower killed and recovered, replication
stream cut mid-frame, follower returning after the replay ring wrapped —
the promoted follower's serialized blob and PRNG state words are
byte-identical to the leader's, and the leader itself is byte-identical
to an uninterrupted single-process reference run.  The full matrix
(4 fault kinds x 4 sketch kinds x 4 kill points = 64 scenarios) is
``slow``-marked for the replication CI job; a small cross-section stays
in tier-1.
"""

import asyncio
import random

import pytest

from replication_harness import run_fault_scenario
from test_service_recovery import SKETCH_MAKERS, make_feed, reference_state

pytestmark = [pytest.mark.service, pytest.mark.replication]

FAULTS = ("kill-leader", "kill-follower", "drop-stream", "restart-catch-up")
KILL_POINTS = (0, 4, 9, 12)
FEED_BATCHES = 12


def run(coroutine):
    return asyncio.run(coroutine)


def check_scenario(kind, fault, kill_at, tmp_path):
    make_sketch = SKETCH_MAKERS[kind]
    feed = make_feed(num_batches=FEED_BATCHES, batch_size=150)
    # A small ring forces the snapshot catch-up path where the scenario
    # leaves the follower behind; everywhere else the ring suffices.
    ring = 4 if fault == "restart-catch-up" else 512
    leader_state, follower_state = run(
        run_fault_scenario(
            make_sketch, feed, fault=fault, kill_at=kill_at,
            tmp_path=tmp_path, ring_frames=ring,
        )
    )
    assert leader_state == reference_state(make_sketch, feed), (
        f"{kind}/{fault}@{kill_at}: leader diverged from the "
        "uninterrupted reference"
    )
    assert follower_state == leader_state, (
        f"{kind}/{fault}@{kill_at}: promoted follower is not "
        "byte-identical to the leader"
    )


@pytest.mark.slow
@pytest.mark.parametrize("kill_at", KILL_POINTS)
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", sorted(SKETCH_MAKERS))
def test_fault_matrix(kind, fault, kill_at, tmp_path):
    """64 scenarios: every fault at every boundary for every sketch kind."""
    check_scenario(kind, fault, kill_at, tmp_path)


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_cross_section(fault, tmp_path):
    """Tier-1 keeps one mid-stream scenario per fault kind."""
    check_scenario("flat-probing", fault, 4, tmp_path)


def test_fault_cross_section_adaptive(tmp_path):
    """...plus the adaptive-growth backend on the harshest fault."""
    check_scenario("flat-probing-adaptive", "restart-catch-up", 9, tmp_path)


@pytest.mark.slow
def test_randomized_fault_sequences(tmp_path):
    """Beyond the grid: random (kind, fault, kill point) draws, the
    replication twin of test_random_kill_points_fuzz."""
    rng = random.Random(777)
    for index in range(8):
        kind = rng.choice(sorted(SKETCH_MAKERS))
        fault = rng.choice(FAULTS)
        kill_at = rng.randint(0, FEED_BATCHES)
        check_scenario(kind, fault, kill_at, tmp_path / f"fuzz-{index}")

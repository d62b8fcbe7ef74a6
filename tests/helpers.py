"""Shared test utilities: exact oracles, golden hashes, canned workloads.

These were previously duplicated (with drift) across
``test_core_batch_equivalence.py``, ``test_extensions_rebase.py``,
``test_sharded_sketch.py``, and ``test_sharded_merge.py``; the service
and differential-fuzz suites use them too.  Import as a plain module
(``from helpers import ...``) — pytest puts each test's directory on
``sys.path``.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import subprocess
import sys
import time

import numpy as np

from repro.core.frequent_items import FrequentItemsSketch
from repro.streams.exact import ExactCounter
from repro.streams.zipf import ZipfianStream


def sha256_hex(blob: bytes) -> str:
    """Hex digest used for golden-state pinning."""
    return hashlib.sha256(blob).hexdigest()


def zipf_batch(n=20_000, universe=4_000, seed=5, alpha=1.05,
               weight_low=1, weight_high=100):
    """One ``(items, weights)`` array pair of a canned Zipf workload."""
    stream = ZipfianStream(
        n, universe=universe, alpha=alpha, seed=seed,
        weight_low=weight_low, weight_high=weight_high,
    )
    batches = list(stream.batches(batch_size=n))
    assert len(batches) == 1
    return batches[0]


def exact_of(*batches) -> ExactCounter:
    """An :class:`ExactCounter` oracle over ``(items, weights)`` pairs."""
    exact = ExactCounter()
    for items, weights in batches:
        for item, weight in zip(items.tolist(), weights.tolist()):
            exact.update(item, weight)
    return exact


def exact_of_updates(updates) -> ExactCounter:
    """An oracle over an iterable of ``(item, weight)`` updates."""
    exact = ExactCounter()
    for item, weight in updates:
        exact.update(item, weight)
    return exact


def scalar_feed(k, backend, seed, updates, **kwargs) -> FrequentItemsSketch:
    """A sketch fed through the scalar ``update`` loop."""
    sketch = FrequentItemsSketch(k, backend=backend, seed=seed, **kwargs)
    for item, weight in updates:
        sketch.update(item, weight)
    return sketch


def batch_feed(k, backend, seed, updates, chunk, **kwargs) -> FrequentItemsSketch:
    """The same workload fed through ``update_batch`` in ``chunk``-sized slices."""
    sketch = FrequentItemsSketch(k, backend=backend, seed=seed, **kwargs)
    for start in range(0, len(updates), chunk):
        part = updates[start : start + chunk]
        items = np.array([item for item, _weight in part], dtype=np.uint64)
        weights = np.array([weight for _item, weight in part], dtype=np.float64)
        sketch.update_batch(items, weights)
    return sketch


async def await_until(predicate, *, timeout=5.0, interval=0.002,
                      message="condition"):
    """Await ``predicate()`` turning truthy, with a hard deadline.

    The async suites' replacement for bare ``asyncio.sleep(guess)``
    waits: a correct run passes as soon as the condition holds (usually
    one poll), a broken one fails *at the deadline* with a diagnostic —
    never flakily in between because a fixed guess was too short for a
    loaded CI worker.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        result = predicate()
        if result:
            return result
        if loop.time() >= deadline:
            raise AssertionError(
                f"timed out after {timeout}s waiting for {message}"
            )
        await asyncio.sleep(interval)


async def await_applied_seq(pipeline, seq, *, timeout=5.0):
    """Await ``pipeline.applied_seq`` reaching ``seq`` (deadline-based)."""
    return await await_until(
        lambda: pipeline.applied_seq >= seq, timeout=timeout,
        message=f"applied_seq >= {seq} (at {pipeline.applied_seq})",
    )


def assert_bounds_valid(sketch, exact, tolerance=1e-9) -> None:
    """Every deterministic guarantee of Section 2.3.1, against an oracle:
    ``lower <= f <= upper``, ``|estimate - f| <= maximum_error``, and the
    stream weights agree."""
    assert abs(sketch.stream_weight - exact.total_weight) <= max(
        tolerance, tolerance * abs(exact.total_weight)
    )
    for item, frequency in exact.items():
        assert sketch.lower_bound(item) <= frequency + tolerance
        assert sketch.upper_bound(item) >= frequency - tolerance
        assert abs(sketch.estimate(item) - frequency) <= (
            sketch.maximum_error + tolerance
        )


def session_processes(session_id: int) -> list[int]:
    """Live (non-zombie) pids of one process session, read from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                # Fields after the parenthesised command: state, ppid,
                # pgrp, session, ...
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[3]) == session_id and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def serve_in_session(*args: str) -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro.service --port 0 ARGS`` as the leader of a
    new session; returns the process and its banner line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    return process, process.stdout.readline()


def wait_session_gone(session_id: int, timeout: float) -> list[int]:
    """Poll until no process of the session is left; returns the
    survivors (empty on success), killing them so nothing leaks."""
    deadline = time.monotonic() + timeout
    while True:
        survivors = session_processes(session_id)
        if not survivors or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return survivors

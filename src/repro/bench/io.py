"""Provenance stamps for bench output: the git revision and a UTC instant.

``python -m repro.bench --out FILE`` heads every appended block with
both, so successive appends stay attributable to the commit and time
that produced them.
"""

from __future__ import annotations

import subprocess
from datetime import datetime, timezone
from typing import Any


def _git(args: list[str], cwd: str | None = None) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_revision(cwd: str | None = None) -> dict[str, Any]:
    """``{"git_hash": ..., "git_dirty": ...}`` for ``cwd`` (or the CWD).

    Outside a git checkout — or with no ``git`` on PATH — the hash is
    ``"unknown"`` and dirty is ``None``: a run header must still stamp
    *something* so its provenance fields are always present.
    """
    head = _git(["rev-parse", "HEAD"], cwd)
    if head is None:
        return {"git_hash": "unknown", "git_dirty": None}
    status = _git(["status", "--porcelain"], cwd)
    return {
        "git_hash": head,
        "git_dirty": None if status is None else bool(status),
    }


def utc_timestamp() -> str:
    """The current time as an ISO-8601 UTC string (run-header stamps)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

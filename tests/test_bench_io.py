"""Provenance stamps for bench run headers."""

import os

from repro.bench.io import git_revision, utc_timestamp


def test_git_revision_inside_checkout():
    revision = git_revision(os.path.dirname(os.path.abspath(__file__)))
    assert set(revision) == {"git_hash", "git_dirty"}
    assert len(revision["git_hash"]) == 40
    assert isinstance(revision["git_dirty"], bool)


def test_git_revision_outside_checkout(tmp_path):
    revision = git_revision(str(tmp_path))
    assert revision == {"git_hash": "unknown", "git_dirty": None}


def test_utc_timestamp_shape():
    stamp = utc_timestamp()
    assert stamp.endswith("Z")
    assert len(stamp) == len("2026-01-01T00:00:00Z")

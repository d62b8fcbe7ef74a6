"""Process hygiene, span recording, and the comparison guard."""

import asyncio
import json
import os
import sys
import textwrap
import time

import pytest

import compare
import procs
import spans


def _tree_script(tmp_path):
    """A server stand-in that ignores SIGINT and forks a child."""
    script = tmp_path / "tree.py"
    script.write_text(textwrap.dedent("""
        import os, signal, time
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if os.fork() == 0:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        time.sleep(60)
    """))
    return script


def test_stop_kills_the_whole_session(tmp_path):
    server = procs.ServerProcess(
        [sys.executable, str(_tree_script(tmp_path))],
        env=dict(os.environ), cwd=str(tmp_path), log_path=str(tmp_path / "log"),
    )
    server.start()
    deadline = time.time() + 10
    while len(procs.session_pids(server.pid)) < 2 and time.time() < deadline:
        time.sleep(0.02)
    assert len(procs.session_pids(server.pid)) == 2
    assert server.stop(grace=0.2) is None  # ignored SIGINT: killed
    assert procs.session_pids(server.pid) == []


def test_spans_nest_across_sync_and_async_calls(tmp_path):
    recorder = spans.Recorder()

    def inner(x):
        return x + 1

    wrapped_inner = spans.wrap(recorder, "kernel.inner", inner, count=lambda r, a: r)

    async def outer():
        await asyncio.sleep(0)
        return wrapped_inner(1)

    wrapped_outer = spans.wrap(recorder, "pipeline.outer", outer)
    assert asyncio.run(wrapped_outer()) == 2
    (o_layer, o_start, o_end, o_parent, o_sync, _), (i_layer, i_start, i_end, i_parent, i_sync, i_count) = recorder.spans
    assert (o_layer, o_parent, o_sync) == ("pipeline.outer", -1, False)
    assert (i_layer, i_parent, i_sync, i_count) == ("kernel.inner", 0, True, 2)
    assert o_start <= i_start <= i_end <= o_end
    path = recorder.flush(str(tmp_path), "acceptor")
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["pid"] == os.getpid() and len(doc["spans"]) == 2


def _doc(path, host="h", calibration=10.0, workload="ingest-bulk", value=1.0):
    return {
        "workload": workload,
        "provenance": {
            "ingest_path": path,
            "host": {"cpu_model": host, "nproc": 2},
            "calibration_loops_per_s": calibration,
        },
        "metrics": {"updates_per_s": {"value": value, "unit": "upd/s"}},
    }


BOUNDS = {"updates_per_s": (0.1, "higher")}


def test_comparison_refuses_mixed_ingest_paths():
    with pytest.raises(compare.RefusedComparison, match="ingest paths"):
        compare.compare([_doc("native")], [_doc("numpy")], BOUNDS)
    with pytest.raises(compare.RefusedComparison, match="mixes ingest paths"):
        compare.compare([_doc("native"), _doc("numpy")], [_doc("native")], BOUNDS)


def test_comparison_refuses_other_hosts():
    with pytest.raises(compare.RefusedComparison, match="hosts differ"):
        compare.compare([_doc("native")], [_doc("native", host="other")], BOUNDS)
    with pytest.raises(compare.RefusedComparison, match="calibration"):
        compare.compare([_doc("native")], [_doc("native", calibration=20.0)], BOUNDS)


def test_comparison_verdicts():
    base = [_doc("native", value=v) for v in (100, 101, 99, 100)]
    same = [_doc("native", value=v) for v in (100, 99, 101, 100)]
    slower = [_doc("native", value=v) for v in (80, 81, 79, 80)]
    assert compare.compare(base, same, BOUNDS)[0][-1] == "ok"
    assert compare.compare(base, slower, BOUNDS)[0][-1] == "worse"

"""Span wrappers around the public entry points of each layer.

The benchmark records spans from its own files: :func:`install_server`
wraps functions and methods of the ``repro`` modules already imported
into the process, so the code under test is unchanged.  Each span keeps
its layer name, start, end, parent span and one count (items, bytes or
sketches, depending on the layer).  Spans stay in memory and are written
as one JSON file per process by :meth:`Recorder.flush`.

Timestamps come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans of the acceptor, its forked
workers and the load generator share one time base.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import sys
import time
from collections import deque

#: Index of the innermost open span of the running task (-1: none).
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)
#: True inside ``SnapshotManager.recover``: replayed batches are not
#: served traffic, so they stay out of the queue-wait and OpStats tallies.
_RECOVERING: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "perfbench_recovering", default=False
)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked child starts from an empty store)."""
        #: ``[layer, start, end, parent, sync, count]`` lists.
        self.spans: list[list] = []
        #: ``(apply start, wait)`` per submitted batch.
        self.queue_waits: list[tuple[float, float]] = []
        #: ``{id(sketch): deque[(submit_time, items)]}`` awaiting apply.
        self.pending: dict[int, deque] = {}
        self.opstats = {"updates": 0, "hits": 0, "decrements": 0, "counters_scanned": 0}
        self.pipelines: dict[int, object] = {}

    def open(self, layer: str, sync: bool) -> int:
        self.spans.append([layer, time.perf_counter(), 0.0, _CURRENT.get(), sync, 0])
        return len(self.spans) - 1

    def close(self, index: int, count: float = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = count

    def flush(self, directory: str, role: str) -> str:
        """Write this process's spans and tallies to ``directory``."""
        pipeline_stats = [p.stats.as_dict() for p in self.pipelines.values()]
        doc = {
            "pid": os.getpid(),
            "role": role,
            "spans": self.spans,
            "queue_waits": self.queue_waits,
            "opstats": self.opstats,
            "pipelines": pipeline_stats,
        }
        path = os.path.join(directory, f"spans-{role}-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        os.replace(path + ".tmp", path)
        return path


def wrap(recorder: Recorder, layer: str, fn, count=None, before=None, after=None):
    """A span-recording wrapper around ``fn`` (sync or coroutine).

    ``count(result, args)`` gives the span's count; ``before(args)``
    runs inside the span before the call and its value is handed to
    ``after(token, result, args)`` once the call returned.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            index = recorder.open(layer, False)
            reset = _CURRENT.set(index)
            result = None
            try:
                token = before(args) if before is not None else None
                result = await fn(*args, **kwargs)
                if after is not None:
                    after(token, result, args)
                return result
            finally:
                _CURRENT.reset(reset)
                recorder.close(index, count(result, args) if count else 0)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(layer, True)
        reset = _CURRENT.set(index)
        result = None
        try:
            token = before(args) if before is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                after(token, result, args)
            return result
        finally:
            _CURRENT.reset(reset)
            recorder.close(index, count(result, args) if count else 0)

    return wrapper


def _patch_function(module, name: str, wrapper_factory) -> None:
    """Replace ``module.name`` and every ``from module import name`` copy
    of it in the loaded ``repro`` modules."""
    original = getattr(module, name)
    wrapped = wrapper_factory(original)
    for mod_name, loaded in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(loaded, name, None) is original:
            setattr(loaded, name, wrapped)


def _patch_method(cls, name: str, wrapper_factory) -> None:
    setattr(cls, name, wrapper_factory(getattr(cls, name)))


def install_server(recorder: Recorder) -> None:
    """Wrap the server-side layers: protocol decode, pipeline, snapshot,
    kernel, query, merge/serialize and the cluster plane."""
    from repro.core import merge
    from repro.core.frequent_items import FrequentItemsSketch
    from repro.service import cluster, protocol, snapshot
    from repro.service.frames import SharedFrameRing
    from repro.service.pipeline import IngestPipeline

    _patch_function(
        protocol, "decode_bin_payload",
        lambda fn: wrap(recorder, "protocol.decode", fn, count=lambda r, a: a[1]),
    )

    def before_submit(args):
        pipeline, items = args[0], args[1]
        recorder.pipelines[id(pipeline)] = pipeline
        recorder.pending.setdefault(id(pipeline.sketch), deque()).append(
            (time.perf_counter(), len(items))
        )

    _patch_method(
        IngestPipeline, "submit",
        lambda fn: wrap(
            recorder, "pipeline.submit", fn,
            count=lambda r, a: len(a[1]), before=before_submit,
        ),
    )

    def before_kernel(args):
        sketch = args[0]
        if _RECOVERING.get():
            return None
        started = time.perf_counter()
        queue = recorder.pending.get(id(sketch))
        remaining = len(args[1])
        while queue and remaining > 0:
            submitted, items = queue.popleft()
            recorder.queue_waits.append((started, started - submitted))
            remaining -= items
        if remaining < 0 and queue is not None:
            queue.clear()  # boundaries no longer line up: stop matching
        stats = sketch.stats
        return (stats.updates, stats.hits, stats.decrements, stats.counters_scanned)

    def after_kernel(token, _result, args):
        if token is None:
            return
        stats = args[0].stats
        tally = recorder.opstats
        tally["updates"] += stats.updates - token[0]
        tally["hits"] += stats.hits - token[1]
        tally["decrements"] += stats.decrements - token[2]
        tally["counters_scanned"] += stats.counters_scanned - token[3]

    _patch_method(
        FrequentItemsSketch, "update_batch",
        lambda fn: wrap(
            recorder, "kernel.update_batch", fn, count=lambda r, a: len(a[1]),
            before=before_kernel, after=after_kernel,
        ),
    )
    _patch_method(
        FrequentItemsSketch, "estimate",
        lambda fn: wrap(recorder, "query.estimate", fn),
    )
    _patch_method(
        FrequentItemsSketch, "heavy_hitters",
        lambda fn: wrap(recorder, "query.heavy_hitters", fn),
    )

    manager = snapshot.SnapshotManager
    _patch_method(
        manager, "append_wal",
        lambda fn: wrap(recorder, "snapshot.wal_append", fn, count=lambda r, a: r or 0),
    )
    _patch_method(
        manager, "write_snapshot",
        lambda fn: wrap(recorder, "snapshot.checkpoint", fn, count=lambda r, a: 1),
    )

    def recover_factory(fn):
        @functools.wraps(fn)
        def recover(*args, **kwargs):
            flag = _RECOVERING.set(True)
            try:
                return fn(*args, **kwargs)
            finally:
                _RECOVERING.reset(flag)

        return wrap(recorder, "snapshot.recover", recover)

    _patch_method(manager, "recover", recover_factory)

    _patch_function(
        merge, "merge_linear",
        lambda fn: wrap(recorder, "merge.merge", fn, count=lambda r, a: len(a[0])),
    )
    _patch_function(
        snapshot, "decode_snapshot",
        lambda fn: wrap(recorder, "serialize.decode", fn, count=lambda r, a: len(a[0])),
    )

    pool = cluster.WorkerPool
    _patch_method(pool, "submit", lambda fn: wrap(recorder, "cluster.submit", fn))
    _patch_method(pool, "drain", lambda fn: wrap(recorder, "cluster.drain", fn))
    _patch_method(
        pool, "global_heavy_hitters",
        lambda fn: wrap(recorder, "cluster.global_hh", fn),
    )
    _patch_method(
        SharedFrameRing, "write",
        lambda fn: wrap(recorder, "frames.write", fn, count=lambda r, a: len(a[2])),
    )


def install_worker_flush(recorder: Recorder, directory: str) -> None:
    """Make each forked cluster worker start an empty store and write it
    when the worker's main function returns.

    The pool looks its worker entry point up as a module global when it
    starts a process, so replacing that global reaches every worker.
    """
    from repro.service import cluster

    original = cluster._worker_process_main

    @functools.wraps(original)
    def worker_main(*args, **kwargs):
        recorder.reset()
        try:
            return original(*args, **kwargs)
        finally:
            recorder.flush(directory, "worker")

    cluster._worker_process_main = worker_main


def install_client(recorder: Recorder):
    """Wrap the client-side frame encoders; returns a function undoing it."""
    from repro.service import protocol

    saved = {}
    for name in ("encode_bin_frame", "encode_tbin_frame"):
        saved[name] = getattr(protocol, name)
        setattr(
            protocol, name,
            wrap(recorder, "client.encode", saved[name], count=lambda r, a: 1),
        )

    def undo() -> None:
        for name, fn in saved.items():
            setattr(protocol, name, fn)

    return undo

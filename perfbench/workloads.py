"""The three served workloads and their correctness oracle.

Every workload drives the real service CLI (``python -m repro.service``
with its own defaults) as a separate process, over at most two
connections from one asyncio load generator.  Inputs are the §4.5
stream (Zipf α=1.05 over a 10⁶-item universe, integer weights
U[1, 10⁴]), generated from the seed before any timing starts.  Each
phase ends with a read-back of the served state, which is compared with
an in-process reference sketch fed the same frames in the same order and
with exact counts of what was sent.

* ``ingest-bulk`` — open loop at a fixed rate: 8192-update ``BIN``
  frames at 400k upd/s on one connection, no data directory.
* ``serve-mixed`` — open loop at fixed rates: 256-update frames at
  100k upd/s on one connection, ``EST``/``HH`` at 200 queries/s (9:1) on
  the other, with the data directory on.  The server starts by
  recovering a directory the same CLI wrote and that was SIGKILLed
  after a prefix.
* ``cluster-tenants`` — ``--workers 1`` with 16 tenants: open loop at
  fixed rates: 8192-update ``TBIN`` frames to Zipf-chosen tenants at
  300k upd/s on one connection, a global ``QHH`` every 24 frame periods
  on the other.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import measure
import spans
from procs import ServerProcess

UNIVERSE = 1_000_000
ALPHA = 1.05
WEIGHT_LOW, WEIGHT_HIGH = 1, 10_000
PHI = 0.001
#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0

BULK_FRAME = 8192
#: Distinct frames a run cycles through (≈2.1M updates).
BULK_POOL_FRAMES = 256
#: Offered ingest rate of ``ingest-bulk``, in updates per second: ~40%
#: of what one server sustains on a quiet host, ~80% when neighbours
#: take a third of its CPU.  A closed loop kept the server and the
#: generator busy together and its CPU cost per update spread 0.26
#: (IQR / median) over ten seeds; this rate spread it 0.09–0.14.
BULK_RATE = 400_000.0
MIXED_FRAME = 256
MIXED_RATE = 100_000.0
MIXED_QUERY_RATE = 200.0
#: Ingest frames per CPU window of ``ingest-bulk`` (about 0.6 s; see
#: ``Phase.cpu_us_per_update``).  A ``cluster-tenants`` window is one
#: global-query period.  ``serve-mixed`` has one window, the whole run:
#: its checkpoints (every 256 micro-batches, ~2.6 s) would land in some
#: shorter windows and not in others.
BULK_CPU_WINDOW = 64
TENANTS = 16
#: Marker item of the cluster read-back (checked absent from the stream).
MARKER = (1 << 64) - 1
#: Offered ingest rate of ``cluster-tenants``, in updates per second.
#: One worker sustained ~450k upd/s while the host's neighbours took a
#: third of its CPU, so the rate holds; the wall time per update, and
#: with it what the server's polling loops cost per update, stays fixed.
CLUSTER_RATE = 300_000.0
#: A global ``QHH`` is due every this many frame periods (0.66 s, so a
#: 15 s run holds the 20 a median needs).  It is also the CPU window.
GLOBAL_QUERY_FRAMES = 24

#: The read-back after ingest: an open loop of this many seconds at this
#: many requests per second (~640 EST, ~80 HH/THH, ~80 QHH), enough
#: samples that a median has ten beyond it.
READBACK_SECONDS = 2.0
READBACK_RATE = 400.0
#: Sampled items per run, hot and cold.
READBACK_EST = 1000
READBACK_BOUNDS = 100


@dataclass
class Phase:
    """What one served phase measured (times in seconds)."""

    workload: str
    traced: bool
    setup_s: list = field(default_factory=list)
    updates: int = 0
    #: ``(time, updates)`` per acknowledged ingest frame.
    acked: list = field(default_factory=list)
    started: float = 0.0
    seconds: float = 0.0
    wall_s: float = 0.0
    ack: list = field(default_factory=list)
    ack_service: list = field(default_factory=list)
    est: list = field(default_factory=list)
    hh: list = field(default_factory=list)
    global_hh: list = field(default_factory=list)
    lags: list = field(default_factory=list)
    cpu_s: float = 0.0
    #: ``(server CPU seconds, acknowledged updates)`` at each window edge.
    cpu_marks: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    max_error_frac: float = 0.0
    direct_updates_per_s: float = 0.0
    span_dir: str | None = None
    client_recorder: spans.Recorder | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def ingested(self, updates: int) -> None:
        self.updates += updates
        self.acked.append((time.perf_counter(), updates))

    def mark_cpu(self, server: ServerProcess) -> None:
        """Close a CPU window: the server's CPU seconds so far and the
        updates acknowledged by then."""
        self.cpu_marks.append((server.cpu_seconds(), self.updates))

    @property
    def cpu_us_per_update(self) -> float:
        """Server CPU microseconds per acknowledged update over the middle
        half of the windows between CPU marks, each window a fixed amount
        of work (the whole run's ratio when there are fewer than two).

        Process CPU time leaves out time the hypervisor gave to other
        guests, but busy neighbours still make every hand-off and poll
        between processes costlier; trimming keeps the windows they hit
        hardest from setting the figure.
        """
        cost = measure.interquartile_window_cost(self.cpu_marks)
        if cost is None:
            return self.cpu_s / max(1, self.updates) * 1e6
        return cost * 1e6

    @property
    def updates_per_s(self) -> float:
        """Acknowledged updates per second: the mean of the middle half of
        the run's ~1 s window rates.  Every acknowledged update is
        confirmed applied before the phase ends; trimming the outer
        quarters keeps a stalled or bursty second from setting the rate."""
        windows = max(1, int(self.seconds))
        rates = measure.window_rates(
            self.acked, self.started, self.seconds / windows, windows
        )
        return measure.interquartile_mean(rates)


class Env:
    """Where the pinned code lives and how to start servers from it."""

    def __init__(self, src_dir: str, work_dir: str) -> None:
        self.src_dir = src_dir
        self.work_dir = work_dir
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        from repro.service.__main__ import build_parser

        defaults = build_parser().parse_args([])
        #: The service CLI's own sketch defaults; references match them.
        self.k, self.backend, self.seed = defaults.k, defaults.backend, defaults.seed
        self._serial = 0

    def path(self, name: str) -> str:
        self._serial += 1
        return os.path.join(self.work_dir, f"{self._serial:03d}-{name}")

    def server(self, args: list[str], traced: bool, span_dir: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        if traced:
            env["PERFBENCH_SPAN_DIR"] = span_dir
            argv = [sys.executable, os.path.join(self.bench_dir, "traced_service.py")]
        else:
            argv = [sys.executable, "-m", "repro.service"]
        return ServerProcess(
            argv + args, env=env, cwd=self.work_dir, log_path=self.path("server.log")
        )

    def reference(self):
        from repro.core.frequent_items import FrequentItemsSketch

        return FrequentItemsSketch(self.k, backend=self.backend, seed=self.seed)


# -- inputs ---------------------------------------------------------------------


def zipf_updates(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    from repro.streams.zipf import ZipfianStream

    stream = ZipfianStream(
        count, universe=UNIVERSE, alpha=ALPHA, seed=seed,
        weight_low=WEIGHT_LOW, weight_high=WEIGHT_HIGH,
    )
    parts = list(stream.batches())
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


class Inputs:
    """Frames cut from one generated update sequence, plus the sampled
    items the oracle checks; ``mult`` maps sent frames to exact counts."""

    def __init__(self, seed: int, count: int, frame: int) -> None:
        self.items, self.weights = zipf_updates(seed, count)
        self.frame = frame
        self.num_frames = count // frame
        self.uniq, self.inverse = np.unique(self.items, return_inverse=True)
        totals = np.bincount(self.inverse, weights=self.weights)
        rng = np.random.default_rng(seed ^ 0x5A5A)
        hot = self.uniq[np.argsort(totals)[::-1][:100]]
        cold = rng.choice(self.uniq, size=READBACK_EST - len(hot), replace=False)
        order = rng.permutation(READBACK_EST)
        self.sample = np.concatenate([hot, cold])[order].astype(np.uint64)
        self.hot = hot.astype(np.uint64)
        self.cold = cold.astype(np.uint64)

    def frame_at(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        lo = index * self.frame
        return self.items[lo : lo + self.frame], self.weights[lo : lo + self.frame]

    def exact(self, frame_mult: np.ndarray) -> np.ndarray:
        """Exact weight per ``uniq`` item when frame ``f`` was sent
        ``frame_mult[f]`` times (updates past the last frame: never)."""
        per_update = np.zeros(len(self.items))
        per_update[: self.num_frames * self.frame] = np.repeat(frame_mult, self.frame)
        return np.bincount(
            self.inverse, weights=self.weights * per_update, minlength=len(self.uniq)
        )

    def lookup(self, exact: np.ndarray, items) -> np.ndarray:
        positions = np.searchsorted(self.uniq, np.asarray(items, dtype=np.uint64))
        positions = np.minimum(positions, len(self.uniq) - 1)
        found = self.uniq[positions] == np.asarray(items, dtype=np.uint64)
        return np.where(found, exact[positions], 0.0)


# -- shared steps ---------------------------------------------------------------


async def timed(phase: Phase, bucket: list | None, coro):
    """Await one request under the timeout; record its latency."""
    phase.attempted += 1
    start = time.perf_counter()
    async with asyncio.timeout(REQUEST_TIMEOUT):
        result = await coro
    if bucket is not None:
        bucket.append(time.perf_counter() - start)
    return result


async def start_rounds(phase: Phase, rounds: int, make_server, connect, after_ready=None):
    """Start ``rounds`` servers one after another, timing spawn → ready.

    All but the last are torn down; returns the last server and client.
    ``after_ready(client)`` is set-up work that counts into ``setup_s``
    (tenant creation).
    """
    for round_index in range(rounds):
        server = make_server()
        server.start()
        try:
            client = await server.wait_ready(connect)
            if after_ready is not None:
                await after_ready(client)
        except BaseException:
            server.stop()
            raise
        phase.setup_s.append(time.perf_counter() - server.started_at)
        if round_index == rounds - 1:
            return server, client
        await client.close()
        check_exit(phase, server)


async def wait_applied(client, expected: int, base: int) -> None:
    """Poll ``STATS`` until ``expected`` updates past ``base`` are applied."""
    deadline = time.perf_counter() + REQUEST_TIMEOUT
    while True:
        stats = await client.stats()
        if stats["applied_items"] - base >= expected:
            return
        if time.perf_counter() > deadline:
            raise asyncio.TimeoutError(
                f"only {stats['applied_items'] - base} of {expected} updates applied"
            )
        await asyncio.sleep(0.002)


def rows_of(rows) -> list[tuple[int, float]]:
    return [(int(r[0]), float(r[1])) for r in rows]


def check_rows(phase: Phase, what: str, served, reference) -> None:
    if rows_of(served) != rows_of(reference):
        phase.fail(f"{what}: served rows differ from the reference")


def check_truth(phase, what, sketch, exact, inputs, extra_weight=0.0) -> float:
    """Check ``sketch`` against exact counts of the stream it was fed.

    The sampled items and every reported heavy hitter must satisfy the
    §2.3.1 bounds ``lower <= true <= upper``, and ``HH`` must miss no
    true φ-heavy hitter.  ``extra_weight`` is weight fed outside the
    generated stream (read-back markers).  Returns the largest
    ``|estimate - true| / stream weight`` over every item of the stream.
    """
    weight = float(exact.sum()) + extra_weight
    reported = sketch.heavy_hitters(PHI)
    checked = np.concatenate([inputs.sample, np.array([r.item for r in reported], dtype=np.uint64)])
    truth = inputs.lookup(exact, checked)
    for item, true in zip(checked.tolist(), truth.tolist()):
        lower, upper = sketch.lower_bound(item), sketch.upper_bound(item)
        if not lower <= true <= upper:
            phase.fail(f"{what}: item {item} true {true} outside [{lower}, {upper}]")
    heavy = set(inputs.uniq[exact >= PHI * weight].tolist())
    missing = heavy - {row.item for row in reported}
    if missing:
        phase.fail(f"{what}: {len(missing)} true heavy hitters missing from HH")
    estimates = sketch.estimate_batch(inputs.uniq)
    return float(np.max(np.abs(estimates - exact))) / weight


def feed_reference(phase: Phase, sends) -> None:
    """Apply ``(sketch, (items, weights))`` sends in order, in-process.

    The same stream with no service in between: its rate is the kernel
    row the served rates are compared with.
    """
    from repro.bench.harness import gc_isolated

    total = 0
    with gc_isolated():
        start = time.perf_counter()
        for sketch, (items, weights) in sends:
            sketch.update_batch(items, weights)
            total += len(items)
        elapsed = time.perf_counter() - start
    phase.direct_updates_per_s = total / elapsed if elapsed > 0 else 0.0


def take_ingest_loop(phase: Phase, loop: measure.OpenLoopResult) -> int:
    """Record an open ingest loop's acknowledgement latencies (from due
    time, and from send time) and failures; returns the frames sent.

    Raises ``RuntimeError`` when a frame failed: the oracle cannot
    replay a frame the server may or may not have applied.
    """
    phase.ack = list(loop.latencies)
    lag_of = dict(enumerate(loop.lags))
    phase.ack_service = [lat - lag_of[i] for i, lat in zip(loop.indices, loop.latencies)]
    for exc in loop.errors:
        phase.fail(f"request failed: {exc!r}")
    if loop.errors:
        raise RuntimeError("ingest frames failed; the oracle cannot replay them")
    return loop.sent


async def readback_single(phase: Phase, client, inputs, reference, est, hh, qhh) -> None:
    """Read back a single-node server's state and check every answer.

    An open loop on one connection for :data:`READBACK_SECONDS` at
    :data:`READBACK_RATE`: every tenth request is ``HH``, every tenth
    shifted by five is ``QHH``, the rest ``EST`` over the sampled items.
    Spreading each kind over the whole read-back keeps one noisy moment
    from setting its median.  Latencies go to the ``est``/``hh``/``qhh``
    buckets (``None``: untimed).  Answers must equal the reference's
    (already fed the served stream); ``BOUNDS`` is checked untimed after.
    """
    sample = inputs.sample.tolist()
    expected = rows_of(reference.heavy_hitters(PHI))

    async def send(i: int) -> None:
        if i % 10 == 0:
            rows = await timed(phase, hh, client.heavy_hitters(PHI))
            check_rows(phase, "HH", rows, expected)
        elif i % 10 == 5:
            _seq, rows = await timed(phase, qhh, client.qhh(PHI))
            check_rows(phase, "QHH", rows, expected)
        else:
            item = sample[i % len(sample)]
            if await timed(phase, est, client.estimate(item)) != reference.estimate(item):
                phase.fail(f"EST {item}: served estimate differs from the reference")

    await _readback_loop(phase, send)
    for item in sample[:READBACK_BOUNDS]:
        bounds = await timed(phase, None, client.bounds(item))
        want = (reference.lower_bound(item), reference.estimate(item), reference.upper_bound(item))
        if bounds != want:
            phase.fail(f"BOUNDS {item}: served bounds differ from the reference")


async def _readback_loop(phase: Phase, send) -> None:
    loop = await measure.open_loop(
        1.0 / READBACK_RATE, READBACK_SECONDS, send, on_error=_client_errors()
    )
    for exc in loop.errors:
        phase.fail(f"read-back request failed: {exc!r}")


def _connect(cls):
    async def connect(port: int):
        return await cls.connect("127.0.0.1", port)

    return connect


def _client_errors():
    from repro.errors import ServiceClosedError
    from repro.service.client import ServiceError

    return (ServiceError, ServiceClosedError, ConnectionError, asyncio.TimeoutError)


def _traced_client(phase: Phase):
    """Wrap the frame encoders for a traced phase; returns the undo."""
    if not phase.traced:
        return lambda: None
    phase.client_recorder = spans.Recorder()
    return spans.install_client(phase.client_recorder)


async def _finish(phase: Phase, server, clients) -> None:
    """Read the peak RSS, close the clients, and stop the server."""
    phase.rss_mb = server.rss_peak_mb()
    for client in clients:
        await client.close()
    check_exit(phase, server)


def check_exit(phase: Phase, server: ServerProcess) -> None:
    """Stop ``server``; it must exit cleanly on SIGINT.  One that outlives
    the grace period is killed with its whole session; that is noted with
    its log's tail, not failed: every answer was checked before, and no
    process survives."""
    status = server.stop()
    if status is None:
        with open(server.log_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = " | ".join(fh.read().splitlines()[-5:])
        phase.notes.append(f"server outlived the SIGINT grace period; killed. log: {tail}")
    elif status != 0:
        phase.fail(f"server exited with status {status} on SIGINT")


# -- ingest-bulk ----------------------------------------------------------------


async def ingest_bulk(env: Env, seed: int, seconds: float, traced: bool, rounds: int) -> Phase:
    from repro.bench.harness import gc_isolated
    from repro.service.client import ServiceClient

    phase = Phase("ingest-bulk", traced)
    inputs = Inputs(seed, BULK_POOL_FRAMES * BULK_FRAME, BULK_FRAME)
    frames = [inputs.frame_at(f) for f in range(inputs.num_frames)]
    phase.span_dir = env.path("spans") if traced else None
    if traced:
        os.makedirs(phase.span_dir)
    server, client = await start_rounds(
        phase, rounds, lambda: env.server([], traced, phase.span_dir),
        _connect(ServiceClient),
    )
    errors = _client_errors()
    undo = _traced_client(phase)
    try:
        base = (await client.stats())["applied_items"]

        async def send_frame(i):
            items, weights = frames[i % len(frames)]
            phase.ingested(await timed(phase, None, client.send_batch(items, weights)))
            if (i + 1) % BULK_CPU_WINDOW == 0:
                phase.mark_cpu(server)

        cpu0 = server.cpu_seconds()
        with gc_isolated():
            phase.mark_cpu(server)
            phase.started, phase.seconds = time.perf_counter(), seconds
            ingest_loop = await measure.open_loop(
                BULK_FRAME / BULK_RATE, seconds, send_frame, on_error=errors
            )
            await wait_applied(client, phase.updates, base)
            phase.wall_s = time.perf_counter() - phase.started
        phase.cpu_s = server.cpu_seconds() - cpu0
        phase.lags = list(ingest_loop.lags)
        sent_frames = take_ingest_loop(phase, ingest_loop)
        reference = env.reference()
        feed_reference(phase, ((reference, frames[j % len(frames)]) for j in range(sent_frames)))
        async with measure.busy_polling():
            await readback_single(phase, client, inputs, reference, phase.est, phase.hh, phase.global_hh)
    except errors + (RuntimeError,) as exc:
        phase.fail(f"phase aborted: {exc!r}")
        reference = None
    finally:
        undo()
        await _finish(phase, server, [client])
    if reference is not None:
        mult = np.full(len(frames), sent_frames // len(frames), dtype=np.float64)
        mult[: sent_frames % len(frames)] += 1
        phase.max_error_frac = check_truth(
            phase, "ingest-bulk", reference, inputs.exact(mult), inputs
        )
    return phase


# -- serve-mixed ----------------------------------------------------------------

#: Prefix written before the crash, in 256-update frames (~200k updates).
MIXED_PREFIX_FRAMES = 784


async def serve_mixed(env: Env, seed: int, seconds: float, traced: bool, rounds: int) -> Phase:
    from repro.bench.harness import gc_isolated
    from repro.service.client import ServiceClient
    from repro.service.snapshot import SnapshotManager

    phase = Phase("serve-mixed", traced)
    period = MIXED_FRAME / MIXED_RATE
    timed_frames = int(np.ceil(seconds / period)) + 1
    inputs = Inputs(seed, (MIXED_PREFIX_FRAMES + timed_frames) * MIXED_FRAME, MIXED_FRAME)
    prefix = slice(0, MIXED_PREFIX_FRAMES * MIXED_FRAME)
    queries = int(np.ceil(seconds * MIXED_QUERY_RATE)) + 1
    rng = np.random.default_rng(seed ^ 0x0E57)
    query_items = np.where(
        np.arange(queries) % 2 == 0,
        rng.choice(inputs.hot, size=queries),
        rng.choice(inputs.cold, size=queries),
    ).tolist()
    connect = _connect(ServiceClient)

    # The crashed directory every start recovers from: written by the
    # CLI itself, then SIGKILLed with the whole prefix in its WAL tail.
    template = env.path("crashed")
    writer = env.server(["--data-dir", template], False)
    writer.start()
    try:
        client = await writer.wait_ready(connect)
        await client.send_batch(inputs.items[prefix], inputs.weights[prefix])
        await wait_applied(client, prefix.stop, 0)
    finally:
        writer.crash()

    data_dirs = []

    def make_server():
        data_dir = env.path("data")
        shutil.copytree(template, data_dir)
        data_dirs.append(data_dir)
        return env.server(["--data-dir", data_dir], traced, phase.span_dir)

    phase.span_dir = env.path("spans") if traced else None
    if traced:
        os.makedirs(phase.span_dir)
    server, ingest = await start_rounds(phase, rounds, make_server, connect)
    query = await connect(server.port)
    errors = _client_errors()
    undo = _traced_client(phase)
    ingest_loop = query_loop = None
    try:
        base = (await ingest.stats())["applied_items"]

        async def send_frame(i):
            items, weights = inputs.frame_at(MIXED_PREFIX_FRAMES + i)
            phase.ingested(await timed(phase, None, ingest.send_batch(items, weights)))

        async def send_query(i):
            if i % 10 == 9:
                await timed(phase, None, query.heavy_hitters(PHI))
            else:
                await timed(phase, None, query.estimate(query_items[i]))

        cpu0 = server.cpu_seconds()
        # No busy polling here: a generator spinning on one vCPU slowed
        # the server on the other and spread its CPU cost per update.
        with gc_isolated():
            phase.started, phase.seconds = time.perf_counter(), seconds
            ingest_loop, query_loop = await asyncio.gather(
                measure.open_loop(period, seconds, send_frame, on_error=errors),
                measure.open_loop(1.0 / MIXED_QUERY_RATE, seconds, send_query, on_error=errors),
            )
            await wait_applied(ingest, phase.updates, base)
            phase.wall_s = time.perf_counter() - phase.started
        phase.cpu_s = server.cpu_seconds() - cpu0
        for i, lat in zip(query_loop.indices, query_loop.latencies):
            (phase.hh if i % 10 == 9 else phase.est).append(lat)
        phase.lags = ingest_loop.lags + query_loop.lags
        for exc in query_loop.errors:
            phase.fail(f"request failed: {exc!r}")
        sent_frames = take_ingest_loop(phase, ingest_loop)
        reference = env.reference()
        feed_reference(
            phase,
            [(reference, (inputs.items[prefix], inputs.weights[prefix]))]
            + [(reference, inputs.frame_at(MIXED_PREFIX_FRAMES + i)) for i in range(sent_frames)],
        )
        async with measure.busy_polling():
            await readback_single(phase, ingest, inputs, reference, None, None, phase.global_hh)
        await timed(phase, None, ingest.snapshot())
    except errors + (RuntimeError,) as exc:
        phase.fail(f"phase aborted: {exc!r}")
        reference = None
    finally:
        undo()
        await _finish(phase, server, [ingest, query])
    if reference is None:
        return phase
    # The oracle's strongest form: the checkpoint the server left behind
    # recovers to exactly the reference's bytes.
    manager = SnapshotManager(data_dirs[-1])
    try:
        recovered = manager.recover()
    finally:
        manager.close()
    phase.attempted += 1
    if recovered is None or recovered[0].to_bytes() != reference.to_bytes():
        phase.fail("serve-mixed: recovered checkpoint differs from the reference")
    mult = np.zeros(inputs.num_frames)
    mult[: MIXED_PREFIX_FRAMES + sent_frames] = 1
    phase.max_error_frac = check_truth(
        phase, "serve-mixed", reference, inputs.exact(mult), inputs
    )
    return phase


# -- cluster-tenants ------------------------------------------------------------


def tenant_names() -> list[str]:
    return [f"t{index:02d}" for index in range(TENANTS)]


async def cluster_tenants(env: Env, seed: int, seconds: float, traced: bool, rounds: int) -> Phase:
    from repro.bench.harness import gc_isolated
    from repro.core.merge import merge_linear
    from repro.service.client import ClusterClient

    phase = Phase("cluster-tenants", traced)
    inputs = Inputs(seed, BULK_POOL_FRAMES * BULK_FRAME, BULK_FRAME)
    frames = [inputs.frame_at(f) for f in range(inputs.num_frames)]
    names = tenant_names()
    # Zipf-chosen tenant per frame, for more frames than any run sends.
    popularity = 1.0 / np.arange(1, TENANTS + 1) ** ALPHA
    tenant_of = np.random.default_rng(seed ^ 0x7E4A).choice(
        TENANTS, size=1 << 16, p=popularity / popularity.sum()
    )
    connect = _connect(ClusterClient)

    async def create_tenants(client):
        for name in names:
            await client.tcreate(name)

    phase.span_dir = env.path("spans") if traced else None
    if traced:
        os.makedirs(phase.span_dir)
    server, ingest = await start_rounds(
        phase, rounds, lambda: env.server(["--workers", "1"], traced, phase.span_dir),
        connect, create_tenants,
    )
    query = await connect(server.port)
    errors = _client_errors()
    undo = _traced_client(phase)
    period = BULK_FRAME / CLUSTER_RATE
    references = None
    try:

        async def send_frame(i):
            items, weights = frames[i % len(frames)]
            name = names[tenant_of[i % len(tenant_of)]]
            phase.ingested(await timed(phase, None, ingest.tsend_batch(name, items, weights)))
            if (i + 1) % GLOBAL_QUERY_FRAMES == 0:
                phase.mark_cpu(server)

        async def global_query(_i):
            await timed(phase, None, query.qhh(PHI))

        cpu0 = server.cpu_seconds()
        with gc_isolated():
            phase.mark_cpu(server)
            phase.started, phase.seconds = time.perf_counter(), seconds
            ingest_loop, query_loop = await asyncio.gather(
                measure.open_loop(period, seconds, send_frame, on_error=errors),
                measure.open_loop(
                    period * GLOBAL_QUERY_FRAMES, seconds, global_query, on_error=errors
                ),
            )
            await timed(phase, None, ingest.drain())
            phase.wall_s = time.perf_counter() - phase.started
        phase.cpu_s = server.cpu_seconds() - cpu0
        phase.global_hh = list(query_loop.latencies)
        phase.lags = ingest_loop.lags + query_loop.lags
        for exc in query_loop.errors:
            phase.fail(f"request failed: {exc!r}")
        sent_frames = take_ingest_loop(phase, ingest_loop)

        references = {name: env.reference() for name in names}
        feed_reference(phase, (
            (references[names[tenant_of[j % len(tenant_of)]]], frames[j % len(frames)])
            for j in range(sent_frames)
        ))

        # Read-back: sampled TEST and per-tenant THH on one open loop.
        # The pool caches a tenant's merged view until its watermark
        # moves, so a one-update marker frame precedes each timed THH:
        # every sample then pays the blob fetch and decode a fresh answer
        # costs.
        if np.isin(MARKER, inputs.uniq):
            raise RuntimeError("the marker item occurs in the generated stream")
        marker = (np.array([MARKER], dtype=np.uint64), np.array([1.0]))
        markers = dict.fromkeys(names, 0)
        sample = inputs.sample.tolist()
        pick = np.random.default_rng(seed ^ 0x7E57).integers(TENANTS, size=len(sample))

        async def send(i: int) -> None:
            if i % 10 == 0:
                name = names[(i // 10) % TENANTS]
                await timed(phase, None, ingest.tsend_batch(name, *marker))
                references[name].update_batch(*marker)
                markers[name] += 1
                _seq, rows = await timed(phase, phase.hh, ingest.thh(name, PHI))
                check_rows(phase, f"THH {name}", rows, references[name].heavy_hitters(PHI))
            else:
                item, name = sample[i % len(sample)], names[pick[i % len(sample)]]
                served = await timed(phase, phase.est, ingest.testimate(name, item))
                if served != references[name].estimate(item):
                    phase.fail(f"TEST {name} {item}: served estimate differs from the reference")

        async with measure.busy_polling():
            await _readback_loop(phase, send)
            merged = merge_linear([references[name].copy() for name in sorted(names)])
            _seq, rows = await timed(phase, None, query.qhh(PHI))
            check_rows(phase, "QHH", rows, merged.heavy_hitters(PHI))
    except errors + (RuntimeError,) as exc:
        phase.fail(f"phase aborted: {exc!r}")
        references = None
    finally:
        undo()
        await _finish(phase, server, [ingest, query])
    if references is None:
        return phase
    sends_to = np.zeros((TENANTS, len(frames)))
    for j in range(sent_frames):
        sends_to[tenant_of[j % len(tenant_of)], j % len(frames)] += 1
    for index, name in enumerate(names):
        check_truth(
            phase, f"tenant {name}", references[name], inputs.exact(sends_to[index]),
            inputs, extra_weight=markers[name],
        )
    # The error users see on the paper's merge: the global view's.
    phase.max_error_frac = check_truth(
        phase, "global merge", merged, inputs.exact(sends_to.sum(axis=0)),
        inputs, extra_weight=sum(markers.values()),
    )
    return phase


WORKLOADS = {
    "ingest-bulk": ingest_bulk,
    "serve-mixed": serve_mixed,
    "cluster-tenants": cluster_tenants,
}

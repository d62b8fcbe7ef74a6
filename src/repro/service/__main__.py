"""Run a streaming ingest server: ``python -m repro.service``.

Builds the sketch (flat or sharded), wires an
:class:`~repro.service.pipeline.IngestPipeline` — recovering from the
data directory's newest checkpoint when one exists — and serves the
line protocol until SIGINT or SIGTERM.  Either signal takes the clean
shutdown, which takes a final checkpoint, so restarting resumes
bit-identically.

Every server is replication-capable: followers subscribe with
``REPL HELLO`` on the normal port.  ``--follow host:port`` starts this
server as a read replica of that leader instead; ``--promote`` is a
one-shot admin command that tells a running follower (``--host`` /
``--port``) to detach and start accepting writes.

``--peers id=host:port,...`` (with ``--replica-id``) arms automatic
failover: the node runs a :class:`~repro.service.failover.
FailoverCoordinator` that detects a dead leader by heartbeat silence
(``--miss-window`` seconds) and elects the most-caught-up replica via
epoch-fenced voting — no operator ``--promote`` needed.  Combine with
``--follow`` on followers; leave ``--follow`` off on the initial
leader.

``--workers N`` (N >= 1) serves the multi-process tenant cluster
instead: a :class:`~repro.service.cluster.WorkerPool` behind a
:class:`~repro.service.cluster.ClusterServer`.  ``--follow`` and
``--workers`` are mutually exclusive — a read replica applies the
leader's frame stream in one process, so multi-worker mode cannot apply
to it; combining them exits with status 2 (:class:`~repro.errors.
UsageError`) rather than silently running one worker.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.core.frequent_items import FrequentItemsSketch
from repro.errors import UsageError
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.cluster import ClusterConfig, ClusterServer, WorkerPool
from repro.service.failover import (
    EpochStore,
    FailoverConfig,
    FailoverCoordinator,
)
from repro.service.pipeline import IngestPipeline, PipelineConfig
from repro.service.replication import FollowerService, ReplicationManager
from repro.service.server import StreamServer
from repro.service.snapshot import SnapshotManager
from repro.sharded.sketch import ShardedFrequentItemsSketch
from repro.table import BACKEND_NAMES


def parse_addr(text: str) -> tuple[str, int]:
    """Split ``host:port`` (the only --follow form) into its parts."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected host:port, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected host:port with a numeric port, got {text!r}"
        ) from None
    return host, port


def parse_peers(text: str) -> dict[str, str]:
    """Split ``id=host:port,id=host:port`` into ``{id: "host:port"}``."""
    peers: dict[str, str] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        replica_id, sep, addr = entry.partition("=")
        if not sep or not protocol.valid_replica_id(replica_id):
            raise argparse.ArgumentTypeError(
                f"expected id=host:port entries, got {entry!r}"
            )
        host, _hsep, port_text = addr.rpartition(":")
        if not host or not port_text.isdigit():
            raise argparse.ArgumentTypeError(
                f"peer {replica_id!r} has a bad address {addr!r}"
            )
        peers[replica_id] = addr
    if not peers:
        raise argparse.ArgumentTypeError("--peers is empty")
    return peers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a frequent-items sketch over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9471)
    parser.add_argument(
        "--follow", type=parse_addr, default=None, metavar="HOST:PORT",
        help="run as a read replica of the leader at HOST:PORT",
    )
    parser.add_argument(
        "--promote", action="store_true",
        help="admin one-shot: promote the follower at --host/--port, "
        "print its promotion sequence, and exit",
    )
    parser.add_argument(
        "--replica-id", default=None, metavar="ID",
        help="this node's id in the replica set (required with --peers)",
    )
    parser.add_argument(
        "--peers", type=parse_peers, default=None,
        metavar="ID=HOST:PORT,...",
        help="the other replicas, by id; arms automatic failover",
    )
    parser.add_argument(
        "--miss-window", type=float, default=2.0,
        help="seconds of leader silence before followers call an "
        "election (failover detection latency)",
    )
    parser.add_argument(
        "--election-timeout", type=float, default=2.0,
        help="per-round vote collection budget (seconds)",
    )
    parser.add_argument(
        "--no-elect", action="store_true",
        help="observe and report but never stand for election "
        "(a DR / observer replica)",
    )
    parser.add_argument("--k", type=int, default=4096, help="counters per sketch")
    parser.add_argument("--backend", choices=sorted(BACKEND_NAMES), default="probing")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards", type=int, default=0,
        help="shard the sketch this many ways (0 = flat sketch)",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="snapshot/WAL directory; omitting it disables durability",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="serve the multi-process tenant cluster with N worker "
        "processes (incompatible with --follow)",
    )
    parser.add_argument("--snapshot-every", type=int, default=256,
                        help="checkpoint every N applied micro-batches")
    parser.add_argument("--max-batch", type=int, default=8192,
                        help="micro-batch size trigger (updates)")
    parser.add_argument("--flush-interval", type=float, default=0.01,
                        help="micro-batch time trigger (seconds)")
    return parser


def build_pipeline(args: argparse.Namespace) -> IngestPipeline:
    replication = ReplicationManager()
    replica = args.follow is not None
    config = PipelineConfig(
        max_batch_items=args.max_batch,
        flush_interval=args.flush_interval,
        snapshot_every_batches=args.snapshot_every,
    )
    if args.data_dir is not None:
        snapshots = SnapshotManager(args.data_dir)
        if snapshots.latest_snapshot_seq() is not None:
            # The checkpoint defines the sketch: flags that only shape a
            # *fresh* sketch are ignored, and silently honoring them
            # would corrupt the recovered state — say so.
            print(
                f"recovering sketch from {args.data_dir!r}; "
                "--k/--backend/--shards/--seed describe a fresh sketch "
                "and are ignored on recovery",
                flush=True,
            )
            return IngestPipeline.recover(
                snapshots, config=config,
                replication=replication, replica=replica,
            )
    else:
        snapshots = None
    if args.shards > 0:
        sketch = ShardedFrequentItemsSketch(
            args.k, num_shards=args.shards, backend=args.backend, seed=args.seed
        )
    else:
        sketch = FrequentItemsSketch(args.k, backend=args.backend, seed=args.seed)
    return IngestPipeline(
        sketch, config=config, snapshots=snapshots,
        replication=replication, replica=replica,
    )


async def promote(args: argparse.Namespace) -> int:
    """The ``--promote`` one-shot: tell a follower to become a leader."""
    async with await ServiceClient.connect(args.host, args.port) as client:
        seq = await client.promote()
    print(f"promoted {args.host}:{args.port} at seq={seq}", flush=True)
    return 0


async def run_cluster(args: argparse.Namespace) -> int:
    """Serve a multi-process tenant cluster (the ``--workers`` path)."""
    config = ClusterConfig(
        num_workers=args.workers,
        data_dir=args.data_dir,
        snapshot_every_batches=args.snapshot_every,
        default_k=args.k,
        default_backend=args.backend,
        default_seed=args.seed,
        default_shards=args.shards,
    )
    # Pool first, server second: worker processes must not inherit the
    # listening socket.
    async with WorkerPool(config) as pool:
        async with ClusterServer(pool, host=args.host, port=args.port) as server:
            print(
                f"serving tenant cluster on {args.host}:{server.port} "
                f"(workers={pool.num_workers}, "
                f"tenants={len(pool.list_tenants())}, "
                f"durability={'on' if args.data_dir else 'off'})",
                flush=True,
            )
            with contextlib.suppress(asyncio.CancelledError):
                await asyncio.Event().wait()  # until SIGINT/SIGTERM
    return 0


def check_args(args: argparse.Namespace) -> None:
    """Reject flag combinations that have no meaning."""
    if args.workers is not None and args.follow is not None:
        raise UsageError(
            "--follow and --workers are mutually exclusive: a read "
            "replica applies the leader's frame stream in a single "
            "process, so multi-worker mode cannot apply to it; run the "
            "replica without --workers (or the cluster without --follow)"
        )
    if args.workers is not None and args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.peers is not None:
        if args.replica_id is None:
            raise UsageError("--peers requires --replica-id")
        if not protocol.valid_replica_id(args.replica_id):
            raise UsageError(f"invalid --replica-id {args.replica_id!r}")
        if args.replica_id in args.peers:
            raise UsageError(
                f"--peers must list the *other* replicas; "
                f"{args.replica_id!r} is this node"
            )
        if args.workers is not None:
            raise UsageError(
                "--peers and --workers are mutually exclusive: failover "
                "replicates a single-process pipeline"
            )


async def run(args: argparse.Namespace) -> int:
    # SIGTERM gets SIGINT's clean shutdown: cancelling this task unwinds
    # every `async with` (final checkpoint, workers stopped).  Signal
    # handlers are unsupported off the main thread and on Windows loops.
    task = asyncio.current_task()
    assert task is not None
    with contextlib.suppress(NotImplementedError, RuntimeError):
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, task.cancel)
    if args.promote:
        return await promote(args)
    if args.workers is not None:
        return await run_cluster(args)
    pipeline = build_pipeline(args)
    follower = None
    if args.follow is not None and args.peers is None:
        # With failover armed the coordinator owns the follower
        # subscription (it retargets on leadership changes).
        leader_host, leader_port = args.follow
        follower = FollowerService(pipeline, leader_host, leader_port)
    coordinator = None
    async with pipeline:
        server = StreamServer(
            pipeline, host=args.host, port=args.port, follower=follower
        )
        async with server:
            if args.peers is not None:
                coordinator = FailoverCoordinator(
                    args.replica_id,
                    pipeline,
                    self_addr=f"{args.host}:{server.port}",
                    peers=args.peers,
                    leader_addr=(
                        f"{args.follow[0]}:{args.follow[1]}"
                        if args.follow is not None else None
                    ),
                    epoch_store=EpochStore(args.data_dir),
                    config=FailoverConfig(
                        heartbeat_miss_window=args.miss_window,
                        election_timeout=args.election_timeout,
                    ),
                    elect=not args.no_elect,
                )
                server.coordinator = coordinator
                await coordinator.start()
            if follower is not None:
                await follower.start()
            print(
                f"serving {type(pipeline.sketch).__name__} "
                f"on {args.host}:{server.port} "
                f"(role={pipeline.role}, seq={pipeline.applied_seq}, "
                f"failover={'on' if coordinator is not None else 'off'}, "
                f"durability={'on' if args.data_dir else 'off'})",
                flush=True,
            )
            try:
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.Event().wait()  # until SIGINT/SIGTERM
            finally:
                if coordinator is not None:
                    await coordinator.stop()
                if follower is not None:
                    await follower.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 2
    try:
        return asyncio.run(run(args))
    except (KeyboardInterrupt, asyncio.CancelledError):  # signalled mid start-up
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

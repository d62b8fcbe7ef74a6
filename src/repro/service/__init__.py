"""Always-on streaming ingest service over the sketch engine.

The paper positions the sketch for continuously-running telemetry
pipelines; this package turns the in-process library into that
deployment shape:

- :class:`~repro.service.pipeline.IngestPipeline` — an asyncio ingest
  loop: concurrent producers submit array batches through a bounded
  queue with backpressure, the pipeline coalesces them into micro-
  batches (size- and time-triggered) and applies them through the
  vectorized ``update_batch`` engine, while queries read a consistent
  between-batches view without stalling ingest.
- :class:`~repro.service.snapshot.SnapshotManager` — durability:
  periodic atomic-rename checkpoints of the sketch (wire format plus
  PRNG state) and a write-ahead log of applied micro-batches, able to
  recover to a state *bit-identical* to an uninterrupted run.
- :class:`~repro.service.server.StreamServer` /
  :class:`~repro.service.client.ServiceClient` — a TCP line-protocol
  front end (``python -m repro.service`` runs one).  It and
  ``ClusterServer`` below share one connection loop and verb table,
  :class:`~repro.service.frontend.LineServer`; the one client, with an
  optional :class:`~repro.service.client.RetryPolicy`, speaks to both.
- :class:`~repro.service.cluster.WorkerPool` /
  :class:`~repro.service.cluster.ClusterServer` — the multi-process
  tenant cluster (``python -m repro.service --workers N``): named tenant
  streams routed onto worker processes by a seeded hash partition,
  zero-copy shared-memory ingest frames, merged global views on query.

- :class:`~repro.service.failover.FailoverCoordinator` — automatic
  failover: epoch-fenced leader election over the replica set (``REPL
  ELECT`` / ``LEADER`` / ``PEERS``), heartbeat-driven failure detection,
  self-demoting fenced ex-leaders; with
  :mod:`repro.service.faults` as the pluggable fault-injection plane the
  chaos tests drive it through.

See ``docs/service.md`` for the lifecycle, backpressure, recovery, and
failover guarantees.
"""

from repro.service.pipeline import IngestPipeline, PipelineConfig, ServiceStats
from repro.service.snapshot import SnapshotManager
from repro.service.server import StreamServer
from repro.service.client import ClusterClient, RetryPolicy, ServiceClient
from repro.service.cluster import (
    ClusterConfig,
    ClusterServer,
    TenantSpec,
    WorkerPool,
)
from repro.service.failover import (
    EpochStore,
    FailoverConfig,
    FailoverCoordinator,
)
from repro.service.faults import DiskFaultPlane, NetworkFaultProxy
from repro.service.frames import SharedFrameRing
from repro.service.replication import (
    FollowerService,
    ReplicationConfig,
    ReplicationManager,
)

__all__ = [
    "EpochStore",
    "FailoverConfig",
    "FailoverCoordinator",
    "DiskFaultPlane",
    "NetworkFaultProxy",
    "IngestPipeline",
    "PipelineConfig",
    "ServiceStats",
    "SnapshotManager",
    "StreamServer",
    "ServiceClient",
    "ClusterClient",
    "RetryPolicy",
    "ClusterConfig",
    "ClusterServer",
    "TenantSpec",
    "WorkerPool",
    "SharedFrameRing",
    "ReplicationManager",
    "ReplicationConfig",
    "FollowerService",
]

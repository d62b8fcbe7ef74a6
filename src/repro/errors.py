"""Exception types raised by the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything this package raises with a single ``except`` clause while
still letting genuine programming errors (``TypeError`` and friends)
propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidParameterError(ReproError, ValueError):
    """A constructor or method argument is outside its documented domain.

    Raised, for example, for a non-positive number of counters, a decrement
    quantile outside ``[0, 1]``, or a non-positive stream weight.
    """


class InvalidUpdateError(ReproError, ValueError):
    """A stream update is malformed (e.g. a non-positive weight)."""


class TableFullError(ReproError, RuntimeError):
    """An insert was attempted on a counter table that is at capacity.

    The counter-based algorithms in this library never trigger this error
    themselves: they purge before inserting.  Seeing it indicates misuse of
    the low-level table API.
    """


class SerializationError(ReproError, ValueError):
    """A byte blob could not be decoded into a sketch."""


class IncompatibleSketchError(ReproError, ValueError):
    """Two sketches cannot be merged (e.g. mismatched item encodings)."""


class ServiceClosedError(ReproError, RuntimeError):
    """An ingest-service operation was attempted on a stopped pipeline,
    or recovery was requested from a directory holding no checkpoint."""


class ReadOnlyReplicaError(ServiceClosedError):
    """A write was attempted on a pipeline serving as a read replica.

    Followers apply the leader's replicated frames only; direct writes
    would fork the replica's state from the leader's.  Promotion
    (:meth:`~repro.service.pipeline.IngestPipeline.promote`) lifts the
    restriction.
    """


class ServiceUnavailableError(ServiceClosedError):
    """No live leader could be reached before the client's deadline.

    Raised by a retrying :class:`~repro.service.client.ServiceClient`,
    and recorded by a :class:`~repro.service.replication.FollowerService`,
    when their :class:`~repro.service.client.RetryPolicy` deadline runs
    out — the whole replica set is down or unreachable.  It
    subclasses :class:`ServiceClosedError` so existing handlers keep
    working; catch it specifically to distinguish "cluster gone" from
    "this connection died".
    """


class UsageError(ReproError, ValueError):
    """Command-line flags were combined in a way that has no meaning.

    Raised (and reported as exit status 2) instead of silently ignoring
    one of the flags — e.g. ``--follow`` with ``--workers``: a read
    replica applies the leader's frames in one process, so multi-worker
    mode cannot apply to it.
    """


class ClusterError(ReproError, RuntimeError):
    """A multi-process cluster operation failed.

    Raised when a worker process dies (or is killed) while the acceptor
    is waiting on it, when a frame is routed to an unknown tenant, or
    when the pool is driven after :meth:`~repro.service.cluster.
    WorkerPool.stop`.  Restarting the pool over the same data directory
    recovers every tenant from its own WAL/snapshot directory.
    """


class ReplicationError(ReproError, RuntimeError):
    """A replication-stream frame could not be read or applied.

    Raised for corrupt frame tags, failed frame CRCs, oversized length
    prefixes, and sequence gaps.  The follower treats it as a dropped
    connection: close, reconnect, and re-request from the last applied
    sequence — never apply a suspect frame.
    """

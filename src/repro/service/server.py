"""The single-node server: one :class:`IngestPipeline` behind the
shared :class:`~repro.service.frontend.LineServer` front end.

Each connection is a coroutine reading line-protocol requests (see
:mod:`repro.service.protocol`) and answering from the shared pipeline.
Updates flow through ``pipeline.submit`` — when the pipeline's bounded
queue is full the handler awaits, the handler stops reading its socket,
and TCP flow control pushes the backpressure all the way to the
producer.  Queries are answered inline from the consistent
between-batches view.  Beyond the shared verbs this server speaks
``BINS``, ``QBOUNDS`` and the ``REPL`` family.
"""

from __future__ import annotations

from repro.errors import ReplicationError
from repro.service import protocol
from repro.service.frontend import (
    CloseConnection,
    LineServer,
    Reply,
    bin_count,
    json_reply,
    ok_reply,
    read_bin,
    usage,
)
from repro.service.pipeline import IngestPipeline

_NO_FAILOVER = b"ERR failover is not enabled on this node\n", False


class StreamServer(LineServer):
    """Serve one ingest pipeline over a TCP line protocol.

    Parameters
    ----------
    pipeline:
        The (started) :class:`IngestPipeline` to serve.
    host, port:
        Bind address.  Port 0 (the default) picks a free port; read the
        bound one from :attr:`port` after :meth:`start`.
    follower:
        An optional :class:`~repro.service.replication.FollowerService`
        when this server fronts a read replica; enables ``REPL
        PROMOTE`` and enriches ``REPL STATUS``.
    coordinator:
        An optional :class:`~repro.service.failover.FailoverCoordinator`;
        with one attached the server routes ``REPL ELECT`` / ``REPL
        LEADER`` / ``REPL PEERS`` to it and ``REPL PROMOTE`` becomes an
        epoch-bumping operator override.
    """

    def __init__(
        self, pipeline: IngestPipeline, host: str = "127.0.0.1", port: int = 0,
        *, follower=None, coordinator=None,
    ) -> None:
        super().__init__(host, port)
        self._pipeline = pipeline
        # A server is replication-capable whenever its pipeline publishes
        # frames: with a manager attached, ``REPL HELLO`` switches a
        # connection into the leader's frame stream.
        self._replication = pipeline.replication
        self._follower = follower
        self._coordinator = coordinator

    @property
    def pipeline(self) -> IngestPipeline:
        return self._pipeline

    @property
    def replication(self):
        return self._replication

    @property
    def follower(self):
        # The coordinator owns (and retargets) its follower; prefer its
        # live one over whatever was passed at construction.
        if self._coordinator is not None and self._coordinator.follower is not None:
            return self._coordinator.follower
        return self._follower

    @property
    def coordinator(self):
        return self._coordinator

    @coordinator.setter
    def coordinator(self, value) -> None:
        # Settable after start(): a coordinator needs the bound port
        # (self_addr) before it can be built, which a port-0 server only
        # knows once it is listening.
        self._coordinator = value

    # -- accessors for the shared verbs ----------------------------------------

    async def _submit(self, items, weights) -> int:
        await self._pipeline.submit(items, weights)
        return len(items)

    async def _estimate(self, item: int) -> float:
        return self._pipeline.estimate(item)

    async def _bounds(self, item: int) -> tuple[float, float, float]:
        pipeline = self._pipeline
        return (
            pipeline.lower_bound(item),
            pipeline.estimate(item),
            pipeline.upper_bound(item),
        )

    async def _heavy_hitters(self, phi: float) -> list:
        return self._pipeline.heavy_hitters(phi)

    # The staleness stamp and the answer are read in the same event-loop
    # turn: the sequence is exactly the between-batches state the answer
    # came from.

    async def _stamped_estimate(self, item: int) -> tuple[int, float]:
        return self._pipeline.applied_seq, self._pipeline.estimate(item)

    async def _stamped_heavy_hitters(self, phi: float) -> tuple[int, list]:
        return self._pipeline.applied_seq, self._pipeline.heavy_hitters(phi)

    async def _snapshot(self) -> int:
        self._pipeline.snapshot_now()
        return self._pipeline.applied_seq

    async def _stats(self) -> dict:
        return self._pipeline.stats_dict()

    # -- verbs only a single node speaks ---------------------------------------

    async def _verb_bins(self, args, reader, writer) -> Reply:
        """``BINS <count> <session> <fseq>``: BIN plus an idempotency stamp."""
        count_text = args[0] if len(args) == 3 else ""
        bin_count("BINS", count_text)  # the count is checked first
        session = args[1]
        if not protocol.valid_session_id(session):
            # Stamps ride inside replication frames; an id the frame
            # codec would reject must never reach submit.
            raise CloseConnection(
                "BINS session id must match [A-Za-z0-9_.-]{1,64}; closing"
            )
        try:
            frame_seq = int(args[2])
        except ValueError:
            raise CloseConnection(
                "BINS frame seq must be an integer; closing"
            ) from None
        items, weights = await read_bin(reader, "BINS", count_text)
        pipeline = self._pipeline
        if pipeline.seen_stamp(session, frame_seq):
            # Duplicate resend of an already-applied frame: the payload
            # is consumed, nothing is ingested.
            return b"OK 0\n", False
        # wait_applied: the OK must mean the stamp is in the registry and
        # the frame has been offered to replication — a client
        # resubmitting after failover relies on the promoted follower
        # remembering it.
        await pipeline.submit(
            items, weights, wait_applied=True, stamp=(session, frame_seq)
        )
        return ok_reply(len(items)), False

    async def _verb_qbounds(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            return usage("QBOUNDS <item>")
        seq = self._pipeline.applied_seq
        return ok_reply(seq, *await self._bounds(int(args[0]))), False

    async def _verb_repl(self, args, reader, writer) -> Reply:
        handler = self.repl_verbs.get(args[0].upper() if args else "")
        if handler is None:
            return usage(
                "REPL STATUS | REPL PROMOTE | REPL PEERS | REPL ELECT <epoch> "
                "<last_seq> <id> | REPL LEADER <epoch> <id> <addr> | "
                "REPL HELLO <seq> [epoch]"
            )
        return await handler(self, args[1:], reader, writer)

    # -- REPL subcommands ------------------------------------------------------

    async def _repl_status(self, args, reader, writer) -> Reply:
        pipeline = self._pipeline
        payload = {
            "role": pipeline.role,
            "applied_seq": pipeline.applied_seq,
            "epoch": pipeline.epoch,
        }
        if self._replication is not None:
            payload["replication"] = self._replication.status()
        if self.follower is not None:
            payload["follower"] = self.follower.status()
        if self._coordinator is not None:
            payload["failover"] = self._coordinator.status()
        return json_reply(payload), False

    async def _repl_promote(self, args, reader, writer) -> Reply:
        # Idempotent: promoting the current leader is a no-op that
        # reports its applied sequence — operator scripts and retried
        # requests must not fail because a prior attempt landed.
        if not self._pipeline.is_replica:
            return ok_reply(self._pipeline.applied_seq), False
        if self._coordinator is not None:
            return ok_reply(await self._coordinator.force_promote()), False
        if self.follower is None:
            return b"ERR this node is not a follower\n", False
        return ok_reply(await self.follower.promote()), False

    async def _repl_elect(self, args, reader, writer) -> Reply:
        if self._coordinator is None:
            return _NO_FAILOVER
        epoch, last_seq, candidate = protocol.parse_elect_args(args)
        granted, our_epoch, leader = self._coordinator.handle_vote_request(
            epoch, last_seq, candidate
        )
        return ok_reply(protocol.encode_vote_reply(granted, our_epoch, leader)), False

    async def _repl_leader(self, args, reader, writer) -> Reply:
        if self._coordinator is None:
            return _NO_FAILOVER
        epoch, leader_id, addr = protocol.parse_leader_args(args)
        accepted, our_epoch = await self._coordinator.handle_leader_announcement(
            epoch, leader_id, addr
        )
        if not accepted:
            raise ReplicationError(
                f"stale leader announcement; epoch is {our_epoch}"
            )
        return ok_reply(our_epoch), False

    async def _repl_peers(self, args, reader, writer) -> Reply:
        if self._coordinator is None:
            return _NO_FAILOVER
        return json_reply(self._coordinator.peers_payload()), False

    async def _repl_hello(self, args, reader, writer) -> Reply:
        """``REPL HELLO <seq> [epoch]``: hand the connection over to the
        replication stream.  The connection closes afterwards, whatever
        the outcome."""
        if self._replication is None:
            return b"ERR replication is not enabled on this node\n", True
        try:
            last_seq = int(args[0]) if len(args) in (1, 2) else -1
            hello_epoch = int(args[1]) if len(args) == 2 else 0
        except ValueError:
            last_seq = hello_epoch = -1
        if last_seq < 0 or hello_epoch < 0:
            return b"ERR usage: REPL HELLO <last_applied_seq> [epoch]\n", True
        pipeline = self._pipeline
        writer.write(ok_reply(pipeline.applied_seq, pipeline.epoch))
        await writer.drain()
        await self._replication.stream(
            pipeline, reader, writer, last_seq, hello_epoch=hello_epoch
        )
        return b"", True

    verbs = {
        **LineServer.verbs,
        "BINS": _verb_bins,
        "QBOUNDS": _verb_qbounds,
        "REPL": _verb_repl,
    }

    #: ``REPL`` subcommand -> handler.
    repl_verbs = {
        "STATUS": _repl_status,
        "PROMOTE": _repl_promote,
        "ELECT": _repl_elect,
        "LEADER": _repl_leader,
        "PEERS": _repl_peers,
        "HELLO": _repl_hello,
    }

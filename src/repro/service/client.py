"""A small asyncio client for the streaming service's line protocol.

Mirrors :mod:`repro.service.protocol` command for command; every method
awaits the server's response line, so callers inherit the service's
backpressure (a full ingest queue delays the ``OK``).
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import (
    ReplicationError,
    ServiceClosedError,
    ServiceUnavailableError,
)
from repro.service import protocol

#: Seconds a leader probe may take when the retry policy has no deadline.
PROBE_TIMEOUT = 1.0

#: What a lost connection raises (a timeout: the deadline ran out).
_CONNECTION_ERRORS = (OSError, ServiceClosedError, asyncio.TimeoutError)


@dataclass(frozen=True)
class RetryPolicy:
    """How a reconnect loop backs off and when it gives up — the one
    policy of the retrying :class:`ServiceClient` and of
    :class:`~repro.service.replication.FollowerService`.

    Attributes
    ----------
    max_retries:
        Consecutive failed attempts tolerated; the next failure gives up
        with :class:`~repro.errors.ServiceClosedError` ("gave up after").
    backoff_initial / backoff_max:
        The first sleep, doubled after every failure up to the cap.
    backoff_jitter:
        Random slack multiplied onto every sleep (each delay is scaled by
        ``1 + backoff_jitter * random()``), de-synchronizing the
        reconnect stampede of many peers losing the same node.
    deadline:
        Overall wall-clock budget in seconds, or ``None`` for none.  A
        loop that cannot succeed in time stops with
        :class:`~repro.errors.ServiceUnavailableError` instead of hanging
        against a replica set that is simply gone.
    """

    max_retries: int = 6
    backoff_initial: float = 0.05
    backoff_max: float = 1.0
    backoff_jitter: float = 0.25
    deadline: Optional[float] = None


class RetryBudget:
    """One run of a :class:`RetryPolicy`: the failures so far, the next
    backoff, and the deadline clock."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.failures = 0
        self._backoff = policy.backoff_initial
        self._started = time.monotonic()

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None``: no deadline)."""
        if self.policy.deadline is None:
            return None
        return self.policy.deadline - (time.monotonic() - self._started)

    async def within(self, awaitable, default: Optional[float] = None):
        """Await ``awaitable`` inside what is left of the deadline, or
        within ``default`` seconds when the policy sets none (``None``:
        unbounded).  Expiry raises :class:`asyncio.TimeoutError`."""
        timeout = default if self.policy.deadline is None else self.remaining()
        if timeout is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, max(timeout, 0.0))

    async def backoff(self, what: str) -> None:
        """Count one failed attempt, then sleep its jittered backoff;
        raises once the attempts or the deadline (``what`` failed within
        it) run out."""
        policy = self.policy
        self.failures += 1
        if self.failures > policy.max_retries:
            raise ServiceClosedError(
                f"gave up after {self.failures - 1} reconnect attempts"
            )
        delay = self._backoff * (1.0 + policy.backoff_jitter * random.random())
        remaining = self.remaining()
        if remaining is not None and delay > remaining:
            raise ServiceUnavailableError(
                f"{what} within the {policy.deadline:g}s retry deadline "
                f"({self.failures} attempts)"
            )
        await asyncio.sleep(delay)
        self._backoff = min(self._backoff * 2.0, policy.backoff_max)


class ServiceError(ValueError):
    """The server answered ``ERR <reason>``."""


def _frames(items, weights, size: int):
    """Normalize one update batch to ``(uint64, float64)`` arrays (unit
    weights by default) and cut it into frames of at most ``size``."""
    items = np.ascontiguousarray(items, dtype=np.uint64)
    if weights is None:
        weights = np.ones(len(items), dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    for lo in range(0, len(items), size):
        yield items[lo : lo + size], weights[lo : lo + size]


def _hh_pairs(args: list[str]) -> list[tuple[int, float]]:
    """The ``(item, estimate)`` pairs of a ``<n> <item>:<estimate> ...``
    heavy-hitter reply."""
    pairs = []
    for token in args[1 : 1 + int(args[0])]:
        item_text, _sep, estimate_text = token.partition(":")
        pairs.append((int(item_text), float(estimate_text)))
    return pairs


def _ok_args(text: str) -> list[str]:
    """The arguments of an ``OK ...`` reply line."""
    parts = text.split()
    if not parts or parts[0] != "OK":
        raise ServiceError(f"unexpected response {text!r}")
    return parts[1:]


def _phi(phi: float) -> str:
    # repr() is the shortest round-trip form: '%g' would round phi to 6
    # significant digits and could drop a true heavy hitter at the edge.
    return repr(float(phi))


class ServiceClient:
    """The client of a :class:`~repro.service.server.StreamServer` or a
    :class:`~repro.service.cluster.ClusterServer` (the ``t*`` verbs)::

        client = await ServiceClient.connect("127.0.0.1", port)
        await client.update(7, 2.0)
        estimate = await client.estimate(7)
        await client.close()

    With ``retry=None`` (the default) it is one connection sending
    ``BIN`` frames, and every error propagates.  With a
    :class:`RetryPolicy` it connects on first use and rides out lost
    connections and leader changes: it learns the replica set from
    ``REPL PEERS`` (seeded by ``peers``) and follows a "read replica"
    refusal to the leader.  Queries are simply retried; update batches
    travel as ``BINS`` frames stamped ``(session, frame_seq)``, which the
    server's replicated idempotency registry answers ``OK 0`` when
    resent, so every batch lands exactly once, across failover too.
    Unstamped writes (``UPDATE``, ``BATCH``, ``T*``) are resent only if
    they never reached the wire.  The policy bounds each request as a
    whole, leader probes and refusals included.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: Optional[RetryPolicy] = None,
        peers: Optional[list[str]] = None,
        session: Optional[str] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._retry = retry
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._session = session if session is not None else os.urandom(8).hex()
        self._frame_seq = 0
        # Known replica addresses ("host:port"), current target first.
        self._peer_addrs: list[str] = [f"{host}:{port}"]
        for addr in peers or []:
            if addr not in self._peer_addrs:
                self._peer_addrs.append(addr)
        self.reconnects = 0
        self.resubmits = 0
        self.redirects = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        """A plain client, already connected to ``host:port``."""
        client = cls(host, port)
        await client._connection()
        return client

    async def close(self) -> None:
        """Send ``QUIT`` and close the connection."""
        writer = self._writer
        if writer is None or writer.is_closing():
            return
        try:
            await self._exchange(b"QUIT\n")
        except (ConnectionError, ServiceClosedError):  # pragma: no cover
            pass
        writer.close()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    @property
    def session(self) -> str:
        """The idempotency session id stamped onto every BINS frame."""
        return self._session

    @property
    def leader_addr(self) -> str:
        """The address this client currently targets (believes leads)."""
        return f"{self._host}:{self._port}"

    @property
    def known_peers(self) -> list[str]:
        """Every replica address this client has learned."""
        return list(self._peer_addrs)

    # -- plumbing --------------------------------------------------------------

    async def _connection(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """The current connection, opened on first use."""
        reader, writer = self._reader, self._writer
        if reader is None or writer is None:
            reader, writer = await asyncio.open_connection(
                self._host, self._port, limit=protocol.MAX_LINE_BYTES
            )
            self._reader, self._writer = reader, writer
        return reader, writer

    def _drop(self) -> None:
        """Abandon the connection without a ``QUIT``."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    async def _exchange(self, payload: bytes) -> str:
        """One request and its reply line on the current connection."""
        reader, writer = await self._connection()
        writer.write(payload)
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ServiceClosedError("server closed the connection")
        text = line.decode("ascii").rstrip("\n")
        if text.startswith("ERR"):
            raise ServiceError(text[4:] or "unspecified server error")
        return text

    async def _request(
        self, payload: bytes, *, stamped: bool = False, once: bool = False
    ) -> str:
        """Send one request; returns its reply line.  Under a retry
        policy, ``stamped`` marks a ``BINS`` frame (a resend counts as a
        resubmit) and ``once`` a write never to resend once sent."""
        if self._retry is None:
            return await self._exchange(payload)
        budget = RetryBudget(self._retry)
        sent = False  # an earlier attempt put this payload on the wire

        async def attempt() -> str:
            nonlocal sent
            if self._writer is not None and self._writer.is_closing():
                self._drop()
            await self._connection()
            if sent and stamped:
                self.resubmits += 1
            sent = True
            return await self._exchange(payload)

        while True:
            failure: Exception
            try:
                return await budget.within(attempt())
            except ServiceError as exc:
                if "read replica" not in str(exc):
                    raise  # a real answer: no retry, nothing was lost
                # We wrote to a follower: someone else leads now.
                sent = False  # the frame was refused, not lost
                failure, refused = exc, True
            except _CONNECTION_ERRORS as exc:
                if sent and once:
                    self._drop()
                    raise
                failure, refused = exc, False
            self._drop()
            try:
                await budget.backoff("no live leader")
            except ServiceClosedError as give_up:
                raise give_up from failure
            if not refused:
                self.reconnects += 1
            # Look for the leader before spending another attempt; a node
            # that just refused a write is not it.
            found = await self._redirect_to_leader(
                budget, exclude=self.leader_addr if refused else None
            )
            remaining = budget.remaining()
            if refused and not found and (remaining is None or remaining > 0):
                # No node names a leader (a search the deadline cut short
                # is reported by the next attempt, which times out at once).
                raise failure

    def _retarget(self, addr: str) -> None:
        host, _sep, port_text = addr.rpartition(":")
        if not host:
            return
        try:
            port = int(port_text)
        except ValueError:
            return
        self._host, self._port = host, port
        if addr not in self._peer_addrs:
            self._peer_addrs.append(addr)

    def _learn_peers(self, doc: dict) -> str | None:
        """Fold one ``REPL PEERS`` reply into the address book; returns
        the leader address it names, if any."""
        peers = doc.get("peers")
        if isinstance(peers, dict):
            for addr in peers.values():
                if isinstance(addr, str) and addr not in self._peer_addrs:
                    self._peer_addrs.append(addr)
        leader_addr = doc.get("leader_addr")
        leader_id = doc.get("leader_id")
        if isinstance(leader_addr, str) and leader_addr:
            return leader_addr
        if isinstance(peers, dict) and isinstance(leader_id, str):
            addr = peers.get(leader_id)
            if isinstance(addr, str):
                return addr
        return None

    async def _redirect_to_leader(
        self, budget: RetryBudget, exclude: str | None = None
    ) -> bool:
        """Ask every known replica who leads; retarget on an answer.

        Returns True when a leader hint was found (even if it later
        turns out equally dead — the retry loop handles that).
        ``exclude`` names an address known *not* to lead (it just
        refused a write): never fall back to it.  Each probe is bounded
        by what is left of ``budget``'s deadline (else
        :data:`PROBE_TIMEOUT`), so a wedged peer cannot stall the loop.
        """
        standalone: str | None = None
        for addr in list(self._peer_addrs):
            host, _sep, port_text = addr.rpartition(":")
            probe: ServiceClient | None = None
            try:
                probe = ServiceClient(host, int(port_text))
                doc = await budget.within(probe.repl_peers(), PROBE_TIMEOUT)
            except (ServiceError, ReplicationError):
                # The node answered but has no failover plane (or spoke
                # garbage): possibly a standalone leader.  Keep it as
                # the fallback, unless we know it refuses writes.
                if standalone is None and addr != exclude:
                    standalone = addr
                continue
            except _CONNECTION_ERRORS + (ValueError,):
                continue
            finally:
                if probe is not None:
                    probe._drop()
            leader = self._learn_peers(doc)
            if leader is not None and leader != exclude:
                self._retarget(leader)
                self.redirects += 1
                return True
        if standalone is not None:
            self._retarget(standalone)
            return True
        return False

    async def _line(self, *words: object, **options) -> str:
        """Send one text command (``words`` joined by spaces); returns
        the reply line."""
        line = " ".join(map(str, words)) + "\n"
        return await self._request(line.encode("ascii"), **options)

    async def _ok(self, *words: object, **options) -> list[str]:
        """The arguments of the ``OK ...`` reply to one text command."""
        return _ok_args(await self._line(*words, **options))

    async def _json(self, *words: object, **options):
        """The JSON document of the ``OK <json>`` reply to one command."""
        return json.loads((await self._line(*words, **options))[3:])

    async def _send_frames(
        self, encode, items, weights, chunk: int, **options
    ) -> int:
        """Send ``encode(items, weights)`` per frame of at most ``chunk``
        updates; returns the acknowledged total."""
        acknowledged = 0
        for frame in _frames(items, weights, chunk):
            reply = await self._request(encode(*frame), **options)
            acknowledged += int(_ok_args(reply)[0])
        return acknowledged

    def _encode_bins_frame(self, items, weights) -> bytes:
        self._frame_seq += 1
        return protocol.encode_bins_frame(
            items, weights, self._session, self._frame_seq
        )

    # -- commands --------------------------------------------------------------

    async def ping(self) -> bool:
        return await self._line("PING") == "PONG"

    async def update(self, item: int, weight: float = 1.0) -> None:
        # repr() is the shortest round-trip form: '%g'-style formatting
        # would silently truncate weights to 6 significant digits.
        await self._line("UPDATE", int(item), repr(weight), once=True)

    async def send_batch(self, items, weights=None, *, binary: bool = True) -> int:
        """Ship one update batch; returns the server-acknowledged count.

        ``binary=True`` (default) uses the ``BIN`` frame — arrays travel
        verbatim — or, under a retry policy, the idempotent ``BINS``
        frame, so each chunk lands exactly once even when its
        acknowledgement is lost and it is resubmitted.  The text
        ``BATCH`` form exists for debugging by hand.  Batches beyond the
        protocol's per-frame cap are chunked transparently; an empty
        batch is a no-op (matching ``IngestPipeline.submit``).
        """
        if not binary:
            # Text pairs are ~25 bytes each; keep BATCH lines far inside
            # the server's MAX_LINE_BYTES.
            return await self._send_frames(
                protocol.encode_batch_line, items, weights, 10_000, once=True
            )
        encode = (
            protocol.encode_bin_frame if self._retry is None
            else self._encode_bins_frame
        )
        return await self._send_frames(
            encode, items, weights, protocol.MAX_BIN_ITEMS, stamped=True
        )

    async def estimate(self, item: int) -> float:
        return float((await self._ok("EST", int(item)))[0])

    async def bounds(self, item: int) -> tuple[float, float, float]:
        """``(lower_bound, estimate, upper_bound)`` for one item."""
        lower, estimate, upper = map(float, await self._ok("BOUNDS", int(item)))
        return lower, estimate, upper

    async def heavy_hitters(self, phi: float) -> list[tuple[int, float]]:
        """``(item, estimate)`` pairs, sorted by estimate descending."""
        return _hh_pairs(await self._ok("HH", _phi(phi)))

    async def stats(self) -> dict:
        return await self._json("STATS")

    async def snapshot(self) -> int:
        """Force a checkpoint; returns the checkpointed sequence number."""
        return int((await self._ok("SNAPSHOT"))[0])

    # -- staleness-stamped queries (read replicas) -----------------------------

    async def qest(self, item: int) -> tuple[int, float]:
        """``(applied_seq, estimate)`` — the answer plus the exact
        between-batches sequence it was read at (the staleness stamp)."""
        seq, estimate = await self._ok("QEST", int(item))
        return int(seq), float(estimate)

    async def qbounds(self, item: int) -> tuple[int, float, float, float]:
        """``(applied_seq, lower, estimate, upper)`` for one item."""
        seq, lower, estimate, upper = await self._ok("QBOUNDS", int(item))
        return int(seq), float(lower), float(estimate), float(upper)

    async def qhh(self, phi: float) -> tuple[int, list[tuple[int, float]]]:
        """``(applied_seq, [(item, estimate), ...])``, estimate-sorted."""
        reply = await self._ok("QHH", _phi(phi))
        return int(reply[0]), _hh_pairs(reply[1:])

    # -- replication admin -----------------------------------------------------

    async def repl_status(self) -> dict:
        """Role, applied sequence, and follower/leader replication state."""
        return await self._json("REPL", "STATUS")

    async def promote(self) -> int:
        """Promote the connected follower; returns its sequence at
        promotion.  Idempotent: on a node that already leads this is a
        no-op reporting its applied sequence."""
        return int((await self._ok("REPL", "PROMOTE"))[0])

    async def repl_peers(self) -> dict:
        """The node's view of the replica set (``REPL PEERS``); also
        folds its addresses into this client's own address book."""
        text = await self._line("REPL", "PEERS")
        doc = protocol.parse_peers_reply(text[3:])
        self._learn_peers(doc)
        return doc

    # -- tenant verbs (ClusterServer) ------------------------------------------
    #
    # A ClusterServer also answers the single-tenant verbs above, routing
    # them to its implicit ``default`` tenant.

    async def tcreate(
        self,
        name: str,
        *,
        k: int | None = None,
        backend: str | None = None,
        seed: int | None = None,
        shards: int | None = None,
    ) -> dict:
        """Register one tenant; returns its effective spec as a dict.

        Optional parameters fall back to the server's defaults; the
        protocol line is positional, so unspecified parameters before a
        specified one travel as ``-`` ("use the server default").
        """
        tail = [k, backend, seed, shards]
        last = max(
            (i for i, value in enumerate(tail) if value is not None),
            default=-1,
        )
        params = ["-" if value is None else value for value in tail[: last + 1]]
        return await self._json("TCREATE", name, *params, once=True)

    async def tdrop(self, name: str) -> None:
        await self._line("TDROP", name, once=True)

    async def tlist(self) -> list[dict]:
        return await self._json("TLIST")

    async def tsend_batch(self, name: str, items, weights=None) -> int:
        """Ship one batch to a named tenant as ``TBIN`` frames."""
        return await self._send_frames(
            functools.partial(protocol.encode_tbin_frame, name),
            items, weights, protocol.MAX_BIN_ITEMS, once=True,
        )

    async def tupdate(self, name: str, item: int, weight: float = 1.0) -> None:
        await self._line("TUPDATE", name, int(item), repr(weight), once=True)

    async def testimate(self, name: str, item: int) -> float:
        return float((await self._ok("TEST", name, int(item)))[0])

    async def tbounds(self, name: str, item: int) -> tuple[float, float, float]:
        reply = await self._ok("TBOUNDS", name, int(item))
        lower, estimate, upper = map(float, reply)
        return lower, estimate, upper

    async def thh(
        self, name: str, phi: float
    ) -> tuple[int, list[tuple[int, float]]]:
        """``(watermark, [(item, estimate), ...])`` — the tenant's
        merged heavy hitters (folds a sharded tenant's substreams)."""
        reply = await self._ok("THH", name, _phi(phi))
        return int(reply[0]), _hh_pairs(reply[1:])

    async def drain(self) -> int:
        """Await every in-flight frame applied; returns the watermark sum."""
        return int((await self._ok("DRAIN"))[0])


#: The tenant verbs live on :class:`ServiceClient`; the old name stays.
ClusterClient = ServiceClient

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

import numpy as np

from repro.errors import (
    ReplicationError,
    ServiceClosedError,
    ServiceUnavailableError,
)
from repro.service import protocol


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


class ServiceClient:
    """One connection to a :class:`~repro.service.server.StreamServer`.

    Use :meth:`connect`::

        client = await ServiceClient.connect("127.0.0.1", port)
        await client.update(7, 2.0)
        estimate = await client.estimate(7)
        await client.close()
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def close(self) -> None:
        """Send ``QUIT`` and close the connection."""
        if self._writer.is_closing():
            return
        try:
            await self._request(b"QUIT\n")
        except (ConnectionError, ServiceClosedError):  # pragma: no cover
            pass
        self._writer.close()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- plumbing --------------------------------------------------------------

    async def _request(self, payload: bytes) -> str:
        self._writer.write(payload)
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServiceClosedError("server closed the connection")
        text = line.decode("ascii").rstrip("\n")
        if text.startswith("ERR"):
            raise ServiceError(text[4:] or "unspecified server error")
        return text

    @staticmethod
    def _ok_args(text: str) -> list[str]:
        parts = text.split()
        if not parts or parts[0] != "OK":
            raise ServiceError(f"unexpected response {text!r}")
        return parts[1:]

    # -- commands --------------------------------------------------------------

    async def ping(self) -> bool:
        return await self._request(b"PING\n") == "PONG"

    async def update(self, item: int, weight: float = 1.0) -> None:
        # repr() is the shortest round-trip form: '%g'-style formatting
        # would silently truncate weights to 6 significant digits.
        await self._request(f"UPDATE {int(item)} {weight!r}\n".encode("ascii"))

    async def send_batch(self, items, weights=None, *, binary: bool = True) -> int:
        """Ship one update batch; returns the server-acknowledged count.

        ``binary=True`` (default) uses the ``BIN`` frame — arrays travel
        verbatim; the text ``BATCH`` form exists for debugging by hand.
        Batches beyond the protocol's per-frame cap are chunked
        transparently; an empty batch is a no-op (matching
        ``IngestPipeline.submit``).
        """
        if binary:
            encode, chunk = protocol.encode_bin_frame, protocol.MAX_BIN_ITEMS
        else:
            # Text pairs are ~25 bytes each; keep BATCH lines far inside
            # the server's MAX_LINE_BYTES.
            encode, chunk = protocol.encode_batch_line, 10_000
        return await self._send_frames(encode, items, weights, chunk)

    async def _send_frames(self, encode, items, weights, chunk: int) -> int:
        """Send ``encode(items, weights)`` per frame of at most ``chunk``
        updates; returns the acknowledged total."""
        acknowledged = 0
        for frame in _frames(items, weights, chunk):
            reply = self._ok_args(await self._request(encode(*frame)))
            acknowledged += int(reply[0])
        return acknowledged

    async def estimate(self, item: int) -> float:
        reply = self._ok_args(await self._request(f"EST {int(item)}\n".encode()))
        return float(reply[0])

    async def bounds(self, item: int) -> tuple[float, float, float]:
        """``(lower_bound, estimate, upper_bound)`` for one item."""
        reply = self._ok_args(await self._request(f"BOUNDS {int(item)}\n".encode()))
        return float(reply[0]), float(reply[1]), float(reply[2])

    async def heavy_hitters(self, phi: float) -> list[tuple[int, float]]:
        """``(item, estimate)`` pairs, sorted by estimate descending."""
        reply = self._ok_args(await self._request(f"HH {phi:g}\n".encode()))
        return _hh_pairs(reply)

    async def stats(self) -> dict:
        text = await self._request(b"STATS\n")
        return json.loads(text[3:])

    async def snapshot(self) -> int:
        """Force a checkpoint; returns the checkpointed sequence number."""
        reply = self._ok_args(await self._request(b"SNAPSHOT\n"))
        return int(reply[0])

    # -- staleness-stamped queries (read replicas) -----------------------------

    async def qest(self, item: int) -> tuple[int, float]:
        """``(applied_seq, estimate)`` — the answer plus the exact
        between-batches sequence it was read at (the staleness stamp)."""
        reply = self._ok_args(await self._request(f"QEST {int(item)}\n".encode()))
        return int(reply[0]), float(reply[1])

    async def qbounds(self, item: int) -> tuple[int, float, float, float]:
        """``(applied_seq, lower, estimate, upper)`` for one item."""
        reply = self._ok_args(
            await self._request(f"QBOUNDS {int(item)}\n".encode())
        )
        return int(reply[0]), float(reply[1]), float(reply[2]), float(reply[3])

    async def qhh(self, phi: float) -> tuple[int, list[tuple[int, float]]]:
        """``(applied_seq, [(item, estimate), ...])``, estimate-sorted."""
        reply = self._ok_args(await self._request(f"QHH {phi:g}\n".encode()))
        return int(reply[0]), _hh_pairs(reply[1:])

    # -- replication admin -----------------------------------------------------

    async def repl_status(self) -> dict:
        """Role, applied sequence, and follower/leader replication state."""
        text = await self._request(b"REPL STATUS\n")
        return json.loads(text[3:])

    async def promote(self) -> int:
        """Promote the connected follower; returns its sequence at
        promotion.  Idempotent: on a node that already leads this is a
        no-op reporting its applied sequence."""
        reply = self._ok_args(await self._request(b"REPL PROMOTE\n"))
        return int(reply[0])

    async def repl_peers(self) -> dict:
        """The node's view of the replica set (``REPL PEERS``)."""
        text = await self._request(b"REPL PEERS\n")
        return protocol.parse_peers_reply(text[3:])


class ClusterClient(ServiceClient):
    """A :class:`ServiceClient` extended with the tenant verbs.

    Connects to a :class:`~repro.service.cluster.ClusterServer`; the
    inherited single-tenant methods keep working (the cluster routes
    them to its implicit ``default`` tenant).
    """

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
        parts: list[str] = ["TCREATE", name]
        tail = [k, backend, seed, shards]
        last = max(
            (i for i, value in enumerate(tail) if value is not None),
            default=-1,
        )
        for value in tail[: last + 1]:
            parts.append("-" if value is None else str(value))
        text = await self._request((" ".join(parts) + "\n").encode("ascii"))
        return json.loads(text[3:])

    async def tdrop(self, name: str) -> None:
        await self._request(f"TDROP {name}\n".encode("ascii"))

    async def tlist(self) -> list[dict]:
        text = await self._request(b"TLIST\n")
        return json.loads(text[3:])

    async def tsend_batch(self, name: str, items, weights=None) -> int:
        """Ship one batch to a named tenant as ``TBIN`` frames."""
        return await self._send_frames(
            functools.partial(protocol.encode_tbin_frame, name),
            items, weights, protocol.MAX_BIN_ITEMS,
        )

    async def tupdate(self, name: str, item: int, weight: float = 1.0) -> None:
        await self._request(
            f"TUPDATE {name} {int(item)} {weight!r}\n".encode("ascii")
        )

    async def testimate(self, name: str, item: int) -> float:
        reply = self._ok_args(
            await self._request(f"TEST {name} {int(item)}\n".encode("ascii"))
        )
        return float(reply[0])

    async def tbounds(self, name: str, item: int) -> tuple[float, float, float]:
        reply = self._ok_args(
            await self._request(f"TBOUNDS {name} {int(item)}\n".encode("ascii"))
        )
        return float(reply[0]), float(reply[1]), float(reply[2])

    async def thh(
        self, name: str, phi: float
    ) -> tuple[int, list[tuple[int, float]]]:
        """``(watermark, [(item, estimate), ...])`` — the tenant's
        merged heavy hitters (folds a sharded tenant's substreams)."""
        reply = self._ok_args(
            await self._request(f"THH {name} {phi:g}\n".encode("ascii"))
        )
        return int(reply[0]), _hh_pairs(reply[1:])

    async def drain(self) -> int:
        """Await every in-flight frame applied; returns the watermark sum."""
        reply = self._ok_args(await self._request(b"DRAIN\n"))
        return int(reply[0])


class ReconnectingServiceClient:
    """A :class:`ServiceClient` that survives connection loss *and*
    leadership changes.

    Wraps the plain client with bounded, jittered exponential-backoff
    reconnects.  Queries are idempotent and simply retried.  Update
    batches travel as ``BINS`` frames — ``BIN`` stamped with a
    per-client session id and a monotonically increasing frame sequence
    — so a frame whose ``OK`` was lost in a crash can be resubmitted
    safely: the server's idempotency registry answers ``OK 0`` for an
    already-applied frame instead of ingesting it twice.  The stamps are
    replicated inside fenced frames, so the guarantee holds **across
    failover**: a follower promoted mid-request recognizes the resend.

    Failover handling: the client learns the replica set from ``REPL
    PEERS`` (seeded by the ``peers`` argument and refreshed whenever it
    reconnects somewhere new).  A dead connection rotates through known
    replicas; a node answering "read replica" redirects the client to
    the leader that node knows.  No configuration beyond one reachable
    replica is required.

    Retries are bounded twice over: ``max_retries`` consecutive failed
    attempts re-raise the underlying error, and an optional wall-clock
    ``deadline`` (seconds per request, across all retries) raises
    :class:`~repro.errors.ServiceUnavailableError` when no live leader
    was found in time — the knob latency-sensitive callers set.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        peers: list[str] | None = None,
        max_retries: int = 6,
        backoff_initial: float = 0.05,
        backoff_max: float = 1.0,
        backoff_jitter: float = 0.25,
        deadline: float | None = None,
        session: str | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._max_retries = max_retries
        self._backoff_initial = backoff_initial
        self._backoff_max = backoff_max
        self._backoff_jitter = backoff_jitter
        self._deadline = deadline
        self._session = session if session is not None else os.urandom(8).hex()
        self._frame_seq = 0
        self._client: ServiceClient | None = None
        # Known replica addresses ("host:port"), current target first.
        self._peer_addrs: list[str] = [f"{host}:{port}"]
        for addr in peers or []:
            if addr not in self._peer_addrs:
                self._peer_addrs.append(addr)
        self.reconnects = 0
        self.resubmits = 0
        self.redirects = 0

    @property
    def session(self) -> str:
        """The idempotency session id stamped onto every BINS frame."""
        return self._session

    @property
    def leader_addr(self) -> str:
        """The address this client currently believes leads."""
        return f"{self._host}:{self._port}"

    @property
    def known_peers(self) -> list[str]:
        """Every replica address this client has learned."""
        return list(self._peer_addrs)

    async def _ensure(self) -> ServiceClient:
        if self._client is None or self._client._writer.is_closing():
            self._client = await ServiceClient.connect(self._host, self._port)
        return self._client

    async def _drop(self) -> None:
        if self._client is not None:
            self._client._writer.close()
            self._client = None

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

    async def _redirect_to_leader(self, exclude: str | None = None) -> bool:
        """Ask every known replica who leads; retarget on an answer.

        Returns True when a leader hint was found (even if it later
        turns out equally dead — the retry loop handles that).
        ``exclude`` names an address known *not* to lead (it just
        refused a write): never fall back to it.
        """
        standalone: str | None = None
        for addr in list(self._peer_addrs):
            host, _sep, port_text = addr.rpartition(":")
            probe: ServiceClient | None = None
            try:
                probe = await ServiceClient.connect(host, int(port_text))
                doc = await probe.repl_peers()
            except (ServiceError, ReplicationError):
                # The node answered but has no failover plane (or spoke
                # garbage): possibly a standalone leader.  Keep it as
                # the fallback, unless we know it refuses writes.
                if standalone is None and addr != exclude:
                    standalone = addr
                continue
            except (ConnectionError, ServiceClosedError, OSError, ValueError):
                continue
            finally:
                if probe is not None:
                    probe._writer.close()
            leader = self._learn_peers(doc)
            if leader is not None and leader != exclude:
                self._retarget(leader)
                self.redirects += 1
                return True
        if standalone is not None:
            self._retarget(standalone)
            return True
        return False

    async def _with_retry(self, payload: bytes, *, resubmittable: bool = False) -> str:
        """Send one request, reconnecting (bounded) on connection loss
        and following leadership changes.

        Safe only for idempotent payloads — queries, and BINS frames
        (their dedup stamp is what makes the resend idempotent).
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        backoff = self._backoff_initial
        failures = 0
        refusals = 0
        transmitted = False
        while True:
            try:
                client = await self._ensure()
                if transmitted and resubmittable:
                    self.resubmits += 1
                try:
                    transmitted = True
                    return await client._request(payload)
                except ServiceError as exc:
                    if "read replica" not in str(exc):
                        raise  # a real answer: no retry, nothing was lost
                    # We wrote to a follower: someone else leads now.
                    transmitted = False  # the frame was refused, not lost
                    refusals += 1
                    if refusals > self._max_retries or (
                        not await self._redirect_to_leader(
                            exclude=self.leader_addr
                        )
                    ):
                        raise
                    await self._drop()
                    continue
            except ServiceError:
                raise
            except (ConnectionError, ServiceClosedError, OSError) as exc:
                await self._drop()
                failures += 1
                give_up: Exception | None = None
                if failures > self._max_retries:
                    give_up = ServiceClosedError(
                        f"gave up after {failures - 1} reconnect attempts"
                    )
                delay = backoff * (
                    1.0 + self._backoff_jitter * random.random()
                )
                if self._deadline is not None and (
                    loop.time() + delay - started > self._deadline
                ):
                    give_up = ServiceUnavailableError(
                        f"no live leader within the {self._deadline:g}s "
                        f"deadline ({failures} attempts)"
                    )
                if give_up is not None:
                    raise give_up from exc
                self.reconnects += 1
                # The old leader may be gone for good: look for a new one
                # before burning another attempt on the same address.
                await self._redirect_to_leader()
                await asyncio.sleep(delay)
                backoff = min(backoff * 2.0, self._backoff_max)

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
            self._client = None

    async def __aenter__(self) -> "ReconnectingServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- commands --------------------------------------------------------------

    async def ping(self) -> bool:
        return (await self._with_retry(b"PING\n")) == "PONG"

    async def send_batch(self, items, weights=None) -> int:
        """Ship one update batch exactly once; returns the applied count.

        Chunked like :meth:`ServiceClient.send_batch`; each chunk is an
        idempotent BINS frame, resubmitted after a reconnect only when
        its acknowledgement never arrived.
        """
        acknowledged = 0
        for part_items, part_weights in _frames(
            items, weights, protocol.MAX_BIN_ITEMS
        ):
            self._frame_seq += 1
            payload = protocol.encode_bins_frame(
                part_items, part_weights, self._session, self._frame_seq
            )
            reply = await self._with_retry(payload, resubmittable=True)
            acknowledged += int(ServiceClient._ok_args(reply)[0])
        return acknowledged

    async def estimate(self, item: int) -> float:
        reply = await self._with_retry(f"EST {int(item)}\n".encode())
        return float(ServiceClient._ok_args(reply)[0])

    async def qest(self, item: int) -> tuple[int, float]:
        reply = await self._with_retry(f"QEST {int(item)}\n".encode())
        seq, estimate = ServiceClient._ok_args(reply)
        return int(seq), float(estimate)

    async def stats(self) -> dict:
        return json.loads((await self._with_retry(b"STATS\n"))[3:])

    async def repl_status(self) -> dict:
        return json.loads((await self._with_retry(b"REPL STATUS\n"))[3:])

    async def repl_peers(self) -> dict:
        """The replica set as the current target knows it (also folds
        the addresses into this client's own address book)."""
        text = await self._with_retry(b"REPL PEERS\n")
        doc = protocol.parse_peers_reply(text[3:])
        self._learn_peers(doc)
        return doc

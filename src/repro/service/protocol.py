"""The line protocol the streaming service speaks over TCP.

Requests are single ASCII lines terminated by ``\\n``; responses are one
line starting with ``OK``, ``ERR``, ``PONG``, or ``BYE``.  Item ids are
decimal 64-bit unsigned integers, weights finite positive decimal
floats.  Both servers answer through one front end,
:mod:`repro.service.frontend`, which lists the twelve verbs they share.

=========================  =============================================
request                    response
=========================  =============================================
``PING``                   ``PONG``
``UPDATE <item> [w]``      ``OK`` (weight defaults to 1)
``BATCH <i>:<w> ...``      ``OK <n>`` — n pairs ingested as one batch
``BIN <n>``                ``OK <n>`` — the line is followed by exactly
                           ``16 * n`` bytes of payload: n little-endian
                           uint64 items, then n little-endian float64
                           weights (the high-throughput path)
``BINS <n> <sid> <fseq>``  ``OK <n>`` (or ``OK 0`` for a replayed
                           duplicate) — a ``BIN`` frame stamped with a
                           client session id and per-session frame
                           sequence, so a reconnecting client can
                           resubmit an unacknowledged frame without
                           risking double ingestion
``EST <item>``             ``OK <estimate>``
``BOUNDS <item>``          ``OK <lower> <estimate> <upper>``
``HH <phi>``               ``OK <n> <item>:<estimate> ...``
``QEST <item>``            ``OK <seq> <estimate>`` — the estimate plus
                           the applied sequence it was read at (the
                           staleness stamp; see ``docs/service.md``)
``QBOUNDS <item>``         ``OK <seq> <lower> <estimate> <upper>``
``QHH <phi>``              ``OK <seq> <n> <item>:<estimate> ...``
``STATS``                  ``OK <json>`` — pipeline + sketch counters
``SNAPSHOT``               ``OK <seq>`` — force a checkpoint now
``REPL STATUS``            ``OK <json>`` — role, seq, epoch, follower
                           lags
``REPL PROMOTE``           ``OK <seq>`` — detach from the leader and
                           start accepting writes; a no-op (still
                           ``OK``) when the node already leads
``REPL HELLO <seq> [e]``   ``OK <leader_seq> <epoch>`` — subscribe this
                           connection as a follower at epoch ``e``
                           (default 0); see below
``REPL PEERS``             ``OK <json>`` — the replica set: epoch,
                           leader id/address, this node's id and role
``REPL ELECT <e> <s>       ``OK GRANT <e>`` or ``OK DENY <e> <ldr|->``
``  <cand>``               — request this node's vote for candidate
                           ``cand`` at epoch ``e`` with last applied
                           sequence ``s`` (see ``docs/service.md``)
``REPL LEADER <e> <id>     ``OK <e>`` — leadership announcement; a
``  <host:port>``          stale epoch gets ``ERR`` carrying the
                           current one, fencing the announcer
``QUIT``                   ``BYE``, then the connection closes
=========================  =============================================

**Tenant verbs (cluster mode).**  A server started with ``--workers N``
serves many named tenant streams, each its own sketch, routed across
worker processes by a seeded hash partition.  Tenant names match
:data:`TENANT_NAME_PATTERN`.  Of the shared verbs above, the
single-tenant ones (``UPDATE`` .. ``HH``) operate on an implicitly
created ``default`` tenant; ``STATS`` reports the pool, ``SNAPSHOT``
checkpoints every tenant and answers the sum of their sequences, and
``QEST``/``QHH`` read across tenants:

==============================  ========================================
request                         response
==============================  ========================================
``TCREATE <name> [k]``          ``OK <json spec>`` — register a tenant
``  [backend] [seed] [shards]``  (idempotent when the spec is identical;
                                a ``-`` parameter means "server default")
``TDROP <name>``                ``OK`` — drop the tenant and its state
``TLIST``                       ``OK <json list of specs>``
``TBIN <name> <n>``             ``OK <n>`` — a ``BIN`` frame addressed
                                to one tenant (16 × n payload bytes
                                follow the line, same layout as ``BIN``)
``TUPDATE <name> <item> [w]``   ``OK``
``TEST <name> <item>``          ``OK <estimate>``
``TBOUNDS <name> <item>``       ``OK <lower> <estimate> <upper>``
``THH <name> <phi>``            ``OK <seq> <n> <item>:<estimate> ...``
                                — the tenant's merged view (a sharded
                                tenant folds its substreams)
``QEST <item>``                 ``OK <seq> <estimate>`` — merged over
                                **all** tenants; ``<seq>`` is the sum of
                                per-substream applied watermarks
``QHH <phi>``                   ``OK <seq> <n> <item>:<estimate> ...``
``DRAIN``                       ``OK <seq>`` — await every in-flight
                                frame applied; returns the watermark sum
==============================  ========================================

Malformed requests get ``ERR <reason>`` and the connection stays open,
except a ``BIN``/``BINS``/``TBIN`` line with the wrong arity or a count
outside ``[1, MAX_BIN_ITEMS]``: its payload may be in flight, so the
reply ends in ``; closing`` and the connection closes.  Update batches
are validated atomically (a rejected batch ingests nothing).  The
binary framing exists because parsing decimal text caps throughput far
below the sketch engine — ``BIN`` moves arrays verbatim.

**The replication stream.**  After ``REPL HELLO <last_applied_seq>`` is
acknowledged, the connection leaves the request/response protocol: the
leader pushes tagged binary frames and the follower sends back
``ACK <seq>\\n`` text lines on the same socket.  Each frame is one tag
byte followed by a tag-specific body:

- ``b"F"`` — one fenced micro-batch: ``uint64 epoch``, then ``uint16``
  stamp count followed by that many ``(uint8 len, len ascii bytes,
  uint64 frame_seq)`` client idempotency stamps, then one record in
  exactly the RWAL on-disk format (``uint64 seq, uint32 count, uint32
  crc`` then the item and weight arrays; see ``docs/serialization.md``),
  so appending the record verbatim to a follower WAL segment is valid
  by construction.  The epoch fences stale leaders (a follower
  rejects any frame whose epoch is below its own) and the stamps
  replicate the ``BINS`` dedup registry so client resubmits stay
  exactly-once across a failover.
- ``b"S"`` — a ``uint64`` length followed by a complete RSNP snapshot
  blob.  Sent when the follower's next sequence has fallen out of the
  leader's replay window (seq-gap triggered bootstrap/catch-up).
- ``b"H"`` — a ``uint64`` leader applied sequence: a heartbeat, letting
  an idle follower measure its staleness.

A frame that fails its CRC, carries an unknown tag, or exceeds the size
caps raises :class:`~repro.errors.ReplicationError`; the follower's only
safe move is to drop the connection and re-subscribe from its last
applied sequence — frames at or below it are skipped on replay, so
duplicated delivery is harmless and nothing can be applied twice.
"""

from __future__ import annotations

import asyncio
import re
import struct

import numpy as np

from repro.errors import ReplicationError
from repro.service.snapshot import (
    WAL_RECORD_HEADER_SIZE,
    decode_wal_payload,
    parse_wal_record_header,
)

#: Hard cap on one BIN frame (1M updates = 16 MiB); oversized length
#: prefixes are rejected before any allocation happens.
MAX_BIN_ITEMS = 1_000_000

#: Hard cap on one request line (BATCH lines grow with their payload).
MAX_LINE_BYTES = 1 << 20

#: What a tenant name may look like: filesystem-safe (it names the
#: tenant's WAL/snapshot directory), protocol-safe (no whitespace), and
#: short.  ``#`` is reserved — the cluster uses it for shard substreams.
TENANT_NAME_PATTERN = r"^[A-Za-z0-9_.-]{1,64}$"

_TENANT_NAME_RE = re.compile(TENANT_NAME_PATTERN)


def valid_tenant_name(name: str) -> bool:
    """True when ``name`` is acceptable as a tenant stream name."""
    return bool(_TENANT_NAME_RE.match(name))

#: Replication frame tags (one byte on the wire).
REPL_FRAME_SNAPSHOT = b"S"
REPL_FRAME_HEARTBEAT = b"H"
REPL_FRAME_FENCED = b"F"

#: Hard cap on one shipped snapshot blob (256 MiB); a flipped length
#: prefix must never turn into an allocation bomb.
MAX_SNAPSHOT_BYTES = 1 << 28

#: Hard cap on idempotency stamps carried by one fenced frame.  A
#: micro-batch coalesces at most a few in-flight client frames; a count
#: beyond this is a corrupt prefix, not a big batch.
MAX_FRAME_STAMPS = 256

#: Session ids are client-chosen tokens; same shape as tenant names.
MAX_SESSION_ID_BYTES = 64

_SNAP_LEN = struct.Struct("<Q")
_HEARTBEAT = struct.Struct("<Q")
_EPOCH = struct.Struct("<Q")
_STAMP_COUNT = struct.Struct("<H")
_STAMP_SEQ = struct.Struct("<Q")

#: Replica/candidate ids share the tenant-name alphabet: protocol-safe
#: (single token on a line) and filesystem-safe (they name data dirs).
_REPLICA_ID_RE = re.compile(TENANT_NAME_PATTERN)
_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

_UINT64_MAX = (1 << 64) - 1


def valid_replica_id(replica_id: str) -> bool:
    """True when ``replica_id`` may appear in election protocol lines."""
    return bool(_REPLICA_ID_RE.match(replica_id))


def valid_session_id(session: str) -> bool:
    """True when ``session`` may ride inside a fenced replication frame."""
    return bool(_SESSION_ID_RE.match(session))


def encode_repl_snapshot_frame(blob: bytes) -> bytes:
    """An ``S`` frame: tag byte + uint64 length + RSNP snapshot blob."""
    return REPL_FRAME_SNAPSHOT + _SNAP_LEN.pack(len(blob)) + blob


def encode_repl_heartbeat(seq: int) -> bytes:
    """An ``H`` frame: tag byte + uint64 leader applied sequence."""
    return REPL_FRAME_HEARTBEAT + _HEARTBEAT.pack(seq)


def encode_repl_fenced_frame(epoch: int, stamps, record: bytes) -> bytes:
    """An ``F`` frame: epoch + client idempotency stamps + RWAL record.

    ``stamps`` is a sequence of ``(session_id, frame_seq)`` pairs taken
    from the ``BINS`` frames coalesced into this micro-batch; followers
    replay them into their resume-session registry so a client resubmit
    after failover is recognized as a duplicate.  ``record`` is one
    :func:`~repro.service.snapshot.encode_wal_record` result, shipped
    byte for byte — the same bytes the leader appended to its WAL.
    """
    if len(stamps) > MAX_FRAME_STAMPS:
        raise ValueError(
            f"{len(stamps)} stamps on one frame (cap {MAX_FRAME_STAMPS})"
        )
    parts = [REPL_FRAME_FENCED, _EPOCH.pack(epoch),
             _STAMP_COUNT.pack(len(stamps))]
    for session, frame_seq in stamps:
        raw = session.encode("ascii")
        if not raw or len(raw) > MAX_SESSION_ID_BYTES:
            raise ValueError(f"session id {session!r} outside 1..64 bytes")
        parts.append(bytes((len(raw),)))
        parts.append(raw)
        parts.append(_STAMP_SEQ.pack(frame_seq))
    parts.append(record)
    return b"".join(parts)


async def _read_wal_record(reader: asyncio.StreamReader):
    """Read and check the RWAL record ending an ``F`` frame; returns
    ``(seq, items, weights)``."""
    head = await reader.readexactly(WAL_RECORD_HEADER_SIZE)
    seq, count, stored_crc = parse_wal_record_header(head)
    if count > MAX_BIN_ITEMS:
        raise ReplicationError(
            f"fenced frame {seq} claims {count} updates "
            f"(cap {MAX_BIN_ITEMS}); corrupt length prefix"
        )
    payload = await reader.readexactly(16 * count)
    try:
        return (seq, *decode_wal_payload(seq, count, stored_crc, payload))
    except ValueError as exc:  # SerializationError included
        raise ReplicationError(str(exc)) from exc


async def read_repl_frame(reader: asyncio.StreamReader):
    """Read one replication frame from ``reader``.

    Returns ``("fenced", epoch, stamps, seq, items, weights)``,
    ``("snapshot", blob)``, ``("heartbeat", seq)``, or ``None`` on a
    clean EOF at a frame boundary.  Anything else — an unknown tag, a truncated frame, a
    length prefix beyond the caps, a failed record CRC — raises
    :class:`~repro.errors.ReplicationError`: a replication stream can
    never be resynchronized mid-frame, so the caller must close and
    re-subscribe from its last applied sequence.
    """
    tag = await reader.read(1)
    if not tag:
        return None
    try:
        if tag == REPL_FRAME_FENCED:
            (epoch,) = _EPOCH.unpack(await reader.readexactly(_EPOCH.size))
            (nstamps,) = _STAMP_COUNT.unpack(
                await reader.readexactly(_STAMP_COUNT.size)
            )
            if nstamps > MAX_FRAME_STAMPS:
                raise ReplicationError(
                    f"fenced frame claims {nstamps} stamps "
                    f"(cap {MAX_FRAME_STAMPS}); corrupt stamp count"
                )
            stamps = []
            for _ in range(nstamps):
                (slen,) = await reader.readexactly(1)
                if not 1 <= slen <= MAX_SESSION_ID_BYTES:
                    raise ReplicationError(
                        f"fenced frame stamp length {slen} outside "
                        f"1..{MAX_SESSION_ID_BYTES}"
                    )
                raw = await reader.readexactly(slen)
                try:
                    session = raw.decode("ascii")
                except UnicodeDecodeError as exc:
                    raise ReplicationError(
                        "fenced frame stamp session id is not ASCII"
                    ) from exc
                if not _SESSION_ID_RE.match(session):
                    raise ReplicationError(
                        f"fenced frame stamp session id {session!r} "
                        "outside the session alphabet"
                    )
                (frame_seq,) = _STAMP_SEQ.unpack(
                    await reader.readexactly(_STAMP_SEQ.size)
                )
                stamps.append((session, frame_seq))
            record = await _read_wal_record(reader)
            return ("fenced", epoch, tuple(stamps), *record)
        if tag == REPL_FRAME_SNAPSHOT:
            (length,) = _SNAP_LEN.unpack(
                await reader.readexactly(_SNAP_LEN.size)
            )
            if length > MAX_SNAPSHOT_BYTES:
                raise ReplicationError(
                    f"shipped snapshot claims {length} bytes "
                    f"(cap {MAX_SNAPSHOT_BYTES}); corrupt length prefix"
                )
            return "snapshot", await reader.readexactly(length)
        if tag == REPL_FRAME_HEARTBEAT:
            (seq,) = _HEARTBEAT.unpack(
                await reader.readexactly(_HEARTBEAT.size)
            )
            return "heartbeat", seq
    except asyncio.IncompleteReadError as exc:
        raise ReplicationError(
            f"replication stream truncated mid-frame (tag {tag!r})"
        ) from exc
    raise ReplicationError(f"unknown replication frame tag {tag!r}")


def _binary_frame(line: str, items: np.ndarray, weights: np.ndarray) -> bytes:
    """A command line followed by the ``BIN`` payload layout: the items
    as little-endian uint64, then the weights as little-endian float64."""
    return (
        line.encode("ascii")
        + np.ascontiguousarray(items, dtype="<u8").tobytes()
        + np.ascontiguousarray(weights, dtype="<f8").tobytes()
    )


def encode_bin_frame(items: np.ndarray, weights: np.ndarray) -> bytes:
    """The ``BIN`` command line plus its binary payload, ready to send."""
    return _binary_frame(f"BIN {len(items)}\n", items, weights)


def encode_tbin_frame(
    tenant: str, items: np.ndarray, weights: np.ndarray
) -> bytes:
    """The ``TBIN`` command line plus payload: a ``BIN`` frame addressed
    to one named tenant stream (cluster mode's high-throughput path)."""
    return _binary_frame(f"TBIN {tenant} {len(items)}\n", items, weights)


def decode_bin_payload(payload: bytes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a ``BIN`` payload back into writable (items, weights) arrays."""
    items = np.frombuffer(payload, dtype="<u8", count=count).astype(np.uint64)
    weights = np.frombuffer(
        payload, dtype="<f8", count=count, offset=8 * count
    ).astype(np.float64)
    return items, weights


def encode_bins_frame(
    items: np.ndarray, weights: np.ndarray, session: str, frame_seq: int
) -> bytes:
    """A ``BINS`` command line plus payload: a ``BIN`` frame stamped with
    a client session id and frame sequence so resends are idempotent."""
    return _binary_frame(
        f"BINS {len(items)} {session} {frame_seq}\n", items, weights
    )


def encode_batch_line(items, weights) -> bytes:
    """The text ``BATCH`` form (debuggable, slow) of one update batch."""
    pairs = " ".join(
        # repr() round-trips exactly; '%g' would truncate to 6 digits.
        f"{int(item)}:{float(weight)!r}" for item, weight in zip(items, weights)
    )
    return f"BATCH {pairs}\n".encode("ascii")


def parse_batch_args(args: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``<item>:<weight>`` tokens into (items, weights) arrays."""
    items = np.empty(len(args), dtype=np.uint64)
    weights = np.empty(len(args), dtype=np.float64)
    for index, token in enumerate(args):
        item_text, _sep, weight_text = token.partition(":")
        value = int(item_text)
        if not 0 <= value < 1 << 64:
            raise ValueError(f"item id {value} outside the uint64 range")
        items[index] = value
        weights[index] = float(weight_text) if weight_text else 1.0
    return items, weights


# --------------------------------------------------------------------------
# Election protocol lines.  These parsers face the network (any peer can
# send any bytes), so like the binary frame reader they refuse everything
# malformed with ReplicationError — never ValueError, never an exception
# that could escape a dispatch loop with a stack trace.


def _parse_uint64(text: str, what: str) -> int:
    if not text.isdigit():
        raise ReplicationError(f"{what} {text!r} is not a decimal integer")
    value = int(text)
    if value > _UINT64_MAX:
        raise ReplicationError(f"{what} {value} outside the uint64 range")
    return value


def encode_elect_line(epoch: int, last_seq: int, candidate_id: str) -> bytes:
    """The ``REPL ELECT`` request a candidate sends to each peer."""
    if not valid_replica_id(candidate_id):
        raise ValueError(f"invalid candidate id {candidate_id!r}")
    return f"REPL ELECT {epoch} {last_seq} {candidate_id}\n".encode("ascii")


def parse_elect_args(args: list[str]) -> tuple[int, int, str]:
    """Parse the tokens after ``REPL ELECT`` into (epoch, last_seq, id)."""
    if len(args) != 3:
        raise ReplicationError(
            f"ELECT takes <epoch> <last_seq> <candidate>; got {len(args)} args"
        )
    epoch = _parse_uint64(args[0], "election epoch")
    last_seq = _parse_uint64(args[1], "candidate applied seq")
    candidate = args[2]
    if not valid_replica_id(candidate):
        raise ReplicationError(f"invalid candidate id {candidate!r}")
    return epoch, last_seq, candidate


def encode_vote_reply(granted: bool, epoch: int, leader: str | None) -> str:
    """The response line body to a ``REPL ELECT`` request (after ``OK``).

    ``OK GRANT <epoch>`` grants the vote; ``OK DENY <epoch> <leader|->``
    refuses it while teaching the candidate the voter's current epoch
    and (when known) leader id, so a stale candidate can adopt instead
    of retrying forever.
    """
    if granted:
        return f"GRANT {epoch}"
    return f"DENY {epoch} {leader if leader else '-'}"


def parse_vote_reply(args: list[str]) -> tuple[bool, int, str | None]:
    """Parse a vote reply's ``OK`` arguments into (granted, epoch, leader)."""
    if len(args) == 2 and args[0] == "GRANT":
        return True, _parse_uint64(args[1], "vote epoch"), None
    if len(args) == 3 and args[0] == "DENY":
        epoch = _parse_uint64(args[1], "vote epoch")
        leader = None if args[2] == "-" else args[2]
        if leader is not None and not valid_replica_id(leader):
            raise ReplicationError(f"invalid leader id {leader!r}")
        return False, epoch, leader
    raise ReplicationError(f"malformed vote reply {' '.join(args)!r}")


def encode_leader_line(epoch: int, leader_id: str, addr: str) -> bytes:
    """The ``REPL LEADER`` announcement a fresh leader sends to peers."""
    if not valid_replica_id(leader_id):
        raise ValueError(f"invalid leader id {leader_id!r}")
    return f"REPL LEADER {epoch} {leader_id} {addr}\n".encode("ascii")


def parse_leader_args(args: list[str]) -> tuple[int, str, str]:
    """Parse the tokens after ``REPL LEADER`` into (epoch, id, addr)."""
    if len(args) != 3:
        raise ReplicationError(
            f"LEADER takes <epoch> <id> <host:port>; got {len(args)} args"
        )
    epoch = _parse_uint64(args[0], "leader epoch")
    leader_id = args[1]
    if not valid_replica_id(leader_id):
        raise ReplicationError(f"invalid leader id {leader_id!r}")
    addr = args[2]
    host, sep, port_text = addr.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        raise ReplicationError(f"invalid leader address {addr!r}")
    if not 0 < int(port_text) < 65536:
        raise ReplicationError(f"leader port {port_text} outside 1..65535")
    return epoch, leader_id, addr


def parse_peers_reply(payload: str) -> dict:
    """Parse the JSON body of a ``REPL PEERS`` reply, defensively.

    The reply crosses the network, so a malformed body raises
    :class:`~repro.errors.ReplicationError` rather than whatever
    ``json`` or a key lookup would throw.
    """
    import json

    try:
        doc = json.loads(payload)
    except (ValueError, TypeError) as exc:
        raise ReplicationError(f"malformed PEERS reply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReplicationError("PEERS reply is not a JSON object")
    epoch = doc.get("epoch", 0)
    if not isinstance(epoch, int) or not 0 <= epoch <= _UINT64_MAX:
        raise ReplicationError(f"PEERS reply epoch {epoch!r} is invalid")
    peers = doc.get("peers", {})
    if not isinstance(peers, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in peers.items()
    ):
        raise ReplicationError("PEERS reply peer map is invalid")
    leader = doc.get("leader_id")
    if leader is not None and not isinstance(leader, str):
        raise ReplicationError(f"PEERS reply leader id {leader!r} is invalid")
    return doc

"""The one TCP front end behind every server of the streaming service.

A :class:`LineServer` owns the socket lifecycle, the per-connection read
loop, request decoding, the mapping of failures to ``ERR`` replies, the
``BIN`` payload reader and the reply encoders.  A request's first word
is looked up in the class's :attr:`LineServer.verbs` table.  The twelve
verbs every server speaks (``PING``, ``QUIT``, ``UPDATE``, ``BATCH``,
``BIN``, ``EST``, ``BOUNDS``, ``HH``, ``QEST``, ``QHH``, ``STATS``,
``SNAPSHOT``) are written once, here, against the async accessors
(``_submit``, ``_estimate``, ...) each server supplies; a
subclass extends the table with the verbs only it speaks.  A malformed
request therefore gets the same ``ERR`` bytes, and the same close
behaviour, from every server.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable, ClassVar, Optional

import numpy as np

from repro.errors import ReproError
from repro.service import protocol

#: Failures a request may raise that answer ``ERR <reason>`` and leave
#: the connection open.  Anything else is a bug and propagates.
REQUEST_ERRORS = (ReproError, ValueError, OverflowError)

#: ``(response bytes, close the connection after writing them?)``.
Reply = tuple[bytes, bool]


class CloseConnection(Exception):
    """Answer ``ERR <message>``, then close the connection.

    Raised when a binary payload of untrusted length may already be in
    flight: the server cannot tell where the next request begins, so a
    clean close beats parsing payload bytes as commands.
    """


def ok_reply(*fields: object) -> bytes:
    """``OK`` and its fields: floats at full precision, the rest as text."""
    parts = ["OK"]
    for value in fields:
        parts.append(f"{value:.17g}" if isinstance(value, float) else str(value))
    return (" ".join(parts) + "\n").encode("ascii")


def json_reply(payload: object) -> bytes:
    """``OK <json>``."""
    return f"OK {json.dumps(payload)}\n".encode("ascii")


def hh_reply(rows, seq: Optional[int] = None) -> bytes:
    """``OK [<seq>] <n> <item>:<estimate> ...`` for heavy-hitter rows."""
    head = [] if seq is None else [seq]
    return ok_reply(*head, len(rows), *(f"{row[0]}:{row[1]:.17g}" for row in rows))


def one_update(item_text: str, weight_text: str = "1"):
    """``<item> [weight]`` as a one-update ``(items, weights)`` batch."""
    weight = float(weight_text)
    return np.array([int(item_text)], dtype=np.uint64), np.array([weight])


def usage(text: str) -> Reply:
    """The ``ERR usage: ...`` reply to a request with the wrong arity."""
    return f"ERR usage: {text}\n".encode("ascii"), False


def bin_count(verb: str, text: str) -> int:
    """The payload item count of a ``BIN``-style frame header.

    Raises :class:`CloseConnection` unless ``text`` is an integer in
    ``[1, MAX_BIN_ITEMS]``: the payload length is untrusted, so it can
    be neither read nor skipped.
    """
    try:
        count = int(text)
    except ValueError:
        count = 0
    if not 0 < count <= protocol.MAX_BIN_ITEMS:
        raise CloseConnection(
            f"{verb} count must be in [1, {protocol.MAX_BIN_ITEMS}]; closing"
        )
    return count


async def read_bin(
    reader: asyncio.StreamReader, verb: str, count_text: str
) -> tuple[np.ndarray, np.ndarray]:
    """Check the count, read the ``16 * count`` payload bytes and decode
    them into ``(items, weights)``.  Once this returns the stream is in
    sync again, so a later failure may leave the connection open."""
    count = bin_count(verb, count_text)
    payload = await reader.readexactly(16 * count)
    return protocol.decode_bin_payload(payload, count)


class LineServer:
    """Serve the line protocol of :mod:`repro.service.protocol` over TCP.

    Subclasses supply the accessors the shared verbs call and extend
    :attr:`verbs` with their own.  Bind with :meth:`start` (or ``async
    with``); port 0 picks a free port, read it from :attr:`port`.
    """

    #: Upper-case verb -> ``handler(server, args, reader, writer)``.  Each
    #: subclass extends its parent's table.
    verbs: ClassVar[dict[str, Callable[..., Awaitable[Reply]]]]

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._requested_port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[asyncio.StreamWriter] = set()

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self):
        """Bind and begin accepting connections; returns self."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle, self._host, self._requested_port,
                limit=protocol.MAX_LINE_BYTES,
            )
        return self

    async def stop(self) -> None:
        """Stop accepting and close active connections.

        Open connections are closed explicitly: ``Server.close()`` only
        stops *accepting*, and on Python >= 3.12 ``wait_closed()`` waits
        for every connection handler — an idle client blocked in
        ``readline`` would hang shutdown forever otherwise.
        """
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(b"ERR request line too long\n")
                    break
                if not line:
                    break
                reply, close = await self._dispatch(line, reader, writer)
                writer.write(reply)
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:
            # Event-loop teardown cancelled this handler mid-request; the
            # connection is going away regardless.  Swallowing (rather
            # than propagating) sidesteps asyncio.streams' noisy
            # exception() callback on cancelled connection tasks.
            pass
        finally:
            self._connections.discard(writer)
            try:
                await writer.drain()
            except (
                ConnectionResetError, BrokenPipeError, asyncio.CancelledError
            ):  # pragma: no cover
                pass
            writer.close()

    async def _dispatch(
        self,
        line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Reply:
        """One request line in, ``(response, close connection?)`` out.

        Most errors leave the connection open; :class:`CloseConnection`
        closes it after the ``ERR``.
        """
        try:
            words = line.decode("ascii").split()
        except UnicodeDecodeError:
            return b"ERR request is not ASCII\n", False
        if not words:
            return b"ERR empty request\n", False
        verb = words[0].upper()
        handler = self.verbs.get(verb)
        if handler is None:
            return f"ERR unknown command {verb}\n".encode("ascii"), False
        try:
            return await handler(self, words[1:], reader, writer)
        except CloseConnection as exc:
            return f"ERR {exc}\n".encode("ascii", "replace"), True
        except asyncio.IncompleteReadError:
            raise ConnectionResetError("client vanished mid BIN frame")
        except REQUEST_ERRORS as exc:
            return f"ERR {exc}\n".encode("ascii", "replace"), False

    # -- accessors each server supplies ----------------------------------------
    # _submit returns the number of updates taken; the stamped queries
    # return (seq, answer), seq being the watermark the answer was read
    # at; _snapshot returns the checkpointed sequence.

    async def _submit(self, items: np.ndarray, weights: np.ndarray) -> int:
        raise NotImplementedError

    async def _estimate(self, item: int) -> float:
        raise NotImplementedError

    async def _bounds(self, item: int) -> tuple[float, float, float]:
        raise NotImplementedError

    async def _heavy_hitters(self, phi: float) -> list:
        raise NotImplementedError

    async def _stamped_estimate(self, item: int) -> tuple[int, float]:
        raise NotImplementedError

    async def _stamped_heavy_hitters(self, phi: float) -> tuple[int, list]:
        raise NotImplementedError

    async def _snapshot(self) -> int:
        raise NotImplementedError

    async def _stats(self) -> dict:
        raise NotImplementedError

    # -- the shared verbs ------------------------------------------------------

    async def _verb_ping(self, args, reader, writer) -> Reply:
        return b"PONG\n", False

    async def _verb_quit(self, args, reader, writer) -> Reply:
        return b"BYE\n", True

    async def _verb_update(self, args, reader, writer) -> Reply:
        if len(args) not in (1, 2):
            return usage("UPDATE <item> [weight]")
        await self._submit(*one_update(*args))
        return b"OK\n", False

    async def _verb_batch(self, args, reader, writer) -> Reply:
        if not args:
            return usage("BATCH <item>:<weight> ...")
        items, weights = protocol.parse_batch_args(args)
        return ok_reply(await self._submit(items, weights)), False

    async def _verb_bin(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            raise CloseConnection("usage: BIN <count>; closing")
        items, weights = await read_bin(reader, "BIN", args[0])
        return ok_reply(await self._submit(items, weights)), False

    async def _verb_est(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            return usage("EST <item>")
        return ok_reply(await self._estimate(int(args[0]))), False

    async def _verb_bounds(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            return usage("BOUNDS <item>")
        return ok_reply(*await self._bounds(int(args[0]))), False

    async def _verb_hh(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            return usage("HH <phi>")
        return hh_reply(await self._heavy_hitters(float(args[0]))), False

    async def _verb_qest(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            return usage("QEST <item>")
        return ok_reply(*await self._stamped_estimate(int(args[0]))), False

    async def _verb_qhh(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            return usage("QHH <phi>")
        seq, rows = await self._stamped_heavy_hitters(float(args[0]))
        return hh_reply(rows, seq), False

    async def _verb_stats(self, args, reader, writer) -> Reply:
        return json_reply(await self._stats()), False

    async def _verb_snapshot(self, args, reader, writer) -> Reply:
        return ok_reply(await self._snapshot()), False

    verbs = {
        "PING": _verb_ping,
        "QUIT": _verb_quit,
        "UPDATE": _verb_update,
        "BATCH": _verb_batch,
        "BIN": _verb_bin,
        "EST": _verb_est,
        "BOUNDS": _verb_bounds,
        "HH": _verb_hh,
        "QEST": _verb_qest,
        "QHH": _verb_qhh,
        "STATS": _verb_stats,
        "SNAPSHOT": _verb_snapshot,
    }

"""One request table, both front ends.

``StreamServer`` and ``ClusterServer`` share one connection loop and one
implementation of the twelve common verbs.  Every request below is sent
on a fresh connection to a fresh server of each kind, and must get the
same reply bytes and the same close behaviour from both.  The cluster
half forks a worker, so it carries the ``cluster`` marker.
"""

import asyncio
import math
import re

import numpy as np
import pytest

from repro import FrequentItemsSketch, IngestPipeline, PipelineConfig
from repro.service import protocol
from repro.service.cluster import ClusterConfig, ClusterServer, WorkerPool
from repro.service.server import StreamServer

pytestmark = pytest.mark.service

MAX = protocol.MAX_BIN_ITEMS


def _bin(items, weights):
    return protocol.encode_bin_frame(
        np.array(items, dtype=np.uint64), np.array(weights, dtype=np.float64)
    )


def _closing(text):
    return f"ERR {text}; closing\n".encode("ascii"), True


def _err(text):
    return f"ERR {text}\n".encode("ascii"), False


#: id -> (request bytes, exact reply, connection closes after it?)
MALFORMED = {
    "not-ascii": (b"PING \xff\n", *_err("request is not ASCII")),
    "empty": (b"\n", *_err("empty request")),
    "blank": (b" \t \r\n", *_err("empty request")),
    # One byte past the cap and no newline: the server has read the
    # whole request when it gives up, so its close is a clean FIN.
    "overlong": (
        b"P" * (protocol.MAX_LINE_BYTES + 1),
        b"ERR request line too long\n",
        True,
    ),
    "unknown": (b"NONSENSE 1\n", *_err("unknown command NONSENSE")),
    "unknown-lowercase": (b"frob\n", *_err("unknown command FROB")),
    "update-no-args": (b"UPDATE\n", *_err("usage: UPDATE <item> [weight]")),
    "update-3-args": (b"UPDATE 1 2 3\n", *_err("usage: UPDATE <item> [weight]")),
    "update-bad-item": (
        b"UPDATE x\n", *_err("invalid literal for int() with base 10: 'x'")
    ),
    "update-bad-weight": (
        b"UPDATE 1 w\n", *_err("could not convert string to float: 'w'")
    ),
    "update-negative": (
        b"UPDATE 5 -1\n",
        *_err("update weights must be positive, got -1.0 for item 5"),
    ),
    "update-nan": (
        b"UPDATE 5 nan\n", *_err("update weights must be finite, got nan for item 5")
    ),
    "update-inf": (
        b"UPDATE 5 inf\n", *_err("update weights must be finite, got inf for item 5")
    ),
    "update-minus-inf": (
        b"UPDATE 5 -inf\n",
        *_err("update weights must be positive, got -inf for item 5"),
    ),
    "batch-no-args": (b"BATCH\n", *_err("usage: BATCH <item>:<weight> ...")),
    "batch-nan": (
        b"BATCH 1:2 2:nan\n",
        *_err("update weights must be finite, got nan for item 2"),
    ),
    "batch-inf": (
        b"BATCH 1:inf\n", *_err("update weights must be finite, got inf for item 1")
    ),
    "batch-item-range": (
        b"BATCH 18446744073709551616:1\n",
        *_err("item id 18446744073709551616 outside the uint64 range"),
    ),
    "bin-no-args": (b"BIN\n", *_closing("usage: BIN <count>")),
    "bin-2-args": (b"BIN 1 2\n", *_closing("usage: BIN <count>")),
    "bin-count-0": (b"BIN 0\n", *_closing(f"BIN count must be in [1, {MAX}]")),
    "bin-count-negative": (b"BIN -4\n", *_closing(f"BIN count must be in [1, {MAX}]")),
    "bin-count-abc": (b"BIN abc\n", *_closing(f"BIN count must be in [1, {MAX}]")),
    "bin-count-huge": (
        b"BIN 999999999\n", *_closing(f"BIN count must be in [1, {MAX}]")
    ),
    # A bad payload is answered once fully read: the stream stays in sync.
    "bin-payload-nan": (
        _bin([1, 2], [1.0, math.nan]),
        *_err("update weights must be finite, got nan for item 2"),
    ),
    "bin-payload-inf": (
        _bin([4], [math.inf]),
        *_err("update weights must be finite, got inf for item 4"),
    ),
    "bin-payload-negative": (
        _bin([3], [-2.0]), *_err("update weights must be positive, got -2.0 for item 3")
    ),
    "est-no-args": (b"EST\n", *_err("usage: EST <item>")),
    "est-2-args": (b"EST 1 2\n", *_err("usage: EST <item>")),
    "est-bad-item": (b"EST x\n", *_err("invalid literal for int() with base 10: 'x'")),
    "bounds-no-args": (b"BOUNDS\n", *_err("usage: BOUNDS <item>")),
    "bounds-2-args": (b"BOUNDS 1 2\n", *_err("usage: BOUNDS <item>")),
    "bounds-bad-item": (
        b"BOUNDS x\n", *_err("invalid literal for int() with base 10: 'x'")
    ),
    "hh-no-args": (b"HH\n", *_err("usage: HH <phi>")),
    "hh-2-args": (b"HH 0.1 0.2\n", *_err("usage: HH <phi>")),
    "hh-bad-phi": (b"HH nope\n", *_err("could not convert string to float: 'nope'")),
    "hh-phi-zero": (b"HH 0\n", *_err("phi must be in (0, 1], got 0.0")),
    "hh-phi-nan": (b"HH nan\n", *_err("phi must be in (0, 1], got nan")),
    "qest-no-args": (b"QEST\n", *_err("usage: QEST <item>")),
    "qest-2-args": (b"QEST 1 2\n", *_err("usage: QEST <item>")),
    "qest-bad-item": (
        b"QEST x\n", *_err("invalid literal for int() with base 10: 'x'")
    ),
    "qhh-no-args": (b"QHH\n", *_err("usage: QHH <phi>")),
    "qhh-2-args": (b"QHH 0.1 0.2\n", *_err("usage: QHH <phi>")),
    "qhh-bad-phi": (b"QHH nope\n", *_err("could not convert string to float: 'nope'")),
}

_FLOAT = rb"(?:-?[0-9.e+-]+|nan|inf)"
_ROWS = rb"(?: [0-9]+:" + _FLOAT + rb")*"

#: id -> (request bytes, reply pattern, connection closes after it?).
#: STATS content and the scope of QEST/QHH legitimately differ between
#: the two servers; the reply shape does not.
VALID = {
    "ping": (b"PING\n", rb"PONG\n", False),
    "ping-lowercase-extra-args": (b"ping a b\n", rb"PONG\n", False),
    "update": (b"UPDATE 7 2\n", rb"OK\n", False),
    "update-unit": (b"UPDATE 7\n", rb"OK\n", False),
    "batch": (b"BATCH 7:1 8:2.5 9\n", rb"OK 3\n", False),
    "bin": (_bin([7, 8, 7], [1.0, 2.0, 3.0]), rb"OK 3\n", False),
    "est": (b"EST 7\n", rb"OK " + _FLOAT + rb"\n", False),
    "bounds": (b"BOUNDS 7\n", rb"OK " + _FLOAT + rb"(?: " + _FLOAT + rb"){2}\n", False),
    "hh": (b"HH 0.1\n", rb"OK [0-9]+" + _ROWS + rb"\n", False),
    "qest": (b"QEST 7\n", rb"OK [0-9]+ " + _FLOAT + rb"\n", False),
    "qhh": (b"QHH 0.1\n", rb"OK [0-9]+ [0-9]+" + _ROWS + rb"\n", False),
    "stats": (b"STATS\n", rb"OK \{.*\}\n", False),
    "snapshot": (b"SNAPSHOT\n", rb"OK [0-9]+\n", False),
    "quit": (b"QUIT\n", rb"BYE\n", True),
}


async def _stream_server():
    pipeline = IngestPipeline(
        FrequentItemsSketch(64, seed=1),
        config=PipelineConfig(max_batch_items=512, flush_interval=0.002),
    )
    await pipeline.start()
    server = await StreamServer(pipeline).start()

    async def stop():
        await server.stop()
        await pipeline.stop()

    return server, stop


async def _cluster_server():
    pool = await WorkerPool(ClusterConfig(num_workers=1, default_k=64)).start()
    server = await ClusterServer(pool).start()

    async def stop():
        await server.stop()
        await pool.stop()

    return server, stop


@pytest.fixture(
    params=[
        pytest.param(_stream_server, id="stream"),
        pytest.param(_cluster_server, id="cluster", marks=pytest.mark.cluster),
    ]
)
def serve(request):
    """Run one request against a fresh server; returns (reply, closed).

    ``closed`` is True when the server closed the connection after the
    reply; otherwise a ``PING`` on the same connection must still get
    ``PONG`` — the connection is open and the byte stream in sync.
    """

    async def exchange(payload):
        server, stop = await request.param()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(payload)
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), 10)
            try:
                writer.write(b"PING\n")
                await writer.drain()
                after = await asyncio.wait_for(reader.readline(), 10)
            except ConnectionError:
                after = b""
            writer.close()
        finally:
            await stop()
        assert after in (b"", b"PONG\n"), after
        return reply, after == b""

    return lambda payload: asyncio.run(exchange(payload))


@pytest.mark.parametrize("case", MALFORMED, ids=str)
def test_malformed_request(serve, case):
    request, expected, closes = MALFORMED[case]
    assert serve(request) == (expected, closes)


@pytest.mark.parametrize("case", VALID, ids=str)
def test_valid_request_shape(serve, case):
    request, pattern, closes = VALID[case]
    reply, closed = serve(request)
    assert re.fullmatch(pattern, reply, re.DOTALL), reply
    assert closed == closes


def _table_requests(text):
    """The request cells of the protocol docstring's tables (the rows
    between each table's second and third ``===`` rule)."""
    rows, rules = [], 0
    for line in text.splitlines():
        if line.startswith("==="):
            rules += 1
        elif rules % 3 == 2:
            rows.append(line)
    return rows


def test_protocol_tables_list_exactly_the_served_verbs():
    rows = _table_requests(protocol.__doc__)
    documented = {m.group(1) for row in rows if (m := re.match(r"``([A-Z]+)", row))}
    assert documented == set(StreamServer.verbs) | set(ClusterServer.verbs)
    repl = {m.group(1) for row in rows if (m := re.match(r"``REPL ([A-Z]+)", row))}
    assert repl == set(StreamServer.repl_verbs)


def test_shared_verbs_are_the_same_handlers():
    shared = set(StreamServer.verbs) & set(ClusterServer.verbs)
    assert shared == {
        "PING", "QUIT", "UPDATE", "BATCH", "BIN", "EST", "BOUNDS", "HH",
        "QEST", "QHH", "STATS", "SNAPSHOT",
    }
    for verb in shared:
        assert StreamServer.verbs[verb] is ClusterServer.verbs[verb]

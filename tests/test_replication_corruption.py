"""Adversarial byte streams against the replication frame parsers.

The failure containment property the follower relies on: whatever bytes
arrive on a replication socket, :func:`read_repl_frame` either yields a
well-formed frame, reports a clean EOF (``None``), or raises
:class:`ReplicationError` — never an unwrapped ``struct.error`` /
``ValueError`` / silent desync where a parsed frame differs from what a
byte-faithful peer actually sent.  The same property is pinned for the
on-disk WAL record codec the ``F`` frame's record reuses.
"""

import asyncio
import random
import struct

import numpy as np
import pytest

from repro.errors import ReplicationError, SerializationError
from repro.service import protocol
from repro.service.snapshot import (
    WAL_RECORD_HEADER_SIZE,
    decode_snapshot,
    decode_wal_payload,
    encode_snapshot,
    encode_wal_record,
    parse_wal_record_header,
)

pytestmark = [pytest.mark.service, pytest.mark.replication]


def feed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def drain_frames(data: bytes):
    """Parse ``data`` to exhaustion.

    Returns ``(frames, error)`` where ``error`` is the terminating
    :class:`ReplicationError` if one fired.  Any *other* exception type
    escapes and fails the calling test — that is the property.
    """

    async def run():
        reader = feed_reader(data)
        frames = []
        while True:
            try:
                frame = await protocol.read_repl_frame(reader)
            except ReplicationError as exc:
                return frames, exc
            if frame is None:
                return frames, None
            frames.append(frame)

    return asyncio.run(run())


def make_fenced_frame(epoch: int, stamps, seq: int, rng: random.Random) -> bytes:
    count = rng.randint(1, 9)
    items = np.array(
        [rng.randrange(1 << 64) for _ in range(count)], dtype=np.uint64
    )
    weights = np.array(
        [rng.uniform(0.5, 99.0) for _ in range(count)], dtype=np.float64
    )
    return protocol.encode_repl_fenced_frame(
        epoch, stamps, encode_wal_record(seq, items, weights)
    )


def frames_equal(parsed, reference) -> bool:
    if parsed[0] != reference[0]:
        return False
    if parsed[0] == "fenced":
        return (
            parsed[1] == reference[1]
            and parsed[2] == reference[2]
            and parsed[3] == reference[3]
            and np.array_equal(parsed[4], reference[4])
            and np.array_equal(parsed[5], reference[5])
        )
    return parsed[1:] == reference[1:]


def reference_stream(rng: random.Random):
    """A short mixed stream of valid frames plus the expected parses."""
    from repro import FrequentItemsSketch

    sketch = FrequentItemsSketch(16, seed=5)
    sketch.update(3, 2.0)
    blob = encode_snapshot(sketch, 7)
    data = (
        make_fenced_frame(0, (), 1, rng)
        + protocol.encode_repl_heartbeat(2)
        + protocol.encode_repl_snapshot_frame(blob)
        + make_fenced_frame(0, (), 2, rng)
    )
    expected, _ = drain_frames(data)
    assert len(expected) == 4
    return data, expected


def test_clean_stream_round_trips():
    data, expected = reference_stream(random.Random(1))
    frames, error = drain_frames(data)
    assert error is None
    assert len(frames) == 4
    assert [f[0] for f in frames] == [
        "fenced", "heartbeat", "snapshot", "fenced"
    ]


def test_truncation_at_every_byte_offset():
    """Cutting the stream anywhere yields exactly the frames that are
    complete in the prefix — parsed byte-identically — then either a
    clean EOF (cut on a frame boundary) or a ReplicationError."""
    rng = random.Random(2)
    data, expected = reference_stream(rng)
    # Frame boundaries, reconstructed from the parsed frame sizes.
    lengths = []
    cursor = 0
    for frame in expected:
        if frame[0] == "fenced":  # no stamps: tag, epoch, stamp count
            size = 1 + 8 + 2 + WAL_RECORD_HEADER_SIZE + 16 * len(frame[4])
        elif frame[0] == "snapshot":
            size = 1 + 8 + len(frame[1])
        else:
            size = 1 + 8
        cursor += size
        lengths.append(cursor)
    assert cursor == len(data)
    boundaries = {0, *lengths}
    for cut in range(len(data) + 1):
        frames, error = drain_frames(data[:cut])
        complete = sum(1 for b in lengths if b <= cut)
        assert len(frames) == complete, f"desync at cut {cut}"
        for parsed, reference in zip(frames, expected):
            assert frames_equal(parsed, reference), f"desync at cut {cut}"
        if cut in boundaries:
            assert error is None, f"boundary cut {cut} should be clean EOF"
        else:
            assert isinstance(error, ReplicationError), (
                f"mid-frame cut {cut} must raise ReplicationError"
            )


def test_single_byte_flips_never_escape():
    """Flip each byte of the stream (all 8 bits sampled via XOR mask):
    parsing must end in frames and/or a ReplicationError — no other
    exception, and no bogus batch (the CRC covers every record byte, so
    a flipped F frame cannot parse as a different batch)."""
    rng = random.Random(3)
    data, expected = reference_stream(rng)
    records = {f[3]: (f[4], f[5]) for f in expected if f[0] == "fenced"}
    for position in range(len(data)):
        mask = rng.randint(1, 255)
        mutated = bytearray(data)
        mutated[position] ^= mask
        frames, error = drain_frames(bytes(mutated))
        for frame in frames:
            if frame[0] == "fenced" and frame[3] in records:
                ref_items, ref_weights = records[frame[3]]
                assert np.array_equal(frame[4], ref_items) and (
                    np.array_equal(frame[5], ref_weights)
                ), (
                    f"flip at {position} produced a corrupt WAL batch "
                    "that passed its CRC"
                )
        del error  # ReplicationError or clean EOF are both acceptable


def test_flipped_length_prefixes_are_rejected_before_allocation():
    """A hostile count/length prefix must be refused by the cap check,
    not answered with a giant readexactly allocation."""
    # F frame (epoch 1, no stamps) whose record claims 2**31 updates.
    head = struct.pack("<QHQII", 1, 0, 9, 1 << 31, 0)
    frames, error = drain_frames(b"F" + head + b"\x00" * 64)
    assert frames == []
    assert isinstance(error, ReplicationError)
    assert "cap" in str(error)
    # S frame claiming a 2**60-byte snapshot.
    frames, error = drain_frames(b"S" + struct.pack("<Q", 1 << 60))
    assert frames == []
    assert isinstance(error, ReplicationError)
    assert "cap" in str(error)


def test_unknown_tags_are_rejected():
    for tag in (b"W", b"X", b"\x00", b"w", b"s", b"\xff"):
        frames, error = drain_frames(tag + b"\x00" * 32)
        assert frames == []
        assert isinstance(error, ReplicationError)


def test_random_garbage_streams_fuzz():
    """Pure noise, random lengths: every parse terminates in frames plus
    a clean EOF or a ReplicationError."""
    rng = random.Random(4)
    for _ in range(300):
        data = rng.randbytes(rng.randint(0, 200))
        frames, error = drain_frames(data)
        for frame in frames:
            assert frame[0] in ("fenced", "snapshot", "heartbeat")
        assert error is None or isinstance(error, ReplicationError)


def test_garbage_preceded_by_valid_frames_fuzz():
    """Noise appended to a valid prefix must not corrupt the prefix."""
    rng = random.Random(5)
    for _ in range(100):
        prefix_frame = make_fenced_frame(0, (), 11, rng)
        data = prefix_frame + rng.randbytes(rng.randint(1, 120))
        frames, error = drain_frames(data)
        assert frames, "the valid leading frame must still parse"
        reference, _ = drain_frames(prefix_frame)
        assert frames_equal(frames[0], reference[0])


def test_wal_payload_crc_catches_every_flip():
    rng = random.Random(6)
    items = np.arange(1, 9, dtype=np.uint64)
    weights = np.linspace(1.0, 8.0, 8)
    record = encode_wal_record(21, items, weights)
    seq, count, crc = parse_wal_record_header(
        record[:WAL_RECORD_HEADER_SIZE]
    )
    payload = record[WAL_RECORD_HEADER_SIZE:]
    # The untouched payload decodes.
    out_items, out_weights = decode_wal_payload(seq, count, crc, payload)
    assert np.array_equal(out_items, items)
    assert np.array_equal(out_weights, weights)
    for position in range(len(payload)):
        mutated = bytearray(payload)
        mutated[position] ^= rng.randint(1, 255)
        with pytest.raises((SerializationError, ValueError)):
            decode_wal_payload(seq, count, crc, bytes(mutated))


def test_snapshot_decode_rejects_flips_and_truncations():
    """The RSNP codec behind an ``S`` frame: bit flips and truncations
    are reported as SerializationError, never applied silently."""
    from repro import FrequentItemsSketch

    rng = random.Random(7)
    sketch = FrequentItemsSketch(16, seed=5)
    for item in range(10):
        sketch.update(item, float(item + 1))
    blob = encode_snapshot(sketch, 12)
    decode_snapshot(blob)  # sanity: the clean blob decodes
    # The trailing CRC32 covers the entire body, so any single-byte XOR
    # (a burst error of at most 8 bits) is guaranteed detectable.
    for _ in range(80):
        mutated = bytearray(blob)
        mutated[rng.randrange(len(blob))] ^= rng.randint(1, 255)
        with pytest.raises((SerializationError, ValueError)):
            decode_snapshot(bytes(mutated))
    for cut in range(len(blob)):
        with pytest.raises((SerializationError, ValueError)):
            decode_snapshot(blob[:cut])


# --------------------------------------------------------------------------
# Stamped and multi-epoch F frames: the epoch + idempotency-stamp envelope


def fenced_reference_stream(rng: random.Random):
    """A mixed fenced stream plus expected parses and frame boundaries."""
    chunks = [
        make_fenced_frame(3, (), 1, rng),
        protocol.encode_repl_heartbeat(1),
        make_fenced_frame(3, (("sess-a", 7),), 2, rng),
        make_fenced_frame(4, (("sess-a", 8), ("b.2_c", 9)), 3, rng),
    ]
    data = b"".join(chunks)
    boundaries = []
    cursor = 0
    for chunk in chunks:
        cursor += len(chunk)
        boundaries.append(cursor)
    expected, error = drain_frames(data)
    assert error is None and len(expected) == 4
    return data, expected, boundaries


def test_fenced_stream_round_trips():
    data, expected, _ = fenced_reference_stream(random.Random(11))
    frames, error = drain_frames(data)
    assert error is None
    assert [f[0] for f in frames] == ["fenced", "heartbeat", "fenced", "fenced"]
    assert frames[0][1] == 3 and frames[0][2] == ()
    assert frames[2][2] == (("sess-a", 7),)
    assert frames[3][1] == 4
    assert frames[3][2] == (("sess-a", 8), ("b.2_c", 9))


def test_fenced_truncation_at_every_byte_offset():
    """Same guarantee the unstamped stream carries: a cut anywhere
    yields the complete prefix byte-identically, then clean EOF (on a
    boundary) or ReplicationError (mid-frame) — never a desynced parse."""
    rng = random.Random(12)
    data, expected, lengths = fenced_reference_stream(rng)
    boundaries = {0, *lengths}
    for cut in range(len(data) + 1):
        frames, error = drain_frames(data[:cut])
        complete = sum(1 for b in lengths if b <= cut)
        assert len(frames) == complete, f"desync at cut {cut}"
        for parsed, reference in zip(frames, expected):
            assert frames_equal(parsed, reference), f"desync at cut {cut}"
        if cut in boundaries:
            assert error is None, f"boundary cut {cut} should be clean EOF"
        else:
            assert isinstance(error, ReplicationError), (
                f"mid-frame cut {cut} must raise ReplicationError"
            )


def test_fenced_byte_flips_never_corrupt_the_record():
    """The RWAL record inside an F frame is CRC-covered: a flip anywhere
    either fails the parse with ReplicationError or leaves every parsed
    record byte-identical to what was sent.  (The epoch/stamp envelope
    is integrity-protected by TCP, not the CRC — a flip there may parse
    as different metadata, but can never smuggle a corrupt *batch*.)"""
    rng = random.Random(13)
    data, expected, _ = fenced_reference_stream(rng)
    records = {
        f[3]: (f[4], f[5]) for f in expected if f[0] == "fenced"
    }
    for position in range(len(data)):
        mutated = bytearray(data)
        mutated[position] ^= rng.randint(1, 255)
        frames, error = drain_frames(bytes(mutated))
        for frame in frames:
            if frame[0] == "fenced" and frame[3] in records:
                ref_items, ref_weights = records[frame[3]]
                assert np.array_equal(frame[4], ref_items) and (
                    np.array_equal(frame[5], ref_weights)
                ), f"flip at {position} forged a fenced batch past its CRC"
        assert error is None or isinstance(error, ReplicationError)


def test_fenced_stamp_envelope_rejections():
    """Hostile stamp envelopes are refused before any allocation or
    registry write: oversized counts, zero-length ids, non-ASCII bytes,
    and out-of-alphabet ids all raise ReplicationError."""
    epoch = struct.pack("<Q", 1)
    # A stamp count beyond the cap.
    frames, error = drain_frames(
        b"F" + epoch + struct.pack("<H", 300) + b"\x00" * 64
    )
    assert frames == []
    assert isinstance(error, ReplicationError)
    assert "cap" in str(error)
    # A zero-length session id.
    frames, error = drain_frames(
        b"F" + epoch + struct.pack("<H", 1) + b"\x00" + b"\x00" * 32
    )
    assert frames == []
    assert isinstance(error, ReplicationError)
    # Non-ASCII session bytes.
    frames, error = drain_frames(
        b"F" + epoch + struct.pack("<H", 1) + b"\x04\xff\xfe\xff\xfe"
        + b"\x00" * 32
    )
    assert frames == []
    assert isinstance(error, ReplicationError)
    # ASCII but outside the session alphabet (a space).
    frames, error = drain_frames(
        b"F" + epoch + struct.pack("<H", 1) + b"\x03a b" + b"\x00" * 32
    )
    assert frames == []
    assert isinstance(error, ReplicationError)


def test_fenced_encoder_refuses_invalid_stamps():
    record = encode_wal_record(
        1, np.arange(1, 3, dtype=np.uint64), np.ones(2, dtype=np.float64)
    )
    with pytest.raises(ValueError):
        protocol.encode_repl_fenced_frame(
            1, [("s", 1)] * (protocol.MAX_FRAME_STAMPS + 1), record
        )
    with pytest.raises(ValueError):
        protocol.encode_repl_fenced_frame(1, [("", 1)], record)
    with pytest.raises(ValueError):
        protocol.encode_repl_fenced_frame(1, [("x" * 65, 1)], record)


def test_parser_survives_interleaved_partial_reads():
    """Frames delivered in 3-byte dribbles across event-loop turns parse
    byte-identically: readexactly waits out partial delivery and the
    parser never mistakes a short read for corruption."""
    rng = random.Random(14)
    data, expected, _ = fenced_reference_stream(rng)

    async def main():
        reader = asyncio.StreamReader()

        async def feeder():
            for i in range(0, len(data), 3):
                reader.feed_data(data[i:i + 3])
                await asyncio.sleep(0)
            reader.feed_eof()

        task = asyncio.ensure_future(feeder())
        frames = []
        while True:
            frame = await protocol.read_repl_frame(reader)
            if frame is None:
                break
            frames.append(frame)
        await task
        return frames

    frames = asyncio.run(main())
    assert len(frames) == len(expected)
    for parsed, reference in zip(frames, expected):
        assert frames_equal(parsed, reference)


def test_fenced_garbage_fuzz():
    """Noise after a valid F-frame prefix: the prefix always parses, the
    tail ends in frames plus clean EOF or ReplicationError."""
    rng = random.Random(15)
    for _ in range(100):
        prefix = make_fenced_frame(2, (("s-1", 4),), 21, rng)
        data = prefix + rng.randbytes(rng.randint(1, 120))
        frames, error = drain_frames(data)
        assert frames, "the valid leading fenced frame must still parse"
        reference, _ = drain_frames(prefix)
        assert frames_equal(frames[0], reference[0])
        assert error is None or isinstance(error, ReplicationError)


# --------------------------------------------------------------------------
# Election protocol lines (REPL ELECT / vote replies / LEADER / PEERS)


def test_elect_line_round_trips():
    line = protocol.encode_elect_line(5, 123, "n2")
    tokens = line.decode("ascii").split()
    assert tokens[:2] == ["REPL", "ELECT"]
    assert protocol.parse_elect_args(tokens[2:]) == (5, 123, "n2")


@pytest.mark.parametrize("args", [
    [],
    ["1"],
    ["1", "2"],
    ["1", "2", "n1", "extra"],
    ["-1", "2", "n1"],
    ["1e3", "2", "n1"],
    ["0x5", "2", "n1"],
    [str(1 << 64), "2", "n1"],
    ["1", str(1 << 64), "n1"],
    ["1", "2", ""],
    ["1", "2", "bad!id"],
    ["1", "2", "x" * 65],
])
def test_malformed_elect_args_rejected(args):
    with pytest.raises(ReplicationError):
        protocol.parse_elect_args(args)


def test_vote_reply_round_trips():
    for granted, epoch, leader in [
        (True, 7, None), (False, 7, None), (False, 9, "n1"),
    ]:
        text = protocol.encode_vote_reply(granted, epoch, leader)
        assert protocol.parse_vote_reply(text.split()) == (
            granted, epoch, leader
        )


@pytest.mark.parametrize("args", [
    [],
    ["GRANT"],
    ["GRANT", "x"],
    ["GRANT", "1", "2"],
    ["DENY"],
    ["DENY", "1"],
    ["DENY", "-1", "-"],
    ["DENY", "1", "bad!id"],
    ["DENY", "1", "-", "extra"],
    ["YES", "1"],
])
def test_malformed_vote_replies_rejected(args):
    with pytest.raises(ReplicationError):
        protocol.parse_vote_reply(args)


def test_leader_line_round_trips():
    line = protocol.encode_leader_line(3, "n1", "10.0.0.1:9471")
    tokens = line.decode("ascii").split()
    assert tokens[:2] == ["REPL", "LEADER"]
    assert protocol.parse_leader_args(tokens[2:]) == (
        3, "n1", "10.0.0.1:9471"
    )


@pytest.mark.parametrize("args", [
    [],
    ["1"],
    ["1", "n1"],
    ["1", "n1", "h:1", "extra"],
    ["x", "n1", "h:1"],
    ["1", "bad!id", "h:1"],
    ["1", "n1", "noport"],
    ["1", "n1", ":"],
    ["1", "n1", "host:"],
    ["1", "n1", ":123"],
    ["1", "n1", "host:0"],
    ["1", "n1", "host:70000"],
    ["1", "n1", "host:12x"],
])
def test_malformed_leader_args_rejected(args):
    with pytest.raises(ReplicationError):
        protocol.parse_leader_args(args)


def test_peers_reply_round_trips():
    import json

    payload = json.dumps({
        "self": "n1", "role": "leader", "epoch": 3, "applied_seq": 9,
        "leader_id": "n1", "leader_addr": "h:1", "peers": {"n1": "h:1"},
    })
    doc = protocol.parse_peers_reply(payload)
    assert doc["epoch"] == 3
    assert doc["peers"] == {"n1": "h:1"}


@pytest.mark.parametrize("payload", [
    "",
    "not json{",
    "[1, 2]",
    "\"just a string\"",
    "{\"epoch\": -1}",
    "{\"epoch\": \"3\"}",
    f"{{\"epoch\": {1 << 70}}}",
    "{\"peers\": []}",
    "{\"peers\": {\"a\": 1}}",
    "{\"leader_id\": 7}",
])
def test_malformed_peers_replies_rejected(payload):
    with pytest.raises(ReplicationError):
        protocol.parse_peers_reply(payload)


def test_election_token_fuzz_only_replication_errors():
    """Random token soup through every line parser: each call returns a
    well-typed tuple or raises ReplicationError — nothing else."""
    rng = random.Random(16)
    alphabet = (
        "abcXYZ0189_.-!/:{}[]\"'\\ \t\x00\xff"
    )
    parsers = (
        protocol.parse_elect_args,
        protocol.parse_vote_reply,
        protocol.parse_leader_args,
    )
    for _ in range(400):
        tokens = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(0, 5))
        ]
        for parser in parsers:
            try:
                parser(tokens)
            except ReplicationError:
                pass
    for _ in range(200):
        payload = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 60))
        )
        try:
            doc = protocol.parse_peers_reply(payload)
            assert isinstance(doc, dict)
        except ReplicationError:
            pass

"""Rebuild the fixtures of ``tests/test_legacy_backends.py``.

Needs a checkout that still has the retired ``columnar`` and
``robinhood`` counter stores (any commit before their removal, e.g.
``da7f894``); it writes blobs, a single-node data dir and a cluster
data dir under their names, plus the answers that build gave:

    PYTHONPATH=<old checkout>/src python make_fixtures.py OUT_DIR
"""

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys

import numpy as np

from repro import FrequentItemsSketch, ShardedFrequentItemsSketch
from repro.service.client import ClusterClient, ServiceClient
from repro.streams.zipf import ZipfianStream

PHIS = [0.005, 0.02]


def sample_of(batches):
    """The first 40 distinct stream items, plus two never sent."""
    items = np.concatenate([b[0] for b in batches])
    _, first = np.unique(items, return_index=True)
    return [int(i) for i in items[np.sort(first)[:40]]] + [0, 12345]


def feed(count, universe, seed, batch=250):
    stream = ZipfianStream(
        count, universe=universe, alpha=1.05, seed=seed,
        weight_low=1, weight_high=20,
    )
    return list(stream.batches(batch_size=batch))


def state(sketch):
    return {
        "backend": sketch.backend,
        "counters": sorted([int(i), float(c)] for i, c in sketch._store.items()),
        "offset": sketch.maximum_error,
        "stream_weight": sketch.stream_weight,
    }


def write_blobs(out):
    expected = {}
    batches = feed(6000, 3000, 11)
    for name, kwargs in [
        ("columnar", dict(backend="columnar")),
        ("robinhood", dict(backend="robinhood")),
        ("columnar_adaptive", dict(backend="columnar", growth="adaptive")),
    ]:
        sketch = FrequentItemsSketch(64, seed=7, **kwargs)
        for items, weights in batches:
            sketch.update_batch(items, weights)
        blob = sketch.to_bytes()
        with open(os.path.join(out, f"{name}.rfi1"), "wb") as fh:
            fh.write(blob)
        decoded = FrequentItemsSketch.from_bytes(blob)
        expected[name] = state(decoded)
        expected[name]["growth"] = decoded.growth
    with ShardedFrequentItemsSketch(64, num_shards=2, seed=7) as sharded:
        assert sharded.backend == "columnar"
        for items, weights in batches:
            sharded.update_batch(items, weights)
        blob = sharded.to_bytes()
        with open(os.path.join(out, "sharded_columnar.rfs1"), "wb") as fh:
            fh.write(blob)
        decoded = ShardedFrequentItemsSketch.from_bytes(blob)
        expected["sharded_columnar"] = {
            "backend": decoded.backend,
            "shard_counters": [
                sorted([int(i), float(c)] for i, c in shard._store.items())
                for shard in decoded.shards
            ],
            "offset": decoded.maximum_error,
            "stream_weight": decoded.stream_weight,
        }
        decoded.close()
    with open(os.path.join(out, "blobs.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def start_server(args, cwd):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=cwd, start_new_session=True,
    )
    line = proc.stdout.readline()
    match = re.search(r":(\d+) ", line)
    assert match, line
    return proc, int(match.group(1))


def kill(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


async def settle(client):
    for _ in range(500):
        if (await client.stats()).get("pending_items", 0) == 0:
            return
        await asyncio.sleep(0.01)
    raise RuntimeError("never settled")


async def drive_service(port):
    batches = feed(4000, 5000, 23)
    sample = sample_of(batches)
    async with await ServiceClient.connect("127.0.0.1", port) as client:
        for items, weights in batches[:12]:
            await client.send_batch(items, weights)
        await settle(client)
        snap_seq = await client.snapshot()
        for items, weights in batches[12:]:
            await client.send_batch(items, weights)
        await settle(client)
        return {
            "sample": sample,
            "snapshot_seq": snap_seq,
            "stats_seq": (await client.stats()).get("applied_seq"),
            "est": {str(item): await client.estimate(item) for item in sample},
            "bounds": {str(item): list(await client.bounds(item)) for item in sample},
            "hh": {f"{phi:g}": [list(p) for p in await client.heavy_hitters(phi)] for phi in PHIS},
        }


async def drive_cluster(port):
    batches = feed(4500, 3000, 31)
    sample = sample_of(batches)
    async with await ClusterClient.connect("127.0.0.1", port) as client:
        specs = [
            await client.tcreate("clicks"),
            await client.tcreate("hits", backend="robinhood"),
            await client.tcreate("views", shards=2),
        ]
        for index, (items, weights) in enumerate(batches):
            await client.tsend_batch(("clicks", "hits", "views")[index % 3], items, weights)
        await client.drain()
        answers = {"specs": specs, "sample": sample, "est": {}, "hh": {}}
        for name in ("clicks", "hits", "views"):
            answers["est"][name] = {
                str(item): await client.testimate(name, item) for item in sample
            }
            answers["hh"][name] = {
                f"{phi:g}": [list(p) for p in (await client.thh(name, phi))[1]]
                for phi in PHIS
            }
        return answers


def write_service(out, work):
    data = os.path.join(work, "service_data")
    proc, port = start_server(
        ["--k", "512", "--data-dir", data, "--snapshot-every", "100000",
         "--max-batch", "250", "--flush-interval", "0.001"], work,
    )
    try:
        answers = asyncio.run(drive_service(port))
    finally:
        kill(proc)
    shutil.copytree(data, os.path.join(out, "service_data"))
    with open(os.path.join(out, "service_answers.json"), "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_cluster(out, work):
    data = os.path.join(work, "cluster_data")
    proc, port = start_server(
        ["--workers", "1", "--k", "128", "--data-dir", data,
         "--snapshot-every", "4"], work,
    )
    try:
        answers = asyncio.run(drive_cluster(port))
    finally:
        kill(proc)
    shutil.copytree(data, os.path.join(out, "cluster_data"))
    with open(os.path.join(out, "cluster_answers.json"), "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    out = os.path.abspath(sys.argv[1])
    work = out + ".work"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out, exist_ok=True)
    write_blobs(out)
    write_service(out, work)
    write_cluster(out, work)
    shutil.rmtree(work)

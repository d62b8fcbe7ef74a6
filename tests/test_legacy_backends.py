"""Data written under the retired ``columnar``/``robinhood`` backends
still loads, as the probing table; the live API rejects both names.

The fixtures under ``tests/fixtures/legacy_stores`` were written by a
build that still had both stores (``make_fixtures.py`` there rebuilds
them from such a checkout), together with the answers that build gave.
Every ``k`` in them is at most the default sample size (1024), so each
decrement pass takes the exact quantile of all live counters: the
summary never depends on the table layout, and the probing table that
reloads the data gives the same answers the retired store gave.
"""

import asyncio
import json
import shutil
from pathlib import Path

import pytest

from repro import FrequentItemsSketch, ShardedFrequentItemsSketch
from repro.errors import InvalidParameterError
from repro.service import ServiceClient, StreamServer
from repro.service.__main__ import build_parser, build_pipeline, main
from repro.service.client import ClusterClient, ServiceError
from repro.service.cluster import ClusterConfig, ClusterServer, TenantSpec, WorkerPool
from repro.streams.zipf import ZipfianStream
from repro.table import RETIRED_BACKENDS, make_store

FIXTURES = Path(__file__).parent / "fixtures" / "legacy_stores"


def _load(name):
    return json.loads((FIXTURES / name).read_text())


def _counters(sketch):
    return sorted([int(item), float(count)] for item, count in sketch._store.items())


def _blob_stream():
    """The stream the flat and sharded fixture blobs were built from."""
    stream = ZipfianStream(
        6000, universe=3000, alpha=1.05, seed=11, weight_low=1, weight_high=20
    )
    return list(stream.batches(batch_size=250))


# -- blobs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["columnar", "robinhood", "columnar_adaptive"])
def test_retired_blob_decodes_as_probing(name):
    expected = _load("blobs.json")[name]
    sketch = FrequentItemsSketch.from_bytes((FIXTURES / f"{name}.rfi1").read_bytes())
    assert sketch.backend == "probing"
    assert sketch.growth == expected["growth"]
    assert _counters(sketch) == expected["counters"]
    assert sketch.maximum_error == expected["offset"]
    assert sketch.stream_weight == expected["stream_weight"]
    # Re-encoding writes the live backend code, and round-trips.
    blob = sketch.to_bytes()
    assert blob[8] & 0x7F == 0
    assert FrequentItemsSketch.from_bytes(blob).to_bytes() == blob


def test_columnar_and_robinhood_blobs_hold_the_same_summary():
    """Both retired blobs, and a probing sketch fed the same stream, hold
    the same counters, offset and stream weight."""
    blobs = _load("blobs.json")
    reference = FrequentItemsSketch(64, seed=7)
    for items, weights in _blob_stream():
        reference.update_batch(items, weights)
    for name in ("columnar", "robinhood"):
        assert blobs[name]["counters"] == _counters(reference)
        assert blobs[name]["offset"] == reference.maximum_error
        assert blobs[name]["stream_weight"] == reference.stream_weight


def test_sharded_columnar_blob_decodes_as_probing():
    expected = _load("blobs.json")["sharded_columnar"]
    blob = (FIXTURES / "sharded_columnar.rfs1").read_bytes()
    sketch = ShardedFrequentItemsSketch.from_bytes(blob)
    assert sketch.backend == "probing"
    assert all(shard.backend == "probing" for shard in sketch.shards)
    assert [_counters(shard) for shard in sketch.shards] == expected[
        "shard_counters"
    ]
    assert sketch.maximum_error == expected["offset"]
    assert sketch.stream_weight == expected["stream_weight"]


# -- the live API --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RETIRED_BACKENDS))
def test_live_api_rejects_retired_names(name, capsys):
    with pytest.raises(ValueError):
        make_store(name, 8)
    with pytest.raises(ValueError):
        FrequentItemsSketch(8, backend=name)
    with pytest.raises(InvalidParameterError):
        TenantSpec(name="t", backend=name)
    with pytest.raises(SystemExit) as exc:
        main(["--backend", name])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- a single-node data dir (snapshot + WAL tail) ------------------------------


def test_columnar_data_dir_recovers_with_the_same_answers(tmp_path):
    answers = _load("service_answers.json")
    data_dir = tmp_path / "data"
    shutil.copytree(FIXTURES / "service_data", data_dir)

    async def main_():
        pipeline = build_pipeline(build_parser().parse_args(["--data-dir", str(data_dir)]))
        async with pipeline:
            assert pipeline.sketch.backend == "probing"
            # The snapshot plus the WAL records written after it.
            assert pipeline.applied_seq == answers["stats_seq"]
            assert answers["snapshot_seq"] < answers["stats_seq"]
            async with StreamServer(pipeline) as server:
                client = await ServiceClient.connect("127.0.0.1", server.port)
                async with client:
                    for item in answers["sample"]:
                        assert await client.estimate(item) == answers["est"][str(item)]
                        assert list(await client.bounds(item)) == answers["bounds"][
                            str(item)
                        ]
                    for phi, rows in answers["hh"].items():
                        got = await client.heavy_hitters(float(phi))
                        assert [list(row) for row in got] == rows

    asyncio.run(main_())


# -- a cluster data dir (tenant registry + per-tenant snapshots/WALs) ----------


def test_registry_naming_retired_backends_loads_as_probing(tmp_path):
    data_dir = tmp_path / "cluster"
    shutil.copytree(FIXTURES / "cluster_data", data_dir)
    raw = json.loads((data_dir / "tenants.json").read_text())
    assert {entry["backend"] for entry in raw["tenants"]} == {"columnar", "robinhood"}
    specs = WorkerPool(ClusterConfig(data_dir=str(data_dir)))._load_registry()
    assert [spec.name for spec in specs] == ["clicks", "hits", "views"]
    assert {spec.backend for spec in specs} == {"probing"}
    assert [spec.shards for spec in specs] == [0, 0, 2]


@pytest.mark.cluster
def test_columnar_cluster_data_dir_recovers_with_the_same_answers(tmp_path):
    answers = _load("cluster_answers.json")
    data_dir = tmp_path / "cluster"
    shutil.copytree(FIXTURES / "cluster_data", data_dir)

    async def main_():
        config = ClusterConfig(num_workers=1, data_dir=str(data_dir))
        async with WorkerPool(config) as pool:
            async with ClusterServer(pool) as server:
                client = await ClusterClient.connect("127.0.0.1", server.port)
                async with client:
                    listed = await client.tlist()
                    assert {spec["backend"] for spec in listed} == {"probing"}
                    shards = {spec["name"]: spec["shards"] for spec in listed}
                    for name, estimates in answers["est"].items():
                        for item in answers["sample"]:
                            assert await client.testimate(name, item) == estimates[
                                str(item)
                            ]
                        for phi, rows in answers["hh"][name].items():
                            _seq, got = await client.thh(name, float(phi))
                            got = [list(row) for row in got]
                            if not shards[name]:
                                assert got == rows
                                continue
                            # A sharded tenant's THH merges its substreams,
                            # and the merge replays each one in a shuffled
                            # storage order, which the retired store laid
                            # out differently: the merged views agree on
                            # the heaviest items, not bit for bit.
                            assert [row[0] for row in got[:6]] == [
                                row[0] for row in rows[:6]
                            ]
                    with pytest.raises(ServiceError):
                        await client.tcreate("fresh", backend="columnar")

    asyncio.run(main_())

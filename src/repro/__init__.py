"""repro — frequent items in data streams, reproduced end to end.

A from-scratch Python implementation of *A High-Performance Algorithm
for Identifying Frequent Items in Data Streams* (Anderson, Bevin, Lang,
Liberty, Rhodes, Thaler — IMC 2017, arXiv:1705.07001): the optimized
weighted Misra-Gries sketch deployed in Apache DataSketches, every
baseline it is compared against, the merge procedure, the sketched
extensions, and a benchmark harness that regenerates each figure and
table of the paper's evaluation.

Quickstart
----------
>>> from repro import FrequentItemsSketch
>>> sketch = FrequentItemsSketch(max_counters=64, seed=7)
>>> for flow, packet_bytes in [(1, 1500), (2, 64), (1, 1500), (3, 576)]:
...     sketch.update(flow, packet_bytes)
>>> sketch.estimate(1)
3000.0
>>> [row.item for row in sketch.heavy_hitters(phi=0.5)]
[1]

For high-throughput ingestion, feed NumPy array batches instead — the
result is identical to the scalar loop, state for state:

>>> import numpy as np
>>> batched = FrequentItemsSketch(max_counters=64, seed=7)
>>> batched.update_batch(np.array([1, 2, 1, 3], dtype=np.uint64),
...                      np.array([1500.0, 64.0, 1500.0, 576.0]))
>>> batched.estimate(1)
3000.0

Package map
-----------
- :mod:`repro.engine` — the shared ingest/query kernel
  (:class:`~repro.engine.kernel.SketchKernel` +
  :class:`~repro.engine.query.QueryEngine`) every sketch variant
  composes.
- :mod:`repro.core` — the paper's sketch (SMED/SMIN family), merging,
  serialization.
- :mod:`repro.baselines` — MG, Space Saving (heap + Stream Summary),
  RTUC, RBMC, MED, CountMin, CountSketch, Lossy Counting, Sticky
  Sampling, prior merge procedures.
- :mod:`repro.extensions` — sampling-based weighted frequent items,
  random-admission SS, hierarchical heavy hitters, streaming entropy,
  turnstile support.
- :mod:`repro.sharded` — sharded ingestion with merge-on-query
  (:class:`~repro.sharded.sketch.ShardedFrequentItemsSketch`).
- :mod:`repro.service` — the always-on asyncio ingest service:
  micro-batching pipeline with backpressure, snapshot/WAL durability
  with bit-identical recovery, and a TCP line-protocol server
  (``python -m repro.service``).
- :mod:`repro.streams` — workload generators (synthetic CAIDA-like
  trace, Zipf), exact ground truth, IO, partitioning.
- :mod:`repro.table`, :mod:`repro.selection`, :mod:`repro.hashing`,
  :mod:`repro.prng` — the from-scratch substrates.
- :mod:`repro.metrics`, :mod:`repro.bench` — measurement and the
  figure/table harness (``python -m repro.bench all``).
"""

from repro._version import __version__
from repro.core.frequent_items import FrequentItemsSketch
from repro.core.merge import merge_linear, merge_pairwise_tree
from repro.core.policies import (
    DecrementPolicy,
    ExactKthLargestPolicy,
    GlobalMinPolicy,
    SampleQuantilePolicy,
)
from repro.core.row import ErrorType, HeavyHitterRow
from repro.engine.kernel import SketchKernel
from repro.engine.query import QueryEngine
from repro.errors import (
    IncompatibleSketchError,
    InvalidParameterError,
    InvalidUpdateError,
    ReproError,
    SerializationError,
    TableFullError,
)
from repro.errors import (
    ReadOnlyReplicaError,
    ReplicationError,
    ServiceClosedError,
)
from repro.extensions.decayed import DecayedFrequentItemsSketch
from repro.service.pipeline import IngestPipeline, PipelineConfig
from repro.service.server import StreamServer
from repro.service.snapshot import SnapshotManager
from repro.sharded.sketch import ShardedFrequentItemsSketch
from repro.streams.exact import ExactCounter
from repro.types import StreamUpdate

__all__ = [
    "__version__",
    "FrequentItemsSketch",
    "ShardedFrequentItemsSketch",
    "DecayedFrequentItemsSketch",
    "SketchKernel",
    "QueryEngine",
    "SampleQuantilePolicy",
    "ExactKthLargestPolicy",
    "GlobalMinPolicy",
    "DecrementPolicy",
    "ErrorType",
    "HeavyHitterRow",
    "StreamUpdate",
    "ExactCounter",
    "IngestPipeline",
    "PipelineConfig",
    "SnapshotManager",
    "StreamServer",
    "ServiceClosedError",
    "ReadOnlyReplicaError",
    "ReplicationError",
    "merge_linear",
    "merge_pairwise_tree",
    "ReproError",
    "InvalidParameterError",
    "InvalidUpdateError",
    "TableFullError",
    "SerializationError",
    "IncompatibleSketchError",
]

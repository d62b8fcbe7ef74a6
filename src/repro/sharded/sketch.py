"""Sharded ingestion with merge-on-query (scale-out, Section 3).

The paper's summary is mergeable by construction (Algorithm 5), which is
what makes the scale-out shape of real deployments work: many ingest
workers each maintain their own summary, and queries see a merged
aggregate.  :class:`ShardedFrequentItemsSketch` packages that shape into
one object:

* **Hash-partitioned ingest** — every item is routed to one of ``n``
  independent shard sketches by a seeded 64-bit mix
  (:mod:`repro.sharded.partition`), so each shard observes a disjoint
  substream.  Batches are masked per shard and ingested, one shard
  after another, through each shard's
  :class:`~repro.engine.kernel.SketchKernel` batch path, so per-shard
  state is bit-reproducible given the partition.
* **Merge-on-query** — queries are answered from a flat view (one
  :class:`~repro.engine.kernel.SketchKernel` of capacity ``n * k``
  wrapped in a :class:`~repro.core.frequent_items.FrequentItemsSketch`)
  assembled from the shards' counters on first use and cached
  until the next write.  Because the partition keeps shard key sets
  disjoint and the view has room for every live counter, assembling it
  adds **zero** error: the view's offset is exactly the *sum of the
  per-shard offsets* (plus any error absorbed from foreign summaries),
  and every per-item bound it reports is valid for the full stream.
* **Why it is fast** — with ``n`` shards each keeping ``k`` counters,
  the aggregate table is ``n`` times larger, so decrement passes (and
  the batch segmentation they force) become rarer or disappear while
  per-update work stays vectorized.  The speed comes from the table,
  not from threads: shards are ingested serially.

>>> import numpy as np
>>> sketch = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
>>> sketch.update_batch(np.array([7, 8, 7, 9], dtype=np.uint64),
...                     np.array([100.0, 50.0, 25.0, 10.0]))
>>> sketch.estimate(7)
125.0
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import DecrementPolicy
from repro.core.row import ErrorType, HeavyHitterRow
from repro.engine.kernel import SketchKernel
from repro.errors import IncompatibleSketchError, InvalidParameterError
from repro.hashing.mixers import hash_u64
from repro.metrics.instrumentation import OpStats
from repro.sharded.partition import shard_ids, shard_of
from repro.streams.model import as_batch, as_updates
from repro.types import ItemId, Weight


def _shard_seed(seed: int, index: int) -> int:
    """Per-shard sketch seed: decorrelates shard tables and policies."""
    return hash_u64(seed, index + 1)


class ShardedFrequentItemsSketch:
    """Frequent items at scale: ``num_shards`` sketches, one queryable view.

    Parameters
    ----------
    max_counters : int
        The per-shard ``k`` — each of the ``num_shards`` shard sketches
        keeps this many counters, so the aggregate holds up to
        ``num_shards * max_counters``.  Must be at least 2.
    num_shards : int, optional
        How many independent shard sketches to partition items across.
        Power-of-two counts route fastest; any positive count works.
    policy : DecrementPolicy, optional
        Decrement policy shared by every shard (the paper's SMED
        configuration when omitted).
    backend : str, optional
        Counter-store backend for every shard and for the merged view.
    seed : int, optional
        Master seed: fixes the partition and, through per-shard derived
        seeds, every shard's sampling and table hash.  Two sharded
        sketches built with the same seed and inputs are identical.

    Examples
    --------
    >>> sketch = ShardedFrequentItemsSketch(8, num_shards=2, seed=3)
    >>> sketch.update(1001, 5.0)
    >>> sketch.update(1001, 2.0)
    >>> sketch.estimate(1001)
    7.0
    >>> sketch.num_shards
    2
    """

    __slots__ = (
        "_k",
        "_num_shards",
        "_policy",
        "_backend",
        "_seed",
        "_shards",
        "_extra_offset",
        "_extra_weight",
        "_merged",
    )

    def __init__(
        self,
        max_counters: int,
        num_shards: int = 4,
        policy: Optional[DecrementPolicy] = None,
        backend: str = "probing",
        seed: int = 0,
        growth: str = "fixed",
    ) -> None:
        if num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be at least 1, got {num_shards}"
            )
        self._k = max_counters
        self._num_shards = num_shards
        self._backend = backend
        self._seed = seed
        self._shards = [
            FrequentItemsSketch(
                max_counters,
                policy=policy,
                backend=backend,
                seed=_shard_seed(seed, index),
                growth=growth,
            )
            for index in range(num_shards)
        ]
        # Every shard shares one policy object (policies are stateless
        # parameter holders); grab the resolved default off shard 0.
        self._policy = self._shards[0].policy
        self._extra_offset = 0.0
        self._extra_weight = 0.0
        self._merged: Optional[FrequentItemsSketch] = None

    @classmethod
    def _from_parts(
        cls,
        shards: list[FrequentItemsSketch],
        seed: int,
        extra_offset: float,
        extra_weight: float,
    ) -> "ShardedFrequentItemsSketch":
        """Rebuild from already-constructed shards (deserialization path)."""
        if not shards:
            raise InvalidParameterError("need at least one shard")
        sketch = cls.__new__(cls)
        sketch._k = shards[0].max_counters
        sketch._num_shards = len(shards)
        sketch._policy = shards[0].policy
        sketch._backend = shards[0].backend
        sketch._seed = seed
        sketch._shards = list(shards)
        sketch._extra_offset = extra_offset
        sketch._extra_weight = extra_weight
        sketch._merged = None
        return sketch

    # -- configuration introspection ------------------------------------------

    @property
    def max_counters(self) -> int:
        """Per-shard counter budget ``k`` (aggregate is ``num_shards * k``).

        Examples
        --------
        >>> ShardedFrequentItemsSketch(32, num_shards=4).max_counters
        32
        """
        return self._k

    @property
    def num_shards(self) -> int:
        """Number of independent shard sketches items are routed across."""
        return self._num_shards

    @property
    def policy(self) -> DecrementPolicy:
        """The decrement policy every shard runs."""
        return self._policy

    @property
    def backend(self) -> str:
        """Counter-store backend used by shards and the merged view."""
        return self._backend

    @property
    def seed(self) -> int:
        """The master seed (fixes partition and per-shard seeds)."""
        return self._seed

    @property
    def growth(self) -> str:
        """Per-shard table-growth mode (``"fixed"`` or ``"adaptive"``)."""
        return self._shards[0].growth

    @property
    def shards(self) -> tuple[FrequentItemsSketch, ...]:
        """The shard sketches (read-only tuple; do not mutate them)."""
        return tuple(self._shards)

    # -- state introspection ---------------------------------------------------

    @property
    def num_active(self) -> int:
        """Total items currently holding a counter on any shard.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2)
        >>> s.update_all([1, 2, 3])
        >>> s.num_active
        3
        """
        return sum(shard.num_active for shard in self._shards)

    @property
    def stream_weight(self) -> float:
        """Total weight ``N`` processed, across shards and merged-in sketches."""
        return (
            sum(shard.stream_weight for shard in self._shards) + self._extra_weight
        )

    @property
    def maximum_error(self) -> float:
        """The summed per-shard error bound the merged view reports.

        Sum of every shard's accumulated offset, plus the error carried
        over from foreign summaries absorbed via the re-shard path.
        Every estimate's uncertainty interval has at most this width.
        """
        return (
            sum(shard.maximum_error for shard in self._shards) + self._extra_offset
        )

    @property
    def stats(self) -> OpStats:
        """Aggregated operation counts over all shards (a fresh snapshot)."""
        total = OpStats()
        for shard in self._shards:
            total.merge(shard.stats)
        return total

    def is_empty(self) -> bool:
        """True if no shard has processed any weight.

        Examples
        --------
        >>> ShardedFrequentItemsSketch(8).is_empty()
        True
        """
        return self.stream_weight == 0.0

    def __len__(self) -> int:
        return self.num_active

    def __contains__(self, item: ItemId) -> bool:
        return item in self._owner(item)

    def _owner(self, item: ItemId) -> FrequentItemsSketch:
        """The shard sketch that owns ``item`` under the partition."""
        return self._shards[shard_of(item, self._num_shards, self._seed)]

    # -- updates ---------------------------------------------------------------

    def update(self, item: ItemId, weight: Weight = 1.0) -> None:
        """Process one weighted update by routing it to the owning shard.

        Parameters
        ----------
        item : int
            The 64-bit item identifier, as in the flat sketch (helpers
            in :mod:`repro.hashing` fold strings/bytes onto that space).
        weight : float, optional
            Positive update weight (1.0 when omitted).

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(10, 3.0)
        >>> s.update(10)
        >>> s.estimate(10)
        4.0
        """
        self._merged = None
        self._owner(item).update(item, weight)

    def update_all(self, updates: Iterable) -> None:
        """Consume an iterable of updates (items, pairs, or StreamUpdates).

        Bare item ids count as unit-weight updates, exactly like
        :meth:`FrequentItemsSketch.update_all`.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update_all([1, (2, 10.0), 1])
        >>> s.estimate(2)
        10.0
        """
        self._merged = None
        shards = self._shards
        n, seed = self._num_shards, self._seed
        for item, weight in as_updates(updates):
            shards[shard_of(item, n, seed)].update(item, weight)

    def update_batch(self, items, weights=None) -> None:
        """Partition one array batch across shards and ingest it.

        The batch is validated once, masked into per-shard sub-batches
        by the seeded partition, and each sub-batch is fed through the
        shard's existing vectorized ``update_batch`` path, shard by
        shard.  Given the partition, per-shard results are bit-identical
        to feeding each shard its substream directly.

        Parameters
        ----------
        items : numpy.ndarray or sequence
            1-D array of 64-bit item identifiers.
        weights : numpy.ndarray, optional
            Parallel array of positive weights (all 1.0 when omitted).

        Examples
        --------
        >>> import numpy as np
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update_batch(np.array([4, 4, 5], dtype=np.uint64))
        >>> s.estimate(4)
        2.0
        """
        items, weights = as_batch(items, weights)
        if items.shape[0] == 0:
            return
        self._merged = None
        self._ingest(items, weights)

    # -- merge-on-query view -----------------------------------------------------

    def merged_view(self) -> FrequentItemsSketch:
        """The flat sketch queries are answered from (cached until a write).

        The view has capacity ``num_shards * max_counters`` — enough for
        every live counter — so assembling it performs no decrement
        passes: counters are copied verbatim, its offset is exactly
        :attr:`maximum_error`, and its stream weight is
        :attr:`stream_weight`.  Treat the returned sketch as read-only;
        it is invalidated and rebuilt after any update or merge.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=4, seed=2)
        >>> s.update_all([(1, 5.0), (2, 3.0)])
        >>> view = s.merged_view()
        >>> view.estimate(1), view.stream_weight
        (5.0, 8.0)
        """
        if self._merged is None:
            kernel = SketchKernel(
                self._k * self._num_shards,
                policy=self._policy,
                backend=self._backend,
                seed=self._seed,
            )
            for shard in self._shards:
                items, counts = shard._store.as_arrays()
                if len(items):
                    # Shard key sets are disjoint under the partition, so
                    # the copies never collide and never overflow n*k.
                    kernel.store.insert_many(items, counts)
            kernel.offset = self.maximum_error
            kernel.stream_weight = self.stream_weight
            self._merged = FrequentItemsSketch._from_kernel(kernel)
        return self._merged

    # -- point queries ----------------------------------------------------------

    def estimate(self, item: ItemId) -> float:
        """Hybrid point estimate from the merged view (see the flat sketch).

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(3, 7.0)
        >>> s.estimate(3)
        7.0
        >>> s.estimate(99)
        0.0
        """
        return self.merged_view().estimate(item)

    def estimate_batch(self, items) -> np.ndarray:
        """Vectorized :meth:`estimate` over an array of item identifiers.

        One bulk probe of the merged view's store instead of one Python
        call (and one merged-view lookup) per key; repeated and absent
        keys are both fine.  Element-for-element equal to the scalar
        method.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(3, 7.0)
        >>> s.estimate_batch([3, 99])
        array([7., 0.])
        """
        return self.merged_view().estimate_batch(items)

    def lower_bound(self, item: ItemId) -> float:
        """A value guaranteed ``<= f(item)`` for the full stream.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(3, 7.0)
        >>> s.lower_bound(3)
        7.0
        """
        return self.merged_view().lower_bound(item)

    def upper_bound(self, item: ItemId) -> float:
        """A value guaranteed ``>= f(item)`` for the full stream.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(3, 7.0)
        >>> s.upper_bound(3)
        7.0
        """
        return self.merged_view().upper_bound(item)

    def row(self, item: ItemId) -> HeavyHitterRow:
        """The full (estimate, bounds) record for one item.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(3, 7.0)
        >>> s.row(3).estimate
        7.0
        """
        return self.merged_view().row(item)

    # -- heavy hitters ------------------------------------------------------------

    def frequent_items(
        self,
        error_type: ErrorType = ErrorType.NO_FALSE_POSITIVES,
        threshold: Optional[float] = None,
    ) -> list[HeavyHitterRow]:
        """Items whose frequency (may) exceed ``threshold``, via the merged view.

        Semantics match :meth:`FrequentItemsSketch.frequent_items`, with
        the view's offset — the summed per-shard error — as the default
        threshold.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update_all([(1, 9.0), (2, 1.0)])
        >>> [row.item for row in s.frequent_items(threshold=5.0)]
        [1]
        """
        return self.merged_view().frequent_items(error_type, threshold)

    def heavy_hitters(
        self,
        phi: float,
        error_type: ErrorType = ErrorType.NO_FALSE_NEGATIVES,
    ) -> list[HeavyHitterRow]:
        """(φ)-heavy hitters of the full stream, via the merged view.

        With the default error direction every true φ-heavy hitter is
        returned; false positives are limited to items of frequency at
        least ``phi * N - maximum_error``.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update_all([(1, 9.0), (2, 1.0)])
        >>> [row.item for row in s.heavy_hitters(phi=0.5)]
        [1]
        """
        return self.merged_view().heavy_hitters(phi, error_type)

    def to_rows(self) -> list[HeavyHitterRow]:
        """All tracked items as rows, sorted by estimate descending.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update_all([(1, 9.0), (2, 1.0)])
        >>> [row.item for row in s.to_rows()]
        [1, 2]
        """
        return self.merged_view().to_rows()

    def __iter__(self) -> Iterator[HeavyHitterRow]:
        return iter(self.to_rows())

    # -- merging -------------------------------------------------------------------

    def merge(self, other: "ShardedFrequentItemsSketch") -> "ShardedFrequentItemsSketch":
        """Absorb another sharded sketch into this one; returns self.

        Two regimes:

        * **Equally sharded** (same ``num_shards`` and same ``seed``, so
          the partitions agree item for item): shard ``i`` absorbs the
          other's shard ``i`` via Algorithm 5.  Offsets and stream
          weights add shard-wise; the global bound stays the sum of
          per-shard bounds.
        * **Mismatched** (different shard count or partition seed): the
          other sketch is *re-sharded* — its counters are re-routed
          through this sketch's partition and replayed through the batch
          ingest path, and its total error bound is carried over into
          this sketch's :attr:`maximum_error` once.

        ``other`` is not modified.

        Examples
        --------
        >>> a = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> b = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> a.update(1, 4.0); b.update(1, 6.0)
        >>> _ = a.merge(b)
        >>> a.estimate(1)
        10.0
        """
        if other is self:
            raise IncompatibleSketchError("cannot merge a sketch into itself")
        if not isinstance(other, ShardedFrequentItemsSketch):
            raise IncompatibleSketchError(
                "merge expects another ShardedFrequentItemsSketch; use "
                "absorb_flat for a flat FrequentItemsSketch"
            )
        self._merged = None
        # Partition identity is the *masked* seed: routing only sees the
        # seed through 64-bit arithmetic (and serialization stores it
        # masked), so seed -1 and 2**64 - 1 are the same partition.
        same_partition = (other._seed - self._seed) % (1 << 64) == 0
        if other._num_shards == self._num_shards and same_partition:
            for mine, theirs in zip(self._shards, other._shards):
                if len(theirs._store) or theirs.stream_weight or theirs.maximum_error:
                    mine.merge(theirs)
            self._extra_offset += other._extra_offset
            self._extra_weight += other._extra_weight
            return self
        # Re-shard path: re-route the foreign counters through this
        # sketch's partition, then account the foreign error bound once.
        for shard in other._shards:
            items, counts = shard._store.as_arrays()
            if len(items):
                self._ingest(items, counts)
        self._extra_offset += other.maximum_error
        self._extra_weight += other.stream_weight - other._counter_mass()
        return self

    def absorb_flat(self, other: FrequentItemsSketch) -> "ShardedFrequentItemsSketch":
        """Absorb a flat :class:`FrequentItemsSketch` into the shards.

        The flat summary's counters are partitioned like any other
        updates and replayed through the batch ingest path; its error
        bound and stream weight carry over, so every bound this sketch
        reports afterwards is valid for the union of both streams.

        Examples
        --------
        >>> flat = FrequentItemsSketch(8, seed=1)
        >>> flat.update(42, 9.0)
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> _ = s.absorb_flat(flat)
        >>> s.estimate(42), s.stream_weight
        (9.0, 9.0)
        """
        self._merged = None
        items, counts = other._store.as_arrays()
        mass = 0.0
        if len(items):
            mass = float(counts.sum())
            self._ingest(items, counts)
        self._extra_offset += other.maximum_error
        self._extra_weight += other.stream_weight - mass
        return self

    def _ingest(self, items: np.ndarray, weights: np.ndarray) -> None:
        """Feed a validated batch to its owning shards, one after another.

        The one ingest path for both new updates and replayed foreign
        ``(item, count)`` pairs.  A replay credits the counter mass to
        each shard's stream weight, so the sharded total rises by
        exactly the replayed mass (the caller accounts the remainder via
        ``_extra_weight``); it may trigger decrement passes on full
        shards, whose offsets are accounted per shard, as in
        Algorithm 5.
        """
        if self._num_shards == 1:
            self._shards[0].kernel.update_batch_validated(items, weights)
            return
        owners = shard_ids(items, self._num_shards, self._seed)
        for index, shard in enumerate(self._shards):
            mask = owners == index
            if mask.any():
                shard.kernel.update_batch_validated(items[mask], weights[mask])

    def _counter_mass(self) -> float:
        """Total live counter mass across shards (a lower bound on N)."""
        return float(
            sum(
                sum(count for _item, count in shard._store.items())
                for shard in self._shards
            )
        )

    def reshard(self, num_shards: int) -> "ShardedFrequentItemsSketch":
        """A new sketch with ``num_shards`` shards holding this summary.

        Built by merging this sketch into a fresh instance with the same
        per-shard ``k``, policy, backend, and seed.  When the shard
        count differs the counters are re-routed under the new partition
        and the error bound carries over conservatively; when it is the
        same the merge is shard-wise and exact.  ``self`` is unchanged.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update_all([(1, 5.0), (2, 3.0)])
        >>> wider = s.reshard(4)
        >>> wider.num_shards, wider.estimate(1), wider.stream_weight
        (4, 5.0, 8.0)
        """
        fresh = ShardedFrequentItemsSketch(
            self._k,
            num_shards=num_shards,
            policy=self._policy,
            backend=self._backend,
            seed=self._seed,
            growth=self.growth,
        )
        return fresh.merge(self)

    def copy(self) -> "ShardedFrequentItemsSketch":
        """An independent deep copy (same configuration and contents).

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(1, 5.0)
        >>> dup = s.copy()
        >>> dup.update(1, 5.0)
        >>> s.estimate(1), dup.estimate(1)
        (5.0, 10.0)
        """
        dup = ShardedFrequentItemsSketch.__new__(ShardedFrequentItemsSketch)
        dup._k = self._k
        dup._num_shards = self._num_shards
        dup._policy = self._policy
        dup._backend = self._backend
        dup._seed = self._seed
        dup._shards = [shard.copy() for shard in self._shards]
        dup._extra_offset = self._extra_offset
        dup._extra_weight = self._extra_weight
        dup._merged = None
        return dup

    # -- accounting ------------------------------------------------------------------

    def space_bytes(self) -> int:
        """Modeled memory footprint: the sum over shard tables.

        The merge-on-query view is transient and excluded, matching how
        deployments charge per-worker memory.

        Examples
        --------
        >>> one = ShardedFrequentItemsSketch(64, num_shards=1).space_bytes()
        >>> four = ShardedFrequentItemsSketch(64, num_shards=4).space_bytes()
        >>> four == 4 * one
        True
        """
        return sum(shard.space_bytes() for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedFrequentItemsSketch(k={self._k}, shards={self._num_shards}, "
            f"backend={self._backend!r}, active={len(self)}, "
            f"N={self.stream_weight:g}, error<={self.maximum_error:g})"
        )

    # -- serialization hooks (implemented in repro.core.serialize) --------------------

    def to_bytes(self) -> bytes:
        """Serialize to the framed multi-shard format (see docs/serialization.md).

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(1, 5.0)
        >>> s.to_bytes()[:4]
        b'RFS1'
        """
        from repro.core.serialize import sharded_to_bytes

        return sharded_to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShardedFrequentItemsSketch":
        """Reconstruct a sketch serialized with :meth:`to_bytes`.

        Examples
        --------
        >>> s = ShardedFrequentItemsSketch(8, num_shards=2, seed=5)
        >>> s.update(1, 5.0)
        >>> ShardedFrequentItemsSketch.from_bytes(s.to_bytes()).estimate(1)
        5.0
        """
        from repro.core.serialize import sharded_from_bytes

        return sharded_from_bytes(blob)

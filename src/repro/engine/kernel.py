"""The shared ingest kernel behind every counter-based sketch variant.

The paper's contribution (Algorithm 4 + Section 2.3) is really a
*kernel*: a bounded counter table, a sampled-quantile decrement policy,
and offset / stream-weight accounting.  :class:`SketchKernel` packages
exactly that state and its two ingestion paths — the scalar
:meth:`~SketchKernel.ingest` loop and the segmented, vectorized
:meth:`~SketchKernel.ingest_batch` — so that the flat
:class:`~repro.core.frequent_items.FrequentItemsSketch`, the sharded
sketch, and the extensions (windowed, sampled, decayed) all compose the
same engine instead of re-implementing pieces of it.

Both paths are *bit-identical* to each other (for integer-representable
weights) and to the pre-extraction ``FrequentItemsSketch`` internals:
same counters, same offset, same PRNG draw sequence, same serialized
bytes.  Queries over a kernel live in
:class:`repro.engine.query.QueryEngine`.

>>> kernel = SketchKernel(64, seed=1)
>>> kernel.update(7, 100.0)
>>> kernel.update(7, 25.0)
>>> kernel.store.get(7), kernel.stream_weight
(125.0, 125.0)
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.policies import DecrementPolicy, SampleQuantilePolicy
from repro.engine.grouping import BatchGrouper
from repro.errors import IncompatibleSketchError, InvalidParameterError
from repro.metrics.instrumentation import OpStats
from repro.native import seed_mix, table_kernels
from repro.prng import Xoroshiro128PlusPlus
from repro.streams.model import check_weight
from repro.table import GROWTH_MODES, make_store
from repro.table.base import CounterStore
from repro.table.dictstore import DictCounterStore
from repro.types import ItemId

#: XOR mask applied to the construction seed before seeding the counter
#: sampling PRNG (kept identical to the pre-engine FrequentItemsSketch so
#: serialized state and draw sequences are unchanged).
RNG_SEED_MASK = 0x5EED_0F_5EED


class SketchKernel:
    """Counter table + decrement policy + offset accounting, batched and scalar.

    Parameters
    ----------
    max_counters:
        The paper's ``k`` — number of counters maintained.  Must be >= 2.
    policy:
        The ``DecrementCounters()`` strategy (the paper's SMED
        configuration when omitted).
    backend:
        Counter-store backend name (see :func:`repro.table.make_store`).
    seed:
        Controls counter sampling, quickselect pivots, merge iteration
        order, and the table hash — two kernels built with the same seed
        and inputs are identical.
    growth:
        ``"fixed"`` (default) allocates the full counter table up front;
        ``"adaptive"`` starts it small and doubles up to ``k`` on
        overflow, the paper's doubling hash map.  Decrement passes begin
        only once the table holds ``k`` counters, in either mode — so an
        adaptive kernel answers queries bit-identically to a fixed one.
    """

    __slots__ = (
        "k",
        "policy",
        "backend",
        "seed",
        "growth",
        "store",
        "rng",
        "offset",
        "stream_weight",
        "stats",
        "_grouper",
        "_val_arena",
        "_tracked_arena",
        "_first_arena",
    )

    def __init__(
        self,
        max_counters: int,
        policy: Optional[DecrementPolicy] = None,
        backend: str = "probing",
        seed: int = 0,
        growth: str = "fixed",
    ) -> None:
        if max_counters < 2:
            raise InvalidParameterError(
                f"max_counters must be at least 2, got {max_counters}"
            )
        if growth not in GROWTH_MODES:
            raise InvalidParameterError(
                f"growth must be one of {GROWTH_MODES}, got {growth!r}"
            )
        self.k = max_counters
        self.policy: DecrementPolicy = (
            policy if policy is not None else SampleQuantilePolicy()
        )
        self.backend = backend
        self.seed = seed
        self.growth = growth
        self.store: CounterStore = make_store(
            backend, max_counters, seed=seed, growth=growth
        )
        self.rng = Xoroshiro128PlusPlus(seed ^ RNG_SEED_MASK)
        self.offset = 0.0
        self.stream_weight = 0.0
        self.stats = OpStats()
        # Batched-ingest scratch, created lazily on the first batch: the
        # grouper owns the hash-grouping table, the arenas back the
        # per-group masks/values so no window reallocates them.
        self._grouper: Optional[BatchGrouper] = None
        self._val_arena: Optional[np.ndarray] = None
        self._tracked_arena: Optional[np.ndarray] = None
        self._first_arena: Optional[np.ndarray] = None

    # -- reconstruction -------------------------------------------------------

    @classmethod
    def restore(
        cls,
        max_counters: int,
        policy: Optional[DecrementPolicy],
        backend: str,
        seed: int,
        items: np.ndarray,
        counts: np.ndarray,
        offset: float,
        stream_weight: float,
        rng_state: Optional[tuple[int, int]] = None,
        stats: Optional[OpStats] = None,
        growth: str = "fixed",
    ) -> "SketchKernel":
        """Rebuild a kernel from saved state (the one shared restore path).

        ``copy()`` and ``from_bytes()`` both funnel through here:
        counters are bulk-inserted in the order given (which fixes the
        layout of order-sensitive stores exactly as a scalar insert
        sequence would), the accounting scalars are restored verbatim,
        and the PRNG either resumes from ``rng_state`` (copy) or
        restarts from the construction seed (deserialization).
        """
        kernel = cls(
            max_counters, policy=policy, backend=backend, seed=seed, growth=growth
        )
        if len(items):
            kernel.store.insert_many(
                np.ascontiguousarray(items, dtype=np.uint64),
                np.ascontiguousarray(counts, dtype=np.float64),
            )
        kernel.offset = offset
        kernel.stream_weight = stream_weight
        if rng_state is not None:
            kernel.rng.setstate(rng_state)
        if stats is not None:
            kernel.stats = OpStats(**stats.as_dict())
        return kernel

    def copy(self) -> "SketchKernel":
        """An independent deep copy (same configuration and contents)."""
        items, counts = self.store.as_arrays()
        return SketchKernel.restore(
            self.k,
            self.policy,
            self.backend,
            self.seed,
            items,
            counts,
            self.offset,
            self.stream_weight,
            rng_state=self.rng.getstate(),
            stats=self.stats,
            growth=self.growth,
        )

    # -- scalar ingestion -----------------------------------------------------

    def update(self, item: ItemId, weight: float = 1.0) -> None:
        """Validate and process one weighted stream update."""
        check_weight(item, weight)
        # Counters hold floats on every backend, whatever the caller passed.
        weight = float(weight)
        self.stream_weight += weight
        self.ingest(item, weight)

    def ingest(self, item: ItemId, weight: float) -> None:
        """Counter logic shared by :meth:`update` and :meth:`absorb`.

        Does *not* touch :attr:`stream_weight` — merging must account for
        the other summary's true stream weight, not its counter sum.
        """
        stats = self.stats
        stats.updates += 1
        store = self.store
        if store.add_to(item, weight):
            stats.hits += 1
            return
        if len(store) < self.k:
            store.insert(item, weight)
            stats.inserts += 1
            return
        # Table full: DecrementCounters() (Algorithm 4, lines 15-21).
        c_star = self.policy.decrement_value(store, self.rng)
        scanned = len(store)
        freed = store.decrement_and_purge(c_star)
        self.offset += c_star
        stats.decrements += 1
        stats.counters_scanned += scanned
        stats.counters_freed += freed
        if weight > c_star:
            store.insert(item, weight - c_star)
            stats.inserts += 1

    # -- batched ingestion ----------------------------------------------------

    def update_batch_validated(self, items: np.ndarray, weights: np.ndarray) -> None:
        """Batched ingest minus input coercion.

        ``items``/``weights`` must already be the ``(uint64, float64)``
        pair :func:`repro.streams.model.as_batch` produces.  The sharded
        ingestion path validates a batch once and feeds each shard its
        slice through this entry point, skipping per-shard re-validation.
        """
        n = items.shape[0]
        if n == 0:
            return
        # Stream-weight exactness contract: for integer-valued weights
        # (every workload in the paper — unit weights, packet counts,
        # packet bits) this one bulk sum is exact in any order, so the
        # batched and scalar stream weights are bit-identical.  For
        # fractional weights NumPy's pairwise summation bounds the
        # rounding drift by O(eps * log n) relative — far tighter than a
        # naive left-to-right loop — but bit-identity with the scalar
        # ``+=`` sequence is explicitly NOT promised; a regression test
        # pins the drift bound so it cannot silently widen.
        self.stream_weight += float(weights.sum())
        # Ingest in bounded windows: the segment scan inside
        # ingest_batch walks the remaining window once per decrement
        # pass, so capping the window at O(k) keeps the worst case
        # (min-like policies that free one counter per pass) at the
        # scalar loop's O(n*k) instead of O(n^2).  ingest_batch is
        # per-update-equivalent, so windowing cannot change the result.
        window = max(4096, 8 * self.k)
        if n <= window:
            self.ingest_batch(items, weights)
        else:
            for start in range(0, n, window):
                stop = start + window
                self.ingest_batch(items[start:stop], weights[start:stop])

    def _ensure_arenas(
        self, num_groups: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel-owned per-group scratch arrays (reused, grown
        geometrically, never shrunk): ``(val, tracked, first_scratch)``."""
        val = self._val_arena
        tracked = self._tracked_arena
        first = self._first_arena
        if val is None or tracked is None or first is None or len(val) < num_groups:
            size = max(4096, 1 << (num_groups - 1).bit_length())
            val = self._val_arena = np.empty(size, dtype=np.float64)
            tracked = self._tracked_arena = np.empty(size, dtype=bool)
            first = self._first_arena = np.empty(size, dtype=np.int64)
        return val, tracked, first

    def ingest_batch(self, items: np.ndarray, weights: np.ndarray) -> None:
        """Grouped counter logic, equivalent to :meth:`ingest` per element.

        The batch is processed as a run of *segments* separated by
        decrement passes.  Within a segment no counter is freed, so
        updates commute into per-key groups: tracked keys take one bulk
        add, new keys one bulk insert (in first-occurrence order, which
        pins down iteration order on order-sensitive layouts).  The
        segment boundary is placed exactly where the scalar loop would
        overflow the table — the first update whose key is untracked
        once the table is full — and the decrement there replays the
        scalar code path verbatim, PRNG draws included.

        Grouping is hash-based (:class:`~repro.engine.grouping.
        BatchGrouper`): no ``np.unique`` sort, and the grouping table and
        per-group masks live in kernel-owned arenas reused across
        windows, so the steady-state loop allocates almost nothing.
        """
        store = self.store
        stats = self.stats
        k = self.k
        n = len(items)
        if n == 0:
            return
        if type(store) is DictCounterStore:
            # CPython's dict probe is already a compiled hash lookup, so
            # the grouped orchestration below only adds overhead on this
            # backend; inline the scalar loop over raw dict ops instead.
            self._ingest_lists_dict(items.tolist(), weights.tolist())
            return
        kernels = self._native_kernels()
        if kernels is not None:
            self._ingest_batch_native(items, weights, kernels)
            return
        grouper = self._grouper
        if grouper is None:
            grouper = self._grouper = BatchGrouper()
        uniq, inverse, num_groups = grouper.group(items)
        if not len(store) and num_groups <= k:
            # Bulk load: every distinct key fits an empty table, so no
            # decrement pass can trigger (weights are positive) and the
            # whole batch collapses to one grouped insert.  This is the
            # hot path for deserialization, merge into a fresh sketch,
            # and the first batch on each shard of a sharded ingest.
            # ``uniq`` is already in first-occurrence order — exactly the
            # scalar insert sequence for order-sensitive layouts.
            sums = np.bincount(inverse, weights=weights, minlength=num_groups)
            store.insert_many(uniq, sums)
            stats.updates += n
            stats.inserts += num_groups
            stats.hits += n - num_groups
            return
        # Per-group live value, mirrored locally so purge survival can be
        # decided with array ops instead of store lookups.  NaN-free:
        # untracked groups carry 0.0 and a False `tracked` flag.
        val_arena, tracked_arena, first_arena = self._ensure_arenas(num_groups)
        tracked = tracked_arena[:num_groups]
        val = val_arena[:num_groups]
        first_scratch = first_arena[:num_groups]
        if len(store):
            initial = store.get_many(uniq)
            np.isnan(initial, out=tracked)
            np.logical_not(tracked, out=tracked)
            val[:] = 0.0
            np.copyto(val, initial, where=tracked)
        else:
            # Bulk-load-adjacent (empty table, more groups than k): no
            # key can be tracked yet — skip the get_many NaN round-trip.
            tracked[:] = False
            val[:] = 0.0
        p = 0
        while p < n:
            room = k - len(store)
            sub = inverse[p:]
            untracked_at = np.flatnonzero(~tracked[sub])
            if untracked_at.size:
                # First occurrence (within the suffix) of each distinct
                # untracked group: reversed fancy assignment makes the
                # earliest position win, with no sort.
                groups_at = sub[untracked_at]
                first_scratch[:] = -1
                first_scratch[groups_at[::-1]] = untracked_at[::-1]
                candidates = first_scratch[first_scratch >= 0]
            else:
                candidates = untracked_at
            if candidates.size <= room:
                seg_len = n - p
                trigger = -1
                new_positions = np.sort(candidates)
            else:
                # The (room+1)-th distinct new key overflows the table:
                # that update runs the decrement, exactly as in scalar.
                bound = np.partition(candidates, room)[: room + 1]
                bound.sort()
                new_positions = bound[:room]
                seg_len = int(bound[room])
                trigger = p + seg_len
            if seg_len:
                seg_weights = np.bincount(
                    sub[:seg_len], weights=weights[p : p + seg_len],
                    minlength=num_groups,
                )
                # Positive weights make "summed to > 0" and "present in
                # the segment" the same predicate.
                add_groups = np.flatnonzero((seg_weights > 0.0) & tracked)
                if add_groups.size:
                    store.add_many(uniq[add_groups], seg_weights[add_groups])
                    val[add_groups] += seg_weights[add_groups]
                new_groups = sub[new_positions]
                if new_groups.size:
                    store.insert_many(uniq[new_groups], seg_weights[new_groups])
                    tracked[new_groups] = True
                    val[new_groups] = seg_weights[new_groups]
                stats.updates += seg_len
                stats.inserts += int(new_groups.size)
                stats.hits += seg_len - int(new_groups.size)
            if trigger < 0:
                break
            # Table full: DecrementCounters(), scalar code path verbatim.
            trigger_weight = float(weights[trigger])
            trigger_group = int(inverse[trigger])
            c_star = self.policy.decrement_value(store, self.rng)
            scanned = len(store)
            freed = store.decrement_and_purge(c_star)
            self.offset += c_star
            stats.updates += 1
            stats.decrements += 1
            stats.counters_scanned += scanned
            stats.counters_freed += freed
            np.subtract(val, c_star, out=val, where=tracked)
            tracked &= val > 0.0
            if trigger_weight > c_star:
                store.insert(int(uniq[trigger_group]), trigger_weight - c_star)
                stats.inserts += 1
                tracked[trigger_group] = True
                val[trigger_group] = trigger_weight - c_star
            p = trigger + 1

    # -- native (compiled) ingestion ------------------------------------------

    def _native_kernels(self) -> Any:
        """The kernels module when the whole ingest loop can run in C.

        Requires the stock sampled-quantile policy with the ``"auto"``
        selector (the compiled decrement replicates exactly that order
        statistic and its PRNG draw sequence) on a native-servable,
        fully-grown probing table.
        """
        policy = self.policy
        if type(policy) is not SampleQuantilePolicy or policy.selector != "auto":
            return None
        return table_kernels(self.store)

    def _ingest_batch_native(
        self, items: np.ndarray, weights: np.ndarray, kernels
    ) -> None:
        """Run the scalar :meth:`ingest` loop over the batch in C.

        ``ingest_batch`` is defined to be per-update-equivalent to the
        scalar loop, so the compiled loop — a literal port of
        :meth:`ingest`, PRNG steps included — is bit-identical to both
        Python paths.  Only ``probe_count`` follows the scalar (not the
        segmented) accounting, matching what a scalar replay would
        charge.
        """
        items = np.require(items, dtype=np.uint64, requirements=("C", "A"))
        weights = np.require(weights, dtype=np.float64, requirements=("C", "A"))
        store = self.store
        policy = self.policy
        s0, s1 = self.rng.getstate()
        (
            size,
            s0,
            s1,
            offset,
            probes,
            hits,
            inserts,
            decrements,
            scanned,
            freed,
        ) = kernels.ingest_batch(
            items,
            weights,
            store._keys,
            store._values,
            store._states,
            store._size,
            self.k,
            seed_mix(store._seed),
            s0,
            s1,
            self.offset,
            policy.quantile,
            policy.sample_size,
        )
        store._size = size
        store.probe_count += probes
        self.rng.setstate((s0, s1))
        self.offset = offset
        stats = self.stats
        stats.updates += len(items)
        stats.hits += hits
        stats.inserts += inserts
        stats.decrements += decrements
        stats.counters_scanned += scanned
        stats.counters_freed += freed

    # -- dict-backend fast path ------------------------------------------------

    def _ingest_lists_dict(self, items: list, weights: list) -> None:
        """Inlined scalar ingest loop over raw dict operations.

        Serves both the dict backend's batch ingest and its Algorithm 5
        merge replay.  Identical in every observable to calling
        :meth:`ingest` per element — same dict insertion order (hence
        iteration order and serialized bytes), same PRNG draws, and
        ``value - c*`` is bit-equal to the scalar path's ``value + (-c*)``
        — while skipping the per-update method dispatch and the grouped
        path's per-window array work, neither of which helps a backend
        whose point lookups are already C-coded.
        """
        store = self.store
        counts = store._counts  # type: ignore[attr-defined]
        k = self.k
        stats = self.stats
        policy = self.policy
        rng = self.rng
        hits = 0
        inserts = 0
        for item, weight in zip(items, weights):
            current = counts.get(item)
            if current is not None:
                counts[item] = current + weight
                hits += 1
                continue
            if len(counts) < k:
                counts[item] = weight
                inserts += 1
                continue
            c_star = policy.decrement_value(store, rng)
            stats.decrements += 1
            stats.counters_scanned += len(counts)
            survivors = {
                key: value - c_star
                for key, value in counts.items()
                if value > c_star
            }
            stats.counters_freed += len(counts) - len(survivors)
            counts = store._counts = survivors  # type: ignore[attr-defined]
            self.offset += c_star
            if weight > c_star:
                counts[item] = weight - c_star
                inserts += 1
        stats.updates += len(items)
        stats.hits += hits
        stats.inserts += inserts

    # -- merging --------------------------------------------------------------

    def absorb(self, other: "SketchKernel") -> "SketchKernel":
        """Algorithm 5: replay ``other``'s counters into this kernel.

        The other summary's counters are fed through the update path in
        *random order* — the Section 3.2 note: iterating a hash table
        front-to-back into another table (possibly sharing the hash
        function) would overpopulate the front of this kernel's table.
        Offsets add (each summary's accumulated error carries over) and
        stream weights add.  ``other`` is not modified.
        """
        if other is self:
            raise IncompatibleSketchError("cannot merge a sketch into itself")
        if isinstance(self.store, DictCounterStore):
            # Dict keys are arbitrary Python ints (a scalar update never
            # coerces them), so the dict replay stays in Python objects.
            entries = list(other.store.items())
            entries = [entries[index] for index in self._replay_order(len(entries))]
            self._ingest_lists_dict(
                [item for item, _count in entries],
                [count for _item, count in entries],
            )
        else:
            items, counts = other.store.as_arrays()
            if len(items):
                # The other store's keys are distinct, and the batch
                # ingest is defined to equal the per-entry ingest loop:
                # one call replays the permuted summary (in C when the
                # kernels are compiled).
                order = self._replay_order(len(items))
                self.ingest_batch(items[order], counts[order])
        self.offset += other.offset
        self.stream_weight += other.stream_weight
        return self

    def _replay_order(self, count: int) -> np.ndarray:
        """Algorithm 5's random replay order over ``count`` counters.

        Seeded from this kernel's PRNG (one draw, taken only when there
        is more than one counter to order); numpy's permutation is
        C-coded, where a pure-Python shuffle would dominate the merge
        cost at large k.
        """
        if count <= 1:
            return np.arange(count)
        return np.random.Generator(
            np.random.PCG64(self.rng.next_u64())
        ).permutation(count)

    # -- rescaling (time-fading consumers) ------------------------------------

    def rescale(self, factor: float) -> None:
        """Multiply every counter and both accounting scalars by ``factor``.

        The renormalization primitive of the exponential time-fading
        consumer (:class:`repro.extensions.decayed.
        DecayedFrequentItemsSketch`): dividing the whole summary by the
        current decay scale keeps counters inside float range without
        changing any reported (decayed) estimate.  Counters that
        underflow to zero are purged — they represent weight decayed
        below representability, which is exactly when dropping them is
        harmless.
        """
        if factor < 0.0:
            raise InvalidParameterError(f"rescale factor must be >= 0, got {factor}")
        self.store.scale_all(factor)
        self.store.purge_nonpositive()
        self.offset *= factor
        self.stream_weight *= factor

    # -- introspection ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True if the kernel has processed no weight."""
        return self.stream_weight == 0.0

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SketchKernel(k={self.k}, policy={self.policy.describe()}, "
            f"backend={self.backend!r}, active={len(self.store)}, "
            f"N={self.stream_weight:g}, offset={self.offset:g})"
        )

"""The optimized weighted Misra-Gries sketch (Algorithm 4 + Section 2.3).

This is the paper's contribution in one class:

* **Weighted updates in amortized O(1)** — when the table is full, all
  counters are decremented by ``c*``, a sampled quantile of the live
  counter values (Algorithm 4).  With the default median policy at least
  ~half the counters are freed per pass w.h.p., so passes occur at most
  once every Ω(k) updates (Theorem 3) while the error guarantee
  ``0 <= f_i - f̂_i <= N^res(j)/(k/c - j)`` holds w.h.p. (Theorem 4).
* **Hybrid MG/SS estimator (Section 2.3.1)** — an ``offset`` accumulates
  every ``c*``; tracked items report ``c(i) + offset`` (SS-style, often
  exactly correct for genuinely frequent items), untracked items report 0
  (MG-style, exactly correct for absent items).  Deterministic bounds:
  ``c(i) <= f_i <= c(i) + offset``.
* **Compact storage (Section 2.3.3)** — counters live in a linear-probing
  table of parallel arrays with in-place backward-shift deletion
  (``backend="probing"``); a builtin-dict backend is provided because
  CPython's dict is itself a C-coded open-addressing table and is the
  pragmatic fast path in pure Python (ablation benchmark included).
* **O(k) merging (Algorithm 5, Section 3.2)** — the other summary's
  counters are replayed through ``update`` in random order; offsets and
  stream weights add.  Error after any aggregation tree obeys
  ``f_i - f̂_i <= (N - C)/k*`` (Theorem 5).

Since the engine extraction this class is a thin *facade*: all counter
logic lives in :class:`repro.engine.kernel.SketchKernel` (ingest,
decrement, offset accounting, merging) and
:class:`repro.engine.query.QueryEngine` (estimates, bounds, heavy-hitter
rows), shared with the sharded sketch and the windowed / sampled /
decayed extensions.  Behavior is bit-identical to the pre-extraction
implementation — same counters, offsets, PRNG draws, serialized bytes.

>>> sketch = FrequentItemsSketch(64, seed=1)
>>> for item, weight in [(7, 100.0), (8, 50.0), (7, 25.0)]:
...     sketch.update(item, weight)
>>> sketch.estimate(7)
125.0
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.policies import DecrementPolicy
from repro.core.row import ErrorType, HeavyHitterRow
from repro.engine.kernel import SketchKernel
from repro.engine.query import QueryEngine
from repro.metrics.instrumentation import OpStats
from repro.prng import Xoroshiro128PlusPlus
from repro.streams.model import as_batch, as_updates
from repro.table.base import CounterStore
from repro.types import ItemId, Weight


class FrequentItemsSketch:
    """Approximate frequencies and heavy hitters over weighted streams.

    Parameters
    ----------
    max_counters:
        The paper's ``k`` — the number of counters maintained.  Larger is
        more accurate and (beyond a point) faster per update, at linearly
        more space.  Must be at least 2.
    policy:
        The ``DecrementCounters()`` strategy.  Defaults to the paper's
        recommended SMED configuration (sample median, ℓ = 1024).
    backend:
        ``"probing"`` (default) for the faithful Section 2.3.3 layout, or
        ``"dict"`` for the CPython-pragmatic fast path.
    seed:
        Controls counter sampling, quickselect pivots, the merge
        iteration order, and the table's hash — two sketches built with
        the same seed and inputs are identical.
    growth:
        ``"fixed"`` (default) allocates the whole table up front;
        ``"adaptive"`` starts it small and doubles up to ``k`` on
        overflow (the paper's doubling hash map) — decrement passes
        begin only once ``k`` counters are live, so query results are
        bit-identical to the fixed mode throughout.
    """

    __slots__ = ("_kernel", "_query")

    def __init__(
        self,
        max_counters: int,
        policy: Optional[DecrementPolicy] = None,
        backend: str = "probing",
        seed: int = 0,
        growth: str = "fixed",
    ) -> None:
        self._kernel = SketchKernel(
            max_counters, policy=policy, backend=backend, seed=seed, growth=growth
        )
        self._query = QueryEngine(self._kernel)

    @classmethod
    def _from_kernel(cls, kernel: SketchKernel) -> "FrequentItemsSketch":
        """Wrap an existing kernel without copying it (engine consumers)."""
        sketch = cls.__new__(cls)
        sketch._kernel = kernel
        sketch._query = QueryEngine(kernel)
        return sketch

    # -- engine access ---------------------------------------------------------

    @property
    def kernel(self) -> SketchKernel:
        """The underlying :class:`~repro.engine.kernel.SketchKernel`."""
        return self._kernel

    @property
    def query_engine(self) -> QueryEngine:
        """The underlying :class:`~repro.engine.query.QueryEngine`."""
        return self._query

    # -- kernel state, exposed under the historical private names --------------
    # (serialization, the sharded sketch, benchmarks, and tests all peek
    # at these; they are now views onto the kernel.)

    @property
    def _store(self) -> CounterStore:
        return self._kernel.store

    @property
    def _rng(self) -> Xoroshiro128PlusPlus:
        return self._kernel.rng

    @property
    def _offset(self) -> float:
        return self._kernel.offset

    @_offset.setter
    def _offset(self, value: float) -> None:
        self._kernel.offset = value

    @property
    def _stream_weight(self) -> float:
        return self._kernel.stream_weight

    @_stream_weight.setter
    def _stream_weight(self, value: float) -> None:
        self._kernel.stream_weight = value

    @property
    def stats(self) -> OpStats:
        """Operation counters for the events that dominate update cost."""
        return self._kernel.stats

    @stats.setter
    def stats(self, value: OpStats) -> None:
        self._kernel.stats = value

    # -- configuration introspection ------------------------------------------

    @property
    def max_counters(self) -> int:
        """The configured number of counters ``k``.

        Examples
        --------
        >>> FrequentItemsSketch(64).max_counters
        64
        """
        return self._kernel.k

    @property
    def policy(self) -> DecrementPolicy:
        """The active decrement policy (SMED when none was given).

        Examples
        --------
        >>> FrequentItemsSketch(64).policy.describe()
        'SMED(ell=1024)'
        """
        return self._kernel.policy

    @property
    def backend(self) -> str:
        """The counter-store backend name.

        Examples
        --------
        >>> FrequentItemsSketch(64).backend
        'probing'
        """
        return self._kernel.backend

    @property
    def seed(self) -> int:
        """The seed this sketch was constructed with.

        Examples
        --------
        >>> FrequentItemsSketch(64, seed=9).seed
        9
        """
        return self._kernel.seed

    @property
    def growth(self) -> str:
        """The table-growth mode (``"fixed"`` or ``"adaptive"``).

        Examples
        --------
        >>> FrequentItemsSketch(64, growth="adaptive").growth
        'adaptive'
        """
        return self._kernel.growth

    # -- state introspection ---------------------------------------------------

    @property
    def num_active(self) -> int:
        """Number of items currently assigned counters.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update_all([1, 2, 1])
        >>> sketch.num_active
        2
        """
        return len(self._kernel.store)

    @property
    def stream_weight(self) -> float:
        """Total weight ``N`` processed (including merged-in sketches).

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(5, 2.5)
        >>> sketch.stream_weight
        2.5
        """
        return self._kernel.stream_weight

    @property
    def maximum_error(self) -> float:
        """The accumulated offset: a bound on ``f_i - lower_bound(i)``.

        This is the sum of all decrement values ``c*`` so far; every
        estimate's uncertainty interval has exactly this width.

        Examples
        --------
        >>> FrequentItemsSketch(64).maximum_error
        0.0
        """
        return self._kernel.offset

    def is_empty(self) -> bool:
        """True if the sketch has processed no weight.

        Examples
        --------
        >>> FrequentItemsSketch(64).is_empty()
        True
        """
        return self._kernel.is_empty()

    def __len__(self) -> int:
        return len(self._kernel.store)

    def __contains__(self, item: ItemId) -> bool:
        return self._kernel.store.get(item) is not None

    # -- updates ---------------------------------------------------------------

    def update(self, item: ItemId, weight: Weight = 1.0) -> None:
        """Process one weighted stream update ``(item, weight)``.

        Amortized O(1): the only non-constant step is a decrement pass,
        which frees a constant fraction of the ``k`` counters and so can
        recur at most once every Ω(k) updates (Theorem 3).

        Parameters
        ----------
        item : int
            The 64-bit item identifier (helpers in :mod:`repro.hashing`
            fold strings/bytes onto that space).
        weight : float, optional
            Positive update weight ``delta_j`` (1.0 when omitted).

        Raises
        ------
        InvalidUpdateError
            If ``weight`` is not strictly positive.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(7)
        >>> sketch.update(7, 2.0)
        >>> sketch.estimate(7)
        3.0
        """
        self._kernel.update(item, weight)

    def update_all(self, updates: Iterable) -> None:
        """Consume an iterable of updates (items, pairs, or StreamUpdates).

        Bare item ids are treated as unit-weight updates, exactly as the
        stream model of Section 1.2 allows.

        Parameters
        ----------
        updates : iterable
            Any mix of bare item ids, ``(item, weight)`` pairs, and
            :class:`~repro.types.StreamUpdate` instances.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update_all([7, (8, 3.0), 7])
        >>> sketch.estimate(7), sketch.estimate(8)
        (2.0, 3.0)
        """
        kernel_update = self._kernel.update
        for item, weight in as_updates(updates):
            kernel_update(item, weight)

    def update_batch(self, items, weights=None) -> None:
        """Process a batch of weighted updates given as NumPy arrays.

        ``items`` is a 1-D array (or sequence) of 64-bit item ids and
        ``weights`` a parallel array of positive weights (all 1.0 when
        omitted).  The result is *identical* to calling :meth:`update`
        once per element in order — same counters, same offset, same
        serialized bytes — but the work is done per *distinct* key and
        per decrement pass instead of per update:

        * one grouping pass (``np.unique`` + ``np.bincount``) collapses
          duplicate keys;
        * between decrement passes, tracked keys receive one bulk
          ``add_many`` and new keys one bulk ``insert_many``;
        * decrement passes run exactly where the scalar loop would run
          them (Theorem 3's amortization: at most once every Ω(k)
          updates), so a batch triggers O(batch/k + 1) passes.

        Equivalence holds bit-for-bit when weights are exactly
        representable integers (the paper's workloads — unit weights,
        integer weights, packet bits — all are); for arbitrary reals the
        grouped additions may differ from the sequential loop by
        floating-point rounding only.

        Parameters
        ----------
        items : numpy.ndarray or sequence
            1-D array of 64-bit item identifiers.
        weights : numpy.ndarray, optional
            Parallel array of positive weights (all 1.0 when omitted).

        Examples
        --------
        >>> import numpy as np
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update_batch(np.array([7, 8, 7], dtype=np.uint64),
        ...                     np.array([1.0, 3.0, 1.0]))
        >>> sketch.estimate(7), sketch.stream_weight
        (2.0, 5.0)
        """
        items, weights = as_batch(items, weights)
        self._kernel.update_batch_validated(items, weights)

    def _ingest(self, item: ItemId, weight: float) -> None:
        """Kernel scalar ingest (stream weight not touched); see the engine."""
        self._kernel.ingest(item, weight)

    # -- point queries ----------------------------------------------------------

    def estimate(self, item: ItemId) -> float:
        """The hybrid point estimate of Section 2.3.1.

        ``c(i) + offset`` when the item holds a counter (SS-like), else 0
        (MG-like).  Always within ``[lower_bound, upper_bound]``.

        Parameters
        ----------
        item : int
            The item identifier to estimate.

        Returns
        -------
        float
            The estimated total weight of ``item`` in the stream.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(7, 5.0)
        >>> sketch.estimate(7), sketch.estimate(8)
        (5.0, 0.0)
        """
        return self._query.estimate(item)

    def estimate_batch(self, items) -> np.ndarray:
        """Vectorized :meth:`estimate` over an array of item identifiers.

        One bulk store probe instead of one Python call per key; repeated
        and absent keys are both fine.  Element-for-element equal to the
        scalar method: ``estimate_batch(items)[i] == estimate(items[i])``.

        Parameters
        ----------
        items : numpy.ndarray or sequence
            1-D array of item identifiers to estimate.

        Returns
        -------
        numpy.ndarray
            Float64 estimates, parallel to ``items``.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(7, 5.0)
        >>> sketch.estimate_batch([7, 8, 7])
        array([5., 0., 5.])
        """
        return self._query.estimate_batch(items)

    def lower_bound(self, item: ItemId) -> float:
        """A value guaranteed ``<= f(item)``: the raw MG counter.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(7, 5.0)
        >>> sketch.lower_bound(7)
        5.0
        """
        return self._query.lower_bound(item)

    def upper_bound(self, item: ItemId) -> float:
        """A value guaranteed ``>= f(item)``: counter plus total offset.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(7, 5.0)
        >>> sketch.upper_bound(7)
        5.0
        """
        return self._query.upper_bound(item)

    # -- heavy hitters ------------------------------------------------------------

    def row(self, item: ItemId) -> HeavyHitterRow:
        """The full (estimate, bounds) record for one item.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(7, 5.0)
        >>> sketch.row(7).lower_bound
        5.0
        """
        return self._query.row(item)

    def frequent_items(
        self,
        error_type: ErrorType = ErrorType.NO_FALSE_POSITIVES,
        threshold: Optional[float] = None,
    ) -> list[HeavyHitterRow]:
        """Items whose frequency (may) exceed ``threshold``, sorted by estimate.

        With ``NO_FALSE_POSITIVES`` an item is reported only if its lower
        bound clears the threshold — everything reported truly qualifies.
        With ``NO_FALSE_NEGATIVES`` the upper bound is compared — every
        true heavy hitter is reported, possibly with a few borderline
        extras.  The default threshold is :attr:`maximum_error`, the
        tightest level at which the reports are meaningful.

        Parameters
        ----------
        error_type : ErrorType, optional
            Which side of the uncertainty interval gates inclusion.
        threshold : float, optional
            Minimum (estimated) frequency; defaults to
            :attr:`maximum_error`.

        Returns
        -------
        list of HeavyHitterRow
            Qualifying items, sorted by estimate descending.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update_all([(1, 9.0), (2, 1.0)])
        >>> [row.item for row in sketch.frequent_items(threshold=5.0)]
        [1]
        """
        return self._query.frequent_items(error_type, threshold)

    def heavy_hitters(
        self,
        phi: float,
        error_type: ErrorType = ErrorType.NO_FALSE_NEGATIVES,
    ) -> list[HeavyHitterRow]:
        """(φ)-heavy hitters: items with ``f_i >= phi * N`` (Section 1.2).

        The default error direction guarantees every true φ-heavy hitter
        is returned, with false positives limited to items of frequency
        at least ``phi*N - maximum_error``.

        Parameters
        ----------
        phi : float
            The heavy-hitter fraction, in ``(0, 1]``.
        error_type : ErrorType, optional
            As in :meth:`frequent_items`; defaults to no false
            negatives.

        Returns
        -------
        list of HeavyHitterRow
            The reported heavy hitters, sorted by estimate descending.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update_all([(1, 9.0), (2, 1.0)])
        >>> [row.item for row in sketch.heavy_hitters(phi=0.5)]
        [1]
        """
        return self._query.heavy_hitters(phi, error_type)

    def to_rows(self) -> list[HeavyHitterRow]:
        """All tracked items as rows, sorted by estimate descending.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update_all([(1, 9.0), (2, 1.0)])
        >>> [row.item for row in sketch.to_rows()]
        [1, 2]
        """
        return self._query.to_rows()

    def __iter__(self) -> Iterator[HeavyHitterRow]:
        return iter(self.to_rows())

    # -- merging -------------------------------------------------------------------

    def merge(self, other: "FrequentItemsSketch") -> "FrequentItemsSketch":
        """Algorithm 5: absorb ``other`` into this sketch; returns self.

        The other summary's counters are replayed through the update path
        in *random order* — the Section 3.2 note: iterating a hash table
        front-to-back into another table (possibly sharing the hash
        function) would overpopulate the front of this sketch's table.
        Offsets add (each summary's accumulated error carries over) and
        stream weights add.  ``other`` is not modified.

        Runs in O(k) time, O(min(k, k'))-amortized when many small
        summaries are merged in, and allocates nothing beyond the
        iteration order.

        Parameters
        ----------
        other : FrequentItemsSketch
            The summary to absorb; it is left unmodified.

        Returns
        -------
        FrequentItemsSketch
            ``self``, to allow fold-style chaining.

        Examples
        --------
        >>> a, b = FrequentItemsSketch(64), FrequentItemsSketch(64)
        >>> a.update(1, 4.0); b.update(1, 6.0)
        >>> a.merge(b).estimate(1)
        10.0
        """
        self._kernel.absorb(other._kernel)
        return self

    def copy(self) -> "FrequentItemsSketch":
        """An independent deep copy (same configuration and contents).

        Reconstruction goes through the kernel's single
        :meth:`~repro.engine.kernel.SketchKernel.restore` path, shared
        with :meth:`from_bytes`.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(1, 5.0)
        >>> dup = sketch.copy()
        >>> dup.update(1, 5.0)
        >>> sketch.estimate(1), dup.estimate(1)
        (5.0, 10.0)
        """
        return FrequentItemsSketch._from_kernel(self._kernel.copy())

    # -- accounting ------------------------------------------------------------------

    def space_bytes(self) -> int:
        """Modeled memory footprint (Section 2.3.3: ~24k bytes).

        Examples
        --------
        >>> FrequentItemsSketch(64).space_bytes() > 0
        True
        """
        return self._kernel.store.space_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kernel = self._kernel
        return (
            f"FrequentItemsSketch(k={kernel.k}, policy={kernel.policy.describe()}, "
            f"backend={kernel.backend!r}, active={len(kernel.store)}, "
            f"N={kernel.stream_weight:g}, offset={kernel.offset:g})"
        )

    # -- serialization hooks (implemented in repro.core.serialize) --------------------

    def to_bytes(self) -> bytes:
        """Serialize to the compact binary format (see docs/serialization.md).

        Examples
        --------
        >>> FrequentItemsSketch(64).to_bytes()[:4]
        b'RFI1'
        """
        from repro.core.serialize import sketch_to_bytes

        return sketch_to_bytes(self)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FrequentItemsSketch":
        """Reconstruct a sketch serialized with :meth:`to_bytes`.

        Examples
        --------
        >>> sketch = FrequentItemsSketch(64)
        >>> sketch.update(1, 5.0)
        >>> FrequentItemsSketch.from_bytes(sketch.to_bytes()).estimate(1)
        5.0
        """
        from repro.core.serialize import sketch_from_bytes

        return sketch_from_bytes(blob)

"""Exponential time-fading frequent items on the shared engine.

The time-fading model (Cafaro, Pulimeno & Epicoco, *Mining frequent
items in the time fading model*; cf. Cormode et al.'s forward decay)
weights an update observed at time ``t`` by ``2^-(T - t)/h`` when
queried at time ``T`` — recent traffic counts fully, old traffic decays
geometrically with half-life ``h``.  Heavy hitters under this model are
the *currently trending* items rather than the all-time-total ones.

The implementation is the forward-decay trick composed with one
:class:`~repro.engine.kernel.SketchKernel`:

* at ingest, a weight arriving at time ``t`` is scaled **up** by the
  running scale ``2^(t - t0)/h`` (``t0`` a landmark) and fed to the
  kernel unchanged — both kernel ingest paths, scalar and segmented
  batch, work as-is, so the decayed sketch inherits the vectorized
  ``update_batch`` for free;
* at query, every kernel-domain quantity (counters + offset, stream
  weight, error bound) is divided by the current scale, which turns the
  stored values back into decayed frequencies;
* when the scale grows past ``2^64`` the whole kernel is renormalized
  through :meth:`~repro.engine.kernel.SketchKernel.rescale` — one
  multiply over the counter column — so counters stay in float range
  forever.  Renormalization changes no reported estimate; weight decayed
  below float resolution is purged, which is exactly when dropping it is
  harmless.

All of Algorithm 4's guarantees carry over verbatim in the scaled
domain: the kernel's offset bounds the (scaled) underestimate, so after
unscaling, ``lower_bound <= decayed f_i <= upper_bound`` holds
deterministically at every query time.

>>> sketch = DecayedFrequentItemsSketch(64, half_life=2.0, seed=1)
>>> sketch.update(7, 8.0)
>>> sketch.tick(2.0)                    # one half-life elapses
>>> sketch.estimate(7)
4.0
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.core.policies import DecrementPolicy
from repro.core.row import ErrorType, HeavyHitterRow
from repro.engine.kernel import SketchKernel
from repro.engine.query import QueryEngine
from repro.errors import InvalidParameterError
from repro.streams.model import as_batch, check_weight
from repro.types import ItemId, Weight

#: Renormalize once the ingest scale exceeds 2^64: far below float
#: overflow, far above anything a few half-lives of traffic needs.
_LOG2_RENORM_LIMIT = 64.0


class DecayedFrequentItemsSketch:
    """Frequent items under exponential time fading, on one kernel.

    Parameters
    ----------
    max_counters:
        The kernel's ``k`` — counters maintained.  Must be at least 2.
    half_life:
        Time (in :meth:`tick` units) for an update's influence to halve.
        ``math.inf`` disables decay, reducing to the plain sketch.
    policy, backend, seed:
        Forwarded to the kernel.

    Examples
    --------
    >>> sketch = DecayedFrequentItemsSketch(8, half_life=1.0, seed=3)
    >>> sketch.update(1, 4.0)
    >>> sketch.tick()
    >>> sketch.update(2, 4.0)
    >>> sketch.estimate(1), sketch.estimate(2)
    (2.0, 4.0)
    """

    __slots__ = ("_kernel", "_query", "_half_life", "_now", "_landmark", "_scale")

    def __init__(
        self,
        max_counters: int,
        half_life: float,
        policy: Optional[DecrementPolicy] = None,
        backend: str = "probing",
        seed: int = 0,
    ) -> None:
        if not half_life > 0.0:
            raise InvalidParameterError(
                f"half_life must be positive (math.inf disables decay), "
                f"got {half_life}"
            )
        self._kernel = SketchKernel(
            max_counters, policy=policy, backend=backend, seed=seed
        )
        self._query = QueryEngine(self._kernel)
        self._half_life = half_life
        self._now = 0.0
        self._landmark = 0.0
        self._scale = 1.0

    # -- configuration / state introspection -----------------------------------

    @property
    def kernel(self) -> SketchKernel:
        """The underlying :class:`~repro.engine.kernel.SketchKernel`."""
        return self._kernel

    @property
    def max_counters(self) -> int:
        """The configured number of counters ``k``."""
        return self._kernel.k

    @property
    def half_life(self) -> float:
        """The configured decay half-life, in tick units."""
        return self._half_life

    @property
    def backend(self) -> str:
        """The kernel's counter-store backend name."""
        return self._kernel.backend

    @property
    def seed(self) -> int:
        """The construction seed."""
        return self._kernel.seed

    @property
    def now(self) -> float:
        """Current stream time, in tick units."""
        return self._now

    @property
    def num_active(self) -> int:
        """Number of items currently assigned counters."""
        return len(self._kernel.store)

    @property
    def decayed_weight(self) -> float:
        """Total *decayed* stream weight at the current time.

        The time-fading analogue of ``N``: every ingested unit of weight
        contributes its current decay factor.
        """
        return self._kernel.stream_weight / self._scale

    @property
    def maximum_error(self) -> float:
        """Width of every estimate's uncertainty interval, decayed units."""
        return self._kernel.offset / self._scale

    def is_empty(self) -> bool:
        """True if the sketch has processed no weight."""
        return self._kernel.is_empty()

    def __len__(self) -> int:
        return len(self._kernel.store)

    def __contains__(self, item: ItemId) -> bool:
        return self._kernel.store.get(item) is not None

    # -- time ------------------------------------------------------------------

    def tick(self, dt: float = 1.0) -> None:
        """Advance stream time by ``dt`` (same units as ``half_life``).

        O(1) except when the ingest scale crosses the renormalization
        limit, which costs one vectorized pass over the ``k`` counters —
        amortized over the ≥ 64 half-lives between crossings.
        """
        if dt <= 0:
            raise InvalidParameterError(f"tick dt must be positive, got {dt}")
        if math.isinf(self._half_life):
            self._now += dt
            return
        self._now += dt
        log2_scale = (self._now - self._landmark) / self._half_life
        if log2_scale > _LOG2_RENORM_LIMIT:
            # 2**-log2_scale may underflow to exactly 0.0 for extreme
            # jumps; rescale then purges everything, which is the right
            # answer — all prior weight has decayed below resolution.
            self._kernel.rescale(2.0 ** -log2_scale)
            self._landmark = self._now
            self._scale = 1.0
        else:
            self._scale = 2.0 ** log2_scale

    # -- updates ---------------------------------------------------------------

    def update(self, item: ItemId, weight: Weight = 1.0) -> None:
        """Process one weighted update stamped at the current time."""
        # Validate before scaling so the diagnostic reports the caller's
        # weight, not the scaled one.
        check_weight(item, weight)
        self._kernel.update(item, weight * self._scale)

    def update_batch(self, items, weights=None) -> None:
        """Process one array batch stamped at the current time.

        One vector multiply applies the decay scale, then the batch runs
        through the kernel's segmented batch engine — identical state to
        the scalar loop (for integer-representable scaled weights) at a
        fraction of the cost.
        """
        items, weights = as_batch(items, weights)
        if self._scale != 1.0:
            weights = weights * self._scale
        self._kernel.update_batch_validated(items, weights)

    # -- queries (all in decayed units) ----------------------------------------

    def estimate(self, item: ItemId) -> float:
        """Estimated decayed weight of ``item`` at the current time."""
        return self._query.estimate(item) / self._scale

    def estimate_batch(self, items) -> np.ndarray:
        """Vectorized :meth:`estimate` over an array of item identifiers."""
        return self._query.estimate_batch(items) / self._scale

    def lower_bound(self, item: ItemId) -> float:
        """A value guaranteed ``<=`` the item's decayed weight."""
        return self._query.lower_bound(item) / self._scale

    def upper_bound(self, item: ItemId) -> float:
        """A value guaranteed ``>=`` the item's decayed weight."""
        return self._query.upper_bound(item) / self._scale

    def row(self, item: ItemId) -> HeavyHitterRow:
        """The full (estimate, bounds) record for one item, decayed units."""
        return self._scaled(self._query.row(item))

    def _scaled(self, row: HeavyHitterRow) -> HeavyHitterRow:
        inv = 1.0 / self._scale
        return row._replace(
            estimate=row.estimate * inv,
            lower_bound=row.lower_bound * inv,
            upper_bound=row.upper_bound * inv,
        )

    def frequent_items(
        self,
        error_type: ErrorType = ErrorType.NO_FALSE_POSITIVES,
        threshold: Optional[float] = None,
    ) -> list[HeavyHitterRow]:
        """Items whose decayed weight (may) exceed ``threshold``.

        Semantics match the flat sketch's method, with thresholds and
        reported rows in decayed units; the default threshold is
        :attr:`maximum_error`.
        """
        if threshold is not None:
            threshold = threshold * self._scale
        rows = self._query.frequent_items(error_type, threshold)
        return [self._scaled(row) for row in rows]

    def heavy_hitters(
        self,
        phi: float,
        error_type: ErrorType = ErrorType.NO_FALSE_NEGATIVES,
    ) -> list[HeavyHitterRow]:
        """(φ)-heavy hitters of the decayed stream: the trending items.

        Items whose decayed weight is at least ``phi * decayed_weight``;
        with the default error direction every true decayed heavy hitter
        is reported.
        """
        rows = self._query.heavy_hitters(phi, error_type)
        return [self._scaled(row) for row in rows]

    def to_rows(self) -> list[HeavyHitterRow]:
        """All tracked items as rows, sorted by decayed estimate descending."""
        return [self._scaled(row) for row in self._query.to_rows()]

    def __iter__(self) -> Iterator[HeavyHitterRow]:
        return iter(self.to_rows())

    # -- accounting ------------------------------------------------------------

    def space_bytes(self) -> int:
        """Modeled memory footprint (the kernel's table; decay state is O(1))."""
        return self._kernel.store.space_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecayedFrequentItemsSketch(k={self._kernel.k}, "
            f"half_life={self._half_life:g}, backend={self._kernel.backend!r}, "
            f"active={len(self._kernel.store)}, t={self._now:g}, "
            f"decayed_N={self.decayed_weight:g})"
        )

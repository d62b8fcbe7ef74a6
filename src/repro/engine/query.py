"""Query-side engine over a :class:`~repro.engine.kernel.SketchKernel`.

One :class:`QueryEngine` turns a kernel's raw state — counters, offset,
stream weight — into the user-facing answers of Section 2.3.1: hybrid
point estimates with deterministic ``[lower_bound, upper_bound]``
brackets, vectorized batch estimates, and heavy-hitter row assembly
under the single :class:`~repro.core.row.ErrorType` convention shared by
every sketch in the library.

The engine reads the kernel live (no snapshotting), so one instance can
be constructed next to the kernel and queried forever.

>>> from repro.engine.kernel import SketchKernel
>>> kernel = SketchKernel(64, seed=1)
>>> kernel.update(7, 5.0)
>>> query = QueryEngine(kernel)
>>> query.estimate(7), query.estimate(8)
(5.0, 0.0)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.row import ErrorType, HeavyHitterRow
from repro.engine.kernel import SketchKernel
from repro.errors import InvalidParameterError, InvalidUpdateError
from repro.hashing.mixers import items_to_u64_array
from repro.types import ItemId


class QueryEngine:
    """Point queries, batch estimates, and heavy-hitter reports for a kernel."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: SketchKernel) -> None:
        self.kernel = kernel

    # -- point queries ---------------------------------------------------------

    def estimate(self, item: ItemId) -> float:
        """The hybrid point estimate of Section 2.3.1.

        ``c(i) + offset`` when the item holds a counter (SS-like), else 0
        (MG-like).  Always within ``[lower_bound, upper_bound]``.
        """
        count = self.kernel.store.get(item)
        if count is None:
            return 0.0
        return count + self.kernel.offset

    def lower_bound(self, item: ItemId) -> float:
        """A value guaranteed ``<= f(item)``: the raw MG counter."""
        count = self.kernel.store.get(item)
        return 0.0 if count is None else count

    def upper_bound(self, item: ItemId) -> float:
        """A value guaranteed ``>= f(item)``: counter plus total offset."""
        count = self.kernel.store.get(item)
        return self.kernel.offset if count is None else count + self.kernel.offset

    def row(self, item: ItemId) -> HeavyHitterRow:
        """The full (estimate, bounds) record for one item."""
        return HeavyHitterRow(
            item, self.estimate(item), self.lower_bound(item), self.upper_bound(item)
        )

    # -- batch queries ---------------------------------------------------------

    def estimate_batch(self, items: object) -> np.ndarray:
        """Vectorized :meth:`estimate` over an array of item identifiers.

        ``items`` is any 1-D integer array or sequence (converted
        losslessly, exactly as the ingest paths convert their keys);
        repeated and absent keys are both fine.  Returns a float64 array
        with ``out[i] == estimate(items[i])`` element-for-element — one
        bulk :meth:`~repro.table.base.CounterStore.get_many` probe
        instead of one Python call per key.

        >>> from repro.engine.kernel import SketchKernel
        >>> kernel = SketchKernel(64, seed=1)
        >>> kernel.update(7, 5.0)
        >>> QueryEngine(kernel).estimate_batch([7, 8, 7])
        array([5., 0., 5.])
        """
        keys = items_to_u64_array(items)
        if keys.ndim != 1:
            raise InvalidUpdateError(
                f"items must be a 1-D array, got shape {keys.shape}"
            )
        if keys.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        counts = self.kernel.store.get_many(keys)
        tracked = ~np.isnan(counts)
        # where() evaluates the NaN lanes too, so silence the invalid-add
        # warning they would raise; the untracked lanes are discarded.
        with np.errstate(invalid="ignore"):
            return np.where(tracked, counts + self.kernel.offset, 0.0)

    # -- heavy-hitter reports --------------------------------------------------

    def frequent_items(
        self,
        error_type: ErrorType = ErrorType.NO_FALSE_POSITIVES,
        threshold: Optional[float] = None,
    ) -> list[HeavyHitterRow]:
        """Items whose frequency (may) exceed ``threshold``, sorted by estimate.

        With ``NO_FALSE_POSITIVES`` an item is reported only if its lower
        bound clears the threshold — everything reported truly qualifies.
        With ``NO_FALSE_NEGATIVES`` the upper bound is compared — every
        true heavy hitter is reported, possibly with borderline extras.
        The default threshold is the kernel's offset, the tightest level
        at which the reports are meaningful.
        """
        kernel = self.kernel
        if threshold is None:
            threshold = kernel.offset
        if threshold < 0:
            raise InvalidParameterError(f"threshold must be >= 0, got {threshold}")
        keys, counts = kernel.store.as_arrays()
        upper = counts + kernel.offset
        bound = counts if error_type is ErrorType.NO_FALSE_POSITIVES else upper
        keep = bound >= threshold
        return _sorted_rows(keys[keep], counts[keep], upper[keep])

    def heavy_hitters(
        self,
        phi: float,
        error_type: ErrorType = ErrorType.NO_FALSE_NEGATIVES,
    ) -> list[HeavyHitterRow]:
        """(φ)-heavy hitters: items with ``f_i >= phi * N`` (Section 1.2)."""
        if not 0.0 < phi <= 1.0:
            raise InvalidParameterError(f"phi must be in (0, 1], got {phi}")
        return self.frequent_items(error_type, phi * self.kernel.stream_weight)

    def to_rows(self) -> list[HeavyHitterRow]:
        """All tracked items as rows, sorted by estimate descending."""
        keys, counts = self.kernel.store.as_arrays()
        return _sorted_rows(keys, counts, counts + self.kernel.offset)


def _sorted_rows(
    keys: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> list[HeavyHitterRow]:
    """``(item, upper, lower, upper)`` rows by estimate descending, ties
    by item ascending — one sort over the arrays, then one ``tolist``
    per column so items are Python ints and bounds Python floats."""
    order = np.lexsort((keys, -upper))
    estimates = upper[order].tolist()
    return list(map(HeavyHitterRow._make, zip(
        keys[order].tolist(), estimates, lower[order].tolist(), estimates
    )))

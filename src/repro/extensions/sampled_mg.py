"""Sampling-based frequent items for weighted streams (Section 5).

Bhattacharyya, Dey and Woodruff's simple algorithm samples ~ε⁻²log(1/δ)
stream positions and feeds them to a small Misra-Gries instance; the
paper (Section 5) sketches the weighted adaptation that keeps O(1)
amortized time: when processing ``(i, delta)``, draw geometric(p)
variables until their sum exceeds ``delta`` — if that takes ``t`` draws
beyond the running position, feed ``(i, t)`` into any weighted
counter-based algorithm.  Equivalently, each unit of stream weight is
sampled independently with probability ``p`` and the survivors are fed,
batched per update, downstream.

We implement exactly that construction with a *persistent* skip counter
(the renewal process continues across updates, so the sample is a true
Bernoulli(p) thinning of the weighted stream), layered over a
:class:`~repro.engine.kernel.SketchKernel` — the "black box" composition
the paper points out its optimizations enable.  The batch path runs the
same renewal process vectorized: geometric gaps are drawn to cover the
batch's total weight, ``searchsorted`` maps each sampled unit onto its
update, and the surviving ``(item, hits)`` pairs go through the kernel's
segmented batch ingest in one call.  Estimates are scaled by ``1/p``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import DecrementPolicy
from repro.engine.kernel import SketchKernel
from repro.engine.query import QueryEngine
from repro.errors import InvalidParameterError
from repro.prng import Xoroshiro128PlusPlus
from repro.streams.model import as_batch, check_weight
from repro.types import ItemId, Weight


def recommended_probability(
    total_weight: float, epsilon: float, delta: float = 1e-6
) -> float:
    """The paper's ``p = O(eps^-2 log(1/delta) / N)`` with constant 4."""
    if total_weight <= 0:
        raise InvalidParameterError(f"total_weight must be positive, got {total_weight}")
    if not 0 < epsilon < 1:
        raise InvalidParameterError(f"epsilon must be in (0,1), got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must be in (0,1), got {delta}")
    p = 4.0 * math.log(1.0 / delta) / (epsilon * epsilon * total_weight)
    return min(1.0, p)


class SampledFrequentItems:
    """Weighted frequent items over a Bernoulli(p) thinning of the stream.

    Parameters
    ----------
    max_counters:
        Counters in the downstream kernel (``O(1/epsilon)`` suffices for
    	the sampled stream).
    probability:
        The per-unit-weight sampling probability ``p``; use
        :func:`recommended_probability` when ``N`` is known in advance
        (the paper notes the assumption can be removed with standard
        restarting tricks).
    policy, backend, seed:
        Forwarded to the inner :class:`~repro.engine.kernel.SketchKernel`.
    """

    __slots__ = (
        "_p", "_kernel", "_query", "_inner", "_skip", "_rng",
        "_stream_weight", "_sampled",
    )

    def __init__(
        self,
        max_counters: int,
        probability: float,
        policy: Optional[DecrementPolicy] = None,
        backend: str = "dict",
        seed: int = 0,
    ) -> None:
        if not 0.0 < probability <= 1.0:
            raise InvalidParameterError(
                f"probability must be in (0, 1], got {probability}"
            )
        self._p = probability
        self._kernel = SketchKernel(
            max_counters, policy=policy, backend=backend, seed=seed
        )
        self._query = QueryEngine(self._kernel)
        self._inner = FrequentItemsSketch._from_kernel(self._kernel)
        self._rng = Xoroshiro128PlusPlus(seed ^ 0x5A3D)
        # Distance (in stream weight) to the next sampled position.
        self._skip = float(self._rng.geometric(probability)) if probability < 1.0 else 1.0
        self._stream_weight = 0.0
        self._sampled = 0

    @property
    def probability(self) -> float:
        """The sampling probability ``p``."""
        return self._p

    @property
    def stream_weight(self) -> float:
        """Total weight processed (before sampling)."""
        return self._stream_weight

    @property
    def sampled_count(self) -> int:
        """How many unit positions have been sampled so far."""
        return self._sampled

    @property
    def kernel(self) -> SketchKernel:
        """The downstream kernel fed with sampled updates."""
        return self._kernel

    @property
    def inner(self) -> FrequentItemsSketch:
        """The downstream summary as a queryable sketch (shared state)."""
        return self._inner

    def update(self, item: ItemId, weight: Weight = 1.0) -> None:
        """Process one weighted update in O(1 + p * weight) expected time."""
        check_weight(item, weight)
        self._stream_weight += weight
        if self._p >= 1.0:
            self._kernel.update(item, weight)
            self._sampled += int(weight)
            return
        # Renewal process: count geometric gaps that land inside this
        # update's weight interval.
        hits = 0
        remaining = weight
        skip = self._skip
        rng = self._rng
        p = self._p
        while skip <= remaining:
            hits += 1
            remaining -= skip
            skip = float(rng.geometric(p))
        self._skip = skip - remaining
        if hits:
            self._kernel.update(item, float(hits))
            self._sampled += hits

    def update_batch(self, items, weights=None) -> None:
        """Process an array batch through the same renewal process.

        The geometric gap sequence is drawn exactly as the scalar loop
        would draw it (same PRNG, same order), so batch and scalar
        ingestion land in identical state for integer-representable
        weights (arbitrary reals can differ by floating-point summation
        order at interval boundaries); the per-update hit counting and
        the downstream Misra-Gries work are vectorized.
        """
        items, weights = as_batch(items, weights)
        n = items.shape[0]
        if n == 0:
            return
        total = float(weights.sum())
        self._stream_weight += total
        if self._p >= 1.0:
            self._kernel.update_batch_validated(items, weights)
            # Per-update truncation, matching the scalar path exactly.
            self._sampled += int(np.floor(weights).sum())
            return
        # Absolute positions (in cumulative stream weight, within this
        # batch) of the renewal points: the carried-over skip, then one
        # geometric gap per sampled unit until the batch is exhausted.
        positions = []
        position = self._skip
        rng = self._rng
        p = self._p
        while position <= total:
            positions.append(position)
            position += float(rng.geometric(p))
        self._skip = position - total
        if not positions:
            return
        # Map each sampled unit onto the update whose weight interval
        # contains it; interval ends are inclusive, as in the scalar
        # loop's ``skip <= remaining``.  For non-integer weights the
        # pairwise ``weights.sum()`` bound above can exceed the
        # sequential ``cumsum`` end by a few ulps, so clamp the boundary
        # unit onto the last update instead of indexing past it.
        ends = np.cumsum(weights)
        where = np.searchsorted(ends, np.array(positions, dtype=np.float64),
                                side="left")
        where = np.minimum(where, n - 1)
        hits = np.bincount(where, minlength=n).astype(np.float64)
        sampled_mask = hits > 0.0
        self._kernel.update_batch_validated(items[sampled_mask], hits[sampled_mask])
        self._sampled += len(positions)

    def estimate(self, item: ItemId) -> float:
        """Scaled point estimate ``f̂_sample(i) / p``."""
        return self._query.estimate(item) / self._p

    def estimate_batch(self, items) -> np.ndarray:
        """Vectorized :meth:`estimate` over an array of item identifiers."""
        return self._query.estimate_batch(items) / self._p

    def lower_bound(self, item: ItemId) -> float:
        """Scaled lower bound (deterministic only w.r.t. the sample)."""
        return self._query.lower_bound(item) / self._p

    def upper_bound(self, item: ItemId) -> float:
        """Scaled upper bound (deterministic only w.r.t. the sample)."""
        return self._query.upper_bound(item) / self._p

    def heavy_hitters(self, phi: float):
        """φ-heavy hitters of the sampled stream, scaled back up."""
        rows = self._query.heavy_hitters(phi)
        scale = 1.0 / self._p
        return [row._replace(
            estimate=row.estimate * scale,
            lower_bound=row.lower_bound * scale,
            upper_bound=row.upper_bound * scale,
        ) for row in rows]

    def space_bytes(self) -> int:
        """The inner kernel's footprint (sampling state is O(1))."""
        return self._kernel.store.space_bytes()

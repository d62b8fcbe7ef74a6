"""Streaming empirical-entropy estimation (paper Section 6 future work).

Entropy of the traffic distribution is a classic anomaly-detection
signal (port scans and DDoS floods shift it sharply); Chakrabarti,
Cormode and McGregor showed heavy-hitter summaries are the key
ingredient for estimating it in one pass.  This module implements the
practical decomposition estimator:

    H = -sum_i (f_i/N) log2(f_i/N)
      ~ [exact-ish part from the heavy-hitter sketch]
        + [residual part, assumed near-uniform over the remaining
           distinct items, counted by HyperLogLog]

The heavy part uses the sketch's point estimates (tight for precisely
the items that dominate the sum); the residual mass ``R`` is spread over
the estimated number of untracked distinct items.  The uniform
assumption maximizes the residual's entropy contribution, so the
estimate errs upward when the tail is skewed — acceptable for
change-detection, and the tests quantify it against exact entropy.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import DecrementPolicy
from repro.extensions.hyperloglog import HyperLogLog
from repro.types import ItemId, Weight


class StreamingEntropy:
    """One-pass empirical entropy estimator for weighted streams."""

    __slots__ = ("_sketch", "_distinct")

    def __init__(
        self,
        max_counters: int,
        hll_precision: int = 12,
        policy: Optional[DecrementPolicy] = None,
        backend: str = "dict",
        seed: int = 0,
    ) -> None:
        self._sketch = FrequentItemsSketch(
            max_counters, policy=policy, backend=backend, seed=seed
        )
        self._distinct = HyperLogLog(hll_precision, seed=seed)

    @property
    def sketch(self) -> FrequentItemsSketch:
        """The underlying heavy-hitter sketch."""
        return self._sketch

    @property
    def stream_weight(self) -> float:
        """Total processed weight ``N``."""
        return self._sketch.stream_weight

    def update(self, item: ItemId, weight: Weight = 1.0) -> None:
        """Observe one weighted update."""
        self._sketch.update(item, weight)  # validates before any change
        self._distinct.add(item)

    def distinct_estimate(self) -> float:
        """Estimated number of distinct items seen."""
        return self._distinct.estimate()

    def estimate(self) -> float:
        """Estimated empirical entropy in bits.

        Head term: tracked items, using sketch estimates clipped to the
        stream weight.  Residual term: the unaccounted mass ``R`` spread
        uniformly over the estimated untracked distinct count.
        """
        n = self._sketch.stream_weight
        if n <= 0:
            return 0.0
        head = 0.0
        head_mass = 0.0
        tracked = 0
        for row in self._sketch.to_rows():
            estimate = min(row.estimate, n)
            if estimate <= 0:
                continue
            probability = estimate / n
            head -= probability * math.log2(probability)
            head_mass += estimate
            tracked += 1
        residual_mass = max(0.0, n - head_mass)
        if residual_mass <= 0:
            return head
        residual_items = max(1.0, self._distinct.estimate() - tracked)
        per_item = residual_mass / residual_items
        probability = per_item / n
        # residual_items terms of -p log p each.
        return head - residual_items * probability * math.log2(probability)

    def space_bytes(self) -> int:
        """Sketch plus HyperLogLog registers."""
        return self._sketch.space_bytes() + self._distinct.space_bytes()

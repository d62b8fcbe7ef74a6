"""Sivaraman et al.'s random-admission Space Saving variant (Section 5).

Designed for network switching hardware where *memory accesses per
update* is the binding constraint: on a miss against a full table,
sample ``ell`` counters uniformly, evict the smallest of the sample, and
give its counter (plus the update weight) to the new item.  With
``ell = O(1)`` every update touches O(1) memory — no heap, no global
minimum — at the cost of weaker error guarantees than SMED (the sampled
minimum may be far above the true minimum, inflating takeovers).  The
paper leaves the head-to-head comparison to future work; our ablation
benchmark provides it.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import InvalidParameterError
from repro.metrics.instrumentation import OpStats
from repro.metrics.space import space_model_bytes
from repro.prng import Xoroshiro128PlusPlus
from repro.streams.model import check_weight
from repro.types import ItemId


class RandomAdmissionSpaceSaving:
    """SS with sampled-minimum takeover and O(1) memory accesses."""

    __slots__ = ("_k", "_ell", "_keys", "_values", "_pos", "_rng",
                 "_stream_weight", "stats")

    def __init__(self, max_counters: int, sample_size: int = 2, seed: int = 0) -> None:
        if max_counters < 1:
            raise InvalidParameterError(
                f"max_counters must be at least 1, got {max_counters}"
            )
        if sample_size < 1:
            raise InvalidParameterError(
                f"sample_size must be at least 1, got {sample_size}"
            )
        self._k = max_counters
        self._ell = sample_size
        # Parallel arrays + position index: O(1) uniform counter sampling.
        self._keys: list[ItemId] = []
        self._values: list[float] = []
        self._pos: dict[ItemId, int] = {}
        self._rng = Xoroshiro128PlusPlus(seed)
        self._stream_weight = 0.0
        self.stats = OpStats()

    @property
    def max_counters(self) -> int:
        """The configured number of counters ``k``."""
        return self._k

    @property
    def sample_size(self) -> int:
        """Counters sampled per takeover (the design parameter ℓ)."""
        return self._ell

    @property
    def stream_weight(self) -> float:
        """Total processed weight ``N``."""
        return self._stream_weight

    @property
    def num_active(self) -> int:
        """Number of items currently assigned counters."""
        return len(self._keys)

    def update(self, item: ItemId, weight: float = 1.0) -> None:
        """Process one weighted update touching O(ℓ) counters."""
        check_weight(item, weight)
        self._stream_weight += weight
        stats = self.stats
        stats.updates += 1
        position = self._pos.get(item)
        if position is not None:
            self._values[position] += weight
            stats.hits += 1
            return
        if len(self._keys) < self._k:
            self._pos[item] = len(self._keys)
            self._keys.append(item)
            self._values.append(weight)
            stats.inserts += 1
            return
        # Sampled-minimum takeover.
        rng = self._rng
        values = self._values
        size = len(values)
        best = rng.randrange(size)
        for _ in range(self._ell - 1):
            candidate = rng.randrange(size)
            if values[candidate] < values[best]:
                best = candidate
        stats.counters_scanned += self._ell
        evicted = self._keys[best]
        del self._pos[evicted]
        self._keys[best] = item
        values[best] += weight
        self._pos[item] = best
        stats.inserts += 1

    def estimate(self, item: ItemId) -> float:
        """``c(i)`` if assigned, else 0.

        (Unlike exact SS there is no cheap global minimum to return for
        misses — avoiding that bookkeeping is the point of the design.)
        """
        position = self._pos.get(item)
        return 0.0 if position is None else self._values[position]

    def items(self) -> Iterator[tuple[ItemId, float]]:
        """Iterate over assigned ``(item, counter)`` pairs."""
        return iter(zip(self._keys, self._values))

    def space_bytes(self) -> int:
        """Modeled footprint: the flat arrays plus the index."""
        return space_model_bytes("mg", self._k)

    def __len__(self) -> int:
        return len(self._keys)

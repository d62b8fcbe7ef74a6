"""Hierarchical heavy hitters over IP prefixes (paper Section 6 future work).

Follows the Mitzenmacher-Steinke-Thaler recipe ("Hierarchical Heavy
Hitters with the Space Saving Algorithm", ALENEX 2012) with our
optimized sketch substituted as the per-level heavy-hitter subroutine —
exactly the drop-in replacement the paper's conclusion proposes.

One frequency sketch is kept per prefix level (e.g. /8, /16, /24, /32
for IPv4).  Every update feeds each level its item's prefix at that
length, with the full weight.  At query time, heavy hitters are
extracted bottom-up: a prefix is a *hierarchical* heavy hitter if its
estimated weight, after discounting the weight already attributed to
its HHH descendants, still clears ``phi * N``.  This is the standard
discounted-HHH semantics used in network anomaly detection (finding the
subnets, not just hosts, responsible for traffic).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import DecrementPolicy
from repro.core.row import ErrorType
from repro.errors import InvalidParameterError, InvalidUpdateError
from repro.streams.model import check_weight
from repro.types import ItemId, Weight

#: Default IPv4 prefix hierarchy, most general to most specific.
IPV4_LEVELS = (8, 16, 24, 32)


class HHHNode(NamedTuple):
    """One hierarchical heavy hitter."""

    level: int
    prefix: int
    estimate: float
    discounted: float

    def cidr(self) -> str:
        """Render the prefix in CIDR notation (IPv4 semantics)."""
        address = self.prefix << (32 - self.level)
        octets = [(address >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return f"{octets[0]}.{octets[1]}.{octets[2]}.{octets[3]}/{self.level}"


class HierarchicalHeavyHitters:
    """HHH detection with one frequency sketch per prefix level.

    Parameters
    ----------
    max_counters:
        Counters per per-level sketch.
    levels:
        Prefix lengths, strictly increasing, each in ``[1, address_bits]``.
    address_bits:
        Width of the address space (32 for IPv4).
    policy, backend, seed:
        Forwarded to each level's :class:`FrequentItemsSketch` (with a
        level-distinct derived seed).
    """

    def __init__(
        self,
        max_counters: int,
        levels: Sequence[int] = IPV4_LEVELS,
        address_bits: int = 32,
        policy: Optional[DecrementPolicy] = None,
        backend: str = "dict",
        seed: int = 0,
    ) -> None:
        if not levels:
            raise InvalidParameterError("need at least one prefix level")
        if list(levels) != sorted(set(levels)):
            raise InvalidParameterError(
                f"levels must be strictly increasing, got {levels!r}"
            )
        if levels[0] < 1 or levels[-1] > address_bits:
            raise InvalidParameterError(
                f"levels must lie in [1, {address_bits}], got {levels!r}"
            )
        self._levels = tuple(levels)
        self._bits = address_bits
        self._sketches = {
            level: FrequentItemsSketch(
                max_counters, policy=policy, backend=backend, seed=seed + 7919 * level
            )
            for level in levels
        }
        self._stream_weight = 0.0

    @property
    def levels(self) -> tuple[int, ...]:
        """The configured prefix lengths."""
        return self._levels

    @property
    def stream_weight(self) -> float:
        """Total processed weight ``N``."""
        return self._stream_weight

    def sketch_at(self, level: int) -> FrequentItemsSketch:
        """The per-level sketch (for inspection)."""
        return self._sketches[level]

    def _prefix(self, address: ItemId, level: int) -> int:
        return address >> (self._bits - level)

    def update(self, address: ItemId, weight: Weight = 1.0) -> None:
        """Feed one address observation to every level."""
        check_weight(address, weight)
        if not 0 <= address < (1 << self._bits):
            raise InvalidUpdateError(
                f"address {address} out of range for {self._bits}-bit space"
            )
        self._stream_weight += weight
        for level in self._levels:
            self._sketches[level].update(self._prefix(address, level), weight)

    def query(self, phi: float) -> list[HHHNode]:
        """Discounted hierarchical φ-heavy hitters, most specific first.

        Bottom-up: at the deepest level ordinary heavy hitters qualify
        directly; at each shallower level the weight already explained by
        qualifying descendants is subtracted before the threshold test.
        """
        if not 0.0 < phi <= 1.0:
            raise InvalidParameterError(f"phi must be in (0, 1], got {phi}")
        threshold = phi * self._stream_weight
        result: list[HHHNode] = []
        # discounts[level][prefix] = weight explained by deeper HHHs.
        discounts: dict[int, dict[int, float]] = {
            level: {} for level in self._levels
        }
        for position in range(len(self._levels) - 1, -1, -1):
            level = self._levels[position]
            sketch = self._sketches[level]
            level_discount = discounts[level]
            for row in sketch.frequent_items(
                ErrorType.NO_FALSE_NEGATIVES, threshold
            ):
                discounted = row.estimate - level_discount.get(row.item, 0.0)
                if discounted < threshold:
                    continue
                result.append(HHHNode(level, row.item, row.estimate, discounted))
                # Propagate this node's *discounted* weight up the tree so
                # ancestors only count unexplained traffic.
                for ancestor_position in range(position - 1, -1, -1):
                    ancestor_level = self._levels[ancestor_position]
                    ancestor_prefix = row.item >> (level - ancestor_level)
                    bucket = discounts[ancestor_level]
                    bucket[ancestor_prefix] = (
                        bucket.get(ancestor_prefix, 0.0) + discounted
                    )
        result.sort(key=lambda node: (-node.level, -node.discounted, node.prefix))
        return result

    def space_bytes(self) -> int:
        """Sum of the per-level sketch footprints."""
        return sum(sketch.space_bytes() for sketch in self._sketches.values())

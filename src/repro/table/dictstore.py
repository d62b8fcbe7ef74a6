"""Counter store backed by a plain Python dict.

CPython's dict is a heavily optimized open-addressing table written in C,
so for a pure-Python reproduction it is the pragmatic fast path.  It
implements the same :class:`~repro.table.base.CounterStore` interface as
the faithful :class:`~repro.table.probing.LinearProbingTable`; an ablation
benchmark compares the two.  Space is *modeled* with the same 18-bytes-
per-slot accounting so equal-space comparisons remain meaningful (actual
Python object overhead would swamp any algorithmic difference and says
nothing about the paper's layout).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.errors import InvalidParameterError, TableFullError
from repro.prng import Xoroshiro128PlusPlus
from repro.table.accounting import probing_table_bytes
from repro.table.base import CounterStore
from repro.types import ItemId


class DictCounterStore(CounterStore):
    """Bounded item -> count map on a builtin dict.

    ``initial_capacity`` is accepted for interface parity with the
    probing table: CPython's dict already starts tiny and doubles
    as it fills, so the adaptive-growth mode is its native behavior and
    the parameter changes nothing observable.
    """

    __slots__ = ("_capacity", "_counts")

    def __init__(
        self, capacity: int, initial_capacity: Optional[int] = None
    ) -> None:
        if capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        if initial_capacity is not None and initial_capacity <= 0:
            raise InvalidParameterError(
                f"initial_capacity must be positive, got {initial_capacity}"
            )
        self._capacity = capacity
        self._counts: dict[ItemId, float] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._counts)

    def get(self, key: ItemId) -> Optional[float]:
        return self._counts.get(key)

    def add_to(self, key: ItemId, delta: float) -> bool:
        current = self._counts.get(key)
        if current is None:
            return False
        self._counts[key] = current + delta
        return True

    def insert(self, key: ItemId, value: float) -> None:
        if key in self._counts:
            raise InvalidParameterError(f"key {key} is already assigned a counter")
        if len(self._counts) >= self._capacity:
            raise TableFullError(
                f"store holds {len(self._counts)} counters, capacity {self._capacity}"
            )
        self._counts[key] = value

    # -- batch operations ------------------------------------------------------
    # Tight-loop overrides of the base-class fallbacks: one dict probe per
    # key instead of one bound-method call per key.  Observationally
    # identical to the scalar sequences (same insertion order, so the
    # dict's iteration order — and serialized bytes — match exactly).

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        # One C-level dict probe per key, filled straight into the output
        # array — no intermediate Python list.  This is the whole batch
        # query path for the dict backend (``QueryEngine.estimate_batch``
        # routes through here), so it must not degrade to per-item
        # Python-object churn.
        get = self._counts.get
        nan = np.nan
        return np.fromiter(
            (get(key, nan) for key in keys.tolist()),
            dtype=np.float64,
            count=len(keys),
        )

    def add_many(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        counts = self._counts
        for key, delta in zip(keys.tolist(), deltas.tolist()):
            current = counts.get(key)
            if current is None:
                raise InvalidParameterError(
                    f"add_many: key {key} has no counter assigned"
                )
            counts[key] = current + delta

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        counts = self._counts
        if len(counts) + len(keys) > self._capacity:
            raise TableFullError(
                f"store holds {len(counts)} counters, inserting {len(keys)} "
                f"exceeds capacity {self._capacity}"
            )
        for key, value in zip(keys.tolist(), values.tolist()):
            if key in counts:
                raise InvalidParameterError(
                    f"key {key} is already assigned a counter"
                )
            counts[key] = value

    def adjust_all(self, delta: float) -> None:
        counts = self._counts
        for key in counts:
            counts[key] += delta

    def scale_all(self, factor: float) -> None:
        counts = self._counts
        for key in counts:
            counts[key] *= factor

    def purge_nonpositive(self) -> int:
        before = len(self._counts)
        self._counts = {k: v for k, v in self._counts.items() if v > 0.0}
        return before - len(self._counts)

    def items(self) -> Iterator[tuple[ItemId, float]]:
        return iter(self._counts.items())

    def values_list(self) -> list[float]:
        return list(self._counts.values())

    def sample_values(self, count: int, rng: Xoroshiro128PlusPlus) -> list[float]:
        if not self._counts:
            raise InvalidParameterError("cannot sample from an empty store")
        pool = list(self._counts.values())
        n = len(pool)
        return [pool[rng.randrange(n)] for _ in range(count)]

    def clear(self) -> None:
        self._counts.clear()

    def space_bytes(self) -> int:
        # Charged with the same model as the probing table so that
        # "equal space" sweeps compare algorithms, not backends.
        return probing_table_bytes(self._capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictCounterStore(size={len(self._counts)}, capacity={self._capacity})"

"""The interface every counter store implements.

A *counter store* is a bounded map from 64-bit item identifiers to
positive real counts supporting exactly the operations the paper's
algorithms need: point lookup/increment, insert, a bulk
"decrement everything and drop the non-positive" pass, iteration, and
random sampling of live counter values.

Batch operations
----------------
The batched ingestion engine (``FrequentItemsSketch.update_batch``)
talks to stores through three *bulk* operations — :meth:`~CounterStore.
get_many`, :meth:`~CounterStore.add_many`, and :meth:`~CounterStore.
insert_many` — operating on NumPy arrays of keys.  The base class
provides per-key fallbacks so every store works with the batch path out
of the box; array-native stores (:class:`~repro.table.probing.
LinearProbingTable`) override them with vectorized implementations.
The fallbacks are written so that a batch call is *observably identical*
to the equivalent sequence of scalar calls: ``insert_many`` inserts in
the order given (which fixes iteration order for order-sensitive
layouts), and ``add_many`` touches no key absent from the store.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.prng import Xoroshiro128PlusPlus
from repro.types import ItemId


class CounterStore(ABC):
    """Abstract bounded item -> count map used by all counter algorithms."""

    @property
    @abstractmethod
    def capacity(self) -> int:
        """Maximum number of counters (the paper's ``k``)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of counters currently assigned."""

    @abstractmethod
    def get(self, key: ItemId) -> Optional[float]:
        """Return the count for ``key``, or ``None`` if unassigned."""

    @abstractmethod
    def add_to(self, key: ItemId, delta: float) -> bool:
        """Add ``delta`` to ``key``'s counter if assigned; report success.

        Never inserts — returns ``False`` when ``key`` has no counter.
        """

    @abstractmethod
    def insert(self, key: ItemId, value: float) -> None:
        """Assign a fresh counter to ``key`` with initial ``value``.

        ``key`` must not already be assigned; raises
        :class:`repro.errors.TableFullError` at capacity.
        """

    @abstractmethod
    def adjust_all(self, delta: float) -> None:
        """Add ``delta`` (typically negative) to every assigned counter."""

    @abstractmethod
    def purge_nonpositive(self) -> int:
        """Unassign every counter whose value is <= 0; return how many."""

    @abstractmethod
    def items(self) -> Iterator[tuple[ItemId, float]]:
        """Iterate over ``(key, count)`` pairs in storage order."""

    @abstractmethod
    def values_list(self) -> list[float]:
        """Return a fresh list of all live counter values."""

    @abstractmethod
    def sample_values(self, count: int, rng: Xoroshiro128PlusPlus) -> list[float]:
        """Sample ``count`` live counter values uniformly with replacement."""

    @abstractmethod
    def clear(self) -> None:
        """Unassign every counter."""

    @abstractmethod
    def space_bytes(self) -> int:
        """Modeled memory footprint in bytes (cf. paper Section 2.3.3)."""

    def __contains__(self, key: ItemId) -> bool:
        return self.get(key) is not None

    # -- batch operations (vectorizable; per-key fallbacks provided) ----------

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        """Look up many keys at once; NaN marks an unassigned key.

        ``keys`` is a 1-D array of (distinct) 64-bit item identifiers.
        Returns a float64 array of the same length.  NaN is a safe
        missing-value marker because live counters are strictly positive
        reals.
        """
        get = self.get
        out = np.empty(len(keys), dtype=np.float64)
        for index, key in enumerate(keys.tolist()):
            value = get(key)
            out[index] = np.nan if value is None else value
        return out

    def add_many(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        """Add ``deltas[i]`` to the counter of ``keys[i]`` for every i.

        Every key must currently be assigned a counter and appear at most
        once in ``keys`` — the batch ingest loop guarantees both by
        construction (it groups duplicates and splits tracked from
        untracked keys before calling in).
        """
        add_to = self.add_to
        for key, delta in zip(keys.tolist(), deltas.tolist()):
            if not add_to(key, delta):
                raise InvalidParameterError(
                    f"add_many: key {key} has no counter assigned"
                )

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Assign fresh counters to many distinct, unassigned keys.

        Insertion happens in the order given — for layouts whose
        iteration order depends on insertion history (builtin dict,
        linear probing) this makes a batch insert byte-for-byte
        equivalent to the scalar insert sequence.  Raises
        :class:`repro.errors.TableFullError` when capacity would be
        exceeded.
        """
        insert = self.insert
        for key, value in zip(keys.tolist(), values.tolist()):
            insert(key, value)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, counts)`` as parallel arrays, in storage order.

        The bulk export the engine layer uses for kernel copies,
        heavy-hitter rows, the sharded merge-on-query view, and counter
        replay during re-shard merges.  The returned arrays are fresh copies — mutating them
        never touches the store.
        """
        entries = list(self.items())
        keys = np.fromiter(
            (key for key, _count in entries), dtype=np.uint64, count=len(entries)
        )
        counts = np.fromiter(
            (count for _key, count in entries), dtype=np.float64, count=len(entries)
        )
        return keys, counts

    def scale_all(self, factor: float) -> None:
        """Multiply every assigned counter by ``factor`` (``>= 0``).

        The renormalization primitive of the time-fading consumers: the
        decayed sketch periodically divides its whole summary by the
        accumulated decay scale.  Values scaled to exactly zero are left
        in place — callers follow up with :meth:`purge_nonpositive`.
        """
        entries = list(self.items())
        self.clear()
        for key, count in entries:
            self.insert(key, count * factor)

    def decrement_and_purge(self, amount: float) -> int:
        """Subtract ``amount`` from every counter, dropping non-positive ones.

        This is the storage half of ``DecrementCounters()``; returns the
        number of counters freed.
        """
        self.adjust_all(-amount)
        return self.purge_nonpositive()

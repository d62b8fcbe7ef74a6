"""The paper's linear-probing counter table (Section 2.3.3).

Layout
------
Three parallel NumPy arrays of length ``L = next_pow2(4k/3)``:

* ``keys[s]``   — the 64-bit item identifier stored in slot ``s``;
* ``values[s]`` — its approximate count (a float);
* ``states[s]`` — 0 when the slot is empty, otherwise the probe distance
  of the stored key from its preferred slot ``h(key)``, plus one.

Insertion and lookup are standard linear probing.  The operation the
paper adds is the decrement pass: subtract ``c*`` from every value and
delete every counter that becomes non-positive, *in place*, by walking
runs of occupied cells and shifting keys backward so that all future
probes still work (the "start at the end of a run ... shifting keys and
values forward as necessary" paragraph of Section 2.3.3).  No scratch
memory is allocated — that is precisely the property that lets the final
algorithm halve the footprint of the initial proposal.

Batch operations
----------------
Because the parallel arrays are NumPy columns, the bulk operations the
batched ingestion engine calls are *vectorized probe walks*: home slots
for a whole key block are hashed in one array pass
(:func:`repro.hashing.mixers.hash_u64_array`), and each probing round
gathers the states/keys of every still-unresolved key at once, resolving
the overwhelming majority on the first probe at realistic load factors.
Only keys still colliding after a round advance (as an ever-shrinking
index set) to the next.  The walks visit exactly the slots the scalar
loops would visit, so results — and ``probe_count`` for lookups — are
bit-identical to the equivalent scalar call sequence.

Adaptive growth
---------------
With ``initial_capacity`` set, the table starts at a small power-of-two
length and *doubles up to* the fixed ``L`` on overflow, mirroring the
paper's doubling hash map: early-stream updates never pay for the full
array.  While growing, keys are kept in an insertion log so each rehash
replays the original insertion order — once the table reaches its final
length its layout is bit-identical to a fixed-capacity table fed the
same operations, which keeps counter *sampling* (and therefore every
decrement decision downstream) identical too.

The table also counts probe steps (``probe_count``) so benchmarks can
report hardware-independent access costs.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.errors import InvalidParameterError, TableFullError
from repro.hashing.mixers import hash_u64, hash_u64_array
from repro.native import register_table, seed_mix, table_kernels
from repro.prng import Xoroshiro128PlusPlus
from repro.table.accounting import BYTES_PER_SLOT, HEADER_BYTES, table_length
from repro.table.base import CounterStore
from repro.types import ItemId

_MASK64 = (1 << 64) - 1


class LinearProbingTable(CounterStore):
    """Bounded open-addressing counter map with backward-shift deletion.

    Parameters
    ----------
    capacity:
        Maximum number of assigned counters (the paper's ``k``).
    hash_seed:
        Seed for the slot hash.  Sketches that may be merged should use
        distinct seeds (Section 3.2's note on hash-function reuse).
    load_factor:
        Maximum fill fraction; the array length is the smallest power of
        two with ``capacity / length <= load_factor`` (default 3/4, the
        paper's ``L ~ 4k/3``).
    initial_capacity:
        When given, start the arrays small enough for only this many
        counters and double up to the fixed length on demand (the
        paper's doubling hash map).  ``None`` (default) allocates the
        full-size arrays up front.
    """

    __slots__ = (
        "_capacity",
        "_mask",
        "_keys",
        "_values",
        "_states",
        "_size",
        "_seed",
        "_load_factor",
        "_final_length",
        "_stage_capacity",
        "_insertion_log",
        "probe_count",
    )

    def __init__(
        self,
        capacity: int,
        hash_seed: int = 0,
        load_factor: float = 0.75,
        initial_capacity: Optional[int] = None,
    ) -> None:
        if capacity <= 0:
            raise InvalidParameterError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._seed = hash_seed
        self._load_factor = load_factor
        self._final_length = table_length(capacity, load_factor)
        if initial_capacity is None:
            length = self._final_length
        else:
            if initial_capacity <= 0:
                raise InvalidParameterError(
                    f"initial_capacity must be positive, got {initial_capacity}"
                )
            length = min(
                self._final_length,
                table_length(min(initial_capacity, capacity), load_factor),
            )
        self._allocate(length)
        #: Total linear-probing steps taken by lookups and inserts.
        self.probe_count = 0

    def _allocate(self, length: int) -> None:
        """(Re)allocate empty arrays of ``length`` slots."""
        self._mask = length - 1
        self._keys = np.zeros(length, dtype=np.uint64)
        self._values = np.zeros(length, dtype=np.float64)
        self._states = np.zeros(length, dtype=np.int64)
        self._size = 0
        self._stage_capacity = min(
            self._capacity, int(length * self._load_factor)
        )
        # The insertion log exists only while the table can still grow:
        # each rehash replays it so the layout stays the one the original
        # insertion order would have produced at the new length.
        self._insertion_log: Optional[list[int]] = (
            [] if length < self._final_length else None
        )

    # -- basic introspection -------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def length(self) -> int:
        """Physical array length ``L`` (a power of two, current stage)."""
        return self._mask + 1

    def __len__(self) -> int:
        return self._size

    def load(self) -> float:
        """Current fill fraction of the physical arrays."""
        return self._size / self.length

    # -- hashing -------------------------------------------------------------

    def _home_slot(self, key: ItemId) -> int:
        return hash_u64(key, self._seed) & self._mask

    def _home_slots_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_home_slot`.

        Falls back to the scalar method per key when a subclass overrides
        ``_home_slot`` (the white-box layout tests rig it), so batch and
        scalar paths always agree on every home slot.
        """
        if type(self)._home_slot is not LinearProbingTable._home_slot:
            return np.array(
                [self._home_slot(key) for key in keys.tolist()], dtype=np.int64
            )
        return (hash_u64_array(keys, self._seed) & np.uint64(self._mask)).astype(
            np.int64
        )

    # -- adaptive growth -----------------------------------------------------

    def _ensure_slot(self) -> None:
        """Raise at ``k``; double the arrays first when staged growth is on."""
        if self._size >= self._capacity:
            raise TableFullError(
                f"table holds {self._size} counters, capacity {self._capacity}"
            )
        if self._size >= self._stage_capacity:
            self._grow()

    def _grow(self) -> None:
        """Double the physical arrays and rehash in original insertion order."""
        length = (self._mask + 1) * 2
        log = self._insertion_log
        if log is None:  # pragma: no cover - _ensure_slot never lets this happen
            raise TableFullError(
                f"table holds {self._size} counters, capacity {self._capacity}"
            )
        occupied = np.flatnonzero(self._states != 0)
        values_of = dict(
            zip(self._keys[occupied].tolist(), self._values[occupied].tolist())
        )
        self._allocate(length)
        self._place_into_empty(
            np.array(log, dtype=np.uint64),
            np.array([values_of[key] for key in log], dtype=np.float64),
        )
        if self._insertion_log is not None:
            self._insertion_log = log

    def _rehash_place(self, key: ItemId, value: float) -> None:
        """Place a key known to be absent (no duplicate check, no probe tax)."""
        states = self._states
        keys = self._keys
        mask = self._mask
        home = self._home_slot(key)
        slot = home
        while states[slot] != 0:
            slot = (slot + 1) & mask
        keys[slot] = key
        self._values[slot] = value
        states[slot] = ((slot - home) & mask) + 1
        self._size += 1
        if self._insertion_log is not None:
            self._insertion_log.append(key)

    # -- lookup / update -----------------------------------------------------

    def get(self, key: ItemId) -> Optional[float]:
        states = self._states
        keys = self._keys
        mask = self._mask
        slot = self._home_slot(key)
        probes = 0
        while states[slot] != 0:
            probes += 1
            if keys[slot] == key:
                self.probe_count += probes
                return float(self._values[slot])
            slot = (slot + 1) & mask
        self.probe_count += probes + 1
        return None

    def add_to(self, key: ItemId, delta: float) -> bool:
        states = self._states
        keys = self._keys
        mask = self._mask
        slot = self._home_slot(key)
        probes = 0
        while states[slot] != 0:
            probes += 1
            if keys[slot] == key:
                self._values[slot] += delta
                self.probe_count += probes
                return True
            slot = (slot + 1) & mask
        self.probe_count += probes + 1
        return False

    def insert(self, key: ItemId, value: float) -> None:
        self._ensure_slot()
        states = self._states
        keys = self._keys
        mask = self._mask
        home = self._home_slot(key)
        slot = home
        probes = 0
        while states[slot] != 0:
            if keys[slot] == key:
                raise InvalidParameterError(f"key {key} is already assigned a counter")
            probes += 1
            slot = (slot + 1) & mask
        keys[slot] = key
        self._values[slot] = value
        states[slot] = ((slot - home) & mask) + 1
        self._size += 1
        self.probe_count += probes + 1
        if self._insertion_log is not None:
            self._insertion_log.append(key)

    def put(self, key: ItemId, value: float) -> None:
        """Set ``key`` to ``value``, inserting if absent."""
        states = self._states
        keys = self._keys
        mask = self._mask
        slot = self._home_slot(key)
        while states[slot] != 0:
            if keys[slot] == key:
                self._values[slot] = value
                return
            slot = (slot + 1) & mask
        self._ensure_slot()
        self._rehash_place(key, value)

    # -- batch operations (vectorized probe walks) ---------------------------

    def _locate_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve every key to a slot by gather/scatter probing rounds.

        Returns ``(slots, found)``; ``slots[i]`` is meaningful only where
        ``found[i]``.  Round ``r`` inspects the distance-``r`` slot of
        every still-unresolved key at once — at realistic load factors
        the first round resolves the vast majority, and the active set
        shrinks geometrically after it.  ``probe_count`` advances by one
        per slot inspection, exactly as the scalar loops count.
        """
        n = len(keys)
        found = np.zeros(n, dtype=bool)
        slots = self._home_slots_array(keys)
        if n == 0 or self._size == 0:
            self.probe_count += n
            return slots, found
        states = self._states
        table_keys = self._keys
        mask = self._mask
        active = np.arange(n)
        probes = 0
        while active.size:
            probes += active.size
            s = slots[active]
            st = states[s]
            occupied = st != 0
            hit = occupied & (table_keys[s] == keys[active])
            if hit.any():
                found[active[hit]] = True
            nxt = active[occupied & ~hit]
            if nxt.size:
                slots[nxt] = (slots[nxt] + 1) & mask
            active = nxt
        self.probe_count += probes
        return slots, found

    # Kernel-input coercion: contiguous AND aligned (deserialized blobs
    # arrive as unaligned ``frombuffer`` views), for both dispatch paths.
    @staticmethod
    def _as_input(arr: np.ndarray, dtype: type) -> np.ndarray:
        return np.require(arr, dtype=dtype, requirements=("C", "A"))

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        keys = self._as_input(keys, np.uint64)
        kernels = table_kernels(self)
        if kernels is not None:
            out, probes = kernels.get_many(
                keys, self._keys, self._values, self._states, seed_mix(self._seed)
            )
            self.probe_count += probes
            return out
        slots, found = self._locate_many(keys)
        out = np.full(len(keys), np.nan, dtype=np.float64)
        if found.any():
            out[found] = self._values[slots[found]]
        return out

    def add_many(self, keys: np.ndarray, deltas: np.ndarray) -> None:
        keys = self._as_input(keys, np.uint64)
        deltas = self._as_input(deltas, np.float64)
        kernels = table_kernels(self)
        if kernels is not None:
            probes, missing = kernels.add_many(
                keys,
                deltas,
                self._keys,
                self._values,
                self._states,
                seed_mix(self._seed),
            )
            # The walk charges every key's probes even when one is
            # missing, exactly like the vectorized rounds below.
            self.probe_count += probes
            if missing >= 0:
                raise InvalidParameterError(
                    f"add_many: key {int(keys[missing])} has no counter assigned"
                )
            return
        slots, found = self._locate_many(keys)
        if not found.all():
            missing_keys = keys[~found]
            raise InvalidParameterError(
                f"add_many: key {int(missing_keys[0])} has no counter assigned"
            )
        # Keys are distinct by contract, so plain fancy indexing is a
        # race-free scatter-add.
        self._values[slots] += deltas

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        count = len(keys)
        if count == 0:
            return
        if self._size + count > self._capacity:
            raise TableFullError(
                f"store holds {self._size} counters, inserting {count} exceeds "
                f"capacity {self._capacity}"
            )
        keys = self._as_input(keys, np.uint64)
        values = self._as_input(values, np.float64)
        kernels = table_kernels(self)
        if kernels is not None:
            # Native tables are at final length (the gate requires it),
            # so the staged-growth loop below would be a single block.
            try:
                probes = kernels.insert_many(
                    keys,
                    values,
                    self._keys,
                    self._values,
                    self._states,
                    seed_mix(self._seed),
                )
            except ValueError as exc:
                # Duplicate key, detected before any mutation.
                raise InvalidParameterError(str(exc)) from None
            self._size += count
            self.probe_count += probes
            return
        start = 0
        while start < count:
            if self._size >= self._stage_capacity:
                self._grow()
            room = self._stage_capacity - self._size
            stop = min(count, start + room)
            self._insert_block(keys[start:stop], values[start:stop])
            start = stop

    def _insert_block(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert a block that fits the current stage, scalar-equivalently."""
        n = len(keys)
        states = self._states
        table_keys = self._keys
        table_values = self._values
        mask = self._mask
        homes = self._home_slots_array(keys)
        # Fast path: every home slot empty and all homes distinct.  The
        # scalar insert sequence would place each key exactly at its home
        # regardless of order, so one scatter reproduces it bit-for-bit.
        if n == 1:
            distinct = True
        else:
            in_order = np.sort(homes)
            distinct = not (in_order[1:] == in_order[:-1]).any()
        if distinct and not states[homes].any():
            table_keys[homes] = keys
            table_values[homes] = values
            states[homes] = 1
            self._size += n
            self.probe_count += n
            if self._insertion_log is not None:
                self._insertion_log.extend(keys.tolist())
            return
        # Slow path: replay the scalar insert sequence, but walk a plain
        # Python occupancy list (NumPy scalar indexing would dominate the
        # loop) and scatter the placements back in one vectorized pass.
        # FCFS probing places each key at the first free slot of its
        # probe path, so positions depend only on occupancy.
        occupancy = states.tolist()
        stored_keys = table_keys.tolist()
        positions = []
        append = positions.append
        for key, home in zip(keys.tolist(), homes.tolist()):
            slot = home
            while occupancy[slot]:
                if stored_keys[slot] == key:
                    raise InvalidParameterError(
                        f"key {key} is already assigned a counter"
                    )
                slot = (slot + 1) & mask
            occupancy[slot] = 1
            stored_keys[slot] = key
            append(slot)
        pos = np.array(positions, dtype=np.int64)
        distances = (pos - homes) & mask
        table_keys[pos] = keys
        table_values[pos] = values
        states[pos] = distances + 1
        self._size += n
        # Scalar parity: each insert scans its probe distance in occupied
        # slots plus the final empty one.
        self.probe_count += int(distances.sum()) + n
        if self._insertion_log is not None:
            self._insertion_log.extend(keys.tolist())

    # -- bulk decrement ------------------------------------------------------

    def adjust_all(self, delta: float) -> None:
        np.add(
            self._values, delta, out=self._values, where=self._states != 0
        )

    def scale_all(self, factor: float) -> None:
        np.multiply(
            self._values, factor, out=self._values, where=self._states != 0
        )

    def purge_nonpositive(self) -> int:
        kernels = table_kernels(self)
        if kernels is not None:
            # The compiled pass places survivors by _purge_rebuild's
            # rule, in place: the layout both strategies below reproduce.
            # The gate guarantees no insertion log to filter.
            freed = kernels.purge_nonpositive(
                self._keys, self._values, self._states
            )
            self._size -= freed
            return freed
        states = self._states
        values = self._values
        # Vectorized victim prescan decides the strategy.  Either way the
        # result is bit-identical (live cells) to the scalar 0..L-1
        # backward-shift sweep; an exhaustive layout test pins that.
        occupied = states != 0
        victims = np.flatnonzero(occupied & (values <= 0.0))
        if victims.size == 0:
            return 0
        if victims.size * 4 >= self._size:
            # Dense victims — the decrement-pass regime, which frees
            # about half the counters: rebuilding from the survivors
            # (bulk-hashed, replayed in cyclic run order) is much cheaper
            # than one backward shift per victim.
            self._purge_rebuild(occupied)
        else:
            # Sparse victims: backward-shift in place, walking only the
            # runs that contain victims.  Each walk covers the originally
            # occupied extent of its run — shifts free cells mid-run and
            # move victims past them, but they can never carry a counter
            # across a cell that started out empty.
            length = self._mask + 1
            positions = victims.tolist()
            i = 0
            while i < len(positions):
                slot = positions[i]
                while slot < length and occupied[slot]:
                    if states[slot] != 0 and values[slot] <= 0.0:
                        self._remove_at(slot)
                        # Backward shifting may have moved another counter
                        # into this slot; re-examine it before advancing.
                    else:
                        slot += 1
                i += 1
                while i < len(positions) and positions[i] <= slot:
                    i += 1
        if self._insertion_log is not None:
            live = set(self._keys[self._states != 0].tolist())
            self._insertion_log = [
                key for key in self._insertion_log if key in live
            ]
        # Values never change during a purge and shifts cannot carry a
        # victim past the sweep (they only move counters toward their
        # homes), so exactly the prescanned victims get freed.
        return int(victims.size)

    def _purge_rebuild(self, occupied: np.ndarray) -> None:
        """Drop non-positive counters by re-placing the survivors.

        Survivors are replayed in *cyclic run order* — ascending slots
        starting just past the first empty cell, so every probe run is
        visited start to end even when it wraps — which reproduces the
        backward-shift sweep's final layout exactly: both place each
        survivor at the first free slot of its probe sequence, in the
        same order.
        """
        first_empty = int(np.flatnonzero(~occupied)[0])
        length = self._mask + 1
        order = np.concatenate(
            (
                np.arange(first_empty + 1, length, dtype=np.int64),
                np.arange(0, first_empty, dtype=np.int64),
            )
        )
        live_slots = order[occupied[order]]
        live_values = self._values[live_slots]
        keep = live_values > 0.0
        self._states[:] = 0
        self._place_into_empty(self._keys[live_slots[keep]], live_values[keep])

    def _place_into_empty(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert ``keys`` in order into arrays with every slot empty.

        FCFS positions then follow from a pure occupancy walk on a Python
        list, and the placements scatter back in one vectorized pass per
        column.  No probe tax is charged: neither a rehash nor a purge is
        a lookup.
        """
        homes = self._home_slots_array(keys)
        mask = self._mask
        occupancy = [0] * (mask + 1)
        positions = []
        append = positions.append
        for home in homes.tolist():
            slot = home
            while occupancy[slot]:
                slot = (slot + 1) & mask
            occupancy[slot] = 1
            append(slot)
        pos = np.array(positions, dtype=np.int64)
        self._keys[pos] = keys
        self._values[pos] = values
        self._states[pos] = ((pos - homes) & mask) + 1
        self._size = len(positions)

    def _remove_at(self, slot: int) -> None:
        """Empty ``slot`` and backward-shift the rest of its probe run.

        Walks forward from the freed cell; any later element of the run
        whose preferred slot lies at or before the free cell is moved back
        into it (shrinking its probe distance), and the walk continues
        from the element's old position.  Elements already in (or after)
        their preferred slot relative to the gap are left in place.  The
        walk ends at the first empty cell.
        """
        states = self._states
        keys = self._keys
        values = self._values
        mask = self._mask
        states[slot] = 0
        self._size -= 1
        free = slot
        scan = (slot + 1) & mask
        while states[scan] != 0:
            distance = states[scan] - 1
            home = (scan - distance) & mask
            free_distance = (free - home) & mask
            if free_distance < distance:
                keys[free] = keys[scan]
                values[free] = values[scan]
                states[free] = free_distance + 1
                states[scan] = 0
                free = scan
            scan = (scan + 1) & mask

    # -- iteration / sampling ------------------------------------------------

    def items(self) -> Iterator[tuple[ItemId, float]]:
        occupied = np.flatnonzero(self._states != 0)
        return iter(
            zip(self._keys[occupied].tolist(), self._values[occupied].tolist())
        )

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        occupied = np.flatnonzero(self._states != 0)
        return self._keys[occupied], self._values[occupied]

    def serial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, values)`` in an order whose greedy re-insertion
        reproduces the physical layout slot for slot.

        Cyclic slot order starting at an empty slot has that property
        for linear-probing layouts (each key re-probes over residents
        already restored to their original slots and lands exactly where
        it was).  Plain ascending order — what :meth:`as_arrays` returns —
        is already such an order *unless* an occupancy run wraps past the
        end of the arrays, so rotation is applied only in the wrapped
        case and serialized bytes for every other state are unchanged.
        Serialization uses this; without it, a blob written from a
        wrapped state decodes to a table with the same contents but a
        different layout, breaking byte-identical replication.
        """
        states = self._states
        occupied = np.flatnonzero(states != 0)
        # A key at slot s with probe distance > s (states[s] - 1 > s) has
        # its home near the end of the arrays: its run wraps, and only
        # then does ascending order break down.
        if occupied.size and bool((states[occupied] > occupied + 1).any()):
            empties = np.flatnonzero(states == 0)
            if empties.size:  # always true: the load factor is < 1
                split = int(np.searchsorted(occupied, int(empties[0])))
                occupied = np.concatenate([occupied[split:], occupied[:split]])
        return self._keys[occupied], self._values[occupied]

    def values_list(self) -> list[float]:
        return self._values[self._states != 0].tolist()

    def sample_values(self, count: int, rng: Xoroshiro128PlusPlus) -> list[float]:
        """Uniform with-replacement sample of live counter values.

        Rejection-samples physical slots; with the table at its working
        load (>= 3/8 even right after a purge-triggering insert sequence)
        the expected number of probes per draw is a small constant.
        """
        if self._size == 0:
            raise InvalidParameterError("cannot sample from an empty table")
        states = self._states.tolist()
        values = self._values.tolist()
        length = len(states)
        out = []
        while len(out) < count:
            slot = rng.randrange(length)
            if states[slot] != 0:
                out.append(values[slot])
        return out

    def clear(self) -> None:
        self._allocate(self._mask + 1)

    # -- accounting ----------------------------------------------------------

    def space_bytes(self) -> int:
        # Charged at the *current* stage length: the adaptive-growth mode
        # exists precisely so early-stream tables occupy less.
        return BYTES_PER_SLOT * self.length + HEADER_BYTES

    def max_state(self) -> int:
        """Largest probe-distance state currently stored (diagnostics).

        Section 2.3.3 argues 2-byte states suffice because distances stay
        tiny at load 3/4; tests use this to confirm the claim empirically.
        """
        return int(self._states.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinearProbingTable(size={self._size}, capacity={self._capacity}, "
            f"length={self.length})"
        )


# Exactly this class (not subclasses — the white-box layout tests rig
# ``_home_slot``) may be served by the compiled kernels.
register_table(LinearProbingTable)

"""Counter storage substrates.

The paper's implementation (Section 2.3.3) keeps counters in a
linear-probing hash table laid out as parallel key/value arrays of length
``L = next_pow2(4k/3)`` plus a compact state array recording each key's
probe distance, with in-place backward-shift deletion during decrement
purges.  :class:`LinearProbingTable` reproduces that structure.

:class:`DictCounterStore` offers the same interface on a plain Python
``dict`` — in CPython the built-in dict is the pragmatic fast path, and an
ablation benchmark compares the two backends.

Two earlier backends, ``"robinhood"`` and ``"columnar"``, were retired:
they were bit-identical to the probing table and never faster.  Data
written under their names still loads, as the probing table
(:data:`RETIRED_BACKENDS`); new stores cannot name them.
"""

from repro.table.accounting import probing_table_bytes, table_length
from repro.table.base import CounterStore
from repro.table.dictstore import DictCounterStore
from repro.table.probing import LinearProbingTable

__all__ = [
    "CounterStore",
    "LinearProbingTable",
    "DictCounterStore",
    "table_length",
    "probing_table_bytes",
    "make_store",
    "BACKEND_NAMES",
    "RETIRED_BACKENDS",
    "loadable_backend",
    "GROWTH_MODES",
    "ADAPTIVE_INITIAL_CAPACITY",
]

#: Every counter-store backend name ``make_store`` accepts.
BACKEND_NAMES = ("probing", "dict")

#: Retired backend name -> the backend persisted state written under it
#: loads as.  Serialized blobs, snapshots and tenant registries may
#: still name these; ``make_store`` and the service flags reject them.
RETIRED_BACKENDS = {"robinhood": "probing", "columnar": "probing"}

#: Every table-growth mode ``make_store`` accepts.
GROWTH_MODES = ("fixed", "adaptive")

#: Where adaptive-growth stores start: enough room for this many counters,
#: doubling up to the configured capacity on overflow (the paper's hash
#: map "initially contains 2^5 slots and doubles in size when full").
ADAPTIVE_INITIAL_CAPACITY = 16


def make_store(
    backend: str, capacity: int, seed: int = 0, growth: str = "fixed"
) -> CounterStore:
    """Construct a counter store by backend name.

    Backends: ``"probing"`` (the paper's Section 2.3.3 layout) and
    ``"dict"`` (CPython's builtin table).

    ``growth="adaptive"`` starts the store small
    (:data:`ADAPTIVE_INITIAL_CAPACITY` counters) and doubles it up to
    ``capacity`` on overflow, mirroring the paper's doubling hash map —
    early-stream updates never touch full-size arrays.  ``"fixed"``
    (default) allocates everything up front.
    """
    if growth not in GROWTH_MODES:
        raise ValueError(f"unknown growth mode: {growth!r}")
    initial = ADAPTIVE_INITIAL_CAPACITY if growth == "adaptive" else None
    if backend == "probing":
        return LinearProbingTable(capacity, hash_seed=seed, initial_capacity=initial)
    if backend == "dict":
        return DictCounterStore(capacity, initial_capacity=initial)
    raise ValueError(f"unknown counter-store backend: {backend!r}")


def loadable_backend(name: str) -> str:
    """The live backend that persisted state named ``name`` loads as."""
    return RETIRED_BACKENDS.get(name, name)

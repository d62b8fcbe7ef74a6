"""Shared type aliases and small value objects used across the library.

The stream model follows Section 1.2 of the paper: a stream is a sequence
of updates ``(i_j, delta_j)`` where ``i_j`` is an item identifier from a
universe ``[m]`` and ``delta_j > 0`` is a real-valued weight.  Item
identifiers are 64-bit integers throughout the performance-oriented code
paths (the paper stores identifiers as ``long long``, cf. Section 4.1);
helpers in :mod:`repro.hashing` map strings and bytes onto that space.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

#: An item identifier.  The probing table requires non-negative 64-bit ints.
ItemId = int

#: A strictly positive, real-valued update weight.
Weight = float


class StreamUpdate(NamedTuple):
    """One weighted stream update ``(item, weight)``.

    ``weight`` defaults to ``1.0`` so unit-weight streams can be written as
    ``StreamUpdate(item)``.
    """

    item: ItemId
    weight: Weight = 1.0


#: Anything that yields stream updates, item ids, or ``(item, weight)`` pairs.
UpdateStream = Iterable[StreamUpdate]

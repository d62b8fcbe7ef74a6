"""Normalizing helpers for the stream-update model of Section 1.2.

Two entry forms are normalized here: per-item iterables (via
:func:`as_updates`) and array batches (via :func:`as_batch`) — the
single validation path every ``update_batch`` implementation shares.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.errors import InvalidUpdateError
from repro.hashing.mixers import items_to_u64_array
from repro.types import StreamUpdate


def check_weight(item: object, weight: float) -> None:
    """Raise :class:`~repro.errors.InvalidUpdateError` unless ``weight``
    is finite and strictly positive (the paper's ``delta_j > 0``).  NaN
    fails every comparison, so the chained test rejects it too."""
    if not 0 < weight < math.inf:
        problem = "positive" if weight <= 0 else "finite"
        raise InvalidUpdateError(
            f"update weights must be {problem}, got {weight} for item {item}"
        )


def as_batch(
    items: object, weights: object = None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce one array batch to ``(uint64, float64)`` form.

    ``items`` may be any 1-D integer array or sequence (converted
    losslessly — see :func:`repro.hashing.mixers.items_to_u64_array`);
    ``weights`` must align element-wise and be finite and strictly
    positive (see :func:`check_weight`), and
    defaults to unit weights.  Raises
    :class:`~repro.errors.InvalidUpdateError` before any caller state
    can change, so a rejected batch is always a no-op.
    """
    items = items_to_u64_array(items)
    if items.ndim != 1:
        raise InvalidUpdateError(
            f"items must be a 1-D array, got shape {items.shape}"
        )
    n = items.shape[0]
    if weights is None:
        return items, np.ones(n, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != items.shape:
        raise InvalidUpdateError(
            f"items and weights must align, got {items.shape} vs {weights.shape}"
        )
    # min/max are NaN when any weight is: both comparisons then fail.
    if n and not (0 < weights.min() and weights.max() < math.inf):
        bad = int(np.flatnonzero(~((weights > 0) & (weights < math.inf)))[0])
        check_weight(int(items[bad]), weights[bad])
    return items, weights


def as_updates(raw: Iterable) -> Iterator[StreamUpdate]:
    """Normalize an iterable into :class:`~repro.types.StreamUpdate` values.

    Accepts plain item ids (unit weight), ``(item, weight)`` tuples, and
    ready-made ``StreamUpdate`` instances.  Weights must be finite and
    strictly positive, matching the paper's model where ``delta_j > 0``.
    """
    for entry in raw:
        if isinstance(entry, StreamUpdate):
            update = entry
        elif isinstance(entry, tuple):
            if len(entry) != 2:
                raise InvalidUpdateError(f"expected (item, weight), got {entry!r}")
            update = StreamUpdate(entry[0], float(entry[1]))
        else:
            update = StreamUpdate(entry, 1.0)
        check_weight(update.item, update.weight)
        yield update

"""Sampled quantiles of counter multisets.

SMED (Algorithm 4) replaces the exact k*-th largest counter with the
median of ``ell`` counters sampled (with replacement) from the table;
Section 4.4 generalizes the median to an arbitrary sample quantile, which
is the knob the Figure-3 tradeoff sweeps.  Section 2.3.2 fixes
``ell = 1024`` in the production implementation.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import InvalidParameterError
from repro.prng import Xoroshiro128PlusPlus
from repro.selection.quickselect import quickselect

#: The sample size the paper's implementation uses (Section 2.3.2).
DEFAULT_SAMPLE_SIZE = 1024


def sample_quantile(
    sample: Sequence[float],
    quantile: float,
    rng: Xoroshiro128PlusPlus | None = None,
    selector: str = "auto",
) -> float:
    """Return the ``quantile``-th order statistic of ``sample``.

    ``quantile = 0.0`` is the sample minimum (SMIN), ``0.5`` the sample
    median (SMED), ``1.0`` the maximum.  The rank convention matches the
    paper's "q-th quantile of the sample": rank ``floor(q * (n - 1))``.

    ``selector`` picks how the order statistic is found:

    * ``"auto"`` (default) — ``min``/``max`` for the extreme quantiles and
      a full sort otherwise.  The paper's implementation uses Quickselect
      here, and so does the compiled decrement pass (``repro._native``);
      under CPython, ``min`` and ``sorted`` are C-coded and beat a
      Python-level Quickselect by an order of magnitude at the paper's
      ℓ = 1024, so this path keeps ``sorted()``.  A rank has one value,
      so both return the same float.
    * ``"quickselect"`` — Hoare's FIND, for op-count-faithful runs (the
      backend ablation benchmark compares both).
    """
    if not sample:
        raise InvalidParameterError("cannot take a quantile of an empty sample")
    if not 0.0 <= quantile <= 1.0:
        raise InvalidParameterError(f"quantile must be in [0, 1], got {quantile}")
    if selector == "quickselect":
        work = list(sample)
        rank = int(quantile * (len(work) - 1))
        return quickselect(work, rank, rng)
    if selector != "auto":
        raise InvalidParameterError(f"unknown selector {selector!r}")
    if quantile == 0.0:
        return min(sample)
    if quantile == 1.0:
        return max(sample)
    rank = int(quantile * (len(sample) - 1))
    return sorted(sample)[rank]


def sampled_counter_quantile(
    values: Sequence[float],
    quantile: float,
    sample_size: int,
    rng: Xoroshiro128PlusPlus,
) -> float:
    """Sample ``sample_size`` counters with replacement; return their quantile.

    ``values`` is the multiset of live counter values.  When the multiset
    is no larger than the sample size we use it whole — the quantile is
    then exact, which is both cheaper and strictly more accurate.
    """
    if sample_size <= 0:
        raise InvalidParameterError(f"sample_size must be positive, got {sample_size}")
    n = len(values)
    if n == 0:
        raise InvalidParameterError("cannot sample from an empty counter set")
    if n <= sample_size:
        return sample_quantile(values, quantile, rng)
    sample = [values[rng.randrange(n)] for _ in range(sample_size)]
    return sample_quantile(sample, quantile, rng)

"""Dispatch facade for the compiled hot-path kernels.

``repro._native._kernels`` (built by ``python setup.py build_ext
--inplace``) reimplements the interpreter-bound loops of the probing
tables, the batch grouper, and the ingest kernel in C.  This module
decides, per call site, whether the compiled path may serve a given
object — and the answer must be observably irrelevant: both paths
produce bit-identical layouts, estimates, serialized bytes, and
xoroshiro draw sequences (the golden-hash and differential-fuzz suites
run under both).

Dispatch rules
--------------
* ``REPRO_NATIVE=0`` in the environment forces the NumPy fallback;
  :func:`use_native` overrides either way at runtime (tests use it to
  build native-vs-fallback pairs in one process).
* Table kernels serve only the exact classes registered by the table
  modules (:func:`register_table`) — subclasses (e.g. the white-box
  layout tests' rigged tables) keep the Python paths — and only once a
  table is at its final length (``_insertion_log is None``); the
  adaptive-growth staging replays are left to the Python code that owns
  them.
* The ingest kernel additionally requires the stock
  ``SampleQuantilePolicy`` with the ``"auto"`` selector; that check
  lives in :mod:`repro.engine.kernel`, which owns the policy types.

This module deliberately imports nothing from the table or engine
layers, so they can import it without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro._native import EXTRA_COMPILE_ARGS, kernels as _kernels

_MASK64 = (1 << 64) - 1
#: Seed-folding constant of :func:`repro.hashing.mixers.hash_u64`.
_GOLDEN = 0x9E3779B97F4A7C15

#: Default on/off state, captured from the environment at import.
_env_enabled = os.environ.get("REPRO_NATIVE", "1") != "0"
#: Runtime override installed by :func:`use_native`; ``None`` = env rules.
_forced: Optional[bool] = None

#: Exact table classes the kernels understand.
_NATIVE_TABLES: set[type] = set()


def available() -> bool:
    """True when the compiled extension imported successfully."""
    return _kernels is not None


def enabled() -> bool:
    """True when dispatch may choose the compiled path right now."""
    if _kernels is None:
        return False
    return _env_enabled if _forced is None else _forced


@contextmanager
def use_native(flag: bool) -> Iterator[None]:
    """Force the native path on or off within a ``with`` block."""
    global _forced
    previous = _forced
    _forced = flag
    try:
        yield
    finally:
        _forced = previous


def kernels_if_enabled() -> Any:
    """The kernels module when dispatch is on, else ``None``."""
    if _kernels is None:
        return None
    if _env_enabled if _forced is None else _forced:
        return _kernels
    return None


def register_table(cls: type) -> None:
    """Declare ``cls`` (exactly — not subclasses) native-servable."""
    _NATIVE_TABLES.add(cls)


def table_kernels(store: Any) -> Any:
    """The kernels module when ``store`` may go native, else ``None``.

    ``None`` when the extension is missing/disabled, the class is not
    exactly a registered one, or the table can still grow (its staged
    rehash machinery is Python-owned).
    """
    kernels = kernels_if_enabled()
    if (
        kernels is None
        or type(store) not in _NATIVE_TABLES
        or store._insertion_log is not None
    ):
        return None
    return kernels


def seed_mix(seed: int) -> int:
    """The pre-folded seed word ``hash_u64`` XORs between mixing rounds."""
    return (seed * _GOLDEN) & _MASK64


def runtime_metadata() -> dict[str, Any]:
    """Provenance block for bench JSON: which ingest path ran, and how built."""
    meta: dict[str, Any] = {
        "ingest_path": "native" if enabled() else "numpy",
        "native_available": available(),
    }
    if _kernels is not None:
        meta["native_compiler"] = _kernels.COMPILER
        meta["native_compile_args"] = " ".join(EXTRA_COMPILE_ARGS)
    return meta

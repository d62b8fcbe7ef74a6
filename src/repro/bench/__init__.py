"""The experiment harness: one runnable target per paper figure/table.

``python -m repro.bench <experiment>`` regenerates any of:

* ``fig1`` — runtime of SMED/SMIN/RBMC/MHE (equal counters + equal space)
* ``fig2`` — maximum error of the same four algorithms
* ``fig3`` — time and error vs the decrement quantile
* ``fig4`` — merge speed: Algorithm 5 vs ACH+13 vs Hoa61
* ``claims`` — the Section 4.3 in-text ratio claims
* ``space`` — the Section 2.3.3 / 4.5 space accounting table
* ``context`` — counter-based vs sketch algorithms (Section 1.3 premise)
* ``bounds`` — the Theorem 2/4 tail bounds across workload shapes
* ``adversarial`` — the Section 1.3.4 stream on which RBMC decrements
  on every update and SMED does not
* ``ablations`` — decrement policies, sample size ℓ, backend, merge order

Workload sizes default to laptop-Python scale; ``--scale paper`` raises
them (see :data:`repro.bench.harness.SCALES`).  These experiments
measure error, space and operation counts; served speed is measured by
``perfbench/run.py``.
"""

from repro.bench.harness import BenchConfig, SCALES, feed_stream, time_feed
from repro.bench.report import ResultTable

__all__ = ["BenchConfig", "SCALES", "feed_stream", "time_feed", "ResultTable"]

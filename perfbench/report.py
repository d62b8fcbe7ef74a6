"""Turn measured phases into the named metrics and the waterfall.

End-to-end metrics come from an untraced phase; per-layer metrics from
the traced phase's spans (server processes and the generator's client
encoder) plus the untraced phase for the tracing overhead and the tail
diagnostics.
"""

from __future__ import annotations

import glob
import json
import statistics

import measure

#: ``(name, unit)`` of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s"),
    ("server_cpu_us_per_update", "us"),
    ("rss_peak_mb", "MB"),
    ("max_error_frac", "ratio"),
]

#: Layers in kernel → wire order, for the waterfall.
WATERFALL = [
    "kernel", "query", "merge", "serialize", "snapshot", "pipeline",
    "frames", "cluster", "protocol", "server", "client",
]


def ms(value: float) -> float:
    return value * 1000.0


def end_to_end(phase) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced phase, plus what each
    stands on."""
    values = {
        "setup_s": statistics.median(phase.setup_s),
        "server_cpu_us_per_update": phase.cpu_us_per_update,
        "rss_peak_mb": phase.rss_mb,
        "max_error_frac": phase.max_error_frac,
    }
    windows = len(phase.cpu_marks) - 1
    basis = {
        "setup_s": f"median of {len(phase.setup_s)} starts",
        "server_cpu_us_per_update": (
            f"middle half of {windows} windows;" if windows >= 2 else "whole run;"
        ) + f" whole run {phase.cpu_s:.2f} CPU s / {phase.updates} updates",
    }
    return values, basis


def tail_ms(samples, want: float) -> tuple[float, str]:
    """A latency percentile in ms and what it stands on.  Too few samples
    for any supported percentile: the maximum (0 with no samples)."""
    found = measure.percentile(samples, want)
    if found is not None:
        return ms(found.value), f"p{found.q:.4g} of n={found.n}"
    return (ms(max(samples)) if samples else 0.0), f"max of n={len(samples)}"


#: Latency diagnostics: ``(name, which samples, wanted percentile)``.
LATENCIES = [
    ("ingest_ack_p50_ms", "ack", 50),
    ("est_p50_ms", "est", 50),
    ("hh_p50_ms", "hh", 50),
    ("global_hh_p50_ms", "global_hh", 50),
    ("ingest_ack_p99_ms", "ack", 99),
    ("est_p99_ms", "est", 99),
    ("hh_p99_ms", "hh", 99),
    ("global_hh_p90_ms", "global_hh", 90),
]


#: Units of the diagnostics that are not latencies in ms.
DIAGNOSTIC_UNITS = {"updates_per_s": "upd/s", "failed_frac": "ratio"}


def diagnostics(phase) -> tuple[dict, dict]:
    """Wall-clock throughput, latencies and the failure share: reported,
    not bounded (their run-to-run spread on a shared 2-vCPU VM exceeded
    any usable bound)."""
    values = {"updates_per_s": phase.updates_per_s}
    basis = {"updates_per_s": "mean of the middle half of 1 s windows"}
    for name, samples, want in LATENCIES:
        values[name], basis[name] = tail_ms(getattr(phase, samples), want)
    values["failed_frac"] = phase.failed / max(1, phase.attempted)
    basis["failed_frac"] = f"{phase.failed} of {phase.attempted}"
    return values, basis


# -- spans ------------------------------------------------------------------------


def load_processes(span_dir: str) -> list[dict]:
    docs = []
    for path in sorted(glob.glob(f"{span_dir}/spans-*.json")):
        with open(path, "r", encoding="ascii") as fh:
            docs.append(json.load(fh))
    return docs


def _spans(raw: list) -> list[measure.Span]:
    return [measure.Span(s[0], s[1], s[2], s[3], s[4], s[5]) for s in raw]


def _under(spans: list[measure.Span], index: int, layer: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


class LayerTally:
    """Inclusive time, self time, calls and counts per span name."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.count: dict[str, float] = {}

    def add(self, spans: list[measure.Span], keep=lambda i: True) -> None:
        for index, (span, own) in enumerate(zip(spans, measure.self_times(spans))):
            if not keep(index):
                continue
            name = span.layer
            self.total[name] = self.total.get(name, 0.0) + span.end - span.start
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            self.count[name] = self.count.get(name, 0.0) + span.count

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def per_layer(traced, untraced) -> tuple[dict, dict, list]:
    """Per-layer metrics, their units, and the waterfall rows."""
    docs = load_processes(traced.span_dir)
    lo, hi = traced.started, traced.started + traced.wall_s

    def in_window(span) -> bool:
        return lo <= span.start < hi

    def keep(spans, index) -> bool:
        # Start-up recovery is reported whole; everything else only
        # inside the measured window (not set-up, read-back, shutdown).
        span = spans[index]
        if span.layer == "snapshot.recover":
            return True
        return in_window(span) and not _under(spans, index, "snapshot.recover")

    tally = LayerTally()
    queue_waits, opstats, pipelines = [], {}, []
    acceptor = []
    for doc in docs:
        spans = _spans(doc["spans"])
        tally.add(spans, keep=lambda i, s=spans: keep(s, i))
        queue_waits += [wait for at, wait in doc["queue_waits"] if lo <= at < hi]
        for key, value in doc["opstats"].items():
            opstats[key] = opstats.get(key, 0) + value
        pipelines += doc["pipelines"]
        if doc["role"] == "acceptor":
            acceptor = [span for span in spans if in_window(span)]
    client_spans = [
        span for span in _spans(traced.client_recorder.spans) if in_window(span)
    ] if traced.client_recorder else []
    tally.add(client_spans)

    t, c, n = tally.total, tally.calls, tally.count
    updates = max(1, opstats.get("updates", 0))
    kernel_items = n.get("kernel.update_batch", 0)
    batches = c.get("kernel.update_batch", 0)
    flushes = sum(p["time_flushes"] + p["size_flushes"] for p in pipelines)

    residuals = _residuals(traced, acceptor, client_spans)
    qw50, _ = tail_ms(queue_waits, 50)
    qw99, _ = tail_ms(queue_waits, 99)
    lag99, _ = tail_ms(untraced.lags, 99)
    merge_s = t.get("merge.merge", 0.0)
    sketches = n.get("merge.merge", 0)
    metrics = {
        "client.encode_s": (t.get("client.encode", 0.0), "s"),
        "client.frames": (c.get("client.encode", 0), "count"),
        "protocol.decode_s": (t.get("protocol.decode", 0.0), "s"),
        "protocol.decode_calls": (c.get("protocol.decode", 0), "count"),
        "server.residual_p50_ms": (tail_ms(residuals, 50)[0], "ms"),
        "server.cpu_frac": (traced.cpu_s / traced.wall_s if traced.wall_s else 0.0, "ratio"),
        "pipeline.submit_s": (t.get("pipeline.submit", 0.0), "s"),
        "pipeline.queue_wait_p50_ms": (qw50, "ms"),
        "pipeline.queue_wait_p99_ms": (qw99, "ms"),
        "pipeline.micro_batches": (batches, "count"),
        "pipeline.mean_batch_items": (kernel_items / batches if batches else 0.0, "count"),
        "pipeline.time_flush_frac": (
            sum(p["time_flushes"] for p in pipelines) / flushes if flushes else 0.0, "ratio"
        ),
        "pipeline.backpressure_waits": (sum(p["backpressure_waits"] for p in pipelines), "count"),
        "pipeline.peak_pending_items": (
            max((p["peak_pending_items"] for p in pipelines), default=0), "count"
        ),
        "snapshot.wal_append_s": (t.get("snapshot.wal_append", 0.0), "s"),
        "snapshot.wal_bytes": (n.get("snapshot.wal_append", 0), "B"),
        "snapshot.checkpoint_s": (t.get("snapshot.checkpoint", 0.0), "s"),
        "snapshot.checkpoints": (c.get("snapshot.checkpoint", 0), "count"),
        "snapshot.recover_s": (t.get("snapshot.recover", 0.0), "s"),
        "kernel.update_batch_s": (t.get("kernel.update_batch", 0.0), "s"),
        "kernel.calls": (c.get("kernel.update_batch", 0), "count"),
        "kernel.updates_per_busy_s": (
            kernel_items / t["kernel.update_batch"] if t.get("kernel.update_batch") else 0.0,
            "upd/s",
        ),
        "kernel.direct_updates_per_s": (traced.direct_updates_per_s, "upd/s"),
        "kernel.decrements_per_update": (opstats.get("decrements", 0) / updates, "ratio"),
        "kernel.counters_scanned_per_update": (
            opstats.get("counters_scanned", 0) / updates, "ratio"
        ),
        "kernel.hit_frac": (opstats.get("hits", 0) / updates, "ratio"),
        "query.estimate_s": (t.get("query.estimate", 0.0), "s"),
        "query.estimate_calls": (c.get("query.estimate", 0), "count"),
        "query.heavy_hitters_s": (t.get("query.heavy_hitters", 0.0), "s"),
        "query.heavy_hitters_calls": (c.get("query.heavy_hitters", 0), "count"),
        "merge.merge_s": (merge_s, "s"),
        "merge.sketches": (sketches, "count"),
        "merge.ms_per_sketch": (ms(merge_s) / sketches if sketches else 0.0, "ms"),
        "serialize.decode_s": (t.get("serialize.decode", 0.0), "s"),
        "serialize.bytes": (n.get("serialize.decode", 0), "B"),
        "cluster.submit_s": (t.get("cluster.submit", 0.0), "s"),
        "cluster.drain_s": (t.get("cluster.drain", 0.0), "s"),
        "cluster.global_hh_self_s": (tally.self_s.get("cluster.global_hh", 0.0), "s"),
        "frames.write_s": (t.get("frames.write", 0.0), "s"),
        "frames.frames": (c.get("frames.write", 0), "count"),
        "generator.lag_p99_ms": (lag99, "ms"),
        "trace.overhead_frac": (
            traced.cpu_us_per_update / untraced.cpu_us_per_update - 1.0
            if untraced.cpu_us_per_update else 0.0,
            "ratio",
        ),
    }
    values, units = {}, {}
    for name, (value, unit) in metrics.items():
        values[name], units[name] = value, unit
    diag_values, _basis = diagnostics(untraced)
    for name, value in diag_values.items():
        values[name] = value
        units[name] = DIAGNOSTIC_UNITS.get(name, "ms")

    rows = []
    wall = traced.wall_s or 1.0
    served = max(1, traced.updates)
    drain_wait = tally.self_s.get("cluster.drain", 0.0)
    for layer in WATERFALL:
        if layer == "server":
            own = sum(residuals)
        elif layer == "cluster":
            own = tally.layer_self(layer) - drain_wait
        else:
            own = tally.layer_self(layer)
        rows.append((layer, own, own / served * 1e6, own / wall))
    # Waiting for the worker to apply is not acceptor work: its own row.
    rows.append(("drain-wait", drain_wait, drain_wait / served * 1e6, drain_wait / wall))
    return values, units, rows


def _residuals(traced, acceptor: list, client_spans: list) -> list[float]:
    """Per ingest frame: ack time not covered by the client encoder or
    by server-side decode + submit spans (matched in frame order)."""
    def ordered(spans, layer):
        return sorted((s for s in spans if s.layer == layer), key=lambda s: s.start)

    submit_layer = "cluster.submit" if traced.workload == "cluster-tenants" else "pipeline.submit"
    encodes = ordered(client_spans, "client.encode")
    decodes = ordered(acceptor, "protocol.decode")
    submits = ordered(acceptor, submit_layer)
    out = []
    for ack, enc, dec, sub in zip(traced.ack_service, encodes, decodes, submits):
        covered = (enc.end - enc.start) + (dec.end - dec.start) + (sub.end - sub.start)
        out.append(max(0.0, ack - covered))
    return out


def format_waterfall(workload: str, rows: list) -> str:
    lines = [
        f"waterfall {workload} (self time, kernel -> wire)",
        f"  {'layer':<10} {'self_s':>9} {'us/update':>10} {'share_of_wall':>14}",
    ]
    for layer, own, per_update, share in rows:
        lines.append(f"  {layer:<10} {own:9.4f} {per_update:10.4f} {share:14.3%}")
    return "\n".join(lines)

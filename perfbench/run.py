"""The served-path benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-bulk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, half the time each: untraced,
then through ``traced_service.py`` with span wrappers on every layer; it
reports the per-layer metrics, the self-time waterfall and the tracing
overhead.  Every phase checks the served answers against an in-process
reference; any violation makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
result document (provenance included) is written under
``.bench_build/results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time

ROOT = os.getcwd()

#: Server starts per untraced run; ``setup_s`` is their median.
SETUP_ROUNDS = 7
#: Whole-run budget, inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=os.path.join(ROOT, ".bench_build", "results"),
        help="directory for the full result documents",
    )
    return parser.parse_args(argv)


async def run_workload(env, name: str, seed: int, seconds: float, trace: int) -> dict:
    import report
    import workloads

    function = workloads.WORKLOADS[name]
    if not trace:
        phase = await function(env, seed, seconds, False, SETUP_ROUNDS)
        metrics, basis = report.end_to_end(phase)
        diag_values, diag_basis = report.diagnostics(phase)
        units = dict(report.END_TO_END)
        phases = [phase]
        waterfall = None
        diagnostics = {"values": diag_values, "basis": {**basis, **diag_basis}}
    else:
        untraced = await function(env, seed, seconds / 2, False, 1)
        traced = await function(env, seed, seconds / 2, True, 1)
        metrics, units, waterfall = report.per_layer(traced, untraced)
        phases = [untraced, traced]
        diagnostics = {
            "traced_cpu_us_per_update": traced.cpu_us_per_update,
            "untraced_cpu_us_per_update": untraced.cpu_us_per_update,
        }
    problems = [p for phase in phases for p in phase.problems]
    notes = [n for phase in phases for n in phase.notes]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "problems": problems,
        "notes": notes,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "diagnostics": diagnostics,
        "waterfall": waterfall,
    }


def print_result(result: dict, provenance: dict) -> None:
    import report

    print(
        f"== {result['workload']} seed={result['seed']} seconds={result['seconds']:g} "
        f"trace={result['trace']} ingest_path={provenance['ingest_path']} "
        f"correct={result['correct']}"
    )
    basis = result["diagnostics"].get("basis", {})
    for name, metric in result["metrics"].items():
        note = f"  ({basis[name]})" if name in basis else ""
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}{note}")
    if not result["trace"]:
        print("  diagnostics (unbounded):")
        for name, value in result["diagnostics"]["values"].items():
            print(f"  {name:<36} {value:>16.6g}  ({basis[name]})")
    else:
        print(report.format_waterfall(result["workload"], result["waterfall"]))
        d = result["diagnostics"]
        print(
            f"  tracing overhead: server_cpu_us_per_update"
            f" {d['untraced_cpu_us_per_update']:.6g} untraced"
            f" -> {d['traced_cpu_us_per_update']:.6g} traced"
            f" ({result['metrics']['trace.overhead_frac']['value']:.2%})"
        )
    for note in result["notes"]:
        print(f"  NOTE: {note}")
    for problem in result["problems"][:20]:
        print(f"  CORRECTNESS: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import pinning

    src_dir, tree_hash = pinning.pin(ROOT)
    sys.path.insert(0, src_dir)
    provenance = pinning.provenance(ROOT, tree_hash)
    import workloads

    work_dir = os.path.join(ROOT, ".bench_build", "work", f"{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    env = workloads.Env(src_dir, work_dir)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = asyncio.run(
                asyncio.wait_for(
                    run_workload(env, name, args.seed, args.seconds, args.trace),
                    RUN_BUDGET_S,
                )
            )
            result["provenance"] = provenance
            print_result(result, provenance)
            results.append(result)
            os.makedirs(args.out, exist_ok=True)
            stamp = time.strftime("%Y%m%dT%H%M%S")
            path = os.path.join(
                args.out, f"{stamp}-{name}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
            )
            with open(path, "w", encoding="ascii") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

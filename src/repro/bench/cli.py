"""Command-line entry point: ``python -m repro.bench <experiment>``.

Prints the requested experiment's tables to stdout and optionally
appends them to a report file.  ``all`` runs everything in paper order.
Served speed is measured by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterable

from repro.bench import figures
from repro.bench.harness import SCALES
from repro.bench.report import ResultTable


def _fig1(config) -> Iterable[ResultTable]:
    return figures.fig1_runtime(config)


def _fig2(config) -> Iterable[ResultTable]:
    return figures.fig2_error(config)


def _fig3(config) -> Iterable[ResultTable]:
    return [figures.fig3_quantile_tradeoff(config)]


def _fig4(config) -> Iterable[ResultTable]:
    return [figures.fig4_merge(config)]


def _claims(config) -> Iterable[ResultTable]:
    return [figures.claims_table(config)]


def _space(config) -> Iterable[ResultTable]:
    return [figures.space_table()]


def _context(config) -> Iterable[ResultTable]:
    return [figures.context_table(config)]


def _bounds(config) -> Iterable[ResultTable]:
    return [figures.bounds_table(config)]


def _adversarial(config) -> Iterable[ResultTable]:
    return [figures.adversarial_table(config)]


def _ablations(config) -> Iterable[ResultTable]:
    return [
        figures.ablation_policies(config),
        figures.ablation_sample_size(config),
        figures.ablation_backend(config),
        figures.ablation_merge_order(config),
    ]


EXPERIMENTS: dict[str, Callable] = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "claims": _claims,
    "space": _space,
    "context": _context,
    "bounds": _bounds,
    "adversarial": _adversarial,
    "ablations": _ablations,
}


def run_header(experiment: str, scale: str) -> str:
    """The delimiter stamped above every ``--out`` append.

    Successive appends used to concatenate into one unattributable blob;
    the header ties each block of tables to the commit, the UTC instant
    and the workload scale that produced it.
    """
    from repro.bench.io import git_revision, utc_timestamp

    revision = git_revision()
    dirty = "+dirty" if revision["git_dirty"] else ""
    return (
        f"==== bench run: {experiment} | scale={scale} "
        f"| git {revision['git_hash'][:12]}{dirty} | {utc_timestamp()} ===="
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="workload scale (default: quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --scale quick (the CI smoke-job invocation)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also append the tables to this file",
    )
    args = parser.parse_args(argv)
    if args.quick and args.scale not in (None, "quick"):
        parser.error("--quick conflicts with --scale " + args.scale)
    scale = args.scale or "quick"
    config = SCALES[scale]

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    chunks = []
    for name in names:
        for table in EXPERIMENTS[name](config):
            text = table.to_text()
            print(text)
            print()
            chunks.append(text)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(run_header(args.experiment, scale) + "\n\n")
            fh.write("\n\n".join(chunks) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

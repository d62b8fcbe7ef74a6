"""``python -m repro.service`` with span wrappers installed.

Usage: ``PERFBENCH_SPAN_DIR=DIR python3 perfbench/traced_service.py
[service arguments]``.  The wrappers are installed before the service's
``main`` runs, so crash recovery at start-up is traced and forked
cluster workers inherit them.  Each process writes its spans to ``DIR``
when it shuts down (SIGINT, or a worker's ``stop``).
"""

from __future__ import annotations

import os
import sys

import spans


def main() -> int:
    directory = os.environ["PERFBENCH_SPAN_DIR"]
    from repro.service import __main__ as service_main

    recorder = spans.Recorder()
    spans.install_server(recorder)
    spans.install_worker_flush(recorder, directory)
    try:
        return service_main.main(sys.argv[1:])
    finally:
        recorder.flush(directory, "acceptor")


if __name__ == "__main__":
    sys.exit(main())

"""Pin the code under test and record where it ran.

The benchmark never runs the checkout's ``src/`` in place: it copies
``src/`` and ``setup.py`` into ``.bench_build/pin-<hash>/`` and builds
``repro._native`` there with that ``setup.py``, so a change to the C
kernels is measured and ``src/`` stays untouched.  The copy is keyed by
a hash of its sources and reused by later runs of the same tree.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"


def source_hash(root: str) -> str:
    """SHA-256 over ``setup.py`` and every source file under ``src/``."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "setup.py")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".so")):
                continue
            paths.append(os.path.join(base, name))
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def pin(root: str) -> tuple[str, str]:
    """Copy and build the tree at ``root``; returns ``(src_dir, hash)``.

    Raises ``FileNotFoundError`` when ``root`` has no ``src/`` or
    ``setup.py``: there is nothing to measure.  A failed native build is
    not an error (the package falls back to NumPy); the build log stays
    next to the copy and the provenance records the ingest path.
    """
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        raise FileNotFoundError(f"no src/repro under {root!r}")
    if not os.path.isfile(os.path.join(root, "setup.py")):
        raise FileNotFoundError(f"no setup.py under {root!r}")
    tree_hash = source_hash(root)
    target = os.path.join(root, BUILD_DIR, f"pin-{tree_hash[:16]}")
    marker = os.path.join(target, ".built")
    if not os.path.exists(marker):
        staging = f"{target}.{os.getpid()}.tmp"
        shutil.rmtree(staging, ignore_errors=True)
        shutil.copytree(
            os.path.join(root, "src"), os.path.join(staging, "src"),
            ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
        )
        shutil.copy2(os.path.join(root, "setup.py"), staging)
        with open(os.path.join(staging, "build.log"), "wb") as log:
            subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--inplace"],
                cwd=staging, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, check=False, timeout=600,
            )
        with open(os.path.join(staging, ".built"), "w", encoding="ascii") as fh:
            fh.write(tree_hash + "\n")
        try:
            os.rename(staging, target)
        except OSError:
            # Another run of the same tree finished first; use its copy.
            shutil.rmtree(staging, ignore_errors=True)
    return os.path.join(target, "src"), tree_hash


def git_hash(root: str) -> str | None:
    """The checkout's commit, when it is a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def calibration_score() -> float:
    """Fixed pure-Python + NumPy reference loop, in loops per second.

    Best of five, so a scheduler hiccup does not set the host's score.
    Comparisons use it to refuse sets taken on hosts of different speed.
    """
    import numpy as np

    data = np.random.default_rng(2017).random(200_000)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        np.sort(data)
        best = min(best, time.perf_counter() - start)
    return 1.0 / best


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, tree_hash: str) -> dict:
    """Everything a result needs to be compared honestly with another."""
    import numpy as np

    from repro import native

    return {
        "git_hash": git_hash(root),
        "source_hash": tree_hash,
        "runtime": native.runtime_metadata(),
        "ingest_path": native.runtime_metadata()["ingest_path"],
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "machine": platform.machine(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_loops_per_s": calibration_score(),
    }


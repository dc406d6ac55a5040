"""Benchmark-harness configuration.

Every benchmark regenerates one of the paper's tables/figures (or one of the
ablations listed in DESIGN.md) on a reduced grid, prints the corresponding
rows/series, and times the run with pytest-benchmark.  Set the environment
variable ``REPRO_PAPER_SCALE=1`` to run the paper-sized grids instead (much
slower; see EXPERIMENTS.md).

Speedup-gating benchmarks additionally persist their measurements as
machine-readable ``BENCH_<name>.json`` files at the repository root (via
:func:`write_bench_json`), so the performance trajectory is tracked across
PRs and CI can upload the artefacts.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

#: Repository root — BENCH_<name>.json files land here.
REPO_ROOT = Path(__file__).resolve().parent.parent


def _commit_sha() -> str:
    """HEAD commit (``-dirty`` when uncommitted changes exist), or ``"unknown"``.

    Stamped here by the harness (not by CI workflow scripts) so every
    BENCH_*.json carries its provenance no matter where it was produced —
    laptop, CI, or a paper-scale run.  The dirty marker matters: numbers
    produced by uncommitted code must not be attributed to the clean SHA.
    """
    def _git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()

    try:
        sha = _git("rev-parse", "HEAD")
        if not sha:
            return "unknown"
        # The BENCH_*.json artefacts are themselves tracked and rewritten by
        # every benchmark run; they must not count as dirtiness or a clean
        # checkout would stamp '-dirty' the moment its first benchmark ran.
        if _git("status", "--porcelain", "--", ":!BENCH_*.json"):
            sha += "-dirty"
        return sha
    except Exception:
        return "unknown"


def paper_scale_requested() -> bool:
    """Whether the user asked for the full paper-sized parameter grids."""
    return os.environ.get("REPRO_PAPER_SCALE", "0") not in ("", "0", "false", "False")


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    return paper_scale_requested()


def write_bench_json(name: str, payload: dict) -> Path:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    ``payload`` is benchmark-specific (timings in seconds, speedups, scenario
    sizes); a small provenance envelope (benchmark name, paper-scale flag,
    python version, commit SHA, ISO-8601 UTC timestamp) is added so the files
    are self-describing when collected as CI artefacts or diffed across PRs.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    document = {
        "benchmark": name,
        "paper_scale": paper_scale_requested(),
        "python": platform.python_version(),
        "commit": _commit_sha(),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def bench_json():
    """Session fixture handing benchmarks the :func:`write_bench_json` writer."""
    return write_bench_json


def timing_stats(seconds: Sequence[float]) -> dict:
    """Median, interquartile range and minimum of repeated timings, plus the samples.

    Gates compare medians, so one slow sample (a neighbour's burst, a GC
    pause) cannot fail a benchmark on its own.
    """
    samples = np.asarray(seconds, dtype=float)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "samples": [float(s) for s in samples],
        "median": float(median),
        "iqr": float(q3 - q1),
        "min": float(samples.min()),
    }


@pytest.fixture(scope="session")
def bench_timing():
    """Session fixture handing benchmarks the :func:`timing_stats` summariser."""
    return timing_stats


def _openblas_thread_controls() -> list:
    """``(get_num_threads, set_num_threads)`` of every OpenBLAS loaded in this process.

    numpy and scipy each bundle their own OpenBLAS (symbol prefix
    ``scipy_openblas``, suffix ``64_`` for the ILP64 build).  Found through
    ``/proc/self/maps``, so this is Linux-only and empty elsewhere.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    controls.append((get, set_))
    return controls


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS pinned to one thread.

    Threaded BLAS makes a timing depend on whether the machine's other cores
    are free at that moment; pinned, both arms of a comparison run on one
    core.  The previous thread counts are restored afterwards.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield len(controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


@pytest.fixture(scope="session")
def blas_single_thread():
    """Session fixture handing benchmarks the :func:`single_blas_thread` context manager."""
    return single_blas_thread

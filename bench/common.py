"""Shared pieces of the benchmark: failure tally, output checks, environment."""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import sys
import traceback

import numpy as np
import scipy


class CheckFailed(Exception):
    """An output of the program is not what the workload requires."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


class Tally:
    """Attempted and failed operations: images, eval items, training calls, checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @contextlib.contextmanager
    def item(self, what):
        """Count one attempted operation; an error inside it counts as a failure
        and the run goes on with the next operation."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the benchmark must finish and report every failure
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def check(self, what, condition, message):
        """Count one attempted output check; a false condition is a failure."""
        self.attempted += 1
        if not condition:
            self.failures.append(f"{what}: {message}")

    def skip(self, label, whats, reason):
        """Count checks that could not run because an earlier step failed: each
        is attempted and failed, so the denominator does not shrink."""
        for what in whats:
            self.check(f"{label}: {what}", False, f"not run, {reason}")

    @property
    def failed(self):
        return len(self.failures)


def quantile(values, q):
    """The q-th percentile, interpolated linearly between samples."""
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


def part_seconds(samples):
    """The 25th-percentile seconds of each part of a cycle, by part name.

    A part (a story view, a trainer) does the same work every time it runs,
    so a change to the code moves each part's quantile alike. The host's
    slow phases, which last 10 to 60 s, move a run's fastest quarter of a
    part less than its median.
    """
    parts = {}
    for sample in samples:
        parts.setdefault(sample["part"], []).append(sample["s"])
    return {part: quantile(seconds, 25) for part, seconds in parts.items()}


def cycle_tok_per_s(samples):
    """Tokens of one cycle (one run of every part) over the sum of every
    part's 25th-percentile seconds."""
    tokens = {sample["part"]: sample["tokens"] for sample in samples}
    return sum(tokens.values()) / sum(part_seconds(samples).values())


def openblas_threads():
    """Threads the loaded OpenBLAS libraries will use, read from the libraries."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def environment(seed, blas_cap):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": blas_cap,
        "blas_threads": openblas_threads(),
    }

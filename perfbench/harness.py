"""Measurement helpers shared by the workloads: clocks, statistics,
an in-memory span recorder, the host record and peak memory.

Standard library only, so the benchmark can record its own import
time before NumPy is loaded.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

now = time.perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_blas_thread() -> None:
    """One BLAS thread per process, so pool workers plus threads never
    exceed the cores.  Call before NumPy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


@dataclass
class Outcome:
    """What one workload run produced: checked operations, metrics and
    the spans of a traced run."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    spans: "Spans | None" = None

    def check(self, ok: bool) -> None:
        """Count one checked operation; a wrong output is a failure."""
        self.attempted += 1
        self.failed += not ok


class Spans:
    """Spans kept in memory and written out once, at the end of a run.

    Each span records its name, start and end (``perf_counter_ns``),
    the index of the span open around it (its cause) and the unit of
    work (frame, pass or forward pass) it belongs to.  The recorder is
    single-threaded: pool workers are timed through the parent-side
    call that waits for them.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []
        self.unit = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, 0, 0, parent, self.unit))
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records[idx] = (name, start, end, parent, self.unit)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        timed.__wrapped__ = fn
        return timed

    def by_unit(self, name: str) -> dict[int, float]:
        """Seconds spent in spans called ``name``, summed per unit."""
        out: dict[int, float] = {}
        for n, start, end, _, unit in self.records:
            if n == name:
                out[unit] = out.get(unit, 0.0) + (end - start) * 1e-9
        return out

    def calls_by_unit(self, name: str) -> dict[int, int]:
        out: dict[int, int] = {}
        for n, _, _, _, unit in self.records:
            if n == name:
                out[unit] = out.get(unit, 0) + 1
        return out

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``."""
        return [(e - s) * 1e-9 for n, s, e, _, _ in self.records if n == name]

    def child_seconds(self, name: str) -> dict[int, float]:
        """Per span called ``name`` (keyed by its unit): seconds covered
        by its direct child spans."""
        idx_unit = {
            i: rec[4] for i, rec in enumerate(self.records) if rec[0] == name
        }
        out = {unit: 0.0 for unit in idx_unit.values()}
        for _, start, end, parent, _ in self.records:
            if parent in idx_unit:
                out[idx_unit[parent]] += (end - start) * 1e-9
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (a plain array of complete events)."""
        if not self.records:
            return
        t0 = min(rec[1] for rec in self.records)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"unit": unit, "parent": parent},
            }
            for name, start, end, parent, unit in self.records
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(events, fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(workers: int) -> dict:
    """nproc, CPU, interpreter/library versions, BLAS threads, pool
    workers and load average, taken at the start of a run."""
    import numpy
    import scipy

    try:
        load = os.getloadavg()
    except OSError:
        load = (-1.0, -1.0, -1.0)
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ.get(BLAS_THREAD_VARS[0], "0")),
        "pool_workers": workers,
        "loadavg": [round(x, 2) for x in load],
    }


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    if sys.platform == "darwin":  # pragma: no cover - bytes there
        own //= 1024
    children = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return (own + children) / 1024.0


def stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every process this run started.

    Pool workers are joined (terminated if they outstay ``timeout``).
    The multiprocessing resource tracker, started by spawn-context
    locks and by shared memory, outlives its parent on Python < 3.13
    and is reaped by nobody once that parent exits; it is stopped here
    and waited for.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()

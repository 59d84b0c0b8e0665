"""Helpers shared by the workloads: statistics, memory, layer timing.

Nothing here imports :mod:`repro`; each workload imports the package
itself, so a checkout without ``src/`` fails in one place (``run.py``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE / "spec.json"


def load_spec() -> Dict[str, object]:
    """The benchmark's recorded inputs, expected counts and rates."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MiB of ``pid`` (default: this process).

    Read from ``VmHWM`` in ``/proc/<pid>/status``; the process's own
    ``ru_maxrss`` is the fallback when ``/proc`` is unavailable.
    """
    status = Path(f"/proc/{pid or 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        if pid is not None:
            raise
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: About the median of :func:`reference_seconds` on the host the
#: benchmark was calibrated on (2 vCPU, Python 3.11.7): scaled times
#: read like that host's wall times at its usual speed.
REFERENCE_S = 0.004


def reference_seconds() -> float:
    """Seconds one fixed pure-Python loop takes now: the host's speed.

    The loop (tuple keys, dict updates, integer arithmetic) runs no
    code of the package, so a change to the program cannot move it;
    the collector is off so the caller's heap cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[tuple, int] = {}
        for i in range(10000):
            key = (i % 997, i % 13)
            table[key] = table.get(key, 0) + i * i % 7
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_scaled(ops: Sequence, run_one: Callable[..., Dict[str, object]]) -> List[Dict[str, object]]:
    """``run_one`` on every op, each between two host-speed samples.

    The CPUs of the benchmark's hosts are shared with other tenants
    and their speed drifts: one chase took 0.14-0.34 s within a
    minute, and medians over 10-40 s windows still spread by about 0.2
    (IQR/median), so no run length averages the drift out.  A slow
    spell slows the loop of :func:`reference_seconds` run in the same
    process alike: the chase's time over the loop's, timed side by
    side, spread by 0.04-0.10 over the same windows.  Each result gets
    ``host_factor``, ``REFERENCE_S`` over the mean of the samples just
    before and just after it; multiply its times by it.  A sample is
    the median of three loops, so one descheduled loop cannot skew an
    operation that runs for seconds.
    """

    def sample() -> float:
        return median([reference_seconds() for _ in range(3)])

    samples = [sample()]
    done = []
    for op in ops:
        done.append(run_one(op))
        samples.append(sample())
    for index, result in enumerate(done):
        result["host_factor"] = 2.0 * REFERENCE_S / (samples[index] + samples[index + 1])
    return done


def log(message: str) -> None:
    """Progress and report lines go to stdout; the JSON result is last."""
    print(message, flush=True)


class LayerClock:
    """Self-time accounting for timed calls that may nest.

    :meth:`wrap` replaces ``module.name`` by a timing wrapper and
    remembers the original so :meth:`restore` puts it back.  A call's
    self time is its duration minus the time of timed calls made
    inside it, so layer seconds add up without double counting.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[float] = []
        self._patched: List[tuple] = []

    def timed(self, layer: str, function: Callable, *args, **kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            nested = self._stack.pop()
            self.seconds[layer] = self.seconds.get(layer, 0.0) + elapsed - nested
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if self._stack:
                self._stack[-1] += elapsed

    def wrap(self, module, name: str, layer: str, on_result: Optional[Callable] = None) -> None:
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = self.timed(layer, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, name, wrapper)
        self._patched.append((module, name, original))

    def restore(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def total(self) -> float:
        return sum(self.seconds.values())


def repo_python_env(root: Path) -> Dict[str, str]:
    """Environment for child processes that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python() -> str:
    return sys.executable or "python3"

"""Sampled round-level instrumentation for the chase engine drivers.

A :class:`ChaseProbe` rides along a single chase run as a
:class:`~repro.obs.observer.ChaseObserver`.  It acts on the round
callbacks only — ``round_start`` / ``round_end``, never per trigger —
so the enabled overhead is a handful of attribute writes per round, and
with telemetry off no probe object exists at all.

Totals (rounds, triggers, atoms, nulls, index builds) are always exact.
Per-round *samples* are bounded: the probe keeps at most
``max_samples`` rounds, recording every ``sample_every``-th round and,
when the buffer would overflow, decimating it (drop every other sample,
double the stride).  Long runs therefore keep an evenly spaced timeline
instead of only the first N rounds, and memory stays O(max_samples)
regardless of run length.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from .observer import ChaseObserver

__all__ = ["ChaseProbe"]


class ChaseProbe(ChaseObserver):
    """Collects per-round chase telemetry with bounded sampling.

    Per-round figures are differences of the drivers' running totals
    between ``round_start`` and ``round_end``; index builds are read
    from the store (zero on the legacy engine).
    """

    __slots__ = (
        "sample_every",
        "max_samples",
        "samples",
        "rounds",
        "total_wall_seconds",
        "total_triggers_considered",
        "total_triggers_applied",
        "total_atoms_created",
        "total_nulls_invented",
        "total_index_builds",
        "_round_start",
        "_stride",
        "_clock",
        "_store",
        "_anchor",
    )

    def __init__(self, sample_every: int = 1, max_samples: int = 512) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.sample_every = sample_every
        self.max_samples = max_samples
        self.samples: List[Dict[str, Any]] = []
        self.rounds = 0
        self.total_wall_seconds = 0.0
        self.total_triggers_considered = 0
        self.total_triggers_applied = 0
        self.total_atoms_created = 0
        self.total_nulls_invented = 0
        self.total_index_builds = 0
        self._round_start = 0.0
        self._stride = sample_every
        self._clock = time.perf_counter
        self._store: Any = None
        self._anchor = (0, 0, 0, 0, 0, 0)

    def run_start(self, engine, rule_ids, store, started) -> None:
        self._store = store

    def round_start(self, delta, considered, fired, created, nulls) -> None:
        self.begin_round()
        store = self._store
        builds = store.index_builds if store is not None else 0
        self._anchor = (delta, considered, fired, created, nulls, builds)

    def round_end(
        self, rounds, considered, fired, created, nulls, store, marks, complete
    ) -> None:
        delta, considered0, fired0, created0, nulls0, builds0 = self._anchor
        self.end_round(
            delta,
            considered - considered0,
            fired - fired0,
            created - created0,
            nulls_invented=nulls - nulls0,
            index_builds=store.index_builds - builds0 if store is not None else 0,
        )

    def run_end(
        self, considered, fired, created, nulls, store, enumerate_seconds,
        compile_seconds,
    ) -> None:
        self._store = None

    def begin_round(self) -> None:
        self._round_start = self._clock()

    def end_round(
        self,
        delta_size: int,
        triggers_considered: int,
        triggers_applied: int,
        atoms_created: int,
        nulls_invented: int = 0,
        index_builds: int = 0,
    ) -> None:
        elapsed = self._clock() - self._round_start
        round_index = self.rounds
        self.rounds += 1
        self.total_wall_seconds += elapsed
        self.total_triggers_considered += triggers_considered
        self.total_triggers_applied += triggers_applied
        self.total_atoms_created += atoms_created
        self.total_nulls_invented += nulls_invented
        self.total_index_builds += index_builds
        if round_index % self._stride:
            return
        self.samples.append(
            {
                "round": round_index,
                "wall_seconds": round(elapsed, 9),
                "delta_size": delta_size,
                "triggers_considered": triggers_considered,
                "triggers_applied": triggers_applied,
                "atoms_created": atoms_created,
                "nulls_invented": nulls_invented,
                "index_builds": index_builds,
            }
        )
        if len(self.samples) > self.max_samples:
            # Decimate: keep every other sample, double the stride.  The
            # retained samples remain evenly spaced at the new stride.
            self.samples = self.samples[::2]
            self._stride *= 2

    def as_dict(self) -> Dict[str, Any]:
        """Summary payload for ``ChaseResult.summary()["telemetry"]``."""
        return {
            "rounds": self.rounds,
            "wall_seconds": round(self.total_wall_seconds, 9),
            "triggers_considered": self.total_triggers_considered,
            "triggers_applied": self.total_triggers_applied,
            "atoms_created": self.total_atoms_created,
            "nulls_invented": self.total_nulls_invented,
            "index_builds": self.total_index_builds,
            "sample_stride": self._stride,
            "samples": [dict(sample) for sample in self.samples],
        }

"""One observer protocol for the chase drivers.

Probes, profilers, checkpoints and fault points watch the chase's
fixpoint loop without being part of it.  Both engine drivers hold one
``observers`` tuple and call each :class:`ChaseObserver` callback from
exactly one site; ``segment`` fires where the rule-major pending list
moves on to another rule, so nothing is called per trigger.  Every
callback gets the running totals the drivers keep — triggers
considered and fired, atoms created, nulls invented (those in kept
facts, so both engines agree under depth truncation) — and observers
derive their figures from differences of these totals.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

__all__ = ["ChaseObserver"]


class ChaseObserver:
    """Base class for chase observers: every callback is a no-op.

    ``store`` is the run's :class:`~repro.model.store.FactStore` on the
    store engine and ``None`` on the legacy engine.
    """

    __slots__ = ()

    def run_start(
        self, engine: str, rule_ids: Sequence[str], store: Any, started: float
    ) -> None:
        """A run begins.  ``rule_ids`` are in rule-index order (what
        ``segment`` reports); ``started`` is the ``perf_counter()``
        reading at run entry, so the time since is database setup."""

    def round_start(
        self, delta: int, considered: int, fired: int, created: int, nulls: int
    ) -> None:
        """A round begins; ``delta`` is the size of its fact frontier."""

    def segment(
        self, rule: int, considered: int, fired: int, created: int, nulls: int
    ) -> None:
        """The apply loop moves on to the triggers of rule index ``rule``."""

    def round_end(
        self, rounds: int, considered: int, fired: int, created: int, nulls: int,
        store: Any, marks: Optional[List[int]], complete: bool,
    ) -> None:
        """Round ``rounds`` (1-based, checkpointed rounds included) ended.

        ``marks`` delimit the rows the round appended (``None`` on the
        legacy engine): the frontier a checkpoint freezes.
        ``complete`` is False when a budget stopped the round midway —
        the run ends there, at no boundary a checkpoint could resume.
        """

    def run_end(
        self, considered: int, fired: int, created: int, nulls: int, store: Any,
        enumerate_seconds: Sequence[float],
        compile_seconds: Optional[Sequence[float]],
    ) -> None:
        """The run ended.  The drivers time trigger enumeration and
        (store engine only; else ``None``) plan compilation per rule
        index while observers are attached, and hand the seconds over
        here."""

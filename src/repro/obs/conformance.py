"""Paper-bound conformance monitoring.

The paper proves, for each class ``C ∈ {SL, L, G}``, a depth bound
``d_C(Σ)`` on ``maxdepth(D, Σ)`` and a size bound ``|D| · f_C(Σ)`` on
``|chase(D, Σ)|`` whenever ``Σ ∈ C ∩ CT_D``.  A terminated run of a
program in one of these classes must therefore land *under* its
bounds; observing a run above them means either the classifier put the
program in the wrong class or an engine invented facts it should not
have — a bug worth a structured warning, not a log line.

:func:`conformance_report` turns a run summary into a plain-data block
with the observed-over-bound utilizations, and
:func:`record_conformance` mirrors that block into a metrics registry
as ``repro_bound_utilization{kind=...}`` gauges plus a
``repro_bound_violations_total`` counter surfaced at ``/metrics``.

Bounds are only *computed* when they are comparable to the observed
run: the guarded bounds are astronomically large for most programs,
and materialising them exactly would cost more than the chase.  The
``*_within`` helpers in :mod:`repro.core.bounds` refuse over-cap
powers, in which case the utilization reports as 0.0 (the run is
unmeasurably far below its bound) and the bound itself as the
printable :func:`~repro.core.bounds.magnitude` estimate.

Conformance is computed *post-run* from the summary — nothing here
touches engine hot paths, cache keys, or stored summaries unless a
caller explicitly asks for the block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.classify import TGDClass
    from repro.model.tgd import TGDSet

__all__ = ["conformance_report", "record_conformance"]

#: Bounds are materialised exactly only while they are within this
#: factor of the observed value; beyond it the utilization is an
#: unmeasurable ~0 and only a magnitude estimate is reported.
BOUND_CAP_FACTOR = 1_000_000


def conformance_report(
    summary: Mapping[str, object],
    tgds: TGDSet,
    tgd_class: Optional[TGDClass] = None,
) -> Optional[Dict[str, object]]:
    """The ``conformance`` block for a run summary, or ``None``.

    ``None`` means the program's class (``tgd_class`` overrides the
    classifier — test fixtures use that to simulate misclassification)
    carries no paper bounds, so there is nothing to conform to.
    Violations are only reported for *terminated* runs: a
    budget-stopped prefix of a diverging chase is not a counterexample
    to anything.
    """
    # Imported here, not at module top: repro.core reaches back into
    # repro.chase.engine, which imports repro.obs — a module-level
    # import would be circular.
    from repro.core.bounds import (
        depth_bound,
        depth_bound_within,
        magnitude,
        size_bound_factor_magnitude,
        size_bound_within,
    )
    from repro.core.classify import classify

    tgd_class = tgd_class or classify(tgds)
    if not tgd_class.has_paper_bounds:
        return None
    size = int(summary.get("size", 0))
    database_size = int(summary.get("database_size", 0))
    max_depth = int(summary.get("max_depth", 0))
    terminated = bool(summary.get("terminated", False))

    size_bound = size_bound_within(
        database_size, tgds, max(size, 1) * BOUND_CAP_FACTOR, tgd_class
    )
    observed_depth_bound = depth_bound_within(
        tgds, max(max_depth, 1) * BOUND_CAP_FACTOR, tgd_class
    )

    report: Dict[str, object] = {"class": str(tgd_class), "terminated": terminated}
    if size_bound is not None:
        report["size_bound"] = size_bound
        report["size_utilization"] = (
            round(size / size_bound, 6) if size_bound > 0 else 0.0
        )
    else:
        # Astronomically above anything observable; report the
        # magnitude of f_C alone (|D| · f_C may not be materialisable).
        report["size_bound"] = None
        report["size_bound_magnitude"] = size_bound_factor_magnitude(tgds, tgd_class)
        report["size_utilization"] = 0.0
    if observed_depth_bound is not None:
        report["depth_bound"] = observed_depth_bound
        report["depth_utilization"] = (
            round(max_depth / observed_depth_bound, 6)
            if observed_depth_bound > 0
            else 0.0
        )
    else:
        report["depth_bound"] = None
        report["depth_bound_magnitude"] = magnitude(depth_bound(tgds, tgd_class))
        report["depth_utilization"] = 0.0

    violations = []
    if terminated:
        if size_bound is not None and size_bound > 0 and size > size_bound:
            violations.append("size")
        if observed_depth_bound is not None and max_depth > observed_depth_bound:
            violations.append("depth")
    report["violations"] = violations
    return report


def record_conformance(registry, report: Optional[Mapping[str, object]]) -> None:
    """Mirror a conformance block into ``registry`` (no-op on ``None``).

    Exports the latest run's utilizations as
    ``repro_bound_utilization{kind="size"|"depth"}`` gauges and counts
    bound violations into ``repro_bound_violations_total`` — the
    structured warning a dashboard alerts on, since a violation is a
    classification or engine bug by construction.
    """
    if report is None:
        return
    registry.gauge(
        "repro_bound_utilization",
        "Observed value over the paper bound for the last conforming run",
        labels={"kind": "size"},
    ).set(float(report.get("size_utilization", 0.0)))
    registry.gauge(
        "repro_bound_utilization",
        "Observed value over the paper bound for the last conforming run",
        labels={"kind": "depth"},
    ).set(float(report.get("depth_utilization", 0.0)))
    violations = report.get("violations") or ()
    counter = registry.counter(
        "repro_bound_violations_total",
        "Runs observed above their paper bound (classification/engine bug)",
    )
    if violations:
        counter.inc(len(violations))

"""Paper-bound conformance monitoring (obs/conformance.py).

Two directions: terminated runs of correctly classified SL/L programs
must land *under* their d_C/f_C bounds (utilization ≤ 1.0, no
violations), and an intentionally misclassified program whose observed
depth exceeds the wrong class's bound must raise the structured
violation counter — that is the signal the monitor exists for.
"""

import json
import time

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ChaseBudget
from repro.core.classify import TGDClass, classify
from repro.generators.families import (
    example_7_1,
    guarded_lower_bound,
    linear_lower_bound,
    sl_lower_bound,
)
from repro.model.parser import parse_database, parse_program
from repro.obs.conformance import conformance_report, record_conformance
from repro.obs.metrics import MetricsRegistry

BUDGET = ChaseBudget(max_atoms=200_000, max_rounds=100_000)

#: Terminating SL/L golden-table families (name -> case factory).
TERMINATING_FAMILIES = {
    "example_7_1": example_7_1,
    "sl_lower_222": lambda: sl_lower_bound(2, 2, 2),
    "linear_lower_222": lambda: linear_lower_bound(2, 2, 2),
}


class TestConformingRuns:
    @pytest.mark.parametrize("name", sorted(TERMINATING_FAMILIES))
    @pytest.mark.parametrize("variant", ["semi-oblivious", "restricted"])
    def test_terminating_families_stay_under_their_bounds(self, name, variant):
        database, tgds = TERMINATING_FAMILIES[name]()
        assert classify(tgds).has_paper_bounds
        result = VARIANT_RUNNERS[variant](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        assert result.terminated
        report = conformance_report(result.summary(), tgds)
        assert report is not None
        assert report["terminated"] is True
        assert report["violations"] == []
        assert 0.0 <= report["size_utilization"] <= 1.0
        assert 0.0 <= report["depth_utilization"] <= 1.0
        # A materialised bound must actually dominate the observation.
        if report["size_bound"] is not None:
            assert result.size <= report["size_bound"]
        if report["depth_bound"] is not None:
            assert result.max_depth <= report["depth_bound"]

    def test_arbitrary_class_has_no_report(self):
        tgds = parse_program("R(x, y), S(y, z) -> exists w . R(z, w)\nR(x, y) -> S(x, y)")
        assert not classify(tgds).has_paper_bounds
        summary = {"size": 5, "database_size": 2, "max_depth": 1, "terminated": True}
        assert conformance_report(summary, tgds) is None

    def test_budget_stopped_runs_never_count_as_violations(self):
        # Even an observation far above the bound is not a violation
        # when the run was stopped by a budget: a prefix of a diverging
        # chase is not a counterexample to a termination bound.
        tgds = parse_program("P(x) -> Q(x)")
        report = conformance_report(
            {
                "size": 10**9,
                "database_size": 1,
                "max_depth": 10**6,
                "terminated": False,
            },
            tgds,
        )
        assert report is not None
        assert report["violations"] == []


#: A terminating program whose null chain grows with the *database*
#: (depth k for a k-link chain): each step passes the previous null
#: through the frontier, so depths stack.  Not simple-linear (two body
#: atoms) — which is the point of the misclassification fixture below.
_DEEP_CHAIN_RULES = "Step(x, y), P(x, u) -> exists v . P(y, v), Link(u, v)"


def _deep_chain(links: int):
    facts = [f"Step(a{i}, a{i + 1})" for i in range(links)]
    facts.append("P(a0, c)")
    return parse_database("\n".join(facts)), parse_program(_DEEP_CHAIN_RULES)


class TestMisclassification:
    def test_deep_chain_exceeds_the_sl_depth_bound(self):
        database, tgds = _deep_chain(links=10)
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        assert result.terminated
        # d_SL = |sch| * ar = 3 * 2 = 6, but the chain reaches depth 10.
        assert result.max_depth > 6
        report = conformance_report(
            result.summary(), tgds, tgd_class=TGDClass.SIMPLE_LINEAR
        )
        assert report is not None
        assert report["class"] == str(TGDClass.SIMPLE_LINEAR)
        assert "depth" in report["violations"]
        assert report["depth_utilization"] > 1.0

    def test_violation_fires_the_warning_counter(self):
        database, tgds = _deep_chain(links=10)
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        report = conformance_report(
            result.summary(), tgds, tgd_class=TGDClass.SIMPLE_LINEAR
        )
        registry = MetricsRegistry()
        record_conformance(registry, report)
        rendered = registry.render()
        assert "repro_bound_violations_total 1" in rendered
        assert 'repro_bound_utilization{kind="depth"}' in rendered

    def test_conforming_run_keeps_the_counter_at_zero(self):
        database, tgds = TERMINATING_FAMILIES["example_7_1"]()
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False, engine="store"
        )
        report = conformance_report(result.summary(), tgds)
        registry = MetricsRegistry()
        record_conformance(registry, report)
        rendered = registry.render()
        # The counter exists (dashboards can alert on it) but is zero.
        assert "repro_bound_violations_total 0" in rendered

    def test_none_report_is_a_noop(self):
        registry = MetricsRegistry()
        record_conformance(registry, None)
        assert "repro_bound" not in registry.render()


class TestBoundMagnitudes:
    #: Reports of terminated semi-oblivious runs, recorded while the
    #: size-bound magnitude was still rendered from the materialised
    #: f_C: the log-based rendering must reproduce them byte for byte.
    PINNED_REPORTS = {
        "example_7_1": (
            example_7_1,
            '{"class": "L", "depth_bound": 8, "depth_utilization": 0.0, '
            '"size_bound": null, "size_bound_magnitude": "42501298345826806923264", '
            '"size_utilization": 0.0, "terminated": true, "violations": []}',
        ),
        "sl_lower_222": (
            lambda: sl_lower_bound(2, 2, 2),
            '{"class": "SL", "depth_bound": 6, "depth_utilization": 0.333333, '
            '"size_bound": null, "size_bound_magnitude": "~10^60", '
            '"size_utilization": 0.0, "terminated": true, "violations": []}',
        ),
        "sl_lower_332": (
            lambda: sl_lower_bound(3, 3, 2),
            '{"class": "SL", "depth_bound": 12, "depth_utilization": 0.25, '
            '"size_bound": null, "size_bound_magnitude": "~10^214", '
            '"size_utilization": 0.0, "terminated": true, "violations": []}',
        ),
        "linear_lower_121": (
            lambda: linear_lower_bound(1, 2, 1),
            '{"class": "L", "depth_bound": 31250, "depth_utilization": 0.000128, '
            '"size_bound": null, "size_bound_magnitude": "~10^637960", '
            '"size_utilization": 0.0, "terminated": true, "violations": []}',
        ),
        "linear_lower_222": (
            lambda: linear_lower_bound(2, 2, 2),
            '{"class": "L", "depth_bound": 46875, "depth_utilization": 0.000171, '
            '"size_bound": null, "size_bound_magnitude": "~10^1180583", '
            '"size_utilization": 0.0, "terminated": true, "violations": []}',
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_sl_and_l_reports_are_unchanged(self, name):
        factory, expected = self.PINNED_REPORTS[name]
        database, tgds = factory()
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False
        )
        report = conformance_report(result.summary(), tgds)
        assert json.dumps(report, sort_keys=True) == expected

    def test_guarded_report_returns_promptly(self):
        # ‖Σ‖^(2·ar·(d_G+1)) has an exponent of ~225k digits here; the
        # report must render it without building the integer.
        database, tgds = guarded_lower_bound(1, 1, 1)
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=BUDGET, record_derivation=False
        )
        start = time.perf_counter()
        report = conformance_report(result.summary(), tgds)
        assert time.perf_counter() - start < 1.0
        assert report["class"] == "G"
        assert report["size_bound"] is None
        assert report["size_bound_magnitude"].startswith("~10^(~10^")
        assert report["violations"] == []

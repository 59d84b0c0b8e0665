"""``decide``: ``decide_termination`` on guarded sets.

Two kinds of input: the guarded lower-bound family at several |D|,
where linearization dominates (its completions run as many tiny
depth-truncated chases), and a pool of small random guarded programs,
where per-decision set-up dominates.  The chase layer is used the
opposite way from ``materialize``: per-run compile and small-instance
cost instead of bulk joins.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List

from common import LayerClock, load_spec, log, median, percentile, run_scaled
from inputs import FAMILIES, renamed

import repro.core.decision as decision
import repro.core.linearization as linearization
from repro.chase.engine import ChaseBudget
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import size_bound_within
from repro.generators.random_programs import random_database, random_guarded_program
from repro.model.tgd import TGDSet

DETAILS = ("linearized_rule_count", "type_count", "gsimple_rule_count")


def _seeded(database, tgds: TGDSet, rng: random.Random):
    rules = list(tgds)
    rng.shuffle(rules)
    return renamed(database, f"s{rng.randrange(10**6)}"), TGDSet(rules, name=tgds.name)


def setup(seed: int) -> List[Dict[str, object]]:
    """One cycle: a copy of the pool before, between and after the family rows.

    Every pool pass gets its own seeded renaming: iteration orders
    follow the names' hashes, so an input's median over its copies
    averages over several orders, and the passes spread over the cycle
    ride out a slow stretch of the machine.
    """
    spec = load_spec()["decide"]
    rng = random.Random(seed)
    first = spec["pool"]["first_seed"]
    programs = []
    for program_seed in range(first, first + spec["pool"]["programs"]):
        tgds = random_guarded_program(program_seed)
        programs.append(
            (random_database(tgds, program_seed + 1, fact_count=spec["pool"]["facts"]), tgds)
        )

    def pool_copy() -> List[Dict[str, object]]:
        copy = []
        for index, (database, tgds) in enumerate(programs):
            database, tgds = _seeded(database, tgds, rng)
            copy.append({"input": f"random{index}", "database": database, "tgds": tgds})
        return copy

    cycle = pool_copy()
    for row in spec["rows"]:
        database, tgds = _seeded(*FAMILIES[row["family"]](*row["params"]), rng)
        cycle.append({"input": row["name"], "row": row, "database": database, "tgds": tgds})
        cycle += pool_copy()
    return cycle


def _decide(op: Dict[str, object]) -> Dict[str, object]:
    # As in materialize: every decision starts from the same collector state.
    collect_start = time.perf_counter()
    gc.collect()
    start = time.perf_counter()
    verdict = decision.decide_termination(op["database"], op["tgds"])
    end = time.perf_counter()
    return {"op": op, "verdict": verdict, "latency_s": end - start, "cycle_s": end - collect_start}


def _check(done: List[Dict[str, object]], failures: List[str]) -> Dict[str, int]:
    """Family rows against their known answer; the pool against the naive chase.

    The naive decision is definitive where the paper's size bound fits
    the cap; beyond it only its *yes* half is (a chase that reaches a
    fixpoint within the cap terminates), so a pool program whose chase
    outgrows the cap is left unchecked and counted.
    """
    spec = load_spec()["decide"]
    cap = spec["pool"]["naive_cap"]
    counts = {"family": 0, "naive": 0, "fixpoint": 0, "unchecked": 0, "terminating": 0}
    first: Dict[str, object] = {}
    for item in done:
        op, verdict = item["op"], item["verdict"]
        if "row" in op:
            row = op["row"]
            counts["family"] += 1
            details = {key: verdict.details.get(key) for key in DETAILS}
            if verdict.terminates is not row["terminates"] or details != row["expected"]:
                failures.append(f"{op['input']}: {verdict.terminates} {details}")
            continue
        if op["input"] in first:
            if verdict.terminates is not first[op["input"]]:
                failures.append(f"{op['input']}: the verdict differs between its copies")
            continue
        first[op["input"]] = verdict.terminates
        counts["terminating"] += verdict.terminates is True
        database, tgds = op["database"], op["tgds"]
        if size_bound_within(len(database), tgds, cap) is not None:
            counts["naive"] += 1
            expected = decision.naive_decision(database, tgds, practical_cap=cap).terminates
        else:
            result = semi_oblivious_chase(
                database, tgds, budget=ChaseBudget(max_atoms=cap), record_derivation=False
            )
            if not result.terminated:
                counts["unchecked"] += 1
                continue
            counts["fixpoint"] += 1
            expected = True
        if verdict.terminates is not expected:
            failures.append(f"random {tgds.name}: decided {verdict.terminates}, naive {expected}")
    if counts["terminating"] != spec["pool"]["terminating"]:
        failures.append(
            f"pool: {counts['terminating']} terminating, expected {spec['pool']['terminating']}"
        )
    return counts


def run(ops) -> Dict[str, object]:
    """Untraced run of the cycle; end-to-end figures.

    The latency percentiles run over every decision.  (Over per-input
    medians, p95 is the time of one pool program in a sparse tail and
    jumps with that program's noise.)  Throughput counts each
    decision's collection too.  Times are scaled to the reference host
    speed (``run_scaled``); the report also prints them raw.
    """
    failures: List[str] = []
    start = time.perf_counter()
    done = run_scaled(ops, _decide)
    wall = time.perf_counter() - start
    counts = _check(done, failures)
    per_input: Dict[str, List[float]] = {}
    for d in done:
        per_input.setdefault(d["op"]["input"], []).append(d["latency_s"] * 1000.0)
    latencies = [d["latency_s"] * d["host_factor"] * 1000.0 for d in done]
    raw = [d["latency_s"] * 1000.0 for d in done]
    factors = [d["host_factor"] for d in done]
    throughput = len(done) / sum(d["cycle_s"] * d["host_factor"] for d in done)
    log(f"decide: {len(done)} decisions of {len(per_input)} inputs in {wall:.2f} s;"
        f" checks {counts}")
    log(f"  decisions_per_s {throughput:.3f} /s, raw {len(done) / sum(d['cycle_s'] for d in done):.3f} /s")
    log(f"  raw p50 {percentile(raw, 0.5):.2f} ms, p95 {percentile(raw, 0.95):.2f} ms;"
        f" host factor median {median(factors):.3f} ({min(factors):.3f}-{max(factors):.3f})")
    for d in done:
        if "row" in d["op"]:
            log(f"  {d['op']['input']}: raw {d['latency_s']:.3f} s")
    pool = [median(values) for name, values in per_input.items() if name.startswith("random")]
    log(f"  random pool, raw: p50 {percentile(pool, 0.5):.2f} ms, p95 {percentile(pool, 0.95):.2f} ms")
    return {
        "attempted": len(done),
        "failures": failures,
        "throughput_per_s": throughput,
        "p50_ms": percentile(latencies, 0.5),
        "p95_ms": percentile(latencies, 0.95),
    }


def run_traced(ops) -> Dict[str, object]:
    """Each input decided once untraced and once traced; per-layer figures.

    The traced cycle times the decider's calls into ``classify``,
    ``linearize``, the simplifications and the weak-acyclicity report,
    and every chase ``linearization`` starts (its completions), as self
    times: a completion's seconds are not also counted as linearize.
    """
    failures: List[str] = []
    distinct = list({op["input"]: op for op in reversed(ops)}.values())
    start = time.perf_counter()
    untraced = [_decide(op) for op in distinct]
    untraced_wall = time.perf_counter() - start
    clock = LayerClock()
    completions = {"atoms": 0, "rounds": 0, "triggers_considered": 0, "triggers_applied": 0}

    def count_completion(result) -> None:
        statistics = result.statistics
        completions["atoms"] += result.size
        completions["rounds"] += statistics.rounds
        completions["triggers_considered"] += statistics.triggers_considered
        completions["triggers_applied"] += statistics.triggers_applied

    clock.wrap(decision, "classify", "core.classify_s")
    clock.wrap(decision, "linearize", "core.linearize_s")
    clock.wrap(decision, "simplify_program", "core.simplify_s")
    clock.wrap(decision, "simplify_database", "core.simplify_s")
    clock.wrap(decision, "weak_acyclicity_report", "core.weak_acyclicity_s")
    clock.wrap(linearization, "semi_oblivious_chase", "chase.completion_s", count_completion)
    try:
        start = time.perf_counter()
        traced = [_decide(op) for op in distinct]
        traced_wall = time.perf_counter() - start
    finally:
        clock.restore()
    _check(untraced + traced, failures)
    details = {key: sum(int(d["verdict"].details.get(key, 0)) for d in traced) for key in DETAILS}
    considered = max(completions["triggers_considered"], 1)
    return {
        "attempted": len(untraced) + len(traced),
        "failures": failures,
        "layers": {
            "core.classify_s": clock.seconds.get("core.classify_s", 0.0),
            "core.linearize_s": clock.seconds.get("core.linearize_s", 0.0),
            "core.simplify_s": clock.seconds.get("core.simplify_s", 0.0),
            "core.weak_acyclicity_s": clock.seconds.get("core.weak_acyclicity_s", 0.0),
            "chase.completion_calls": clock.calls.get("chase.completion_s", 0),
            "chase.completion_s": clock.seconds.get("chase.completion_s", 0.0),
            "chase.atoms": completions["atoms"],
            "chase.rounds": completions["rounds"],
            "chase.triggers_considered": completions["triggers_considered"],
            "chase.triggers_applied": completions["triggers_applied"],
            "chase.trigger_yield": completions["triggers_applied"] / considered,
            "core.linearized_rules": details["linearized_rule_count"],
            "core.types": details["type_count"],
            "core.gsimple_rules": details["gsimple_rule_count"],
            "unattributed_share": 1.0 - clock.total() / traced_wall,
            "tracing_overhead": traced_wall / untraced_wall,
        },
    }

"""``materialize``: a few large chases, each decoded to an ``Instance``.

One operation is: parse the seeded program and database text, chase
(summary-only, no derivation record), decode the result to atoms.
Chase joins, store inserts, index builds and the decode do nearly all
the work; nothing in ``runtime``, ``service`` or ``core.linearization``
runs.  Each family appears at two database sizes, so the linear-in-|D|
size claim is checked on every run.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List

from common import load_spec, log, median, percentile, run_scaled
from inputs import FAMILIES, family_texts

from repro.chase.restricted import restricted_chase
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import depth_bound_within, size_bound_within
from repro.core.classify import TGDClass, classify
from repro.model.parser import parse_database, parse_program
from repro.model.serialization import fire_invariant_instance_key
from repro.obs.conformance import BOUND_CAP_FACTOR, conformance_report
from repro.obs.profile import RuleProfiler

CHASES = {"semi-oblivious": semi_oblivious_chase, "restricted": restricted_chase}
COUNTS = ("size", "rounds", "triggers_considered", "triggers_applied")


def setup(seed: int) -> List[List[Dict[str, object]]]:
    """The run's passes, one operation per spec row in each.

    Every pass gets its own seeded renaming of the inputs: iteration
    orders follow the names' hashes, and a run's medians then average
    over several orders instead of inheriting one.
    """
    spec = load_spec()["materialize"]
    rng = random.Random(seed)
    passes = []
    for _ in range(spec["passes"]):
        ops = []
        for row in spec["rows"]:
            program, database = family_texts(row["family"], row["params"], rng)
            ops.append({"row": row, "program": program, "database": database})
        passes.append(ops)
    return passes


def _run_op(op: Dict[str, object], profile=None) -> Dict[str, object]:
    row = op["row"]
    # Collect the previous operation's garbage first, so each one is
    # timed from the same collector state, as in a fresh process.
    gc.collect()
    start = time.perf_counter()
    program = parse_program(op["program"])
    database = parse_database(op["database"])
    parsed = time.perf_counter()
    result = CHASES[row["variant"]](database, program, record_derivation=False, profile=profile)
    chased = time.perf_counter()
    atoms = len(result.instance)
    decoded = time.perf_counter()
    return {
        "row": row,
        "program": program,
        "summary": result.summary(),
        "atoms": atoms,
        "parse_s": parsed - start,
        "chase_s": chased - parsed,
        "decode_s": decoded - chased,
        "latency_s": decoded - start,
    }


def _check_op(done: Dict[str, object], failures: List[str]) -> None:
    row, summary = done["row"], done["summary"]
    expected = row["expected"]
    observed = {key: summary[key] for key in COUNTS}
    if not summary["terminated"] or observed != expected or done["atoms"] != expected["size"]:
        failures.append(f"{row['name']}: counts {observed} (decoded {done['atoms']}) != {expected}")


def _check_once(ops, last: Dict[str, Dict[str, object]], failures: List[str]) -> Dict[str, int]:
    """Run-level checks: paper bounds, linear size in |D|, legacy equality."""
    checks = {"conformance": 0, "legacy": 0, "linear_in_D": 0}
    for name, done in last.items():
        summary, program = done["summary"], done["program"]
        tgd_class = classify(program)
        if not tgd_class.has_paper_bounds:
            continue
        checks["conformance"] += 1
        if tgd_class is TGDClass.GUARDED:
            # conformance_report does not return on the guarded family:
            # it renders the magnitude of f_G by materialising the whole
            # power.  The bounded helpers it uses answer the same
            # question: a bound over the cap is above the observed value.
            cap = max(summary["size"], 1) * BOUND_CAP_FACTOR
            size_bound = size_bound_within(summary["database_size"], program, cap, tgd_class)
            depth_bound = depth_bound_within(program, cap, tgd_class)
            violations = [
                kind for kind, bound, observed in (
                    ("size", size_bound, summary["size"]),
                    ("depth", depth_bound, summary["max_depth"]),
                ) if bound is not None and observed > bound
            ]
        else:
            violations = conformance_report(summary, program, tgd_class)["violations"]
        if violations:
            failures.append(f"{name}: exceeds its paper bound ({violations})")
    per_constant: Dict[str, set] = {}
    for done in last.values():
        row = done["row"]
        if row["family"] != "restricted_heavy":
            ell = row["params"][-1]
            per_constant.setdefault(row["family"], set()).add(done["atoms"] / ell)
    for family, ratios in per_constant.items():
        checks["linear_in_D"] += 1
        if len(ratios) != 1:
            failures.append(f"{family}: |chase|/|D| differs across |D| ({sorted(ratios)})")
    seen = set()
    for op in ops:
        row = op["row"]
        key = (row["family"], tuple(row["legacy_params"]))
        if key in seen:
            continue
        seen.add(key)
        database, tgds = FAMILIES[row["family"]](*row["legacy_params"])
        chase = CHASES[row["variant"]]
        store = chase(database, tgds, record_derivation=False).instance
        legacy = chase(database, tgds, record_derivation=False, compiled=False).instance
        if row["variant"] == "restricted":
            equal = fire_invariant_instance_key(store) == fire_invariant_instance_key(legacy)
        else:
            equal = set(store) == set(legacy)
        checks["legacy"] += 1
        if not equal:
            failures.append(f"{row['family']}{tuple(row['legacy_params'])}: store != legacy engine")
    return checks


def run(ops) -> Dict[str, object]:
    """Untraced run over every pass; end-to-end figures.

    Throughput is the median over passes; the latency percentiles run
    over every operation of every pass.  (Over seven per-input medians
    a percentile is the time of one input, which jumps with that
    input's noise.)  Times are scaled to the reference host speed
    (``run_scaled``); the report also prints them raw.
    """
    failures: List[str] = []
    passes = []
    start = time.perf_counter()
    for pass_ops in ops:
        passes.append(run_scaled(pass_ops, _run_op))
        for done in passes[-1]:
            _check_op(done, failures)
    wall = time.perf_counter() - start
    last = {d["row"]["name"]: d for d in passes[-1]}
    checks = _check_once(ops[0], last, failures)
    def rates(scaled: bool):
        return [
            sum(d["atoms"] for d in done) / sum(
                (d["chase_s"] + d["decode_s"]) * (d["host_factor"] if scaled else 1.0)
                for d in done)
            for done in passes
        ]

    latencies = [d["latency_s"] * d["host_factor"] * 1000.0 for done in passes for d in done]
    raw = [d["latency_s"] * 1000.0 for done in passes for d in done]
    factors = [d["host_factor"] for done in passes for d in done]
    log(f"materialize: {len(passes)} passes over {len(ops[0])} inputs in {wall:.2f} s;"
        f" checks {checks}")
    log(f"  atoms_per_s {median(rates(True)):.1f} atoms/s (chase + decode; passes"
        f" {[round(r) for r in rates(True)]}; raw {[round(r) for r in rates(False)]})")
    log(f"  raw p50 {percentile(raw, 0.5):.1f} ms, p95 {percentile(raw, 0.95):.1f} ms;"
        f" host factor median {median(factors):.3f} ({min(factors):.3f}-{max(factors):.3f})")
    for index, name in enumerate(last):
        runs = [done[index] for done in passes]
        chase_s = median([d["chase_s"] for d in runs])
        decode_s = median([d["decode_s"] for d in runs])
        log(f"  {name}: {runs[0]['atoms']} atoms, raw chase {chase_s:.3f} s, decode {decode_s:.3f} s")
    return {
        "attempted": sum(len(done) for done in passes),
        "failures": failures,
        "throughput_per_s": median(rates(True)),
        "p50_ms": percentile(latencies, 0.5),
        "p95_ms": percentile(latencies, 0.95),
    }


def run_traced(ops) -> Dict[str, object]:
    """The first pass untraced, then profiled; per-layer figures."""
    failures: List[str] = []
    start = time.perf_counter()
    for op in ops[0]:
        _check_op(_run_op(op), failures)
    untraced_wall = time.perf_counter() - start
    profiled = []
    start = time.perf_counter()
    for op in ops[0]:
        profiler = RuleProfiler()
        done = _run_op(op, profile=profiler)
        done["profile"] = profiler.as_dict()
        _check_op(done, failures)
        profiled.append(done)
    traced_wall = time.perf_counter() - start
    parse_s = sum(d["parse_s"] for d in profiled)
    chase_s = sum(d["chase_s"] for d in profiled)
    decode_s = sum(d["decode_s"] for d in profiled)
    index_s = sum(
        float(stats["seconds"])
        for d in profiled
        for stats in d["profile"].get("index_builds", {}).values()
    )
    totals = {key: sum(int(d["summary"][key]) for d in profiled) for key in COUNTS}
    return {
        "attempted": 2 * len(ops[0]),
        "failures": failures,
        "layers": {
            "model.parse_s": parse_s,
            "chase.run_s": chase_s,
            "model.decode_s": decode_s,
            "chase.index_build_s": index_s,
            "chase.atoms": totals["size"],
            "chase.rounds": totals["rounds"],
            "chase.triggers_considered": totals["triggers_considered"],
            "chase.triggers_applied": totals["triggers_applied"],
            "chase.trigger_yield": totals["triggers_applied"] / totals["triggers_considered"],
            "unattributed_share": 1.0 - (parse_s + chase_s + decode_s) / traced_wall,
            "tracing_overhead": traced_wall / untraced_wall,
        },
    }

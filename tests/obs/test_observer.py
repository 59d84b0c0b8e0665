"""The chase observer protocol (obs/observer.py).

Probe, profiler, checkpointer and the ``worker.round`` fault point all
attach to both chase drivers through one ``observers`` tuple.  The
contract: observers are invisible to the result, independent of each
other (attaching several gives each the payload it gets alone), called
in the order given, and fed totals both engines agree on — depth
truncation and checkpoint resume included.
"""

import json

import pytest

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ENGINES, ChaseBudget, EngineCheckpoint
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.generators.families import prop45_family, sl_lower_bound
from repro.model.parser import parse_database, parse_program
from repro.obs.observer import ChaseObserver
from repro.obs.probe import ChaseProbe
from repro.obs.profile import RuleProfiler
from repro.runtime.checkpoint import RoundCheckpointer, load_checkpoint
from repro.runtime.faults import RoundFaultPoint

BUDGET = ChaseBudget(max_atoms=100_000)

PROGRAM = parse_program(
    "R(x, y) -> exists z . S(y, z)\n"
    "S(x, y) -> T(x)\n"
    "T(x) -> U(x)\n"
    "U(x) -> V(x)\n"
)
DATABASE = parse_database("R(a, b).\nR(b, c).\nR(c, d).")


class Recorder(ChaseObserver):
    """Logs every callback with its arguments (the store as its size)."""

    def __init__(self):
        self.log = []

    def run_start(self, engine, rule_ids, store, started):
        self.log.append(("run_start", engine, tuple(rule_ids), store is None))

    def round_start(self, delta, considered, fired, created, nulls):
        self.log.append(("round_start", delta, considered, fired, created, nulls))

    def segment(self, rule, considered, fired, created, nulls):
        self.log.append(("segment", rule, considered, fired, created, nulls))

    def round_end(self, rounds, considered, fired, created, nulls, store, marks,
                  complete):
        self.log.append((
            "round_end", rounds, considered, fired, created, nulls,
            None if store is None else len(store),
            None if marks is None else tuple(marks), complete,
        ))

    def run_end(self, considered, fired, created, nulls, store,
                enumerate_seconds, compile_seconds):
        self.log.append((
            "run_end", considered, fired, created, nulls,
            len(enumerate_seconds), compile_seconds is None,
        ))


def _probe_payload(probe):
    payload = probe.as_dict()
    payload.pop("wall_seconds")
    for sample in payload["samples"]:
        sample.pop("wall_seconds")
    return payload


def _profile_payload(profiler):
    payload = profiler.as_dict()
    return {
        "engine": payload.get("engine"),
        "runs": payload["runs"],
        "rules": sorted(
            ({k: v for k, v in row.items() if "seconds" not in k}
             for row in payload["rules"]),
            key=lambda row: row["rule"],
        ),
        "index_builds": {
            name: stats["builds"]
            for name, stats in payload.get("index_builds", {}).items()
        },
    }


def _checkpoint_payload(path, checkpointer):
    loaded = load_checkpoint(str(path))
    return checkpointer.writes, loaded


def _summary_bytes(summary):
    return json.dumps(summary, sort_keys=True).encode()


def _run(variant, engine, database, program, **kwargs):
    return VARIANT_RUNNERS[variant](
        database, program, budget=BUDGET, record_derivation=False,
        engine=engine, **kwargs,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", sorted(VARIANT_RUNNERS))
def test_observers_together_match_each_alone(variant, engine, tmp_path):
    database, program = sl_lower_bound(2, 2, 2)
    plain = _run(variant, engine, database, program).summary()

    alone = {}
    probe = ChaseProbe()
    _run(variant, engine, database, program, probe=probe)
    alone["probe"] = _probe_payload(probe)
    profiler = RuleProfiler()
    _run(variant, engine, database, program, profile=profiler)
    alone["profile"] = _profile_payload(profiler)
    checkpointer = RoundCheckpointer(str(tmp_path / "alone.ckpt"), every_rounds=2)
    _run(variant, engine, database, program, observers=[checkpointer])
    alone["checkpoint"] = _checkpoint_payload(tmp_path / "alone.ckpt", checkpointer)
    recorder = Recorder()
    _run(variant, engine, database, program, observers=[recorder])
    alone["log"] = recorder.log

    probe, profiler = ChaseProbe(), RuleProfiler()
    checkpointer = RoundCheckpointer(str(tmp_path / "all.ckpt"), every_rounds=2)
    recorder = Recorder()
    together = _run(
        variant, engine, database, program, probe=probe, profile=profiler,
        observers=[checkpointer, recorder],
    )
    assert _probe_payload(probe) == alone["probe"]
    assert _profile_payload(profiler) == alone["profile"]
    assert _checkpoint_payload(tmp_path / "all.ckpt", checkpointer) == alone["checkpoint"]
    assert recorder.log == alone["log"]
    assert (checkpointer.writes > 0) == (engine == "store")

    # Invisibility: strip the two payload keys and the summary is the
    # unobserved run's, byte for byte.
    summary = together.summary()
    assert "telemetry" in summary and "profile" in summary
    del summary["telemetry"], summary["profile"]
    assert _summary_bytes(summary) == _summary_bytes(plain)


@pytest.mark.parametrize("engine", ENGINES)
def test_recorded_totals_match_the_statistics(engine):
    recorder = Recorder()
    result = _run("semi-oblivious", engine, DATABASE, PROGRAM, observers=[recorder])
    stats = result.statistics
    kinds = [entry[0] for entry in recorder.log]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    assert kinds.count("round_start") == kinds.count("round_end") == stats.rounds
    final = recorder.log[-1]
    # One null per R fact.
    assert final[1:5] == (
        stats.triggers_considered, stats.triggers_applied, stats.atoms_created, 3,
    )
    assert recorder.log[1] == ("round_start", len(DATABASE), 0, 0, 0, 0)
    # Segments open once per rule per round, in rule order.
    segments = []
    for entry in recorder.log:
        if entry[0] == "segment":
            segments.append(entry[1])
        elif entry[0] == "round_end":
            assert segments == sorted(set(segments))
            segments = []
            assert entry[-1] is True
            assert (entry[6] is None) == (engine == "legacy")


class TestOrdering:
    def test_observers_run_in_the_order_given(self):
        log = []

        class Tagged(ChaseObserver):
            def __init__(self, tag):
                self.tag = tag

            def round_end(self, rounds, *rest):
                log.append((rounds, self.tag))

        semi_oblivious_chase(
            DATABASE, PROGRAM, record_derivation=False,
            observers=[Tagged("a"), Tagged("b"), Tagged("c")],
        )
        assert log and [tag for _, tag in log] == ["a", "b", "c"] * (len(log) // 3)

    def test_checkpoint_is_on_disk_before_worker_round_fires(self, tmp_path):
        path = tmp_path / "job.ckpt"
        seen = []

        class Injector:
            def fire(self, point, job, round):
                loaded = load_checkpoint(str(path))
                seen.append((point, job, round, loaded[0]["rounds"] if loaded else None))

        database, tgds = prop45_family(6)
        result = semi_oblivious_chase(
            database, tgds, budget=BUDGET, record_derivation=False,
            observers=(
                RoundCheckpointer(str(path), every_rounds=1),
                RoundFaultPoint(Injector(), "job-1"),
            ),
        )
        assert len(seen) == result.statistics.rounds
        assert seen == [
            ("worker.round", "job-1", rounds, rounds)
            for rounds in range(1, result.statistics.rounds + 1)
        ]


class TestBudgetStoppedRounds:
    """A round a budget cuts short reaches round_end with complete=False:
    the probe records it, the checkpointer and fault point do not act."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_incomplete_round_is_flagged(self, engine, tmp_path):
        database, tgds = sl_lower_bound(2, 3, 2)
        fired = []

        class Injector:
            def fire(self, point, job, round):
                fired.append(round)

        recorder, probe = Recorder(), ChaseProbe()
        checkpointer = RoundCheckpointer(str(tmp_path / "c.ckpt"), every_rounds=1)
        result = VARIANT_RUNNERS["semi-oblivious"](
            database, tgds, budget=ChaseBudget(max_atoms=200),
            record_derivation=False, engine=engine, probe=probe,
            observers=[checkpointer, RoundFaultPoint(Injector(), "j"), recorder],
        )
        assert result.outcome.value == "atom_budget_exceeded"
        ends = [entry for entry in recorder.log if entry[0] == "round_end"]
        assert [entry[-1] for entry in ends] == [True] * (len(ends) - 1) + [False]
        assert probe.rounds == result.statistics.rounds == len(ends)
        assert fired == list(range(1, len(ends)))
        if engine == "store":
            assert checkpointer.writes == len(ends) - 1
            assert load_checkpoint(str(tmp_path / "c.ckpt"))[0]["rounds"] == len(ends) - 1
        else:
            assert checkpointer.writes == 0


def test_checkpoint_resume_reports_the_frontier_delta():
    """The first resumed round's delta is the rows past the checkpoint
    marks — the same figure the uninterrupted run reports for it."""
    database, tgds = sl_lower_bound(2, 3, 2)
    checkpoints = []

    class Capture(ChaseObserver):
        def round_end(self, rounds, considered, fired, created, nulls, store,
                      marks, complete):
            checkpoints.append(
                EngineCheckpoint(
                    store_blob=store.snapshot(), marks=tuple(marks), rounds=rounds,
                    considered=considered, applied=fired, created=created,
                    database_size=len(database),
                )
            )

    probe = ChaseProbe()
    semi_oblivious_chase(
        database, tgds, budget=BUDGET, record_derivation=False, probe=probe,
        observers=[Capture()],
    )
    uninterrupted = _probe_payload(probe)["samples"]
    assert [s["delta_size"] for s in uninterrupted[:4]] == [2, 2, 10, 32]
    for checkpoint in checkpoints[:-1]:
        probe = ChaseProbe()
        semi_oblivious_chase(
            database, tgds, budget=BUDGET, record_derivation=False, probe=probe,
            checkpoint=checkpoint,
        )
        # A restored store rebuilds its lazy indexes, so index builds
        # are the one per-round figure a resume may shift.
        resumed = [
            dict(sample, index_builds=None)
            for sample in _probe_payload(probe)["samples"]
        ]
        assert resumed == [
            dict(sample, round=sample["round"] - checkpoint.rounds, index_builds=None)
            for sample in uninterrupted[checkpoint.rounds:]
        ], checkpoint.rounds


class TestTruncationCounters:
    """Under truncate_at_depth both engines report pruned as considered −
    fired and count only nulls that occur in kept facts."""

    RULES = parse_program("E(x, y) -> exists z . E(y, z)\nE(x, y) -> V(x)")
    FACTS = parse_database("E(a, b).")
    TRUNCATE = ChaseBudget(max_depth=3, truncate_at_depth=True)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("variant", sorted(VARIANT_RUNNERS))
    def test_engines_agree(self, variant, engine):
        profiler, probe = RuleProfiler(), ChaseProbe()
        result = VARIANT_RUNNERS[variant](
            self.FACTS, self.RULES, budget=self.TRUNCATE, record_derivation=False,
            engine=engine, profile=profiler, probe=probe,
        )
        assert result.depth_truncated
        rows = {row["rule"]: row for row in profiler.as_dict()["rules"]}
        ordered = [rows[t.rule_id] for t in self.RULES]
        assert [row["triggers_pruned"] for row in ordered] == [1, 0]
        assert [row["nulls_invented"] for row in ordered] == [3, 0]
        for row in ordered:
            assert row["triggers_pruned"] == (
                row["triggers_considered"] - row["triggers_fired"]
            )
        nulls = {
            term for atom in result.instance for term in atom.args
            if type(term).__name__ == "Null"
        }
        assert len(nulls) == 3
        assert probe.as_dict()["nulls_invented"] == 3

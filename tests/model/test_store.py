"""Unit tests for the interned fact store (the engine's data plane).

The store has one storage layout, the columnar ``arrays`` layout; the
``store`` fixture keeps its parameter id so the test ids name it.
"""

from array import array

import pytest

from repro.model.atoms import Atom, Predicate, atom
from repro.model.instance import Instance
from repro.model.store import FactStore, inspect_snapshot
from repro.model.terms import Constant, Null, Variable, make_null


@pytest.fixture(params=["arrays"])
def store(request) -> FactStore:
    return FactStore()


class TestLayoutSelection:
    def test_default_layout_is_arrays(self, monkeypatch):
        # The former layout environment knob selects nothing any more:
        # every store is columnar (row marks are its delta watermark).
        monkeypatch.setenv("REPRO_STORE_LAYOUT", "sets")
        store = FactStore()
        assert not hasattr(store, "layout")
        pid, ids = store.intern_atom(atom("R", Constant("a"), Constant("b")))
        store.add(pid, ids)
        assert store.row_marks() == [1]
        assert store.rows_since(pid, 0) == [ids]

    def test_unknown_layout_rejected(self):
        # Layout selection is gone, so any layout argument is unknown.
        with pytest.raises(TypeError):
            FactStore(layout="btree")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            FactStore.restore(FactStore().snapshot(), layout="arrays")  # type: ignore[call-arg]


class TestInterning:
    def test_predicates_get_dense_ids(self, store):
        p = Predicate("P", 2)
        q = Predicate("Q", 1)
        assert store.intern_predicate(p) == 0
        assert store.intern_predicate(q) == 1
        assert store.intern_predicate(p) == 0  # idempotent
        assert store.predicate_of(0) is p
        assert store.pid(q) == 1
        assert store.pid(Predicate("R", 3)) is None  # lookup never creates

    def test_terms_get_dense_ids_and_round_trip(self, store):
        a, b = Constant("a"), Constant("b")
        ta = store.intern_term(a)
        tb = store.intern_term(b)
        assert ta != tb
        assert store.intern_term(a) == ta
        assert store.term_of_id(ta) == a
        assert store.term_of_id(tb) == b

    def test_variables_cannot_be_interned(self, store):
        with pytest.raises(ValueError):
            store.intern_term(Variable("x"))

    def test_atom_round_trip(self, store):
        fact = atom("R", Constant("a"), Constant("b"))
        pid, ids = store.intern_atom(fact)
        assert store.decode_fact(pid, ids) == fact

    def test_decoded_atom_matches_plain_construction(self, store):
        fact = atom("R", Constant("a"), Constant("b"))
        pid, ids = store.intern_atom(fact)
        decoded = store.decode_fact(pid, ids)
        assert decoded == fact
        assert hash(decoded) == hash(fact)
        assert decoded in Instance([fact])


class TestNullInterning:
    def test_invented_null_decodes_to_structural_null(self, store):
        a = Constant("a")
        ta = store.intern_term(a)
        tid = store.intern_null("r1", "z", ("x",), (ta,))
        decoded = store.term_of_id(tid)
        expected = make_null("r1", "z", {"x": a})
        assert decoded == expected
        assert decoded.depth == 1

    def test_null_ids_are_label_keyed(self, store):
        ta = store.intern_term(Constant("a"))
        tb = store.intern_term(Constant("b"))
        first = store.intern_null("r1", "z", ("x",), (ta,))
        assert store.intern_null("r1", "z", ("x",), (ta,)) == first  # same label
        assert store.intern_null("r1", "z", ("x",), (tb,)) != first  # other binding
        assert store.intern_null("r1", "w", ("x",), (ta,)) != first  # other variable
        assert store.intern_null("r2", "z", ("x",), (ta,)) != first  # other rule

    def test_nested_null_depth_tracks_binding(self, store):
        ta = store.intern_term(Constant("a"))
        level1 = store.intern_null("r", "z", ("x",), (ta,))
        level2 = store.intern_null("r", "z", ("x",), (level1,))
        pid = store.intern_predicate(Predicate("P", 1))
        store.add(pid, (level2,))
        assert store.max_depth() == 2
        assert store.term_of_id(level2).depth == 2

    def test_deeply_nested_null_decodes_iteratively(self, store):
        tid = store.intern_term(Constant("a"))
        for _ in range(5000):  # far beyond the recursion limit
            tid = store.intern_null("r", "z", ("x",), (tid,))
        decoded = store.term_of_id(tid)
        assert isinstance(decoded, Null)
        assert decoded.depth == 5000

    def test_foreign_null_unifies_with_invented_null(self, store):
        # The input instance already contains the null this trigger
        # would invent: both spellings must map to one id, or the same
        # atom would exist as two distinct packed facts.
        a = Constant("a")
        foreign = make_null("r1", "z", {"x": a})
        foreign_tid = store.intern_term(foreign)
        ta = store.intern_term(a)
        invented_tid = store.intern_null("r1", "z", ("x",), (ta,))
        assert invented_tid == foreign_tid


class TestStorage:
    def test_add_and_contains(self, store):
        pid, ids = store.intern_atom(atom("R", Constant("a"), Constant("b")))
        assert not store.contains(pid, ids)
        assert store.add(pid, ids)
        assert store.contains(pid, ids)
        assert not store.add(pid, ids)  # duplicate
        assert len(store) == 1
        assert store.count(pid) == 1

    def test_posting_lists_index_every_position(self, store):
        a, b = Constant("a"), Constant("b")
        pid, ids = store.intern_atom(atom("R", a, b))
        store.add(pid, ids)
        ta, tb = store.intern_term(a), store.intern_term(b)
        assert ids in store.posting(pid, 0, ta)
        assert ids in store.posting(pid, 1, tb)
        assert not store.posting(pid, 0, tb)

    def test_posting_views_are_read_only(self, store):
        a, b = Constant("a"), Constant("b")
        pid, ids = store.intern_atom(atom("R", a, b))
        store.add(pid, ids)
        ta = store.intern_term(a)
        view = store.posting(pid, 0, ta)
        # The view refuses mutation: an immutable tuple of facts.
        assert isinstance(view, tuple)
        with pytest.raises((AttributeError, TypeError)):
            view.add(("x",))  # type: ignore[union-attr]
        # Mutating the returned view must never corrupt the index.
        assert ids in store.posting(pid, 0, ta)

    def test_posting_rows_memoryview(self, store):
        a, b = Constant("a"), Constant("b")
        pid, ids = store.intern_atom(atom("R", a, b))
        store.add(pid, ids)
        ta = store.intern_term(a)
        rows = store.posting_rows(pid, 0, ta)
        assert isinstance(rows, memoryview)
        assert rows.readonly
        assert list(rows) == [0]
        with pytest.raises(TypeError):
            rows[0] = 7
        # A missing key yields an empty read-only view, not an error.
        assert list(store.posting_rows(pid, 1, ta)) == []

    def test_candidates_intersection_and_short_circuit(self, store):
        a, b, c = Constant("a"), Constant("b"), Constant("c")
        r = Predicate("R", 2)
        facts = [atom("R", a, b), atom("R", a, c), atom("R", b, c)]
        packed = [store.add_atom(f) for f in facts]
        pid = store.pid(r)
        ta, tb, tc = (store.intern_term(t) for t in (a, b, c))
        assert set(store.candidates(pid, [])) == {ids for _, ids in packed}
        assert set(store.candidates(pid, [(0, ta)])) == {packed[0][1], packed[1][1]}
        assert set(store.candidates(pid, [(0, ta), (1, tc)])) == {packed[1][1]}
        # Empty posting list short-circuits to a falsy empty container.
        missing = store.intern_term(Constant("zzz"))
        assert not store.candidates(pid, [(0, missing), (1, tb)])

    def test_has_candidate_matches_candidates(self, store):
        a, b, c = Constant("a"), Constant("b"), Constant("c")
        facts = [atom("R", a, b), atom("R", a, c), atom("R", b, c)]
        for f in facts:
            store.add_atom(f)
        pid = store.pid(Predicate("R", 2))
        ta, tb, tc = (store.intern_term(t) for t in (a, b, c))
        probes = [
            [],
            [(0, ta)],
            [(1, tb)],
            [(0, ta), (1, tc)],
            [(0, tb), (1, tb)],
            [(0, tc)],
        ]
        for bound in probes:
            assert store.has_candidate(pid, bound) == bool(
                set(store.candidates(pid, bound))
            )
        # Repeated probes exercise the watermarked probe-set path after
        # new appends (the dirty-watermark catch-up).
        assert store.has_candidate(pid, [(0, ta), (1, tc)])
        store.add_atom(atom("R", c, c))
        assert store.has_candidate(pid, [(0, tc), (1, tc)])

    def test_galloping_intersection_matches_set_semantics(self):
        # Many facts sharing positions: the multi-bound probe (smallest
        # column, filtered by position compares) must return exactly the
        # facts a brute-force filter over all stored facts selects.
        store = FactStore()
        terms = [Constant(f"c{i}") for i in range(10)]
        facts = [
            atom("T", terms[i % 7], terms[i % 5], terms[i % 3]) for i in range(200)
        ]
        for f in facts:
            store.add_atom(f)
        pid = store.pid(Predicate("T", 3))
        for bound_spec in [
            [(0, "c1"), (1, "c1")],
            [(0, "c2"), (2, "c2")],
            [(0, "c1"), (1, "c2"), (2, "c0")],
            [(1, "c4"), (2, "c1")],
        ]:
            bound = [(i, store.intern_term(Constant(n))) for i, n in bound_spec]
            probed = list(store.candidates(pid, bound))
            expected = [
                ids
                for ids in store.facts_of(pid)
                if all(ids[i] == tid for i, tid in bound)
            ]
            assert probed == expected  # same facts, same (row) order
            assert store.has_candidate(pid, bound) == bool(expected)

    def test_to_instance_round_trips(self, store):
        facts = [
            atom("R", Constant("a"), Constant("b")),
            atom("R", Constant("b"), Constant("c")),
            atom("S", Constant("a")),
        ]
        for f in facts:
            store.add_atom(f)
        assert store.to_instance() == Instance(facts)

    def test_max_depth_is_incremental(self, store):
        assert store.max_depth() == 0
        pid, ids = store.intern_atom(atom("R", Constant("a"), Constant("b")))
        store.add(pid, ids)
        assert store.max_depth() == 0
        ta = store.intern_term(Constant("a"))
        null_tid = store.intern_null("r", "z", ("x",), (ta,))
        # Interning alone must not raise the depth: the null is not in
        # any stored fact yet (inactive triggers intern labels too).
        assert store.max_depth() == 0
        spid = store.intern_predicate(Predicate("S", 1))
        store.add(spid, (null_tid,))
        assert store.max_depth() == 1
        assert store.fact_depth((null_tid,)) == 1


class TestSnapshot:
    def _populated(self) -> FactStore:
        store = FactStore()
        a, b = Constant("a"), Constant("b")
        store.add_atom(atom("R", a, b))
        store.add_atom(atom("R", b, a))
        ta = store.intern_term(a)
        null_tid = store.intern_null("r1", "z", ("x",), (ta,))
        nested = store.intern_null("r1", "z", ("x",), (null_tid,))
        spid = store.intern_predicate(Predicate("S", 1))
        store.add(spid, (null_tid,))
        store.add(spid, (nested,))
        store.add_atom(Atom(Predicate("Z", 0), ()))
        return store

    def test_round_trip(self):
        store = self._populated()
        blob = store.snapshot()
        assert isinstance(blob, bytes)
        restored = FactStore.restore(blob)
        assert len(restored) == len(store)
        assert restored.max_depth() == store.max_depth()
        assert restored.to_instance() == store.to_instance()
        # Rows restore in insertion order, so re-encoding is byte-stable.
        assert restored.snapshot() == blob

    def test_restore_preserves_posting_lists(self, store):
        store = self._populated()
        restored = FactStore.restore(store.snapshot())
        for pid in range(3):
            predicate = store.predicate_of(pid)
            assert restored.predicate_of(pid) == predicate
            assert restored.count(pid) == store.count(pid)
            for position in range(predicate.arity):
                for tid in range(len(store._term_of_id)):
                    assert set(store.posting(pid, position, tid)) == set(
                        restored.posting(pid, position, tid)
                    )

    def test_restore_preserves_null_recipes(self, store):
        store = self._populated()
        restored = FactStore.restore(store.snapshot())
        for tid in range(len(store._term_of_id)):
            assert restored.term_of_id(tid) == store.term_of_id(tid)
            assert restored.fact_depth((tid,)) == store.fact_depth((tid,))

    def test_restored_store_keeps_chasing(self, store):
        # Interning and adding after a restore picks up exactly where
        # the source store left off (fresh ids extend the dense range).
        store = self._populated()
        restored = FactStore.restore(store.snapshot())
        pid, ids = restored.intern_atom(atom("R", Constant("c"), Constant("a")))
        assert restored.add(pid, ids)
        assert restored.contains(pid, ids)
        ta = restored.intern_term(Constant("a"))
        # The restored recipe table answers intern_null without
        # re-inventing: same key, same id.
        first = restored.intern_null("r1", "z", ("x",), (ta,))
        assert restored.intern_null("r1", "z", ("x",), (ta,)) == first

    def test_inspect_reads_header_only(self, store):
        store = self._populated()
        header = inspect_snapshot(store.snapshot())
        assert header["size"] == len(store)
        assert header["max_depth"] == store.max_depth()
        assert [tuple(p) for p in header["predicates"]] == [
            ("R", 2),
            ("S", 1),
            ("Z", 0),
        ]
        assert header["facts"] == [2, 2, 1]

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            FactStore.restore(b"not a snapshot")
        with pytest.raises(ValueError):
            inspect_snapshot(b"RSNPX\n garbage")

    def test_foreign_null_snapshot_round_trip(self, store):
        foreign = make_null("rx", "z", {"x": Constant("a")})
        outer = make_null("ry", "w", {"y": foreign})
        store.add_atom(Atom(Predicate("S", 1), (outer,)))
        restored = FactStore.restore(store.snapshot())
        assert restored.to_instance() == store.to_instance()


class TestSnapshotIntegrity:
    def test_truncated_snapshot_is_rejected(self):
        store = FactStore()
        for i in range(10):
            store.add_atom(atom("R", Constant(f"a{i}"), Constant(f"b{i}")))
        blob = store.snapshot()
        with pytest.raises(ValueError, match="truncated or padded"):
            FactStore.restore(blob[:-16])  # itemsize-aligned truncation
        with pytest.raises(ValueError, match="truncated or padded"):
            FactStore.restore(blob + b"\x00" * 8)

    def test_completeness_stamp_round_trips(self):
        store = FactStore()
        store.add_atom(atom("R", Constant("a"), Constant("b")))
        assert inspect_snapshot(store.snapshot())["complete"] is None
        assert inspect_snapshot(store.snapshot(complete=True))["complete"] is True
        assert inspect_snapshot(store.snapshot(complete=False))["complete"] is False
        # restore accepts any stamp — policy lives at the CLI/executor
        # boundary, not in the store.
        assert len(FactStore.restore(store.snapshot(complete=False))) == 1

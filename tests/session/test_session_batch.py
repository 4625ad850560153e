"""Session batches: one journal record, exact replay, undo, property.

The durability contract for ``assign_many``: the whole batch lands as
ONE CRC-checked journal record of the *requested* entries, replay
re-coalesces deterministically (full-fingerprint equality, stats
included), undo reverts the whole batch, and a batch is observably
equivalent to applying its entries sequentially.
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import APPLICATION, PlanCache, RoundBudget, Variable
from repro.session import Session
from repro.session.journal import encode_entry, format_batch_body, _frame

VAR_NAMES = ["a", "b", "c"]


@pytest.fixture
def directory():
    path = tempfile.mkdtemp(prefix="repro-batch-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def make_session(directory, **kwargs):
    session = Session("batch", directory=directory, fsync="never", **kwargs)
    for name in VAR_NAMES:
        session.make_variable(name)
    return session


def value_of(session, target):
    return session.get(target)[0]


def journal_bytes(directory):
    import pathlib
    return b"".join(
        segment.read_bytes()
        for segment in sorted(pathlib.Path(directory).glob("wal-*.jsonl")))


class TestJournaling:
    def test_batch_is_one_record(self, directory):
        with make_session(directory) as session:
            base = journal_bytes(directory).count(b'"op":"batch"')
            assert session.assign_many([("v:a", 1), ("v:b", 2), ("v:c", 3)])
        data = journal_bytes(directory)
        assert data.count(b'"op":"batch"') == base + 1

    def test_requested_entries_are_journaled_pre_coalesce(self, directory):
        """The journal holds the batch as requested; replay re-coalesces,
        so live and replayed coalescing stats agree."""
        with make_session(directory) as session:
            assert session.assign_many([("v:a", 1), ("v:b", 2), ("v:a", 9)])
            assert session.context.stats.coalesced_assignments == 1
            expected = session.fingerprint()
        assert b'"var":"v:a"},' in journal_bytes(directory)
        with Session("batch", directory=directory,
                     read_only=True) as replayed:
            assert replayed.context.stats.coalesced_assignments == 1
            assert replayed.fingerprint() == expected

    def test_replay_reproduces_live_fingerprint(self, directory):
        with make_session(directory) as session:
            assert session.assign_many([("v:a", 1), ("v:b", 2)])
            assert session.assign_many([("v:a", 5, APPLICATION),
                                        ("v:c", -3)])
            expected = session.fingerprint()  # full: stats included
        with Session("batch", directory=directory,
                     read_only=True) as replayed:
            assert replayed.fingerprint() == expected

    def test_rejected_batch_is_not_journaled_as_effective(self, directory):
        """A violating batch still lands its write-ahead record, but
        replay rejects it identically — fingerprints stay equal."""
        with make_session(directory) as session:
            session.add_constraint("upper-bound", ["v:a"],
                                   params={"bound": 10})
            assert session.assign_many([("v:a", 99), ("v:b", 2)]) is False
            assert value_of(session, "v:a") is None
            expected = session.fingerprint()
        with Session("batch", directory=directory,
                     read_only=True) as replayed:
            assert replayed.fingerprint() == expected

    def test_finite_budget_rides_the_slow_path(self, directory):
        """With a step budget installed the record carries it, and
        replay re-runs the batch under the same budget."""
        with make_session(directory) as session:
            session.context.round_budget = RoundBudget(max_steps=500)
            assert session.assign_many([("v:a", 1), ("v:b", 2)])
            expected = session.fingerprint()
        assert b'"budget":500' in journal_bytes(directory)
        with Session("batch", directory=directory,
                     read_only=True) as replayed:
            assert replayed.fingerprint() == expected

    def test_unaddressable_entries_are_counted_not_journaled(self,
                                                             directory):
        with make_session(directory) as session:
            loose = Variable(0, name="loose",
                             context=session.context)
            assert session.assign_many([(loose, 7), ("v:a", 1)])
            assert session.unjournaled_assigns == 1
            # The loose entry is invisible to the journal (its round ran
            # live but replay cannot reproduce it), so stats diverge by
            # design; everything addressable replays exactly.
            expected = session.fingerprint(include_stats=False)
        assert b'"var":"loose"' not in journal_bytes(directory)
        with Session("batch", directory=directory,
                     read_only=True) as replayed:
            assert replayed.fingerprint(include_stats=False) == expected
            assert value_of(replayed, "v:a") == 1

    def test_fused_encoder_matches_generic_encoder(self):
        entries = [("v:a", "1", "USER"), ("v:b", '"hi"', "APPLICATION"),
                   ("v:c", "2.5", "USER")]
        fused = _frame(format_batch_body(entries, 41))
        generic = encode_entry({
            "op": "batch",
            "entries": [{"var": "v:a", "value": 1, "just": "USER"},
                        {"var": "v:b", "value": "hi",
                         "just": "APPLICATION"},
                        {"var": "v:c", "value": 2.5, "just": "USER"}],
            "seq": 41})
        assert fused == generic


class TestUndoRedo:
    def test_undo_reverts_the_whole_batch(self, directory):
        with make_session(directory) as session:
            assert session.assign("v:a", 100)
            assert session.assign_many([("v:a", 1), ("v:b", 2), ("v:c", 3)])
            assert session.undo()
            assert value_of(session, "v:a") == 100
            assert value_of(session, "v:b") is None
            assert value_of(session, "v:c") is None

    def test_redo_reapplies_the_whole_batch(self, directory):
        with make_session(directory) as session:
            assert session.assign_many([("v:a", 1), ("v:b", 2)])
            assert session.undo()
            assert session.redo()
            assert value_of(session, "v:a") == 1
            assert value_of(session, "v:b") == 2
            expected = session.fingerprint()
        with Session("batch", directory=directory,
                     read_only=True) as replayed:
            assert replayed.fingerprint() == expected


class TestChainCachePurity:
    def test_cache_on_and_off_sessions_agree_in_full(self):
        """Twin sessions, identical batch history, one with a plan-chain
        cache: FULL fingerprints (stats included) must be equal — the
        replayed stats delta keeps even the counters identical."""
        directory_a = tempfile.mkdtemp(prefix="repro-chain-a-")
        directory_b = tempfile.mkdtemp(prefix="repro-chain-b-")
        try:
            with make_session(directory_a) as cached, \
                    make_session(directory_b) as plain:
                PlanCache(cached.context)
                for index in range(10):
                    value = 9 if index % 2 == 0 else 8
                    batch = [("v:a", value), ("v:b", value + 1),
                             ("v:c", value + 2)]
                    assert cached.assign_many(batch)
                    assert plain.assign_many(batch)
                assert cached.fingerprint() == plain.fingerprint()
        finally:
            shutil.rmtree(directory_a, ignore_errors=True)
            shutil.rmtree(directory_b, ignore_errors=True)


value_strategy = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False,
              allow_infinity=False))
entry_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(VAR_NAMES) - 1), value_strategy)
batch_strategy = st.lists(entry_strategy, min_size=1, max_size=6)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches=st.lists(batch_strategy, max_size=5))
def test_batch_equals_sequential_application(batches):
    """Property: a non-violating batch history is observably equivalent
    to applying the same entries one at a time — identical values and
    justifications (stats necessarily differ: N rounds versus one)."""
    directory_a = tempfile.mkdtemp(prefix="repro-batch-prop-a-")
    directory_b = tempfile.mkdtemp(prefix="repro-batch-prop-b-")
    try:
        with make_session(directory_a) as batched, \
                make_session(directory_b) as sequential:
            for batch in batches:
                entries = [(f"v:{VAR_NAMES[index]}", value)
                           for index, value in batch]
                assert batched.assign_many(entries)
                for address, value in entries:
                    assert sequential.assign(address, value)
            left = batched.fingerprint(include_stats=False)
            right = sequential.fingerprint(include_stats=False)
            # One batch is one journal record versus N — the journal
            # position necessarily differs; everything else agrees.
            left.pop("position")
            right.pop("position")
            assert left == right
    finally:
        shutil.rmtree(directory_a, ignore_errors=True)
        shutil.rmtree(directory_b, ignore_errors=True)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches=st.lists(batch_strategy, max_size=5))
def test_batch_history_replays_exactly(batches):
    """Property: any batch history — rejections included — replays from
    the journal to the identical FULL fingerprint (stats and all)."""
    directory = tempfile.mkdtemp(prefix="repro-batch-prop-r-")
    try:
        with make_session(directory) as live:
            live.add_constraint("upper-bound", ["v:c"],
                                params={"bound": 10})
            for batch in batches:
                live.assign_many([(f"v:{VAR_NAMES[index]}", value)
                                  for index, value in batch])
            expected = live.fingerprint()
        with Session("batch", directory=directory,
                     read_only=True) as replayed:
            assert replayed.fingerprint() == expected
    finally:
        shutil.rmtree(directory, ignore_errors=True)


class TestMultiModuleBatch:
    def test_eight_module_hierarchy_batch(self):
        """One batch touching every module of a disjoint-module design:
        the modules are separate islands, and the batch leaves every
        module exactly as one-by-one assignments would."""
        from repro.core import ScaleOffsetConstraint, bfs_partition

        def build(session, modules=8, chain=16):
            heads = []
            tails = []
            for module in range(modules):
                variables = [session.make_variable(f"m{module}v{step}")
                             for step in range(chain)]
                for left, right in zip(variables, variables[1:]):
                    ScaleOffsetConstraint(right, left, offset=1)
                heads.append(variables[0])
                tails.append(variables[-1])
            return heads, tails

        with Session("batched") as batched, Session("single") as single:
            b_heads, b_tails = build(batched)
            s_heads, s_tails = build(single)
            assert len(bfs_partition(b_heads)) == 8
            rounds = batched.context.stats.rounds
            assert batched.assign_many(
                [(head, 10 * k) for k, head in enumerate(b_heads)])
            for k, head in enumerate(s_heads):
                assert single.assign(head, 10 * k)
            assert [v.value for v in b_tails] == [v.value for v in s_tails] \
                == [10 * k + 15 for k in range(8)]
            assert batched.context.stats.rounds == rounds + 1

"""Plan chains: trace, promote, replay, guard-fail, deopt, invalidate.

The chain cache must be a *pure* cache for batched rounds: a cache-on
context and a cache-off twin running the identical batch sequence must
end byte-identical — values, justification sources, violation feedback
and the full :class:`PropagationStats` snapshot (the replayed stats
delta included).
"""

import pytest

from repro.core import (
    EqualityConstraint,
    PlanCache,
    PropagationContext,
    UniMaximumConstraint,
    UpperBoundConstraint,
    Variable,
    source_constraint,
)
from repro.obs import Observer


def build_motifs(context, count=3):
    entries, outputs = [], []
    for index in range(count):
        v1 = Variable(7, name=f"V1_{index}", context=context)
        v2 = Variable(7, name=f"V2_{index}", context=context)
        v3 = Variable(5, name=f"V3_{index}", context=context)
        v4 = Variable(7, name=f"V4_{index}", context=context)
        EqualityConstraint(v1, v2)
        UniMaximumConstraint(v4, [v2, v3])
        entries.append(v1)
        outputs.append(v4)
    return entries, outputs


def warm(context, cache, entries, rounds=6):
    """Alternate batch values until the batch key promotes to a chain."""
    for index in range(rounds):
        value = 9 if index % 2 == 0 else 8
        assert context.assign_many([(entry, value) for entry in entries])
    assert cache.chain_for(entries) is not None, cache.stats()


def state_of(context, variables):
    return [(v.value, type(source_constraint(v.last_set_by)).__name__
             if source_constraint(v.last_set_by) else None)
            for v in variables] + [context.stats.snapshot()]


class TestChainLifecycle:
    def test_repeated_batches_promote_to_a_chain(self):
        context = PropagationContext()
        cache = PlanCache(context)
        entries, _ = build_motifs(context)
        assert context.assign_many([(entry, 9) for entry in entries])
        assert cache.chain_for(entries) is None
        for value in (8, 9, 8):
            assert context.assign_many(
                [(entry, value) for entry in entries])
        assert cache.chain_for(entries) is not None, cache.stats()

    def test_hot_batch_replays_as_chain_hit(self):
        context = PropagationContext()
        cache = PlanCache(context)
        entries, outputs = build_motifs(context)
        warm(context, cache, entries)
        hits = cache.hits
        assert context.assign_many([(entry, 9) for entry in entries])
        assert cache.hits == hits + 1 and cache.deopts == 0
        assert all(out.value == 9 for out in outputs)

    def test_chain_key_is_the_entry_tuple(self):
        context = PropagationContext()
        cache = PlanCache(context)
        entries, _ = build_motifs(context)
        warm(context, cache, entries)
        # A different entry order is a different batch shape.
        assert cache.chain_for(list(reversed(entries))) is None
        assert cache.chain_for(entries[:-1]) is None


class TestPurity:
    def test_cache_on_equals_cache_off_full_stats(self):
        cached = PropagationContext()
        PlanCache(cached)
        plain = PropagationContext()
        c_entries, c_outputs = build_motifs(cached)
        p_entries, p_outputs = build_motifs(plain)

        for index in range(10):
            value = 9 if index % 2 == 0 else 8
            assert cached.assign_many(
                [(entry, value) for entry in c_entries])
            assert plain.assign_many(
                [(entry, value) for entry in p_entries])

        assert state_of(cached, c_entries + c_outputs) == \
               state_of(plain, p_entries + p_outputs)

    def test_coalesced_batches_replay_identically(self):
        cached = PropagationContext()
        PlanCache(cached)
        plain = PropagationContext()
        c_entries, c_outputs = build_motifs(cached)
        p_entries, p_outputs = build_motifs(plain)

        def batch(entries, value):
            # A redundant duplicate of the first entry every round.
            return [(entries[0], value - 1)] + \
                   [(entry, value) for entry in entries]

        for index in range(8):
            value = 9 if index % 2 == 0 else 8
            assert cached.assign_many(batch(c_entries, value))
            assert plain.assign_many(batch(p_entries, value))
        assert cached.stats.coalesced_assignments == 8
        assert state_of(cached, c_entries + c_outputs) == \
               state_of(plain, p_entries + p_outputs)


class TestGuardsAndDeopt:
    def test_none_entry_fails_the_guard_and_deopts(self):
        """The entry guard protects only none-ness; a None value where
        the traces saw numbers deopts to the general batched round."""
        context = PropagationContext()
        cache = PlanCache(context)
        entries, outputs = build_motifs(context)
        warm(context, cache, entries)
        deopts = cache.deopts
        batch = [(entry, 9) for entry in entries]
        batch[1] = (entries[1], None)
        assert context.assign_many(batch)
        assert cache.deopts == deopts + 1
        # The general round applied the batch correctly.
        assert outputs[0].value == 9 and outputs[2].value == 9
        assert entries[1].value is None

    def test_mid_batch_check_failure_deopts_then_rejects_atomically(self):
        """Tightening a bound without touching topology leaves the chain
        installed; its certification check fails mid-replay, the chain
        undo list restores the partial writes, and the general round
        re-runs the batch — which now violates and rolls back whole."""
        context = PropagationContext()
        cache = PlanCache(context)
        entries, outputs = build_motifs(context)
        bound = UpperBoundConstraint(outputs[1], 100)
        warm(context, cache, entries)
        assert context.assign_many([(entry, 9) for entry in entries])
        values_before = [v.value for v in entries + outputs]

        bound.bound = 8  # no topology epoch bump: the chain survives
        deopts = cache.deopts
        assert context.assign_many(
            [(entry, 20) for entry in entries]) is False
        assert cache.deopts == deopts + 1
        assert [v.value for v in entries + outputs] == values_before
        assert context.handler.last.kind == "violation"

    def test_dropped_mismatch_is_a_miss_not_a_deopt(self):
        """A batch with different coalescing than the traced shape is a
        plain miss: the chain stays installed for the hot shape."""
        context = PropagationContext()
        cache = PlanCache(context)
        entries, _ = build_motifs(context)
        warm(context, cache, entries)
        deopts, misses = cache.deopts, cache.misses
        # Same entry tuple after coalescing, but one duplicate dropped.
        assert context.assign_many(
            [(entries[0], 3)] + [(entry, 9) for entry in entries])
        assert cache.deopts == deopts
        assert cache.misses == misses + 1
        assert cache.chain_for(entries) is not None
        # The hot shape still replays as a hit.
        hits = cache.hits
        assert context.assign_many([(entry, 8) for entry in entries])
        assert cache.hits == hits + 1

    def test_chain_deopt_counts_one_submitted_batch(self):
        """A deopting chain falls back to the general round on the same
        batch: the batch was submitted once and counts once."""
        context = PropagationContext()
        cache = PlanCache(context)
        entries, _ = build_motifs(context)
        warm(context, cache, entries)
        batch = [(entry, 9) for entry in entries]
        batch[1] = (entries[1], None)
        observer = Observer.metrics_only(context).install()
        assert context.assign_many(batch)
        observer.uninstall()
        assert cache.deopts == 1
        snapshot = observer.metrics.snapshot()
        assert snapshot["engine.batch.rounds"] == 1
        assert snapshot["engine.batch.entries"] == 3

    def test_topology_change_invalidates_the_chain(self):
        context = PropagationContext()
        cache = PlanCache(context)
        entries, outputs = build_motifs(context)
        warm(context, cache, entries)
        # New constraint: epoch bump, stale chain must not replay.
        extra = Variable(9, name="extra", context=context)
        UniMaximumConstraint(extra, [outputs[0]])
        assert cache.chain_for(entries) is None
        assert context.assign_many([(entry, 11) for entry in entries])
        assert extra.value == 11

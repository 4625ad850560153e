"""Plan cache: trace, promote, replay, guard, deoptimize, invalidate.

The cache must be a *pure* cache — every test that matters compares a
cache-on context against a cache-off twin running the identical
assignment sequence and asserts byte-identical outcomes: values,
justification sources, violation feedback and the full
:class:`PropagationStats` snapshot.
"""

import pytest

from repro.core import (
    CompatibleConstraint,
    EqualityConstraint,
    PlanCache,
    PropagationContext,
    PropagationControl,
    UniAdditionConstraint,
    UniMaximumConstraint,
    UpdateConstraint,
    UpperBoundConstraint,
    Variable,
    control_for,
    plan_cache_for,
    source_constraint,
)
from repro.core.plancache import NOT_DERIVED


def build_fig4_5(context):
    """The thesis's worked example: V1=V2 equality, V4=max(V2,V3)."""
    v1 = Variable(name="V1", context=context)
    v2 = Variable(name="V2", context=context)
    v3 = Variable(5, name="V3", context=context)
    v4 = Variable(name="V4", context=context)
    eq = EqualityConstraint(v1, v2)
    mx = UniMaximumConstraint(v4, [v2, v3])
    return v1, v2, v3, v4, eq, mx


def warm(v1, rounds=6):
    for index in range(rounds):
        assert v1.set(9 if index % 2 == 0 else 8)


def state_of(context, variables):
    return [(v.value, type(source_constraint(v.last_set_by)).__name__
             if source_constraint(v.last_set_by) else None)
            for v in variables] + [context.stats.snapshot()]


class TestLifecycle:
    def test_first_sighting_registers_then_traces_then_promotes(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, *_ = build_fig4_5(context)
        assert v1.set(9)  # occurrence 1: register
        assert cache.traces == 0 and cache.plan_for(v1) is None
        assert v1.set(8)  # occurrence 2: first trace
        assert cache.traces == 1 and cache.plan_for(v1) is None
        assert v1.set(9)  # occurrence 3: confirming trace -> promote
        assert cache.promotions == 1 and cache.plan_for(v1) is not None
        assert v1.set(8)  # occurrence 4: replay
        assert cache.hits == 1

    def test_hot_threshold_requires_at_least_two(self):
        with pytest.raises(ValueError):
            PlanCache(PropagationContext(), hot_threshold=1)

    def test_plan_cache_for_is_idempotent(self):
        context = PropagationContext()
        cache = plan_cache_for(context)
        assert plan_cache_for(context) is cache
        cache.uninstall()
        assert getattr(context, "plan_cache") is None

    def test_changed_signature_resets_confirmation(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, v2, v3, v4, eq, mx = build_fig4_5(context)
        assert v1.set(9)
        assert v1.set(8)  # trace A recorded
        # a structural change mid-warm-up invalidates the key entirely
        ub = UpperBoundConstraint(v4, 100)
        warm(v1)
        plan = cache.plan_for(v1)
        assert plan is not None
        assert any(step[0] == "c" and step[1] is ub for step in plan.steps)


class TestReplayEqualsGeneralEngine:
    def test_hit_matches_cache_off_twin(self):
        on, off = PropagationContext(), PropagationContext()
        cache = PlanCache(on)
        vars_on = build_fig4_5(on)[:4]
        vars_off = build_fig4_5(off)[:4]
        for index in range(10):
            value = 9 if index % 2 == 0 else 8
            assert vars_on[0].set(value)
            assert vars_off[0].set(value)
        assert cache.hits > 0
        assert state_of(on, vars_on) == state_of(off, vars_off)

    def test_derivations_read_current_values_not_recorded_ones(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, v2, v3, v4, *_ = build_fig4_5(context)
        warm(v1)
        assert cache.plan_for(v1) is not None
        # V3 rises above the values the trace saw; the replayed write to
        # V4 now derives an unchanged value, the apply-decision guard
        # fails, and the general engine recomputes the round.
        assert v3.set(50)
        assert v1.set(7)
        assert cache.deopts == 1
        assert (v2.value, v4.value) == (7, 50)

    def test_entry_none_shape_guard(self):
        on, off = PropagationContext(), PropagationContext()
        cache = PlanCache(on)
        vars_on = build_fig4_5(on)[:4]
        vars_off = build_fig4_5(off)[:4]
        warm(vars_on[0])
        warm(vars_off[0])
        assert cache.plan_for(vars_on[0]) is not None
        # retracting through the hot key must not replay the value plan
        assert vars_on[0].set(None)
        assert vars_off[0].set(None)
        assert state_of(on, vars_on) == state_of(off, vars_off)

    def test_deopt_on_violation_is_byte_identical(self):
        on, off = PropagationContext(), PropagationContext()
        cache = PlanCache(on)
        v1, v2, v3, v4, eq, mx = build_fig4_5(on)
        w1, w2, w3, w4, _, _ = build_fig4_5(off)
        ub_on = UpperBoundConstraint(v4, 100)
        ub_off = UpperBoundConstraint(w4, 100)
        warm(v1)
        warm(w1)
        assert cache.plan_for(v1) is not None
        ub_on.bound = 7
        ub_off.bound = 7
        assert v1.set(9) is False  # guard fails -> deopt -> violation
        assert w1.set(9) is False
        assert cache.deopts == 1
        assert cache.plan_for(v1) is None
        assert state_of(on, (v1, v2, v3, v4)) == state_of(off,
                                                          (w1, w2, w3, w4))

    def test_stats_delta_makes_hits_invisible_to_counters(self):
        on, off = PropagationContext(), PropagationContext()
        PlanCache(on)
        vars_on = build_fig4_5(on)[:4]
        vars_off = build_fig4_5(off)[:4]
        for index in range(20):
            value = index % 3 + 1
            assert vars_on[0].set(value) == vars_off[0].set(value)
        assert on.stats.snapshot() == off.stats.snapshot()


class TestCertification:
    def test_update_constraint_round_is_unplannable(self):
        context = PropagationContext()
        cache = PlanCache(context)
        source = Variable(1, name="src", context=context)
        derived = Variable(99, name="cachevar", context=context)
        UpdateConstraint([source], [derived])
        for value in (2, 3, 4, 5, 6):
            source.set(value)
        assert cache.unplannable >= 1
        assert cache.plan_for(source) is None
        assert derived.value is None  # erasure semantics kept intact

    def test_functional_silence_guard(self):
        context = PropagationContext()
        cache = PlanCache(context)
        total = Variable(name="total", context=context)
        a = Variable(name="a", context=context)
        b = Variable(name="b", context=context)
        UniAdditionConstraint(total, [a, b])
        # b stays None: the adder is visited but silent in every round
        warm(a)
        plan = cache.plan_for(a)
        assert plan is not None
        assert any(step[0] == "g" for step in plan.steps)
        # completing the inputs breaks the silence guard -> deopt
        assert b.set(1)
        assert a.set(4)
        assert cache.deopts == 1
        assert total.value == 5

    def test_compatible_constraint_plans(self):
        context = PropagationContext()
        cache = PlanCache(context)
        a = Variable(name="a", context=context)
        b = Variable(name="b", context=context)
        CompatibleConstraint(a, b)
        for _ in range(6):  # re-asserting the same value keeps b compatible
            assert a.set(9)
        assert cache.plan_for(a) is not None
        assert a.set(9) and b.value == 9
        assert cache.hits >= 1

    def test_trace_budget_disables_thrashing_key(self):
        context = PropagationContext()
        cache = PlanCache(context, max_trace_attempts=3)
        v1 = Variable(name="v1", context=context)
        v2 = Variable(name="v2", context=context)
        EqualityConstraint(v1, v2)
        ub = UpperBoundConstraint(v2, 100)
        for index in range(12):
            # flip the bound so every promoted plan deopts immediately
            ub.bound = 100 if index % 2 == 0 else (0 - 1)
            v1.set(index % 2)
        assert cache.unplannable >= 1

    def test_not_derived_sentinel_is_distinct(self):
        assert NOT_DERIVED is not None
        assert bool(NOT_DERIVED)


class TestInvalidation:
    def test_adding_a_constraint_invalidates(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, v2, v3, v4, *_ = build_fig4_5(context)
        warm(v1)
        assert cache.plan_for(v1) is not None
        epoch = context.topology_epoch
        UpperBoundConstraint(v4, 100)
        assert context.topology_epoch > epoch
        assert cache.plan_for(v1) is None
        assert cache.invalidations >= 1

    def test_removing_a_constraint_invalidates(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, v2, v3, v4, eq, mx = build_fig4_5(context)
        warm(v1)
        assert cache.plan_for(v1) is not None
        mx.remove()
        assert cache.plan_for(v1) is None
        # rounds after removal re-trace correctly: V4 no longer follows
        assert v1.set(3)
        assert v2.value == 3 and v4.value != 3

    def test_control_disable_and_enable_both_invalidate(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, v2, v3, v4, eq, mx = build_fig4_5(context)
        control = PropagationControl(context)
        warm(v1)
        assert cache.plan_for(v1) is not None
        control.disable_constraint(mx)
        assert cache.plan_for(v1) is None
        warm(v1)  # re-promotes under the disabled shape
        assert cache.plan_for(v1) is not None
        assert v1.set(3) and v4.value != 3
        control.enable_constraint(mx)
        assert cache.plan_for(v1) is None

    def test_noop_control_calls_do_not_invalidate(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, v2, v3, v4, eq, mx = build_fig4_5(context)
        control = PropagationControl(context)
        warm(v1)
        epoch = context.topology_epoch
        control.enable_constraint(mx)  # was never disabled: no change
        assert context.topology_epoch == epoch
        assert cache.plan_for(v1) is not None

    def test_stem_instantiation_bumps_epoch(self):
        from repro.stem import CellClass

        context = PropagationContext()
        cache = PlanCache(context)
        parent = CellClass("ADD", context=context)
        parent.define_signal("x", "in")
        top = CellClass("TOP", context=context)
        epoch = context.topology_epoch
        parent.instantiate(top, "A1")
        assert context.topology_epoch > epoch

    def test_clear_drops_everything(self):
        context = PropagationContext()
        cache = PlanCache(context)
        v1, *_ = build_fig4_5(context)
        warm(v1)
        assert cache.plan_count == 1
        cache.clear()
        assert cache.plan_count == 0 and cache.stats()["keys"] == 0


class TestEpochDiscipline:
    """One logical structural edit advances the topology epoch once."""

    def test_attach_of_multi_argument_constraint_bumps_once(self):
        context = PropagationContext()
        a = Variable(name="a", context=context)
        b = Variable(name="b", context=context)
        c = Variable(name="c", context=context)
        before = context.topology_epoch
        constraint = UniMaximumConstraint(a, [b, c])
        assert context.topology_epoch == before + 1
        before = context.topology_epoch
        constraint.remove()
        assert context.topology_epoch == before + 1

    def test_argument_edits_bump_once_each(self):
        context = PropagationContext()
        a = Variable(name="a", context=context)
        b = Variable(name="b", context=context)
        constraint = EqualityConstraint(a, b)
        d = Variable(name="d", context=context)
        before = context.topology_epoch
        constraint.add_argument(d)
        assert context.topology_epoch == before + 1
        before = context.topology_epoch
        constraint.remove_argument(d)
        assert context.topology_epoch == before + 1

    def test_hierarchy_registration_bumps_once(self):
        from repro.stem.implicit import ClassInstVar, InstanceInstVar

        context = PropagationContext()
        class_var = ClassInstVar(name="class", context=context)
        instance_var = InstanceInstVar(name="instance", context=context)
        before = context.topology_epoch
        class_var.register_instance_var(instance_var)
        assert context.topology_epoch == before + 1
        before = context.topology_epoch
        class_var.unregister_instance_var(instance_var)
        assert context.topology_epoch == before + 1

    def test_control_mutation_bumps_once(self):
        context = PropagationContext()
        a = Variable(name="a", context=context)
        b = Variable(name="b", context=context)
        constraint = EqualityConstraint(a, b)
        control = control_for(context)
        before = context.topology_epoch
        control.disable_constraint(constraint)
        assert context.topology_epoch == before + 1
        before = context.topology_epoch
        control.enable_constraint(constraint)
        assert context.topology_epoch == before + 1


class TestObservability:
    def test_plan_events_reach_the_observer(self):
        from repro.obs import Observer

        context = PropagationContext()
        cache = PlanCache(context)
        v1, v2, v3, v4, *_ = build_fig4_5(context)
        with Observer.metrics_only(context) as observer:
            warm(v1)
            assert v1.set(3)
        snapshot = observer.metrics.snapshot()
        assert snapshot["plan.hit"] == cache.hits
        assert snapshot["plan.miss"] >= 1
        assert snapshot["plan.promotion"] == 1
        assert snapshot["plan.replay"] == cache.hits + cache.deopts

    def test_stats_keys_are_sorted(self):
        cache = PlanCache(PropagationContext())
        assert list(cache.stats()) == sorted(cache.stats())

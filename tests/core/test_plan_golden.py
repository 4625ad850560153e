"""Golden counters for one fixed plan-cache script.

Single assigns on the Fig. 4.5 network and batches over independent
Fig. 4.5 motifs walk the whole plan lifecycle: warm-up, promotion, hit,
an entry-``None`` deopt, a value deopt, a chain deopt, a
coalescing-mismatch miss and a topology invalidation.  The cache
counters after every step, the final :meth:`PlanCache.stats`, the
:class:`PropagationStats` snapshot and the metrics-only observer
snapshot are pinned, so a refactor of the replay paths cannot move any
of them unnoticed.
"""

from repro.core import (
    EqualityConstraint,
    PlanCache,
    PropagationContext,
    UniMaximumConstraint,
    UpperBoundConstraint,
    Variable,
)
from repro.obs import Observer


def build_fig4_5(context):
    v1 = Variable(name="V1", context=context)
    v2 = Variable(name="V2", context=context)
    v3 = Variable(5, name="V3", context=context)
    v4 = Variable(name="V4", context=context)
    EqualityConstraint(v1, v2)
    UniMaximumConstraint(v4, [v2, v3])
    return v1, v2, v3, v4


def build_motifs(context, count=3):
    entries, sides = [], []
    for index in range(count):
        v1 = Variable(7, name=f"V1_{index}", context=context)
        v2 = Variable(7, name=f"V2_{index}", context=context)
        v3 = Variable(5, name=f"V3_{index}", context=context)
        v4 = Variable(7, name=f"V4_{index}", context=context)
        EqualityConstraint(v1, v2)
        UniMaximumConstraint(v4, [v2, v3])
        entries.append(v1)
        sides.append(v3)
    return entries, sides


def run_script():
    context = PropagationContext()
    cache = PlanCache(context)
    observer = Observer.metrics_only(context).install()
    v1, v2, v3, v4 = build_fig4_5(context)
    entries, sides = build_motifs(context)
    steps = []

    def step(ok):
        s = cache.stats()
        steps.append((ok, s["hits"], s["chain_hits"], s["deopts"],
                      s["misses"], s["promotions"], s["invalidations"]))

    def batch(value):
        return context.assign_many([(entry, value) for entry in entries])

    for value in (9, 8, 9, 8):  # register, trace, promote, hit
        step(v1.set(value))
    step(v1.set(None))  # entry-None deopt
    for value in (9, 8, 9):  # re-trace, promote, hit
        step(v1.set(value))
    step(v3.set(50))
    step(v1.set(7))  # value deopt
    for value in (9, 8, 9, 8):  # batch register, trace, promote, chain hit
        step(batch(value))
    # same coalesced seeds, one entry coalesced away: a miss
    step(context.assign_many([(entries[0], 1)]
                             + [(entry, 9) for entry in entries]))
    step(context.assign(sides[1], 50))
    step(batch(8))  # chain value deopt
    for value in (9, 8, 9):
        step(batch(value))
    step(v1.set(8))
    UpperBoundConstraint(v4, 100)  # topology invalidation
    step(v1.set(9))
    step(batch(8))
    observer.uninstall()
    return steps, cache, context, observer.metrics.snapshot()


# (ok, hits, chain_hits, deopts, misses, promotions, invalidations)
GOLDEN_STEPS = [
    (True, 0, 0, 0, 1, 0, 0),
    (True, 0, 0, 0, 2, 0, 0),
    (True, 0, 0, 0, 3, 1, 0),
    (True, 1, 0, 0, 3, 1, 0),
    (True, 1, 0, 1, 3, 1, 0),
    (True, 1, 0, 1, 4, 1, 0),
    (True, 1, 0, 1, 5, 2, 0),
    (True, 2, 0, 1, 5, 2, 0),
    (True, 2, 0, 1, 6, 2, 0),
    (True, 2, 0, 2, 6, 2, 0),
    (True, 2, 0, 2, 7, 2, 0),
    (True, 2, 0, 2, 8, 2, 0),
    (True, 2, 0, 2, 9, 3, 0),
    (True, 3, 1, 2, 9, 3, 0),
    (True, 3, 1, 2, 10, 3, 0),
    (True, 3, 1, 2, 11, 3, 0),
    (True, 3, 1, 3, 11, 3, 0),
    (True, 3, 1, 3, 12, 4, 0),
    (True, 4, 2, 3, 12, 4, 0),
    (True, 5, 3, 3, 12, 4, 0),
    (True, 5, 3, 3, 13, 5, 0),
    (True, 5, 3, 3, 14, 5, 2),
    (True, 5, 3, 3, 15, 5, 2),
]

GOLDEN_CACHE = {
    "chain_hits": 3, "deopts": 3, "epoch": 9, "hits": 5,
    "invalidations": 2, "keys": 2, "misses": 15, "plans": 0,
    "promotions": 5, "traces": 11, "unplannable": 0,
}

GOLDEN_STATS = {
    "budget_aborts": 0, "coalesced_assignments": 1,
    "constraint_activations": 104, "external_assignments": 43,
    "ignored_propagations": 20, "inference_runs": 50,
    "propagated_assignments": 74, "rounds": 32,
    "satisfaction_checks": 92, "scheduled_entries": 50, "violations": 0,
}

GOLDEN_METRICS = {
    "agenda.enqueued.functional_constraints": 39,
    "agenda.popped.functional_constraints": 39,
    "agenda.queue_length.functional_constraints": {
        "buckets": {"+inf": 0, "<=0": 0, "<=1": 39, "<=128": 0, "<=16": 0,
                    "<=2": 0, "<=32": 0, "<=4": 0, "<=512": 0, "<=64": 0,
                    "<=8": 0},
        "count": 39, "max": 1, "min": 1, "sum": 39.0},
    "engine.activations.by_type.EqualityConstraint": 30,
    "engine.activations.by_type.UniMaximumConstraint": 31,
    "engine.activations.total": 61,
    "engine.batch.coalesced": 1,
    # Ten batches submitted, 31 requested entries: a chain deopt is one
    # submitted batch, not two.
    "engine.batch.entries": 31,
    "engine.batch.last_size": {"max": 4, "min": 3, "value": 3},
    "engine.batch.rounds": 10,
    "engine.inference_runs": 39,
    "engine.inferences.by_type.UniMaximumConstraint": 39,
    "engine.round_outcomes.deopt": 3,
    "engine.round_outcomes.ok": 32,
    "engine.rounds.assign": 15,
    "engine.rounds.batch": 11,
    "engine.rounds.repropagate": 9,
    "engine.scheduled.functional_constraints": 39,
    "engine.wavefront_depth": {
        "buckets": {"+inf": 0, "<=1": 3, "<=1024": 0, "<=128": 0,
                    "<=16": 0, "<=16384": 0, "<=2": 15, "<=256": 0,
                    "<=32": 0, "<=4": 0, "<=4096": 0, "<=512": 0,
                    "<=64": 0, "<=65536": 0, "<=8": 0},
        "count": 18, "max": 2, "min": 1, "sum": 33.0},
    "plan.deopt": 3,
    "plan.hit": 5,
    "plan.invalidation": 2,
    "plan.miss": 15,
    "plan.promotion": 5,
    "plan.replay": 8,
}


class TestGoldenCounters:
    def test_per_step_cache_counters(self):
        steps, *_ = run_script()
        assert steps == GOLDEN_STEPS

    def test_final_cache_and_engine_stats(self):
        _, cache, context, _ = run_script()
        assert cache.stats() == GOLDEN_CACHE
        assert context.stats.snapshot() == GOLDEN_STATS

    def test_metrics_snapshot(self):
        *_, snapshot = run_script()
        # Latencies are wall-clock; only their sample count is pinned.
        assert snapshot.pop("engine.round_latency_us")["count"] == 35
        assert snapshot.pop("engine.activation_latency_us")["count"] == 61
        assert snapshot.pop("engine.last_round_latency_us") is not None
        assert snapshot == GOLDEN_METRICS

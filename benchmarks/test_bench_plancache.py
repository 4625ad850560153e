"""Plan-cache rounds: cold trace, warm straight-line hit, forced deopt.

The plan cache (:mod:`repro.core.plancache`) records hot assignment
rounds and replays them as guarded straight-line plans — no agendas, no
visited sets, no satisfaction sweep over untouched constraints.  These
benchmarks measure the three phases of that lifecycle on the thesis's
Fig. 4.5 network and on a 1k-constraint equality chain:

* ``cold`` — every round misses (the cache is cleared between rounds),
  so the full general engine runs plus the cache's key lookup;
* ``warm`` — the key is hot and promoted, every round replays the plan
  (this is the round the PR's ≥2x acceptance criterion gates);
* ``deopt`` — a predicate bound is tightened between warm-up and the
  measured round, so the plan's check guard fails, the written values
  roll back and the general engine re-runs the round.

Plan-cache counters ride into ``BENCH_PROP.json`` through each
benchmark's ``extra_info``, so CI artifacts show hit/deopt behaviour
next to the medians.
"""

import itertools

import pytest

from repro.core import (
    EqualityConstraint,
    PlanCache,
    UniMaximumConstraint,
    UpperBoundConstraint,
    Variable,
)


def build_fig4_5():
    v1 = Variable(7, name="V1")
    v2 = Variable(7, name="V2")
    v3 = Variable(5, name="V3")
    v4 = Variable(7, name="V4")
    EqualityConstraint(v1, v2)
    UniMaximumConstraint(v4, [v2, v3])
    return v1, v2, v3, v4


def build_chain(length):
    variables = [Variable(name=f"v{i}") for i in range(length + 1)]
    for left, right in zip(variables, variables[1:]):
        EqualityConstraint(left, right)
    return variables


def warm(cache, v1, values, rounds=6):
    """Alternate assignments until the key promotes to a plan."""
    for _ in range(rounds):
        assert v1.set(next(values))
    assert cache.plan_for(v1) is not None, cache.stats()


def record_counters(benchmark, cache):
    benchmark.extra_info["plan_hits"] = cache.hits
    benchmark.extra_info["plan_deopts"] = cache.deopts
    benchmark.extra_info["plan_promotions"] = cache.promotions


def test_bench_plancache_cold(benchmark, context):
    """Every round a registration miss: general engine + cache lookup."""
    cache = PlanCache(context)
    v1, v2, v3, v4 = build_fig4_5()
    values = itertools.cycle([9, 8])

    def cold_round():
        cache.clear()
        assert v1.set(next(values))

    benchmark(cold_round)
    assert v2.value == v1.value and v4.value == max(v2.value, v3.value)
    assert cache.hits == 0
    record_counters(benchmark, cache)


def test_bench_plancache_warm_hit(benchmark, context):
    """The promoted straight-line replay — the acceptance-gated round."""
    cache = PlanCache(context)
    v1, v2, v3, v4 = build_fig4_5()
    values = itertools.cycle([9, 8])
    warm(cache, v1, values)

    benchmark(lambda: v1.set(next(values)))
    assert v2.value == v1.value and v4.value == max(v2.value, v3.value)
    assert cache.hits > 0 and cache.deopts == 0, cache.stats()
    record_counters(benchmark, cache)


def test_bench_plancache_deopt(benchmark, context):
    """Guard failure: rollback, fall back to the general engine, re-trace."""
    cache = PlanCache(context)
    v1, v2, v3, v4 = build_fig4_5()
    ub = UpperBoundConstraint(v4, 100)
    values = itertools.cycle([9, 8])

    def rewarm():
        ub.bound = 100
        cache.clear()
        warm(cache, v1, values)
        ub.bound = 0  # the next replayed round violates the predicate

    violating_rounds = []

    def violating_round():
        assert not v1.set(next(values))
        violating_rounds.append(1)

    benchmark.pedantic(violating_round, setup=rewarm,
                       rounds=10, iterations=1)
    assert violating_rounds
    assert cache.deopts == len(violating_rounds), cache.stats()
    record_counters(benchmark, cache)


@pytest.mark.parametrize("length", [1_000])
def test_bench_plancache_deep_chain_warm(benchmark, context, length):
    """A 1k-equality chain replays as one flat write sequence."""
    cache = PlanCache(context)
    variables = build_chain(length)
    values = itertools.cycle([1, 2])
    warm(cache, variables[0], values)

    benchmark(lambda: variables[0].set(next(values)))
    assert variables[-1].value == variables[0].value
    assert cache.hits > 0 and cache.deopts == 0, cache.stats()
    record_counters(benchmark, cache)

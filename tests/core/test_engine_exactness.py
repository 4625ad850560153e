"""Exactness guard for the general engine's hot path.

The engine's per-event bookkeeping (the reconvergence check of
``_Round.may_recompute``, the functional input read, the dispatch loop
and agenda scheduling) is tuned for speed, and every such change must
keep the thesis's event order exactly.  The golden values below were
recorded with the reference engine, the one that rescanned every
constraint argument per recompute.  Each scenario's observables must
match them exactly:

* the full :meth:`PropagationStats.snapshot`;
* the :class:`PropagationTrace` event sequence (count and a SHA-256
  digest of the rendered lines);
* a digest of the final network state (the session fingerprint for
  session scenarios; every variable's value and justification for bare
  networks).

The scenarios cover the hierarchical fan-in that dominates served
delay checking (a class delay edit fanning out into every instance dual
that feeds one path ``sum``), a reconvergent fan-out network including a
divergent cycle that trips the livelock cap, and a multi-entry
``assign_many`` whose entries re-touch one result.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core import (
    Constraint,
    FormulaConstraint,
    PropagationContext,
    UniAdditionConstraint,
    UniMaximumConstraint,
    UpperBoundConstraint,
    Variable,
)
from repro.core.trace import PropagationTrace
from repro.session.session import Session

CELLS = ("INV", "NAND2", "NOR2", "BUF")
DELAY = "delay(a->z)"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _observe(context: PropagationContext,
             scenario: Callable[[], Tuple[str, List[bool]]],
             traced: bool) -> Dict[str, Any]:
    """Run ``scenario`` (it returns a state digest and the accepted
    flags of its assignments) on ``context``, traced or not."""
    trace = PropagationTrace(context)
    if traced:
        trace.install()
    try:
        state, outcomes = scenario()
    finally:
        trace.uninstall()
    observed = {"stats": context.stats.snapshot(), "state": state,
                "accepted": _digest(repr(outcomes))}
    if traced:
        observed["events"] = len(trace.events)
        observed["trace"] = _digest(trace.render())
    return observed


def _network_state(variables: List[Variable]) -> str:
    return _digest(repr([(variable.qualified_name(), variable.raw_value,
                          variable.last_set_by) for variable in variables]))


def _var(context: PropagationContext, name: str,
         value: Any = None) -> Variable:
    return Variable(value, name=name, context=context)


# -- scenario 1: hierarchical fan-in (the served hier-check shape) -----------

def _hier_session(size: int, seed: int, batches: int,
                  traced: bool) -> Dict[str, Any]:
    """Build ``size`` instances under TOP whose delay duals feed one
    bounded path ``sum``, then apply seeded class-delay batches; about
    one in eight exceeds the bound and rolls back."""
    session = Session("exact")

    def scenario() -> Tuple[str, List[bool]]:
        for cell in CELLS:
            session.define_cell(cell)
            session.define_signal(cell, "a", "in")
            session.define_signal(cell, "z", "out")
            session.declare_delay(cell, "a", "z", estimate=1.0)
        session.define_cell("TOP")
        rng = random.Random(seed)
        kinds = [CELLS[k % len(CELLS)] for k in range(size)]
        rng.shuffle(kinds)
        for index, kind in enumerate(kinds):
            session.instantiate("TOP", kind, f"u{index}")
        session.make_variable("path")
        session.add_constraint(
            "sum", ["v:path"] + [f"i:TOP:u{index}:{DELAY}"
                                 for index in range(size)])
        session.add_constraint("upper-bound", ["v:path"],
                               params={"bound": 5 * size})
        accepted = []
        for _ in range(batches):
            cells = rng.sample(CELLS, rng.randint(2, 4))
            values = [rng.randint(1, 4) for _ in cells]
            if rng.random() < 1 / 8:
                values[rng.randrange(len(values))] = 6 * size
            accepted.append(session.assign_many(
                [(f"c:{cell}:{DELAY}", value)
                 for cell, value in zip(cells, values)]))
        return (_digest(json.dumps(session.fingerprint(), sort_keys=True)),
                accepted)

    return _observe(session.context, scenario, traced)


# -- scenario 2: reconvergent fan-out and the livelock cap --------------------

def _reconvergent(context: PropagationContext) -> Tuple[str, List[bool]]:
    """Diamonds, a deep fan-out/fan-in and a divergent cycle.

    ``a`` reaches ``top`` through three sums of different depth, so the
    sums and the max legitimately recompute transient results; the
    divergent ``b = x + c``, ``c = b + 1`` cycle keeps recomputing until
    the livelock cap turns it into a violation and the round rolls
    back.
    """
    var = functools.partial(_var, context)
    a, one, two = var("a", 1), var("one", 1), var("two", 2)
    s1, s2, s3 = var("s1"), var("s2"), var("s3")
    layer = [var(f"l{index}") for index in range(4)]
    total, top = var("total"), var("top")
    UniAdditionConstraint(s1, [a, one])
    UniAdditionConstraint(s2, [a, two])
    UniAdditionConstraint(s3, [s1, s2, a])
    for index, variable in enumerate(layer):
        FormulaConstraint(variable, [a, s1],
                          (lambda k: lambda x, y: x * k + y)(index),
                          label=f"f{index}")
    UniAdditionConstraint(total, layer + [s3])
    UniMaximumConstraint(top, [total, s3, a])
    x, b, c = var("x"), var("b"), var("c", 0)
    FormulaConstraint(b, [x, c], lambda p, q: p + q, label="b=x+c")
    FormulaConstraint(c, [b], lambda p: p + 1, label="c=b+1")
    outcomes = [a.set(value) for value in (10, 3, -2, 7)]
    outcomes.append(x.set(1))
    outcomes.append(one.set(5))
    variables = [a, one, two, s1, s2, s3, *layer, total, top, x, b, c]
    return _network_state(variables), outcomes


# -- scenario 3: a batch whose entries re-touch one result ------------------

def _multi_entry(context: PropagationContext) -> Tuple[str, List[bool]]:
    """``assign_many`` entries that each re-derive the same results.

    Every entry changes an input of ``total`` and ``peak``, so each
    entry recomputes results an earlier entry already set -- legal only
    because per-entry change counts and recompute ticks reset between
    entries.  Repeated entries for one variable coalesce (last write
    wins).  Once a bound is attached, a batch violates and rolls every
    entry back.
    """
    var = functools.partial(_var, context)
    p, q, r = var("p", 1), var("q", 2), var("r", 3)
    mid, total, peak = var("mid"), var("total"), var("peak")
    UniAdditionConstraint(mid, [p, q])
    UniAdditionConstraint(total, [mid, r, p])
    UniMaximumConstraint(peak, [total, q, r])
    outcomes = [
        context.assign_many([(p, 4), (q, 5), (r, 6), (p, 7), (q, 1)]),
        context.assign_many([(r, 2), (p, 3)]),
        context.assign_many([(q, 9), (r, 9), (p, 9)]),
    ]
    UpperBoundConstraint(peak, 100)
    outcomes.append(context.assign_many([(p, 1), (q, 200), (r, 1)]))
    outcomes.append(context.assign_many([(r, 4), (q, 3)]))
    variables = [p, q, r, mid, total, peak]
    return _network_state(variables), outcomes


# -- scenario 4: order-dependent recomputes, refused and admitted -----------

class _Relay(Constraint):
    """Immediate and order-dependent: ``result := 2 * changed`` for
    whichever input changed, so a second activation can ask to replace
    the result without any input having changed since it was computed.
    """

    def immediate_inference_by_changing(self, variable: Any) -> None:
        result = self._arguments[0]
        if variable is result or variable.value is None:
            return
        result.set_propagated(2 * variable.value, self,
                              dependency_record=variable)


class _Linker(Constraint):
    """``b := x + 1``, then make ``b`` an argument of ``target`` -- a
    link edited mid-round, as a compiler invoked from propagation does.
    ``b``'s change is posted before the link, so it reaches ``target``
    only through the new link."""

    def __init__(self, x: Any, b: Any, target: Any) -> None:
        self.target = target
        super().__init__(x, b)

    def immediate_inference_by_changing(self, variable: Any) -> None:
        x, b = self._arguments
        if variable is not x or x.value is None:
            return
        b.set_propagated(x.value + 1, self, dependency_record=x)
        self.target.add_argument(b)


def _order_dependent(context: PropagationContext) -> Tuple[str, List[bool]]:
    """The reconvergence check's refusing side.

    In the first network ``x``'s relay to ``y`` fires before its relay
    to ``r``, so ``r`` is computed from ``y`` and then asked to change
    again from the older ``x``: a violation.  In the second the relays
    are attached the other way round and the recompute is admitted.
    The batch repeats the refused shape in its second entry, after a
    first entry that ran a long chain into ``r``'s constraint.  In the
    third network ``r`` is recomputed from an argument linked after it
    changed, which the check must admit.
    """
    var = functools.partial(_var, context)
    x1, y1, r1 = var("x1"), var("y1"), var("r1")
    chain = [var(f"w{index}") for index in range(6)]
    _Relay(y1, x1)
    _Relay(r1, x1, y1, chain[-1])
    for source, target in zip(chain, chain[1:]):
        _Relay(target, source)
    x2, y2, r2 = var("x2"), var("y2"), var("r2")
    _Relay(r2, x2, y2)
    _Relay(y2, x2)
    x3, b3, r3 = var("x3"), var("b3"), var("r3")
    _Linker(x3, b3, _Relay(r3, x3))
    outcomes = [x1.set(5), x2.set(5),
                context.assign_many([(chain[0], 1), (x1, 3)]),
                context.assign_many([(chain[0], 2), (x2, 4)]),
                x3.set(5)]
    variables = [x1, y1, r1, *chain, x2, y2, r2, x3, b3, r3]
    return _network_state(variables), outcomes


def _bare(scenario: Callable[[PropagationContext], Tuple[str, List[bool]]],
          traced: bool) -> Dict[str, Any]:
    """Run a bare-network scenario on a fresh context."""
    context = PropagationContext()
    return _observe(context, lambda: scenario(context), traced)


SCENARIOS = {
    "hier-16": lambda traced: _hier_session(16, 7, 40, traced),
    "hier-64": lambda traced: _hier_session(64, 42, 24, traced),
    "reconvergent": lambda traced: _bare(_reconvergent, traced),
    "multi-entry": lambda traced: _bare(_multi_entry, traced),
    "order-dependent": lambda traced: _bare(_order_dependent, traced),
}

#: Recorded with the reference engine; see the module docstring.
GOLDEN: Dict[str, Dict[str, Any]] = {
    "hier-16": {
        "stats": {
            "rounds": 42,
            "external_assignments": 115,
            "propagated_assignments": 697,
            "ignored_propagations": 127,
            "constraint_activations": 1522,
            "inference_runs": 1172,
            "scheduled_entries": 1172,
            "violations": 4,
            "satisfaction_checks": 596,
            "budget_aborts": 0,
            "coalesced_assignments": 0,
        },
        "events": 3252,
        "trace": "d3c74f1f969a514dc1e0388bd542ed34",
        "state": "b556ffee2e5fd00896dd0df1badf24f1",
        "accepted": "c554ac7ca84352014f97af1063c5066c",
    },
    "hier-64": {
        "stats": {
            "rounds": 26,
            "external_assignments": 68,
            "propagated_assignments": 1729,
            "ignored_propagations": 287,
            "constraint_activations": 3746,
            "inference_runs": 2880,
            "scheduled_entries": 2880,
            "violations": 3,
            "satisfaction_checks": 1106,
            "budget_aborts": 0,
            "coalesced_assignments": 0,
        },
        "events": 7827,
        "trace": "bfe25074191498e7452b2adb95e1d2a7",
        "state": "c436c0736564d1277a375cec4f671b20",
        "accepted": "2ec88e4f1b619c876b584fd70e6b378e",
    },
    "multi-entry": {
        "stats": {
            "rounds": 9,
            "external_assignments": 13,
            "propagated_assignments": 38,
            "ignored_propagations": 8,
            "constraint_activations": 63,
            "inference_runs": 46,
            "scheduled_entries": 55,
            "violations": 1,
            "satisfaction_checks": 21,
            "budget_aborts": 0,
            "coalesced_assignments": 2,
        },
        "events": 158,
        "trace": "3a7bae2b642ae39fbc14441ae25d4102",
        "state": "07e95c29a212cfb2353a541a6db5bf83",
        "accepted": "906c6420fffc3a5299be8494f8b10b96",
    },
    "order-dependent": {
        "stats": {
            "rounds": 16,
            "external_assignments": 7,
            "propagated_assignments": 25,
            "ignored_propagations": 0,
            "constraint_activations": 52,
            "inference_runs": 0,
            "scheduled_entries": 0,
            "violations": 2,
            "satisfaction_checks": 23,
            "budget_aborts": 0,
            "coalesced_assignments": 0,
        },
        "events": 37,
        "trace": "6d05983f9e4ddb95141bec2969eaf1ab",
        "state": "f88bc70542e4ffbac662be47b7ebe9b3",
        "accepted": "3e76fd3d8f78cabdf83dd5310a85183e",
    },
    "reconvergent": {
        "stats": {
            "rounds": 17,
            "external_assignments": 6,
            "propagated_assignments": 65,
            "ignored_propagations": 16,
            "constraint_activations": 138,
            "inference_runs": 85,
            "scheduled_entries": 134,
            "violations": 1,
            "satisfaction_checks": 55,
            "budget_aborts": 0,
            "coalesced_assignments": 0,
        },
        "events": 313,
        "trace": "eb8aee2273016e881564438fae06c3ea",
        "state": "84c01252fab069a474abd5c05fb59b25",
        "accepted": "45e135c98ecd55afac775b96267455e6",
    },
}



@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traced_run_matches_golden(name):
    assert SCENARIOS[name](True) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_untraced_run_matches_golden(name):
    """The untraced path (the one served requests take) counts and
    lands exactly as the traced one."""
    golden = {key: value for key, value in GOLDEN[name].items()
              if key not in ("events", "trace")}
    assert SCENARIOS[name](False) == golden


def test_scenarios_exercise_their_paths():
    """The inputs really reach violations, recomputes and rollbacks."""
    for name in SCENARIOS:
        assert GOLDEN[name]["stats"]["violations"] > 0, name

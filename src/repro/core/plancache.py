"""Hot-round trace specialization — a guarded propagation plan cache.

Thesis section 9.3 proposes compiling constraint networks "ranging from
simple topological sorts ... to complete proceduralization" to speed up
propagation.  :mod:`repro.core.compile` realises the static end of that
spectrum for acyclic functional subnets; this module covers the dynamic
end with the tracing-JIT idiom: **record** the general engine's work for
a hot round, **specialize** it into a straight-line plan, **guard** every
assumption the plan bakes in, and **deoptimize** back to the general
engine the moment a guard fails.

The unit of specialization is an external-assignment round.  Interactive
design work re-enters the network at the same variables over and over
(every slider drag, every session replay entry), so the cache keys rounds
by ``(entry variables, topology epoch)``.  A single ``assign`` is a
one-entry batch: its key is ``id(variable)``, an ``assign_many`` key the
tuple of its coalesced entry ids, so the two never share a plan.

* ``PropagationContext.topology_epoch`` is bumped by every structural
  change — constraint attach/detach, implicit hierarchy links, and
  :class:`~repro.core.control.PropagationControl` mutations — so a key
  can never survive a change to *which* constraints a round activates.
* The first assignment through a key registers it; the next two record
  the round's linearized trace (value writes, ignored propagations, and
  the final satisfaction sweep).  Two identical trace *shapes* promote
  the key to a :class:`PropagationPlan`.

A plan replays the recorded writes directly — no event queue, no agendas,
no visited bookkeeping — but every step re-derives its value from the
*current* network state and checks the guards:

* each write re-runs ``classify_propagated`` and must get the recorded
  ``"apply"`` decision (``"ignore"`` for recorded ignores);
* each derived value must match the recorded ``None``-ness, so the
  null-driven short-circuits in constraint inference stay on the traced
  path;
* functional constraints that stayed silent because of incomplete inputs
  guard that their inputs are *still* incomplete;
* every visited constraint's ``is_satisfied`` must still hold (the same
  final sweep the general engine runs).

Any guard failure rolls the touched variables back through the recorded
pre-state (the engine's own restore discipline) and re-enters the general
engine, which recomputes the round from scratch — including proper
violation reporting — and records a fresh trace.  A plan is therefore a
pure cache: results, justification structure and session fingerprints are
byte-identical with the cache on or off, and nothing about it is ever
journaled.

Only *certified* traces promote: every write must come from a constraint
whose inference is expressible as a pure derivation
(:meth:`~repro.core.constraint.Constraint.plan_derivation`), every
variable involved must store values without side effects (daemon
``value`` properties and ``on_stored_by_assignment`` hooks disqualify),
and no variable may be written twice.  Anything else — hierarchy duals,
update constraints, reconvergent transients — marks the key *unplannable*
and runs on the general engine forever, which is always correct.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .constraint import Constraint
from .engine import PropagationContext
from .variable import Variable

__all__ = ["NOT_DERIVED", "PlanCache", "PropagationPlan", "plan_cache_for",
           "plan_counters"]

#: Sentinel returned by a plan step's derivation when the inference the
#: trace recorded would not happen under current values (incomplete
#: inputs, a value the constraint would reject inline): the plan must
#: deoptimize and let the general engine decide.
NOT_DERIVED = object()

_BASE_INFERENCE = Constraint.immediate_inference_by_changing


class _GuardFailure(Exception):
    """Internal control flow: a plan guard did not hold."""

    __slots__ = ()


def _plain_variable(variable: Any) -> bool:
    """May the plan read and store this variable directly?

    True only for variables whose value access and assignment hooks are
    the base :class:`~repro.core.variable.Variable` ones: a daemon
    ``value`` property (lazy recalculation on read) or an
    ``on_stored_by_assignment`` side effect would make a straight-line
    replay diverge from the general engine.  ``classify_propagated``
    overrides (strength/abstraction rules) are fine — plans call the real
    method as a guard.
    """
    cls = type(variable)
    return (cls.value is Variable.value
            and cls.on_stored_by_assignment is Variable.on_stored_by_assignment
            and cls._store is Variable._store)


def _pure_check(constraint: Any) -> bool:
    """Does this constraint provably never assign values?"""
    inference = getattr(type(constraint), "immediate_inference_by_changing",
                        None)
    return inference is _BASE_INFERENCE


class _TraceRecording:
    """One general round's linearized activity, captured for promotion.

    Installed on ``context._plan_recording`` by the cache and fed by the
    engine's round (entry notes), ``propagated_assignment`` (write/ignore
    notes) and in-round entry points (which set ``poisoned``); finished
    from the round teardown.
    """

    __slots__ = ("cache", "state", "epoch", "stats_before", "steps",
                 "poisoned", "dropped")

    def __init__(self, cache: "PlanCache", state: "_KeyState", epoch: int,
                 stats_before: Dict[str, int], dropped: int) -> None:
        self.cache = cache
        self.state = state
        self.epoch = epoch
        self.stats_before = stats_before
        #: ``(kind, target, constraint, justification, value_was_none)``
        self.steps: List[Tuple[str, Any, Any, Any, bool]] = []
        #: Set when the round did something a straight-line plan cannot
        #: replay.
        self.poisoned = False
        #: Coalesced-entry count of the recorded batch: the stats delta
        #: replays the coalescing counter, so replay must guard that the
        #: count still matches.
        self.dropped = dropped

    def note_write(self, variable: Any, value: Any, constraint: Any,
                   justification: Any) -> None:
        self.steps.append(("w", variable, constraint, justification,
                           value is None))

    def note_ignore(self, variable: Any, value: Any, constraint: Any,
                    justification: Any) -> None:
        self.steps.append(("i", variable, constraint, justification,
                           value is None))

    def note_entry(self, variable: Any, value: Any) -> None:
        """An entry boundary: the next steps belong to this entry."""
        self.steps.append(("e", variable, None, None, value is None))

    def signature(self, checks: List[Any]) -> Tuple[Any, ...]:
        """The round's activation shape: what happened, not which values."""
        shape: List[Any] = []
        for kind, target, constraint, _justification, none in self.steps:
            if kind == "e":
                shape.append(("e", id(target), none))
            else:
                shape.append((kind, id(constraint), id(target)))
        for constraint in checks:
            shape.append(("c", id(constraint)))
        return tuple(shape)


class PropagationPlan:
    """A promoted straight-line replay for one (entries, epoch) key.

    The stitched trace of a hot round: ``steps`` interleaves ``("e",
    target, was_none)`` entry markers — each consuming the next
    ``(variable, value, justification)`` of the submitted entries and
    guarding its value's ``None``-ness — with ``("w", target,
    constraint, derive, justification, was_none)`` writes, ``("i",
    target, constraint, derive)`` ignore-guards, ``("g", constraint,
    silent)`` silence guards and ``("c", constraint)`` satisfaction
    checks, in recorded order: one guard set and one final sweep for the
    whole round.  ``stats_delta`` replays the round's
    :class:`PropagationStats` increments so counters — and therefore
    session fingerprints — cannot distinguish a plan hit from a general
    round.  ``dropped`` is the coalesced-entry count the recorded batch
    had; a batch that coalesces differently falls back to the general
    engine.
    """

    __slots__ = ("entries", "steps", "stats_delta", "dropped")

    def __init__(self, entries: Tuple[Any, ...],
                 steps: List[Tuple[Any, ...]],
                 stats_delta: List[Tuple[str, int]], dropped: int) -> None:
        self.entries = entries
        self.steps = steps
        self.stats_delta = stats_delta
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        writes = sum(1 for step in self.steps if step[0] == "w")
        return (f"<PropagationPlan {len(self.entries)} entries "
                f"{writes} write(s) / {len(self.steps)} step(s)>")


class _KeyState:
    """Per-key lifecycle: registered -> traced -> planned (or disabled)."""

    __slots__ = ("entries", "key_ids", "signature", "confirmations", "plan",
                 "disabled", "attempts")

    def __init__(self, entries: Tuple[Any, ...], key_ids: Any) -> None:
        #: The entry variables in seed order (strong refs: keep ``id()``
        #: stable).
        self.entries = entries
        #: The id part of the cache key: ``id(variable)`` for a single
        #: assign, the tuple of entry-variable ids for a batch.
        self.key_ids = key_ids
        self.signature: Optional[Tuple[Any, ...]] = None
        self.confirmations = 0
        self.plan: Optional[PropagationPlan] = None
        self.disabled = False
        self.attempts = 0


class PlanCache:
    """The context's trace recorder, plan store and replay engine.

    Installing the cache (the constructor installs it, like
    :class:`~repro.core.control.PropagationControl`) makes
    ``PropagationContext.assign`` and ``assign_many`` consult it before
    opening a general round.  One attribute check per external assignment
    is the whole cost while no plan exists.

    Parameters
    ----------
    context:
        The :class:`~repro.core.engine.PropagationContext` to accelerate.
    hot_threshold:
        Identical traces required before a key promotes (the N>=2 rule;
        the first sighting only registers, so a key promotes on its
        ``hot_threshold + 1``-th assignment).
    max_keys:
        Bound on tracked keys; the oldest registration is evicted.
    max_trace_attempts:
        Recording budget per key: a key that keeps re-tracing without a
        surviving plan (violating rounds, deopt thrash) is marked
        unplannable rather than paying recording overhead forever.
    """

    def __init__(self, context: PropagationContext, *,
                 hot_threshold: int = 2, max_keys: int = 512,
                 max_trace_attempts: int = 16) -> None:
        if hot_threshold < 2:
            raise ValueError("hot_threshold must be >= 2 (N identical traces)")
        self.context = context
        self.hot_threshold = hot_threshold
        self.max_keys = max_keys
        self.max_trace_attempts = max_trace_attempts
        self._states: Dict[Tuple[int, int], _KeyState] = {}
        self.hits = 0
        self.chain_hits = 0
        self.misses = 0
        self.deopts = 0
        self.promotions = 0
        self.invalidations = 0
        self.unplannable = 0
        self.traces = 0
        context.plan_cache = self

    # -- lifecycle ----------------------------------------------------------

    def uninstall(self) -> None:
        if getattr(self.context, "plan_cache", None) is self:
            self.context.plan_cache = None

    def rebind(self, context: PropagationContext) -> None:
        """Move to a new context (session rebuild/recovery), dropping all
        plans — the new context's network is a different object graph."""
        self.uninstall()
        self.context = context
        context.plan_cache = self
        self._invalidate_all()

    def clear(self) -> None:
        """Drop every registration, trace and plan."""
        self._invalidate_all()

    def note_topology_change(self) -> None:
        """The context's topology epoch was bumped: all keys are stale."""
        self._invalidate_all()

    def _invalidate_all(self) -> None:
        states = self._states
        if not states:
            return
        dropped = sum(1 for state in states.values()
                      if state.plan is not None)
        states.clear()
        if dropped:
            self.invalidations += dropped
            self._observe("invalidation", dropped)

    # -- introspection ------------------------------------------------------

    @property
    def plan_count(self) -> int:
        return sum(1 for state in self._states.values()
                   if state.plan is not None)

    def plan_for(self, variable: Any) -> Optional[PropagationPlan]:
        state = self._states.get((id(variable), self.context.topology_epoch))
        return state.plan if state is not None else None

    def chain_for(self, variables: Any) -> Optional[PropagationPlan]:
        """The promoted plan for a batch's entry variables, if any."""
        key_ids = tuple(id(variable) for variable in variables)
        state = self._states.get((key_ids, self.context.topology_epoch))
        return state.plan if state is not None else None

    def stats(self) -> Dict[str, int]:
        """Counters in deterministic sorted-key order."""
        return {
            "chain_hits": self.chain_hits,
            "deopts": self.deopts,
            "epoch": self.context.topology_epoch,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "keys": len(self._states),
            "misses": self.misses,
            "plans": self.plan_count,
            "promotions": self.promotions,
            "traces": self.traces,
            "unplannable": self.unplannable,
        }

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.stats().items())
        return f"PlanCache({body})"

    # -- engine-facing protocol ---------------------------------------------

    def on_external(self, kind: str, entries: List[Tuple[Any, Any, Any]],
                    dropped: int) -> Optional[bool]:
        """Consulted by ``PropagationContext.assign`` (``kind`` ``"assign"``,
        one entry) and ``assign_many`` (``"batch"``) before a round.

        ``entries`` is the coalesced ``(variable, value, justification)``
        seed list; ``dropped`` the coalesced-away entry count.  Returns
        ``True`` when a plan replayed the round (the assignment is
        complete), ``None`` when the general engine must run — with a
        trace recording installed when this key is warming up.
        """
        context = self.context
        if context._plan_recording is not None:
            # A previous round aborted before its teardown could finish
            # the recording (defective observer): discard it.
            context._plan_recording = None
        if kind == "assign":
            key_ids: Any = id(entries[0][0])
        else:
            key_ids = tuple(id(entry[0]) for entry in entries)
        key = (key_ids, context.topology_epoch)
        states = self._states
        state = states.get(key)
        if state is None:
            self.misses += 1
            self._observe("miss")
            if len(states) >= self.max_keys:
                states.pop(next(iter(states)))
            states[key] = _KeyState(tuple(entry[0] for entry in entries),
                                    key_ids)
            return None
        if state.disabled:
            self.misses += 1
            self._observe("miss")
            return None
        if state.plan is not None:
            return self._execute(kind, state, entries, dropped)
        self.misses += 1
        self._observe("miss")
        self._begin_recording(state, dropped)
        return None

    def finish_recording(self, recording: _TraceRecording, rnd: Any,
                         ok: bool) -> None:
        """Round teardown: fold a finished trace into the key's state."""
        state = recording.state
        context = self.context
        if (not ok or recording.poisoned
                or recording.epoch != context.topology_epoch
                or self._states.get((state.key_ids, recording.epoch))
                is not state):
            return  # violating/poisoned/stale rounds never cache
        checks = [constraint for constraint in rnd.visited_constraints
                  if context._allows(constraint)]
        signature = recording.signature(checks)
        if state.signature != signature:
            state.signature = signature
            state.confirmations = 1
            return
        state.confirmations += 1
        if state.confirmations >= self.hot_threshold:
            self._promote(state, recording, checks)

    # -- recording ----------------------------------------------------------

    def _begin_recording(self, state: _KeyState, dropped: int) -> None:
        state.attempts += 1
        if state.attempts > self.max_trace_attempts:
            self._disable(state)  # trace budget exhausted
            return
        self.traces += 1
        self.context._plan_recording = _TraceRecording(
            self, state, self.context.topology_epoch,
            self.context.stats.snapshot(), dropped)

    def _disable(self, state: _KeyState) -> None:
        """Mark the key unplannable: it runs on the general engine."""
        state.disabled = True
        state.plan = None
        state.signature = None
        self.unplannable += 1
        self._observe("unplannable")

    # -- promotion ----------------------------------------------------------

    def _promote(self, state: _KeyState, recording: _TraceRecording,
                 checks: List[Any]) -> None:
        """Promote a confirmed trace into a plan.

        The double-write rule applies per entry *segment* (the general
        engine resets its change counts at each entry, so a later
        entry's wavefront legitimately recomputes a variable an earlier
        entry derived), and the silence guards consider every variable
        written anywhere in the round.
        """
        for variable in state.entries:
            if not _plain_variable(variable):
                return self._disable(state)
        steps: List[Tuple[Any, ...]] = []
        written: set = set()   # across the whole round, for silence guards
        segment: set = set()   # within the current entry segment
        stepped = set()
        involved: List[Any] = []
        for kind, target, constraint, justification, was_none \
                in recording.steps:
            if kind == "e":
                segment = {id(target)}
                written.add(id(target))
                steps.append(("e", target, was_none))
                continue
            changed = justification.dependency_record
            # Hierarchy duals (InstanceInstVar and friends) act as the
            # source "constraint" of cross-level stores without being
            # Constraint subclasses: no plan_derivation, never planned.
            derivation = getattr(constraint, "plan_derivation", None)
            derive = derivation(target, changed) \
                if derivation is not None else None
            if derive is None or not _plain_variable(target):
                return self._disable(state)
            stepped.add(id(constraint))
            involved.append(constraint)
            if kind == "w":
                if id(target) in segment:
                    return self._disable(state)  # written twice
                segment.add(id(target))
                written.add(id(target))
                steps.append(("w", target, constraint, derive,
                              justification, was_none))
            else:
                steps.append(("i", target, constraint, derive))
        if not self._certify_checks(state, checks, steps, written, stepped,
                                    involved):
            return None
        state.plan = PropagationPlan(state.entries, steps,
                                     self._stats_delta(recording),
                                     recording.dropped)
        state.attempts = 0
        self.promotions += 1
        self._observe("promotion")

    def _certify_checks(self, state: _KeyState, checks: List[Any],
                        steps: List[Tuple[Any, ...]], written: set,
                        stepped: set, involved: List[Any]) -> bool:
        """Certify the silent constraints and append the final sweep.

        Visited constraints that assigned nothing must prove they stay
        silent, or guard the condition that silenced them; every argument
        of every involved constraint must be plain.  Appends the ``"g"``
        and ``"c"`` steps to ``steps``; False means the key was disabled.
        """
        for constraint in checks:
            if id(constraint) in stepped or _pure_check(constraint):
                continue
            guard_factory = getattr(constraint, "plan_silence_guard", None)
            if guard_factory is not None:
                driven = any(
                    id(argument) in written
                    and constraint.permits_changes_by(argument)
                    for argument in getattr(constraint, "arguments", ()))
                if driven:
                    silent = guard_factory()
                    if silent is None:
                        self._disable(state)
                        return False
                    steps.append(("g", constraint, silent))
                continue
            if getattr(constraint, "plan_silent_on_none", False):
                continue  # null-driven skip; None-ness is guarded invariant
            self._disable(state)  # silence not certified
            return False
        for constraint in involved + checks:
            arguments = getattr(constraint, "arguments", None)
            if arguments is None:
                self._disable(state)
                return False
            for argument in arguments:
                if not _plain_variable(argument):
                    self._disable(state)
                    return False
        for constraint in checks:
            steps.append(("c", constraint))
        return True

    def _stats_delta(self, recording: _TraceRecording) -> List[Tuple[str, int]]:
        after = self.context.stats.snapshot()
        before = recording.stats_before
        return [(name, after[name] - before[name])
                for name in after if after[name] != before[name]]

    # -- replay -------------------------------------------------------------

    def _execute(self, kind: str, state: _KeyState,
                 entries: List[Tuple[Any, Any, Any]],
                 dropped: int) -> Optional[bool]:
        plan = state.plan
        if dropped != plan.dropped:
            # Different raw batch, same coalesced seeds: the recorded
            # stats delta would replay the wrong coalescing count.  Run
            # the general round; the plan survives for matching batches.
            self.misses += 1
            self._observe("miss")
            return None
        context = self.context
        observer = context.observer
        span = None
        first = entries[0][0]
        if observer is not None:
            observer.round_started(kind, first)
            span_hook = getattr(observer, "plan_span", None)
            if span_hook is not None:
                # Counts a ``plan.replay`` attempt and, with a span
                # recorder installed, times the straight-line execution.
                span = span_hook("replay", entry=first.qualified_name(),
                                 entries=len(entries))
        try:
            if span is not None:
                with span:
                    ok = self._run(plan, entries, context.shadow)
            else:
                ok = self._run(plan, entries, context.shadow)
        except BaseException:
            if observer is not None:
                observer.round_finished("error")
            raise
        if ok:
            stats = context.stats
            for name, delta in plan.stats_delta:
                setattr(stats, name, getattr(stats, name) + delta)
            self.hits += 1
            if kind == "batch":
                self.chain_hits += 1
            if observer is not None:
                self._observe_on(observer, "hit")
                observer.round_finished("ok")
            return True
        # Deoptimize: the rollback already restored every entry; drop the
        # plan and re-enter the general engine on this very round,
        # recording a fresh trace.
        self.deopts += 1
        state.plan = None
        state.signature = None
        state.confirmations = 0
        if observer is not None:
            self._observe_on(observer, "deopt")
            observer.round_finished("deopt")
        self._begin_recording(state, dropped)
        return None

    @staticmethod
    def _run(plan: PropagationPlan, entries: List[Tuple[Any, Any, Any]],
             shadow: Any = None) -> bool:
        """Replay a plan under guards; False means rolled back."""
        undo: List[Tuple[Any, Any, Any]] = []
        index = 0
        try:
            for step in plan.steps:
                kind = step[0]
                if kind == "w":
                    _, target, constraint, derive, just, was_none = step
                    derived = derive()
                    if derived is NOT_DERIVED \
                            or (derived is None) != was_none \
                            or target.classify_propagated(
                                derived, constraint) != "apply":
                        raise _GuardFailure
                    undo.append((target, target.last_set_by,
                                 target.raw_value))
                    target._store(derived, just)
                elif kind == "e":
                    variable, value, just = entries[index]
                    index += 1
                    if (value is None) != step[2]:
                        raise _GuardFailure
                    undo.append((variable, variable.last_set_by,
                                 variable.raw_value))
                    variable._store(value, just)
                elif kind == "c":
                    if not step[1].is_satisfied():
                        raise _GuardFailure
                elif kind == "i":
                    _, target, constraint, derive = step
                    derived = derive()
                    if derived is NOT_DERIVED \
                            or target.classify_propagated(
                                derived, constraint) != "ignore":
                        raise _GuardFailure
                else:  # "g": the constraint must still have no inference
                    if not step[2]():
                        raise _GuardFailure
        except _GuardFailure:
            for var, just, val in reversed(undo):
                var._store(val, just)
            return False
        except BaseException:
            # Defective derivation/check: restore, then surface — the
            # same contract as the general engine's error path.
            for var, just, val in reversed(undo):
                var._store(val, just)
            raise
        if shadow is not None and undo:
            shadow.absorb_undo(undo)
        return True

    # -- observability ------------------------------------------------------

    def _observe(self, kind: str, count: int = 1) -> None:
        observer = self.context.observer
        if observer is not None:
            self._observe_on(observer, kind, count)

    @staticmethod
    def _observe_on(observer: Any, kind: str, count: int = 1) -> None:
        hook = getattr(observer, "plan_event", None)
        if hook is not None:
            hook(kind, count)


def plan_cache_for(context: PropagationContext) -> PlanCache:
    """The context's plan cache, creating one on first use."""
    existing = getattr(context, "plan_cache", None)
    if isinstance(existing, PlanCache):
        return existing
    return PlanCache(context)


def plan_counters(context: Any) -> Dict[str, int]:
    """The plan counters ``repro stats`` and the server's ``stats`` frame
    export: all 0 when the context has no cache installed."""
    cache = getattr(context, "plan_cache", None)
    if cache is None:
        return {"plan_hits": 0, "plan_chain_hits": 0, "plan_deopts": 0}
    return {"plan_hits": cache.hits, "plan_chain_hits": cache.chain_hits,
            "plan_deopts": cache.deopts}

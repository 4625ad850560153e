"""The constraint propagation engine — an iterative wavefront.

Implements the propagation process of thesis section 4.2: a depth-first
traversal of the constraint network triggered by a value assignment,
alternating between variables (spreading to their constraints) and
constraints (inferring values for further variables), followed by draining
the fixed-priority agendas and a final ``is_satisfied`` sweep over every
visited constraint.

The thesis (and earlier versions of this module) realise the traversal as
literal recursion: every ``spread -> propagate_variable -> set_propagated``
hop consumes an interpreter stack frame, which caps network depth and
requires raising the recursion limit for long chains.  Following the
generic *propagator iteration* architecture of constraint-engine
literature (Schulte & Stuckey, "Efficient Constraint Propagation Engines";
Apt, "The Essence of Constraint Propagation"), the traversal is instead
driven by an explicit per-round **event queue**:

* ``("variable-changed", variable, exclude)`` — a changed variable must
  activate its constraints (the thesis's ``propagate`` message);
* ``("activate-constraint", constraint, variable)`` — one constraint
  reacts to one changed argument (``propagateVariable:``);
* ``("drain-agendas",)`` — pop scheduled entries off the fixed-priority
  agendas until all are empty, letting each inference's wavefront finish
  before the next entry pops;
* ``("repropagate", constraint, remaining)`` — re-assert an edited
  constraint's arguments in precedence order (Fig. 4.13), one argument
  per dispatch with an agenda drain in between.

:meth:`PropagationContext._drain` pops events in **LIFO** order; events
posted while dispatching one event are pushed so the first-posted pops
first.  The result is exactly the depth-first activation order of the
recursive engine — same visited order, same violation points, same
counter values — but depth is limited by heap memory, not the C stack,
the interpreter's recursion limit is never touched, and all stats
counting, tracing and observability hooks (``context.observer``, see
:mod:`repro.obs`) for constraint activity happen at one dispatch site.

The Smalltalk implementation keeps its bookkeeping in globals
(``VisitedConstraintsAndVariables``, the agenda scheduler, the ``CPSwitch``
disable flag).  Here the equivalent state lives in an explicit
:class:`PropagationContext`; variables and constraints belong to a context
and all propagation rounds for a network run inside it.  A module-level
default context preserves the convenience of the global style for small
programs and tests.

Key behaviours reproduced:

* **One-value-change rule** (section 4.2.2): no variable may change value
  twice in one round; cyclic networks therefore terminate with a violation
  rather than looping (Fig. 4.9).  The relaxed N-change rule suggested in
  section 9.2.3 is available via ``max_changes_per_variable``.
* **Violation handling** (section 4.2.3 / 5.2): on violation the network is
  restored to its pre-round state, the context's handler is notified, and
  the assignment returns ``False`` — the validity feedback design tools use.
* **Propagation disable switch** (section 5.3): with ``enabled = False``
  assignments store values directly and constraint editing performs no
  local propagation.
* **Tentative probing** (Fig. 8.2 ``canBeSetTo:``): propagate a trial value
  and restore unconditionally, reporting only whether a violation occurred.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from .agenda import AgendaScheduler, DEFAULT_PRIORITY_ORDER
from .justification import TENTATIVE, USER, Justification
from .violations import (
    BudgetExceeded,
    PropagationViolation,
    ViolationHandler,
    ViolationRecord,
    WarningHandler,
)


class PropagationStats:
    """Counters describing propagation activity.

    These are the raw material for the efficiency experiments: agenda
    deferral (E2) is measured by ``inference_runs``, hierarchical sharing
    (E6) by ``propagated_assignments``, and the complexity claim (E16) by
    ``constraint_activations``.
    """

    __slots__ = ("rounds", "external_assignments", "propagated_assignments",
                 "ignored_propagations", "constraint_activations",
                 "inference_runs", "scheduled_entries", "violations",
                 "satisfaction_checks", "budget_aborts",
                 "coalesced_assignments")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.rounds = 0
        self.external_assignments = 0
        self.propagated_assignments = 0
        self.ignored_propagations = 0
        self.constraint_activations = 0
        self.inference_runs = 0
        self.scheduled_entries = 0
        self.violations = 0
        self.satisfaction_checks = 0
        self.budget_aborts = 0
        self.coalesced_assignments = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"PropagationStats({body})"


_UNLIMITED = float("inf")


class RoundBudget:
    """Per-round watchdog limits for the wavefront loop.

    A budget bounds one propagation round by dispatched queue events
    (``max_steps``) and/or wall-clock time (``max_seconds``).  Crossing
    either limit raises :class:`~repro.core.violations.BudgetExceeded`,
    which aborts the round through the ordinary violation rollback — the
    network comes back byte-identical to its pre-round state and the
    assignment reports ``False``.

    Step budgets are **deterministic**: the same round overruns at the
    same event on every machine, so durable sessions journal them and
    replay reproduces the abort exactly.  Wall-time budgets are a
    liveness backstop (a slow machine may abort a round a fast one
    completes) — use them for interactive safety, not for anything that
    must replay bit-identically.
    """

    __slots__ = ("max_steps", "max_seconds")

    def __init__(self, max_steps: Optional[int] = None,
                 max_seconds: Optional[float] = None) -> None:
        if max_steps is None and max_seconds is None:
            raise ValueError("a RoundBudget needs max_steps and/or "
                             "max_seconds")
        if max_steps is not None and max_steps < 1:
            raise ValueError(f"max_steps must be positive, not {max_steps}")
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError(f"max_seconds must be positive, "
                             f"not {max_seconds}")
        self.max_steps = max_steps if max_steps is not None else _UNLIMITED
        self.max_seconds = max_seconds

    def __repr__(self) -> str:
        steps = None if self.max_steps == _UNLIMITED else self.max_steps
        return f"RoundBudget(max_steps={steps}, max_seconds={self.max_seconds})"


#: Queue event kinds (first element of each event tuple).
_VARIABLE_CHANGED = "variable-changed"
_ACTIVATE = "activate-constraint"
_DRAIN_AGENDAS = "drain-agendas"
_REPROPAGATE = "repropagate"


class _Round:
    """Bookkeeping for one propagation round.

    ``visited`` maps each touched variable to its pre-round
    ``(last_set_by, value)`` so the network can be restored (the global
    dictionary of section 4.2.2); ``changes`` counts value changes per
    variable for the one-value-change rule; ``visited_constraints`` records
    activation order for the final satisfaction sweep.

    ``queue`` is the round's explicit work deque: pending propagation
    events, drained LIFO by :meth:`PropagationContext._drain` so that the
    wavefront visits the network in the thesis's depth-first activation
    order.  ``draining`` flags whether the drain loop is currently running
    (events posted while it runs are picked up by it; events posted
    outside — e.g. by a tool assigning during the satisfaction sweep — are
    drained on the spot).  ``dispatch_mark`` is the queue length at the
    start of the event dispatch currently executing; events above the mark
    are the current dispatch's own postings.
    """

    __slots__ = ("visited", "changes", "visited_constraints",
                 "_constraint_ids", "max_changes", "silent",
                 "_tick", "set_ticks", "argument_ticks", "queue", "draining",
                 "dispatch_mark",
                 "budget", "steps", "deadline", "started", "visited_floor")

    def __init__(self, max_changes: int, silent: bool = False) -> None:
        self.visited: Dict[Any, Tuple[Justification, Any]] = {}
        self.changes: Dict[Any, int] = {}
        self.visited_constraints: List[Any] = []
        self._constraint_ids: set = set()
        self.max_changes = max_changes
        self.silent = silent
        self._tick = 0
        self.set_ticks: Dict[Any, int] = {}
        #: ``id(constraint)`` -> tick of the latest change among the
        #: constraint's arguments (the O(1) side of :meth:`may_recompute`).
        self.argument_ticks: Dict[int, int] = {}
        self.queue: Deque[Tuple[Any, ...]] = deque()
        self.draining = False
        self.dispatch_mark = 0
        #: Visited-count baseline of the current batch entry; the
        #: livelock cap in :meth:`may_recompute` measures round size
        #: from here so each entry of a batched round gets the same
        #: headroom a standalone round would.
        self.visited_floor = 0
        # Watchdog state (see RoundBudget): dispatched-event count and,
        # for wall-time budgets, the perf_counter deadline.
        self.budget: Optional[RoundBudget] = None
        self.steps = 0
        self.deadline: Optional[float] = None
        self.started = 0.0

    def record_visit(self, variable: Any) -> None:
        if variable not in self.visited:
            self.visited[variable] = (variable.last_set_by,
                                      variable.raw_value)

    def was_visited(self, variable: Any) -> bool:
        return variable in self.visited

    def times_changed(self, variable: Any) -> int:
        return self.changes.get(variable, 0)

    def note_change(self, variable: Any) -> None:
        self.changes[variable] = self.changes.get(variable, 0) + 1
        tick = self._tick = self._tick + 1
        self.set_ticks[variable] = tick
        argument_ticks = self.argument_ticks
        for constraint in variable.all_constraints():
            argument_ticks[id(constraint)] = tick

    def restamp(self) -> None:
        """Re-derive :attr:`argument_ticks` after a mid-round link edit.

        A constraint built, extended or removed while a round runs (a
        compiler invoked from propagation, say) gains or loses arguments
        whose ticks were stamped under the old links; rebuilding from
        ``set_ticks`` over the current links keeps :meth:`may_recompute`
        exact.
        """
        argument_ticks = self.argument_ticks
        argument_ticks.clear()
        for variable, tick in self.set_ticks.items():
            for constraint in variable.all_constraints():
                key = id(constraint)
                if argument_ticks.get(key, 0) < tick:
                    argument_ticks[key] = tick

    def begin_entry(self) -> None:
        """Reset per-entry bookkeeping between batch entries.

        A batched round applies its entries sequentially inside one
        rollback/budget/sweep scope.  Each entry starts with the same
        change-counting state a standalone round would: the one-value-
        change rule, the transient-update ticks and the livelock cap all
        reset, while ``visited`` (pre-states for the atomic rollback) and
        ``visited_constraints`` (the single final sweep) accumulate.
        """
        self.changes.clear()
        self.set_ticks.clear()
        self.argument_ticks.clear()
        self._tick = 0
        self.visited_floor = len(self.visited)

    def may_recompute(self, variable: Any, constraint: Any) -> bool:
        """May ``constraint`` update a result it already set this round?

        Reconvergent fan-out support (thesis section 9.2.3 discusses the
        limitation; this is the dependency-aware refinement it points to):
        a constraint that owns a variable's current value may recompute it
        when one of its other arguments changed *after* the value was
        computed — a legitimate transient update, not a cycle.  A cap tied
        to the round size bounds divergent cyclic networks.

        The check is O(1) whatever the constraint's arity:
        :meth:`note_change` stamps every constraint of a changed variable
        with the change's tick, so "some other argument is newer than the
        result" is "the constraint's stamp is newer than the result".  The
        result's own change stamps the constraint with exactly the
        result's tick, never a newer one, so it cannot admit itself.
        Hierarchical fan-in needs this: under the thesis priority order a
        path ``sum`` recomputes after every instance dual adopts a new
        class delay, so a check that scanned the arguments would make one
        class edit quadratic in the instance count.
        """
        if variable.source_constraint() is not constraint:
            return False
        if self.changes.get(variable, 0) >= \
                len(self.visited) - self.visited_floor + 2:
            return False  # livelock guard for divergent cycles
        return self.argument_ticks.get(id(constraint), 0) > \
            self.set_ticks.get(variable, 0)

    def note_constraint(self, constraint: Any) -> None:
        key = id(constraint)
        if key not in self._constraint_ids:
            self._constraint_ids.add(key)
            self.visited_constraints.append(constraint)


class PropagationContext:
    """Propagation state and event-queue wavefront engine for one
    family of constraint networks.

    Parameters
    ----------
    priority_order:
        Agenda names, highest priority first (section 4.2.1 / 5.1.2).
    max_changes_per_variable:
        The N of the (relaxed) one-value-change rule; 1 reproduces the
        thesis's rule exactly.
    handler:
        Violation handler invoked after state restoration; defaults to a
        silent :class:`~repro.core.violations.WarningHandler`.
    """

    def __init__(self, *,
                 priority_order: Tuple[str, ...] = DEFAULT_PRIORITY_ORDER,
                 max_changes_per_variable: int = 1,
                 handler: Optional[ViolationHandler] = None) -> None:
        self.enabled = True
        self.scheduler = AgendaScheduler(priority_order)
        self.max_changes_per_variable = max_changes_per_variable
        self.handler = handler if handler is not None else WarningHandler()
        self.stats = PropagationStats()
        #: Optional fine-grained enable/disable control (section 9.3);
        #: installed by :class:`repro.core.control.PropagationControl`.
        self.control = None
        #: Optional :class:`repro.core.trace.PropagationTrace` recorder.
        self.tracer = None
        #: Optional :class:`repro.obs.observer.Observer` hub feeding the
        #: metrics registry, span recorder and hot-constraint profiler.
        #: Costs one attribute check per dispatch while ``None``.
        self.observer = None
        #: Optional mutation recorder (``repro.session``): an object with a
        #: ``record_assign(variable, value, justification)`` method called
        #: *before* an external assignment mutates the network — the
        #: write-ahead capture point for durable sessions.  Costs one
        #: attribute check per external assignment while ``None``.
        self.recorder = None
        #: Optional :class:`repro.core.plancache.PlanCache` — the hot-round
        #: trace specializer.  Consulted by :meth:`assign` before opening a
        #: general round; costs one attribute check while ``None``.
        self.plan_cache = None
        #: Monotonic counter of structural network changes (constraint
        #: links, implicit hierarchy topology, control state).  Plan-cache
        #: keys embed it, so any edit invalidates stale plans.
        self.topology_epoch = 0
        #: Optional :class:`RoundBudget` — the propagation watchdog.
        #: While installed, every round is bounded in dispatched events
        #: and/or wall time and aborts (with full rollback) via
        #: :class:`~repro.core.violations.BudgetExceeded` when it
        #: overruns.  Costs one attribute check per round plus one
        #: pointer compare per dispatched event while ``None``.
        self.round_budget: Optional[RoundBudget] = None
        #: Active plan-cache trace recording, or ``None``.  Fed by
        #: :meth:`propagated_assignment`; one attribute check per
        #: propagated assignment while ``None``.
        self._plan_recording = None
        #: Optional round-effect sink (``repro.spaces``): an object with
        #: ``absorb_visited(visited)`` called after every non-silent
        #: round with the round's pre-state map, ``round_rolled_back()``
        #: called when a non-silent round restores, and
        #: ``absorb_undo(undo)`` called by plan-cache replays.  Costs
        #: one attribute check per round while ``None``.
        self.shadow = None
        # Epoch-coalescing state for structural_operation(): while the
        # hold count is positive, bump_topology_epoch defers (at most one
        # pending bump), so a multi-link edit costs one epoch.
        self._epoch_hold = 0
        self._epoch_pending = False
        self._round: Optional[_Round] = None

    def _trace(self, kind, subject, detail: str = "") -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.record(kind, subject, detail)

    def _allows(self, constraint: Any) -> bool:
        control = self.control
        return control is None or control.allows(constraint)

    def bump_topology_epoch(self) -> None:
        """Note a structural network change.

        Called from every choke point that alters which constraints a
        round can activate: ``Variable.add_constraint`` /
        ``remove_constraint`` (and through them all constraint editing),
        implicit hierarchy registration, ``PropagationControl`` mutations
        and session undo/redo.  Invalidates every cached propagation plan.

        Inside a :meth:`structural_operation` scope the bump is deferred
        and coalesced: one logical edit (e.g. attaching a three-variable
        constraint, which links three times) advances the epoch exactly
        once, instead of once per link.
        """
        if self._epoch_hold:
            self._epoch_pending = True
            return
        self.topology_epoch += 1
        cache = self.plan_cache
        if cache is not None:
            cache.note_topology_change()

    @contextmanager
    def structural_operation(self) -> Iterator[None]:
        """Scope one logical structural edit: epoch bumps inside coalesce
        to a single bump at exit.  Nests (the outermost scope bumps)."""
        self._epoch_hold += 1
        try:
            yield
        finally:
            self._epoch_hold -= 1
            if not self._epoch_hold and self._epoch_pending:
                self._epoch_pending = False
                self.bump_topology_epoch()

    def note_structure_link(self, variable: Any, constraint: Any) -> None:
        """Structural choke point: ``variable`` gained ``constraint``.

        Bumps the topology epoch.  Every path that grows the constraint
        graph — explicit ``Variable.add_constraint`` and implicit
        hierarchy registration — funnels through here.
        """
        self.bump_topology_epoch()
        rnd = self._round
        if rnd is not None:
            rnd.restamp()

    def note_structure_unlink(self, variable: Any, constraint: Any) -> None:
        """Structural choke point: ``variable`` lost ``constraint``.

        Bumps the topology epoch.
        """
        self.bump_topology_epoch()
        rnd = self._round
        if rnd is not None:
            rnd.restamp()

    # -- round management -------------------------------------------------

    @property
    def current_round(self) -> Optional[_Round]:
        """The round propagating in this context, or ``None``."""
        return self._round

    @property
    def in_round(self) -> bool:
        return self.current_round is not None

    def require_round(self) -> _Round:
        rnd = self.current_round
        if rnd is None:
            raise RuntimeError("propagated assignment outside a propagation round")
        return rnd

    @contextmanager
    def _round_scope(self, silent: bool = False) -> Iterator[_Round]:
        if self._round is not None:
            raise RuntimeError("propagation rounds do not nest")
        rnd = _Round(self.max_changes_per_variable, silent=silent)
        budget = self.round_budget
        if budget is not None:
            rnd.budget = budget
            rnd.started = perf_counter()
            if budget.max_seconds is not None:
                rnd.deadline = rnd.started + budget.max_seconds
        self._round = rnd
        self.stats.rounds += 1
        try:
            yield rnd
        finally:
            self._round = None
            self.scheduler.clear()
            shadow = self.shadow
            if shadow is not None and not silent and rnd.visited:
                shadow.absorb_visited(rnd.visited)

    @contextmanager
    def propagation_disabled(self) -> Iterator[None]:
        """Temporarily set the ``CPSwitch`` off (section 5.3)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- assignment entry points ------------------------------------------

    def assign(self, variable: Any, value: Any,
               justification: Justification = USER) -> bool:
        """External value assignment (``setTo:justification:``).

        Returns True when the assignment and all triggered propagation
        completed without violation; False when a violation occurred (the
        network is then restored to its prior state).
        """
        recorder = self.recorder
        if not self.enabled:
            if recorder is not None:
                recorder.record_assign(variable, value, justification)
            variable._store(value, justification)
            return True
        if self.current_round is not None:
            # A tool assigning a value while propagation is running (e.g.
            # a recalculation triggered mid-round) joins the active round.
            # Not recorded: the round itself was opened by a recorded
            # mutation, so replaying that mutation regenerates this one.
            self._in_round_external_assignment(variable, value, justification)
            return True
        if recorder is not None:
            # Write-ahead capture: the intent is journaled before any state
            # changes, so a crash between journaling and mutation replays
            # the assignment rather than losing it.
            recorder.record_assign(variable, value, justification)
        entries = [(variable, value, justification)]
        cache = self.plan_cache
        if cache is not None and self.tracer is None:
            # Hot-round fast path: a cached plan replays the round under
            # guards and returns True; None means "no plan for this key —
            # run the general round" (with a trace recording installed
            # while the key warms up).  Consulted after the recorder so
            # journaling is identical with the cache on or off, and before
            # the stats increment so the recorded stats delta covers it.
            handled = cache.on_external("assign", entries, 0)
            if handled is not None:
                return handled
        if self.tracer is not None:
            self._trace("round-start", variable, f"set to {value!r}")
        return self._run_round("assign", entries, 0)

    def _in_round_external_assignment(self, variable: Any, value: Any,
                                      justification: Justification) -> None:
        rnd = self.require_round()
        recording = self._plan_recording
        if recording is not None:
            # A tool assigned mid-round: the round's shape depends on
            # state a straight-line plan cannot guard.  Never cache it.
            recording.poisoned = True
        self.stats.external_assignments += 1
        rnd.record_visit(variable)
        variable._store(value, justification)
        rnd.note_change(variable)
        watermark = len(rnd.queue)
        rnd.queue.append((_VARIABLE_CHANGED, variable, None))
        variable.on_stored_by_assignment()
        if not rnd.draining:
            # Assignment from outside the wavefront loop (e.g. a property
            # recalculation triggered by the satisfaction sweep): spread
            # on the spot.  Agenda entries it schedules stay scheduled,
            # for an enclosing drain to pick up.
            self._drain(rnd, watermark)

    def assign_many(self, assignments: Any,
                    justification: Justification = USER) -> bool:
        """Apply a batch of external assignments in **one** round.

        ``assignments`` is an iterable of ``(variable, value)`` pairs or
        ``(variable, value, justification)`` triples; pairs take the
        call's ``justification``.  The batch runs inside a single
        :class:`_Round`: entries are seeded into the event queue in
        order, each entry's wavefront drains before the next entry
        stores (per-entry change bookkeeping resets, so values and
        justifications match applying the entries one-by-one), and one
        satisfaction sweep runs over every visited constraint at the
        end.  A violation anywhere rolls **all** entries back atomically
        and returns False; an installed :class:`RoundBudget` covers the
        whole batch.

        Redundant same-variable entries are coalesced before seeding
        (last write wins, taking the last occurrence's position), and
        counted in ``stats.coalesced_assignments``.
        """
        entries: List[Tuple[Any, Any, Justification]] = []
        for item in assignments:
            if len(item) == 2:
                variable, value = item
                entries.append((variable, value, justification))
            else:
                variable, value, just = item
                entries.append((variable, value, just))
        if not entries:
            return True
        recorder = self.recorder
        if not self.enabled:
            if recorder is not None:
                recorder.record_batch(entries)
            for variable, value, just in entries:
                variable._store(value, just)
            return True
        if self.current_round is not None:
            # Joining an active round, like ``assign`` mid-round: each
            # entry spreads on the spot; no batch bookkeeping applies.
            for variable, value, just in entries:
                self._in_round_external_assignment(variable, value, just)
            return True
        if recorder is not None:
            # Write-ahead capture of the *requested* batch: replaying it
            # re-coalesces deterministically, so stats (and therefore
            # fingerprints) match the live run.
            recorder.record_batch(entries)
        # Last-write-wins coalescing: a later entry for the same variable
        # supersedes an earlier one and keeps the later position, exactly
        # as sequential application would leave the later value standing.
        slots: Dict[int, int] = {}
        merged: List[Optional[Tuple[Any, Any, Justification]]] = []
        for entry in entries:
            key = id(entry[0])
            previous = slots.get(key)
            if previous is not None:
                merged[previous] = None
            slots[key] = len(merged)
            merged.append(entry)
        if len(slots) != len(merged):
            seeds = [entry for entry in merged if entry is not None]
        else:
            seeds = entries
        dropped = len(entries) - len(seeds)
        observer = self.observer
        if observer is not None:
            batch_hook = getattr(observer, "batch_submitted", None)
            if batch_hook is not None:
                batch_hook(len(entries), dropped)
        cache = self.plan_cache
        if cache is not None and self.tracer is None:
            # Hot-batch fast path, as in ``assign``: the batch key is the
            # seed tuple, so a promoted plan replays the whole batch.
            handled = cache.on_external("batch", seeds, dropped)
            if handled is not None:
                return handled
        if self.tracer is not None:
            self._trace("round-start", seeds[0][0],
                        f"batch of {len(seeds)} assignment(s)")
        return self._run_round("batch", seeds, dropped)

    def _run_round(self, kind: str,
                   entries: List[Tuple[Any, Any, Justification]],
                   dropped: int) -> bool:
        """The general external-assignment round: seed each entry and
        drain its wavefront, then sweep once.  ``kind`` names the round
        for the observer (``"assign"`` is a one-entry batch)."""
        stats = self.stats
        stats.coalesced_assignments += dropped
        stats.external_assignments += len(entries)
        first = entries[0][0]
        observer = self.observer
        if observer is not None:
            observer.round_started(kind, first)
        outcome = "error"
        rnd = None
        try:
            with self._round_scope() as rnd:
                try:
                    queue = rnd.queue
                    recording = self._plan_recording
                    for variable, value, just in entries:
                        rnd.begin_entry()
                        if recording is not None:
                            recording.note_entry(variable, value)
                        rnd.record_visit(variable)
                        variable._store(value, just)
                        rnd.note_change(variable)
                        queue.append((_DRAIN_AGENDAS,))
                        queue.append((_VARIABLE_CHANGED, variable, None))
                        variable.on_stored_by_assignment()
                        self._drain(rnd)
                        # A poisoning in-round assignment may have
                        # replaced the recording reference; re-read it.
                        recording = self._plan_recording
                    self.check_visited_constraints()
                except PropagationViolation as signal:
                    self._abort_round(rnd, signal)
                    outcome = signal.kind
                    return False
                except BaseException:
                    # A defective constraint implementation must not leave
                    # the network half-updated: restore, then re-raise.
                    self._restore(rnd)
                    if observer is not None:
                        observer.restored(len(rnd.visited), "error")
                    raise
            outcome = "ok"
        finally:
            recording = self._plan_recording
            if recording is not None:
                self._plan_recording = None
                recording.cache.finish_recording(recording, rnd,
                                                 outcome == "ok")
            if observer is not None:
                observer.round_finished(outcome)
        self._trace("round-end", first)
        return True

    def probe(self, variable: Any, value: Any,
              justification: Justification = TENTATIVE) -> bool:
        """Tentatively assign, propagate, then restore (Fig. 8.2).

        Returns True when the value would be accepted without violation.
        No violation handler runs; the network is always restored.

        With propagation disabled (``enabled = False``) a probe is a
        **no-op accept**: the trial value is neither stored nor checked —
        exactly as external assignments skip checking while the CPSwitch
        is off — and the method returns True.
        """
        if not self.enabled:
            return True
        if self.current_round is not None:
            raise RuntimeError("cannot probe while propagation is running")
        observer = self.observer
        if observer is not None:
            observer.round_started("probe", variable)
        ok = True
        outcome = "error"
        try:
            with self._round_scope(silent=True) as rnd:
                rnd.record_visit(variable)
                variable._store(value, justification)
                rnd.note_change(variable)
                queue = rnd.queue
                queue.append((_DRAIN_AGENDAS,))
                queue.append((_VARIABLE_CHANGED, variable, None))
                try:
                    self._drain(rnd)
                    self.check_visited_constraints()
                except PropagationViolation:
                    ok = False
                finally:
                    self._restore(rnd)
                    if observer is not None:
                        observer.restored(len(rnd.visited), "probe")
            outcome = "ok" if ok else "violation"
        finally:
            if observer is not None:
                observer.round_finished(outcome)
        return ok

    def repropagate_constraint(self, constraint: Any) -> bool:
        """Re-initialise a constraint's variables after network editing.

        Implements ``reinitializeVariables`` / ``rePropagate`` (Fig. 4.13):
        the constraint's arguments, ordered user-specified first, then
        constraint-dependent, then other independents, each assert and
        propagate their current value through the edited constraint.
        """
        if not self.enabled:
            return True
        if self.current_round is not None:
            # Constraint created while a round runs (e.g. by a compiler
            # invoked from propagation): its repropagation joins the
            # active round's queue.
            rnd = self.require_round()
            recording = self._plan_recording
            if recording is not None:
                recording.poisoned = True  # a plan cannot replay this
            watermark = len(rnd.queue)
            rnd.queue.append((_REPROPAGATE, constraint, None))
            if not rnd.draining:
                self._drain(rnd, watermark)
            return True
        observer = self.observer
        if observer is not None:
            observer.round_started("repropagate", constraint)
        outcome = "error"
        try:
            with self._round_scope() as rnd:
                rnd.queue.append((_REPROPAGATE, constraint, None))
                try:
                    self._drain(rnd)
                    self.check_visited_constraints()
                except PropagationViolation as signal:
                    self._abort_round(rnd, signal)
                    outcome = signal.kind
                    return False
                except BaseException:
                    self._restore(rnd)
                    if observer is not None:
                        observer.restored(len(rnd.visited), "error")
                    raise
            outcome = "ok"
        finally:
            if observer is not None:
                observer.round_finished(outcome)
        return True

    # -- the wavefront loop ------------------------------------------------

    def _drain(self, rnd: _Round, watermark: int = 0) -> None:
        """Dispatch queued events (LIFO) until ``len(queue) == watermark``.

        This loop is the whole propagation process: the single site where
        constraints are activated, scheduled inference runs and stats and
        traces for constraint activity are recorded.  LIFO order, with
        each dispatch posting its events first-posted-on-top, reproduces
        the recursive engine's depth-first activation order exactly —
        with constant interpreter stack depth however deep the network.
        """
        queue = rnd.queue
        stats = self.stats
        scheduler = self.scheduler
        constraint_ids = rnd._constraint_ids
        visited_constraints = rnd.visited_constraints
        observer = self.observer
        budget = rnd.budget
        previous_draining = rnd.draining
        previous_mark = rnd.dispatch_mark
        rnd.draining = True
        try:
            while len(queue) > watermark:
                if budget is not None:
                    # The watchdog: count every dispatched event (a
                    # deterministic measure of propagation work) and
                    # sample the clock every 32 events for wall-time
                    # budgets.  Both overruns abort through the normal
                    # violation rollback.
                    steps = rnd.steps = rnd.steps + 1
                    if steps > budget.max_steps:
                        raise BudgetExceeded(
                            steps=steps,
                            elapsed=perf_counter() - rnd.started,
                            reason=(f"propagation exceeded its step "
                                    f"budget ({int(budget.max_steps)} "
                                    f"events)"))
                    if rnd.deadline is not None and not steps & 31 \
                            and perf_counter() > rnd.deadline:
                        raise BudgetExceeded(
                            steps=steps,
                            elapsed=perf_counter() - rnd.started,
                            reason=(f"propagation exceeded its wall-time "
                                    f"budget ({budget.max_seconds}s)"))
                event = queue.pop()
                rnd.dispatch_mark = len(queue)
                kind = event[0]
                if kind is _ACTIVATE:
                    constraint, variable = event[1], event[2]
                    key = id(constraint)  # rnd.note_constraint, inlined
                    if key not in constraint_ids:
                        constraint_ids.add(key)
                        visited_constraints.append(constraint)
                    stats.constraint_activations += 1
                    if observer is None:
                        constraint.propagate_variable(variable)
                    else:
                        t0 = perf_counter()
                        try:
                            constraint.propagate_variable(variable)
                        finally:
                            observer.activation(constraint, variable, t0,
                                                perf_counter(), len(queue))
                elif kind is _VARIABLE_CHANGED:
                    variable, exclude = event[1], event[2]
                    control = self.control
                    # reversed: the first constraint pops (activates) first
                    for constraint in reversed(variable.all_constraints()):
                        if constraint is exclude or (
                                control is not None
                                and not control.allows(constraint)):
                            continue
                        queue.append((_ACTIVATE, constraint, variable))
                elif kind is _DRAIN_AGENDAS:
                    entry = scheduler.remove_highest_priority_entry()
                    control = self.control
                    if control is not None:
                        while entry is not None \
                                and not control.allows(entry[0]):
                            entry = scheduler.remove_highest_priority_entry()
                    if entry is None:
                        continue  # agendas empty: the barrier dissolves
                    # Re-arm below the inference's events: the next entry
                    # pops only after this inference's wavefront finishes.
                    queue.append(event)
                    rnd.dispatch_mark = len(queue)
                    constraint, variable = entry
                    key = id(constraint)  # rnd.note_constraint, inlined
                    if key not in constraint_ids:
                        constraint_ids.add(key)
                        visited_constraints.append(constraint)
                    stats.inference_runs += 1
                    if self.tracer is not None:
                        self._trace("infer", constraint)
                    if observer is None:
                        constraint.propagate_scheduled(variable)
                    else:
                        t0 = perf_counter()
                        try:
                            constraint.propagate_scheduled(variable)
                        finally:
                            observer.inference(constraint, variable, t0,
                                               perf_counter())
                else:  # _REPROPAGATE
                    self._dispatch_repropagate(rnd, event[1], event[2])
        finally:
            rnd.draining = previous_draining
            rnd.dispatch_mark = previous_mark

    def _dispatch_repropagate(self, rnd: _Round, constraint: Any,
                              remaining: Optional[List[Any]]) -> None:
        """One argument of an edited constraint asserts its value.

        The precedence order is snapshot on the first dispatch; each
        dispatch propagates the next still-unvisited argument, then
        requeues itself *below* an agenda drain, so the argument's
        wavefront and any scheduled inference complete before the next
        argument is examined (the per-argument ``drain_agendas`` of the
        recursive engine).
        """
        if remaining is None:
            if not self._allows(constraint):
                return
            rnd.note_constraint(constraint)
            remaining = _precedence_ordered(constraint.arguments)
        queue = rnd.queue
        while remaining:
            argument = remaining.pop(0)
            if rnd.was_visited(argument):
                continue
            rnd.record_visit(argument)
            self.stats.constraint_activations += 1
            queue.append((_REPROPAGATE, constraint, remaining))
            queue.append((_DRAIN_AGENDAS,))
            rnd.dispatch_mark = len(queue)
            constraint.propagate_variable(argument)
            return

    # -- propagation machinery --------------------------------------------

    def spread(self, variable: Any, exclude: Any = None) -> None:
        """Enqueue activation of every constraint of a changed variable.

        ``exclude`` is the constraint that produced the change, which must
        not be re-activated (``setTo:constraint:justification:``).  The
        activations dispatch from the round's queue; when called from
        outside the wavefront loop the queue is drained immediately.
        """
        rnd = self.require_round()
        watermark = len(rnd.queue)
        rnd.queue.append((_VARIABLE_CHANGED, variable, exclude))
        if not rnd.draining:
            self._drain(rnd, watermark)

    def schedule(self, constraint: Any, variable: Any = None, *,
                 agenda: str) -> None:
        """Defer a constraint's inference onto a named agenda.

        The single choke point for agenda scheduling (sections 4.2.1 and
        5.1.2): counts the attempt, traces it, and queues the entry —
        duplicates are rejected by the agenda itself.
        """
        self.stats.scheduled_entries += 1
        if self.tracer is not None:
            self._trace("schedule", constraint)
        observer = self.observer
        if observer is not None:
            observer.scheduled(constraint, agenda)
        self.scheduler.schedule(constraint, variable, agenda=agenda)

    def propagated_assignment(self, variable: Any, value: Any,
                              constraint: Any, justification: Justification) -> None:
        """Assignment performed by a constraint during propagation.

        Applies the termination criteria of section 4.2.2 before storing:
        an agreeing value stops the wavefront silently; a disagreeing value
        on a protected or already-changed variable raises a violation.
        The change's spread is posted to the round's queue rather than
        propagated by re-entering the engine.
        """
        rnd = self._round  # require_round, inlined
        if rnd is None:
            raise RuntimeError("propagated assignment outside a propagation "
                               "round")
        if rnd.draining and len(rnd.queue) > rnd.dispatch_mark:
            # A constraint assigning its second value within one inference
            # run: finish the first value's wavefront before this store,
            # exactly as the recursive engine's nested message sends did
            # (E2's transient-update accounting depends on it).
            self._drain(rnd, rnd.dispatch_mark)
        decision = variable.classify_propagated(value, constraint)
        if decision == "ignore":
            self.stats.ignored_propagations += 1
            recording = self._plan_recording
            if recording is not None:
                recording.note_ignore(variable, value, constraint,
                                      justification)
            if self.tracer is not None:
                self._trace("ignore", variable, f"{value!r} agrees/defers")
            return
        if rnd.changes.get(variable, 0) >= rnd.max_changes \
                and not rnd.may_recompute(variable, constraint):
            raise PropagationViolation(
                variable=variable, constraint=constraint, attempted_value=value,
                reason=(f"variable already changed {rnd.times_changed(variable)} "
                        f"time(s) this round (one-value-change rule)"))
        if decision == "violate":
            raise PropagationViolation(
                variable=variable, constraint=constraint, attempted_value=value,
                reason=(f"propagated value {value!r} conflicts with "
                        f"{variable.last_set_by!r} value {variable.value!r}"))
        rnd.record_visit(variable)
        variable._store(value, justification)
        rnd.note_change(variable)
        self.stats.propagated_assignments += 1
        recording = self._plan_recording
        if recording is not None:
            recording.note_write(variable, value, constraint, justification)
        if self.tracer is not None:
            self._trace("store", variable, f":= {value!r} by {constraint!r}")
        watermark = len(rnd.queue)
        rnd.queue.append((_VARIABLE_CHANGED, variable, constraint))
        variable.on_stored_by_assignment()
        if not rnd.draining:
            self._drain(rnd, watermark)

    def drain_agendas(self) -> None:
        """Enqueue an agenda drain: scheduled constraints propagate until
        all agendas are empty, each entry's wavefront finishing before the
        next pops."""
        rnd = self.require_round()
        watermark = len(rnd.queue)
        rnd.queue.append((_DRAIN_AGENDAS,))
        if not rnd.draining:
            self._drain(rnd, watermark)

    def check_visited_constraints(self) -> None:
        """Final sweep: every visited constraint must be satisfied."""
        rnd = self.require_round()
        for constraint in list(rnd.visited_constraints):
            if not self._allows(constraint):
                continue
            self.stats.satisfaction_checks += 1
            if not constraint.is_satisfied():
                raise PropagationViolation(
                    constraint=constraint,
                    reason=f"constraint unsatisfied after propagation: "
                           f"{constraint!r}")

    # -- violation handling -------------------------------------------------

    def _abort_round(self, rnd: _Round, signal: PropagationViolation) -> None:
        """Report, then restore (section 5.2).

        The handler runs while the violating state is still in place —
        STEM's "debug" option opens the constraint editor on exactly that
        state — and restoration happens unconditionally afterwards (the
        "proceed" semantics), even if the handler raises.
        """
        self.stats.violations += 1
        if signal.kind == "budget":
            self.stats.budget_aborts += 1
        self._trace("violation", signal.constraint or signal.variable,
                    signal.reason)
        observer = self.observer
        if observer is not None:
            observer.violation(signal)
            if signal.kind == "budget":
                hook = getattr(observer, "budget_exceeded", None)
                if hook is not None:
                    hook(signal.steps, signal.elapsed)
        record = ViolationRecord.from_signal(signal)
        try:
            if not rnd.silent:
                constraint = signal.constraint
                handler = (getattr(constraint, "violation_handler", None)
                           or self.handler)
                handler.handle(record)
        finally:
            self._restore(rnd)
            if observer is not None:
                observer.restored(len(rnd.visited), "violation")
            self._trace("restore", None,
                        f"{len(rnd.visited)} variable(s) restored")
            rnd.queue.clear()
            self.scheduler.clear()

    def _restore(self, rnd: _Round) -> None:
        """Restore every visited variable to its pre-round state."""
        for variable, (justification, value) in rnd.visited.items():
            variable._store(value, justification)
        shadow = self.shadow
        if shadow is not None and not rnd.silent:
            shadow.round_rolled_back()


def _precedence_ordered(arguments: List[Any]) -> List[Any]:
    """Order arguments for re-propagation (Fig. 4.13).

    User-specified values assert first, then constraint-dependent values,
    then other independents (#APPLICATION etc.), so higher-precedence
    values win any tug-of-war over the edited constraint.
    """
    from .justification import is_propagated, is_user

    user_specified, dependents, others = [], [], []
    for argument in arguments:
        justification = argument.last_set_by
        if is_user(justification):
            user_specified.append(argument)
        elif is_propagated(justification):
            dependents.append(argument)
        else:
            others.append(argument)
    return user_specified + dependents + others


#: Module-level default context — the convenient "global" of the thesis.
_default_context = PropagationContext()


def default_context() -> PropagationContext:
    """Return the process-wide default :class:`PropagationContext`."""
    return _default_context


def reset_default_context(**kwargs: Any) -> PropagationContext:
    """Replace the default context (used by test isolation fixtures)."""
    global _default_context
    _default_context = PropagationContext(**kwargs)
    return _default_context

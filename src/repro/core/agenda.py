"""Fixed-priority agenda scheduling of constraint propagation.

Section 4.2.1 of the thesis: constraints whose propagation direction does
not depend on which variable changed ("functional" constraints) defer their
propagation onto an *agenda* so that every argument has a chance to change
before the (possibly expensive) inference runs.  This reduces redundant
recomputation of transient results.

An agenda is a first-in-first-out queue that rejects duplicate entries.
The scheduler holds several named agendas in a fixed priority order; after
the initial un-scheduled spread of a value change, the propagation
engine's wavefront loop repeatedly pops the first entry of the
highest-priority non-empty agenda — via a ``drain-agendas`` barrier event
that re-arms itself after each popped inference's wavefront completes —
until all agendas are empty.

STEM's hierarchical extension (section 5.1.2) adds a lowest-priority
``implicit_constraints`` agenda so propagation tends to finish one level of
the design hierarchy before crossing to another.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

#: Default agenda names, highest priority first.
FUNCTIONAL = "functional_constraints"
IMPLICIT = "implicit_constraints"
DEFAULT_PRIORITY_ORDER = (FUNCTIONAL, IMPLICIT)

ScheduledEntry = Tuple[Any, Any]  # (constraint, variable-or-None)


class Agenda:
    """A FIFO queue of ``(constraint, variable)`` entries without duplicates."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._queue: Deque[ScheduledEntry] = deque()
        self._members: set = set()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def schedule(self, constraint: Any, variable: Any = None) -> bool:
        """Append an entry unless an equal entry is already queued.

        Returns True if the entry was added.
        """
        key = (id(constraint), id(variable))
        if key in self._members:
            return False
        self._members.add(key)
        self._queue.append((constraint, variable))
        return True

    def pop(self) -> ScheduledEntry:
        """Remove and return the oldest entry."""
        entry = self._queue.popleft()
        self._members.discard((id(entry[0]), id(entry[1])))
        return entry

    def clear(self) -> None:
        self._queue.clear()
        self._members.clear()

    def entries(self) -> List[ScheduledEntry]:
        """A snapshot of queued entries, oldest first."""
        return list(self._queue)


class AgendaScheduler:
    """Multi-queue, fixed-priority scheduler for deferred propagation.

    ``priority_order`` lists agenda names from highest to lowest priority.
    Unknown agenda names are created on first use at the *lowest* priority,
    matching the open-ended extension style of the thesis (new constraint
    types may introduce new agendas).
    """

    def __init__(self, priority_order: Iterable[str] = DEFAULT_PRIORITY_ORDER) -> None:
        self._agendas: "OrderedDict[str, Agenda]" = OrderedDict(
            (name, Agenda(name)) for name in priority_order
        )
        #: Optional :class:`repro.obs.observer.Observer` fed with enqueue
        #: and pop events (queue-depth histograms); installed alongside
        #: ``context.observer``, one attribute check when absent.
        self.observer = None

    @property
    def priority_order(self) -> List[str]:
        return list(self._agendas)

    def agenda_named(self, name: str) -> Agenda:
        """Return (creating if necessary) the agenda with this name."""
        agenda = self._agendas.get(name)
        if agenda is None:
            agenda = Agenda(name)
            self._agendas[name] = agenda
        return agenda

    def schedule(self, constraint: Any, variable: Any = None,
                 agenda: str = FUNCTIONAL) -> bool:
        """Schedule ``constraint`` (with optional triggering ``variable``)."""
        target = self._agendas.get(agenda)
        if target is None:
            target = self.agenda_named(agenda)
        added = target.schedule(constraint, variable)
        if added:
            observer = self.observer
            if observer is not None:
                observer.agenda_enqueued(target.name, len(target))
        return added

    def remove_highest_priority_entry(self) -> Optional[ScheduledEntry]:
        """Pop the first entry of the highest-priority non-empty agenda."""
        for agenda in self._agendas.values():
            if agenda._queue:
                entry = agenda.pop()
                observer = self.observer
                if observer is not None:
                    observer.agenda_popped(agenda.name, len(agenda))
                return entry
        return None

    def is_empty(self) -> bool:
        return all(not agenda for agenda in self._agendas.values())

    def clear(self) -> None:
        for agenda in self._agendas.values():
            agenda.clear()

    def pending_counts(self) -> Dict[str, int]:
        """Number of queued entries per agenda (for inspection/benchmarks)."""
        return {name: len(agenda) for name, agenda in self._agendas.items()}

"""Variable objects — active storage nodes of constraint networks.

Section 4.1.1 of the thesis: a variable is a *handle* for a datum so that
constraints can be specified on it independent of its value.  Each
variable carries

* ``parent`` — the object containing it (a cell, a compiler, ...),
* ``name`` — the field of the parent that points at it (together with the
  parent this gives a unique identification path),
* ``value`` — the last value assigned,
* ``constraints`` — every constraint referencing the variable,
* ``last_set_by`` — the justification of the current value.

Two assignment paths exist.  :meth:`Variable.set` is the external
``setTo:justification:`` used by designers and tools; it opens a
propagation round on the variable's context.  Constraints assign
propagated values through :meth:`Variable.set_propagated`
(``setTo:constraint:justification:``), which applies the termination and
overwrite rules before spreading further.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, List, Optional, Sequence, Set

from . import dependency
from .engine import PropagationContext, default_context
from .justification import (
    APPLICATION,
    USER,
    Justification,
    PropagatedJustification,
    is_propagated,
    may_overwrite,
    source_constraint,
)


class Variable:
    """An active storage node in a constraint network.

    Parameters
    ----------
    value:
        Initial value; stored directly, without propagation.
    parent, name:
        Identification path (section 4.1.1); both optional for free-standing
        variables.
    context:
        The :class:`~repro.core.engine.PropagationContext` this variable
        propagates in; defaults to the process-wide context.
    justification:
        Justification recorded for the initial value (default ``None`` for a
        ``None`` initial value, ``#APPLICATION`` otherwise — a constructor
        value is calculated state that later propagation may overwrite;
        designer decisions enter through :meth:`set`, which defaults to
        ``#USER``).
    """

    def __init__(self, value: Any = None, *, parent: Any = None,
                 name: str = "", context: Optional[PropagationContext] = None,
                 justification: Justification = None) -> None:
        self.parent = parent
        self.name = name
        self.context = context if context is not None else default_context()
        self._value = value
        if justification is None and value is not None:
            justification = APPLICATION
        self._last_set_by: Justification = justification
        self.constraints: List[Any] = []

    # -- identification -----------------------------------------------------

    def qualified_name(self) -> str:
        """Dotted identification path, e.g. ``ADDER.boundingBox``."""
        if self.parent is None:
            return self.name or f"<variable@{id(self):x}>"
        parent_name = getattr(self.parent, "name", None) or repr(self.parent)
        return f"{parent_name}.{self.name}" if self.name else f"{parent_name}.?"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.qualified_name()}={self._value!r}>"

    # -- value access ---------------------------------------------------------

    #: The stored value.  A C-level getter: the engine reads it once per
    #: functional input per recompute.  Daemon variables override it.
    value = property(attrgetter("_value"))

    @property
    def raw_value(self) -> Any:
        """The stored value without side effects.

        ``value`` and ``raw_value`` coincide here; daemon variables
        (:class:`~repro.consistency.properties.PropertyVariable`) override
        ``value`` to recalculate on demand, and the engine's bookkeeping
        must not trigger that.
        """
        return self._value

    @property
    def last_set_by(self) -> Justification:
        return self._last_set_by

    def is_dependent(self) -> bool:
        """True when the current value was produced by propagation."""
        return is_propagated(self._last_set_by)

    def source_constraint(self) -> Optional[Any]:
        """The constraint that set the current value, if any."""
        return source_constraint(self._last_set_by)

    def _store(self, value: Any, justification: Justification) -> None:
        """Raw store without propagation (engine/internal use only)."""
        self._value = value
        self._last_set_by = justification

    def on_stored_by_assignment(self) -> None:
        """Hook run after an assignment stores a value (not on restores).

        Subclasses use it for hard-coded, procedural update-constraints —
        e.g. an instance bounding box invalidating its parent cell's box
        (Fig. 7.8).  Default: nothing.
        """

    # -- assignment -----------------------------------------------------------

    def set(self, value: Any, justification: Justification = USER) -> bool:
        """External assignment (``setTo:justification:``).

        Triggers constraint propagation (when the context is enabled) and
        returns the validity feedback of section 5.2: True when no
        constraint violation occurred, False otherwise (the network is then
        restored to its previous state).
        """
        return self.context.assign(self, value, justification)

    def calculate(self, value: Any) -> bool:
        """Assignment by an application program (``#APPLICATION``)."""
        return self.context.assign(self, value, APPLICATION)

    def set_propagated(self, value: Any, constraint: Any,
                       dependency_record: Any = None) -> None:
        """Assignment by a constraint during propagation.

        Raises :class:`~repro.core.violations.PropagationViolation` when the
        value conflicts with the variable's current state; silently stops
        the wavefront when the value agrees (section 4.2.2).
        """
        justification = PropagatedJustification(constraint, dependency_record)
        self.context.propagated_assignment(self, value, constraint, justification)

    def can_be_set_to(self, value: Any) -> bool:
        """Would this value propagate without violation?  (Fig. 8.2)

        Tentatively assigns, propagates, restores, and reports.  Used by
        module selection to test candidate realizations.
        """
        return self.context.probe(self, value)

    def reset(self) -> None:
        """Erase the value (reset to None) without propagation.

        Used by dependency-directed erasure when constraints are removed
        (section 4.2.5) and by update-constraints (section 6.5.1).
        """
        self._store(None, None)

    # -- propagation hooks ----------------------------------------------------

    def values_equal(self, a: Any, b: Any) -> bool:
        """Equality used by the agreeing-value termination criterion."""
        return a == b

    def classify_propagated(self, value: Any, constraint: Any) -> str:
        """Decide the fate of a propagated value: apply / ignore / violate.

        The default rule (section 4.2.4): an agreeing value is ignored; a
        disagreeing value overwrites unless the current value is
        user-specified.  Subclasses redefine this to recognise different
        constraint strengths or type-abstraction orders (section 7.1).
        """
        if self.values_equal(self._value, value):
            return "ignore"
        if self._value is not None and not may_overwrite(self._last_set_by):
            return "violate"
        return "apply"

    # -- constraint links -------------------------------------------------------

    def all_constraints(self) -> List[Any]:
        """Explicit plus implicit constraints to activate on change."""
        implicit = self.implicit_constraints()
        if implicit:
            return self.constraints + list(implicit)
        return self.constraints

    def implicit_constraints(self) -> Sequence[Any]:
        """Hard-coded constraints embedded in the variable (section 5.1.1).

        The base variable has none; hierarchical dual variables return
        their counterpart variables, which respond to the constraint
        protocol themselves.
        """
        return ()

    def add_constraint(self, constraint: Any) -> None:
        """Low-level link; use ``Constraint.attach``/``add_argument`` to edit
        networks with re-propagation.  The universal choke point for
        constraint links, so it notifies the context's structural hook
        (advancing the topology epoch, which invalidates cached
        propagation plans)."""
        if constraint not in self.constraints:
            self.constraints.append(constraint)
            self.context.note_structure_link(self, constraint)

    def remove_constraint(self, constraint: Any) -> None:
        """Low-level unlink (no dependency erasure)."""
        try:
            self.constraints.remove(constraint)
        except ValueError:
            return
        self.context.note_structure_unlink(self, constraint)

    # -- dependency analysis ------------------------------------------------------

    def antecedents(self) -> Set[Any]:
        """All variables and constraints this value depends on (Fig. 4.11)."""
        return dependency.antecedents(self)

    def consequences(self) -> Set[Any]:
        """All variables depending on this value (Fig. 4.12)."""
        return dependency.consequences(self)

    def variable_consequences(self) -> Set["Variable"]:
        """Only the variable consequences (used by constraint removal)."""
        return dependency.variable_consequences(self)

"""Implicit constraint variables — the hierarchy links (section 5.1).

STEM's dual declaration of instance variables (one variable on the cell
*class* holding the cell's characteristic, one on each cell *instance*
holding the value in that instance's context) is what joins otherwise
isolated per-cell constraint networks into a hierarchy.  The link is an
*implicit constraint*: a procedural, "hard coded" constraint embedded in
the variables themselves.

* an :class:`InstanceInstVar` is an implicit constraint on its
  corresponding :class:`ClassInstVar`;
* a :class:`ClassInstVar` is an implicit constraint on *all* of its
  corresponding instance variables.

These variable-constraints play both roles: they are descendants of
:class:`~repro.core.variable.Variable` *and* they respond to the
constraint protocol (``propagate_variable``, ``propagate_scheduled``,
``is_satisfied``...).  When one of the pair changes, the other is
scheduled on the lowest-priority ``implicit_constraints`` agenda, so each
level of the design hierarchy settles before propagation crosses levels
(section 5.1.2).

Default propagation directions follow the thesis:

* class property values propagate *down* to instances (possibly adjusted
  for local context); instance values never propagate up to the class;
* both directions are *checked*: an instance value must be consistent
  with its class characteristic, and a new class characteristic must be
  consistent with every existing instance value.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..core.agenda import IMPLICIT
from ..core.justification import is_user
from ..core.variable import Variable


class ImplicitConstraintVariable(Variable):
    """A variable that doubles as a constraint on its dual variable(s)."""

    # ------ the constraint half of the protocol --------------------------------

    @property
    def arguments(self) -> List[Any]:
        """Self plus duals, for dependency analysis and editor display."""
        return [self] + list(self.dual_variables())

    def dual_variables(self) -> Sequence["ImplicitConstraintVariable"]:
        """The counterpart variable(s) this one implicitly constrains."""
        return ()

    def implicit_constraints(self) -> Sequence["ImplicitConstraintVariable"]:
        """When *this* variable changes, its duals react as constraints."""
        return self.dual_variables()

    def permits_changes_by_implicit_propagation(self) -> bool:
        """Gate for scheduling (Fig. 5.3); default True."""
        return True

    def propagate_variable(self, variable: Any) -> None:
        """React (as a constraint) to a change of a dual variable."""
        if self.permits_changes_by_implicit_propagation():
            observer = self.context.observer
            if observer is not None:
                observer.cross_level("scheduled")
            self.context.schedule(self, variable, agenda=IMPLICIT)

    def propagate_scheduled(self, variable: Any) -> None:
        observer = self.context.observer
        if observer is None:
            self.immediate_inference_by_changing(variable)
        else:
            # A hierarchy crossing: one level's settled value entering
            # another level's network (section 5.1.2), spanned so the
            # Chrome trace shows where rounds cross cell boundaries.
            with observer.hierarchy_span(self, variable):
                self.immediate_inference_by_changing(variable)

    def immediate_inference_by_changing(self, variable: Any) -> None:
        """Implicit inference; subclasses define direction-specific moves."""

    def is_satisfied(self) -> bool:
        return True

    def test_membership_of(self, variable: Any, dependency_record: Any) -> bool:
        return dependency_record is variable or dependency_record is None


class ClassInstVar(ImplicitConstraintVariable):
    """A cell-class variable: a characteristic of the cell's internals.

    Holds the generic information of the dual declaration — a parameter's
    permitted range, a property's nominal value, a signal's typing.  Its
    duals are the corresponding variables of every instance of the cell.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._instance_vars: List["InstanceInstVar"] = []

    @property
    def cell_class(self) -> Any:
        return self.parent

    def dual_variables(self) -> Sequence["InstanceInstVar"]:
        return tuple(self._instance_vars)

    def register_instance_var(self, instance_var: "InstanceInstVar") -> None:
        if instance_var not in self._instance_vars:
            self._instance_vars.append(instance_var)
            instance_var._class_var = self
            # Implicit topology changed without a Variable.add_constraint
            # link: notify the structural hook explicitly so cached
            # propagation plans are invalidated.
            self.context.note_structure_link(instance_var, self)

    def unregister_instance_var(self, instance_var: "InstanceInstVar") -> None:
        if instance_var in self._instance_vars:
            self._instance_vars.remove(instance_var)
            instance_var._class_var = None
            self.context.note_structure_unlink(instance_var, self)

    # constraint half — reacting to a changed *instance* variable:
    # there is no instance-to-class propagation, only checking.
    def immediate_inference_by_changing(self, variable: Any) -> None:
        return None

    def is_satisfied(self) -> bool:
        """The class characteristic must admit every instance's value."""
        return all(instance_var.consistent_with_class()
                   for instance_var in self._instance_vars)


class InstanceInstVar(ImplicitConstraintVariable):
    """A cell-instance variable: the value in one use of the cell.

    Its single dual is the class variable.  The default downward
    behaviour adopts the (possibly adjusted) class value unless the
    instance value was specified by the user; subclasses such as
    parameters suppress downward propagation entirely.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._class_var: Optional[ClassInstVar] = None

    @property
    def class_var(self) -> Optional[ClassInstVar]:
        return self._class_var

    @property
    def cell_instance(self) -> Any:
        return self.parent

    def dual_variables(self) -> Sequence[ClassInstVar]:
        return (self._class_var,) if self._class_var is not None else ()

    # -- downward propagation -----------------------------------------------

    def adjust_class_value(self, value: Any) -> Any:
        """Adapt a class value to this instance's context.

        Default: identity.  Bounding boxes apply the placement transform;
        delays add RC loading corrections (chapter 7).
        """
        return value

    def immediate_inference_by_changing(self, variable: Any) -> None:
        """Adopt the class value, adjusted, unless user-overridden (Fig. 7.7)."""
        if variable is not self._class_var or self._class_var is None:
            return
        if self.value is not None and is_user(self.last_set_by):
            return
        class_value = self._class_var.value
        if class_value is None:
            return
        observer = self.context.observer
        if observer is not None:
            observer.cross_level("adopted")
        self.set_propagated(self.adjust_class_value(class_value),
                            constraint=self,
                            dependency_record=self._class_var)

    # -- consistency checking ---------------------------------------------------

    def consistent_with_class(self) -> bool:
        """Is this instance's value consistent with the class characteristic?

        Subclasses implement the thesis's per-kind rules: a parameter value
        must lie in the class range, an instance bounding box must contain
        the transformed class box, etc.  Default: unconstrained.
        """
        return True

    def is_satisfied(self) -> bool:
        return self.consistent_with_class()

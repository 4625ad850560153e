"""Functional constraints — unidirectional mappings scheduled on agendas.

Section 4.2.1: a functional constraint expresses one variable (the
*result*) as a function of the others.  Its propagation direction never
depends on which variable changed, so it defers its inference onto the
``functional_constraints`` agenda via ``context.schedule``, letting every
argument change before the (possibly expensive) computation runs; the
engine's wavefront loop pops the entry once the immediate spread is done.
This suppresses redundant calculation of transient results — measured by
experiment E2.

``UniAdditionConstraint`` and ``UniMaximumConstraint`` are the building
blocks of STEM's delay networks (section 7.3, Fig. 7.12): each delay path
is a sum of instance delays, and a class delay is the maximum over its
paths.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from .agenda import FUNCTIONAL
from .constraint import Constraint


class FunctionalConstraint(Constraint):
    """``result = compute(inputs)`` with agenda-deferred propagation.

    The first constructor argument is the result variable; the rest are
    inputs.  Changes of the result variable itself do not drive the
    constraint (Fig. 4.7's ``permitChangesByVariable:``); the final
    satisfaction sweep still detects a result that disagrees with the
    function of its inputs.
    """

    agenda = FUNCTIONAL

    def __init__(self, result: Any, inputs: Sequence[Any],
                 attach: bool = True) -> None:
        super().__init__(result, *inputs, attach=attach)

    @property
    def result_variable(self) -> Any:
        return self._arguments[0]

    @property
    def inputs(self) -> List[Any]:
        return self._arguments[1:]

    def permits_changes_by(self, variable: Any) -> bool:
        return variable is not self.result_variable

    def compute(self, values: List[Any]) -> Any:
        """The functional mapping; subclasses implement."""
        raise NotImplementedError

    def _input_values(self) -> Optional[List[Any]]:
        """The input values, or None when any is unset.

        Every input is read before the check: a daemon input's ``value``
        recalculates on read, so none may be skipped.
        """
        values = [variable.value for variable in self._arguments[1:]]
        for value in values:
            if value is None:
                return None
        return values

    def immediate_inference_by_changing(self, variable: Any) -> None:
        values = self._input_values()
        if values is None:
            return  # incomplete inputs: nothing to infer yet
        result = self.compute(values)
        # Null dependency record: the result implicitly depends on every
        # input (section 4.2.4).
        self.result_variable.set_propagated(result, self, dependency_record=None)

    def is_satisfied(self) -> bool:
        values = self._input_values()
        result = self.result_variable
        if values is None or result.value is None:
            return True
        return result.values_equal(result.value, self.compute(values))

    def plan_derivation(self, target: Any, changed: Any):
        """Plan-cache certification: recompute the result from live inputs."""
        if target is not self.result_variable:
            return None
        from .plancache import NOT_DERIVED

        inputs = self._arguments[1:]
        compute = self.compute

        def derive() -> Any:
            values = [variable.value for variable in inputs]
            for value in values:
                if value is None:
                    return NOT_DERIVED  # the engine would skip this, too
            return compute(values)

        return derive

    def plan_silence_guard(self):
        """Guard for a traced round where this constraint popped but
        computed nothing: its inputs must *still* be incomplete, else the
        general engine would now produce a result the plan lacks."""
        inputs = self._arguments[1:]

        def silent() -> bool:
            return any(variable.value is None for variable in inputs)

        return silent

    def test_membership_of(self, variable: Any, dependency_record: Any) -> bool:
        # The result depends on every input; nothing depends on the result
        # through this constraint.
        return variable is not self.result_variable


class UniAdditionConstraint(FunctionalConstraint):
    """result = sum(inputs); one delay path's total delay (section 7.3)."""

    def compute(self, values: List[Any]) -> Any:
        total = values[0]
        for value in values[1:]:
            total = total + value
        return total


class UniMaximumConstraint(FunctionalConstraint):
    """result = max(inputs); the longest of several delay paths."""

    def compute(self, values: List[Any]) -> Any:
        return max(values)


class UniMinimumConstraint(FunctionalConstraint):
    """result = min(inputs)."""

    def compute(self, values: List[Any]) -> Any:
        return min(values)


class ScaleOffsetConstraint(FunctionalConstraint):
    """result = scale * input + offset.

    Used e.g. to adjust a nominal class delay for local loading
    (``instance_delay = class_delay + R_out * C_load``, section 7.3).
    """

    def __init__(self, result: Any, source: Any, *, scale: Any = 1,
                 offset: Any = 0, attach: bool = True) -> None:
        self.scale = scale
        self.offset = offset
        super().__init__(result, [source], attach=attach)

    def compute(self, values: List[Any]) -> Any:
        return self.scale * values[0] + self.offset


class FormulaConstraint(FunctionalConstraint):
    """result = fn(*inputs) for an arbitrary callable.

    ``label`` names the formula in editor displays and violation messages.
    """

    def __init__(self, result: Any, inputs: Sequence[Any],
                 fn: Callable[..., Any], label: str = "",
                 attach: bool = True) -> None:
        self.fn = fn
        self.label = label or getattr(fn, "__name__", "fn")
        super().__init__(result, inputs, attach=attach)

    def compute(self, values: List[Any]) -> Any:
        return self.fn(*values)

    def qualified_name(self) -> str:
        names = ", ".join(v.qualified_name() for v in self.inputs)
        return (f"{self.result_variable.qualified_name()} = "
                f"{self.label}({names})")

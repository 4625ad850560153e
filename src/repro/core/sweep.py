"""Vectorized parameter sweeps — whole-network evaluation over N bindings.

A design-space exploration ("what delay does every feasible driver width
give?") asks the same constraint network the same question N times with
different entry values.  Running N propagation rounds pays queue, agenda
and satisfaction-sweep overhead per candidate; this module evaluates the
functional forward closure of the swept variables **once per
constraint** over arrays of N candidate bindings, and derives a
vectorized satisfaction mask from the predicate/equality constraints —
a handful of array evaluations instead of N rounds.

The evaluator is a pure function of the network: nothing is stored, no
round opens, no journal entry is written.  Two execution backends share
one compiled plan:

* ``numpy`` — array kernels over ``float64`` columns;
* ``python`` — a stdlib per-element loop.

The backends are **byte-identical**: both coerce candidates and network
constants to ``float`` and apply the same IEEE-754 operations in the
same association order (the numpy max/min kernels fold with
``np.where(b > a, b, a)``, exactly the scalar fold), and constraints
without a vector kernel (``FormulaConstraint``, custom predicates)
evaluate element-wise on Python floats under either backend.  ``NaN``
candidates are unsupported (comparison semantics diverge between
``max`` and array folds).

Scope: the forward closure may contain functional constraints
(:class:`~repro.core.functional.FunctionalConstraint`), equality
aliases (:class:`~repro.core.library.EqualityConstraint`), predicates
(:class:`~repro.core.predicates.PredicateConstraint`) and
:class:`~repro.core.library.UpdateConstraint` (a cache eraser — inert
under pure evaluation).  Implicit hierarchy links (stem's dual
variables doubling as constraints) are inert in their checking-only
direction and rejected when a varying *class* characteristic would
adopt procedurally into instances.  Any other constraint type reachable
from the swept variables raises :class:`SweepError`: the general engine
is the only sound evaluator for side-effecting or bidirectional
propagation.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .functional import (
    FormulaConstraint,
    FunctionalConstraint,
    ScaleOffsetConstraint,
    UniAdditionConstraint,
    UniMaximumConstraint,
    UniMinimumConstraint,
)
from .library import EqualityConstraint, UpdateConstraint
from .variable import Variable
from .predicates import (
    LowerBoundConstraint,
    OrderingConstraint,
    PredicateConstraint,
    RangeConstraint,
    UpperBoundConstraint,
)

#: True when the numpy backend is available in this process.  numpy
#: itself is imported by the first numpy-backend run, so processes that
#: never sweep (servers, replay) do not pay for it.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

__all__ = ["HAVE_NUMPY", "SweepError", "SweepPlan", "SweepResult",
           "bfs_partition", "compile_island_sweeps", "compile_sweep",
           "sweep"]


class SweepError(Exception):
    """The network cannot be swept (unsupported constraint, bad input)."""


class SweepResult:
    """Values and satisfaction mask for one executed sweep.

    ``values`` maps every swept and derived variable to its list of N
    Python floats; ``mask`` holds N booleans — candidate *i* satisfies
    every checked constraint iff ``mask[i]`` is True.
    """

    __slots__ = ("values", "mask", "backend")

    def __init__(self, values: Dict[Any, List[float]], mask: List[bool],
                 backend: str) -> None:
        self.values = values
        self.mask = mask
        self.backend = backend

    def __len__(self) -> int:
        return len(self.mask)

    @property
    def satisfied_count(self) -> int:
        return sum(1 for ok in self.mask if ok)

    def as_dict(self) -> Dict[str, List[float]]:
        """Values keyed by qualified variable name (JSON-friendly)."""
        return {variable.qualified_name(): column
                for variable, column in self.values.items()}

    def __repr__(self) -> str:
        return (f"<SweepResult {len(self.mask)} candidate(s), "
                f"{self.satisfied_count} satisfied, {self.backend}>")


# Source descriptors inside a compiled plan: where a value column comes
# from.  ("in", i) = swept input column i; ("slot", i) = computed column
# i; ("const", variable) = the variable's current network value,
# broadcast (resolved at run time, so a sweep always sees fresh
# constants).
_IN = "in"
_SLOT = "slot"
_CONST = "const"


class SweepPlan:
    """A compiled sweep: ordered array ops plus mask checks.

    Build with :func:`compile_sweep`; execute with :meth:`run`.  The
    plan is valid until the network's topology changes (it holds the
    constraint objects directly); constants are re-read per run.
    """

    def __init__(self, inputs: List[Any], ops: List[Tuple[Any, ...]],
                 outputs: List[Tuple[Any, Tuple[Any, ...]]],
                 slot_count: int) -> None:
        self.inputs = inputs
        self._ops = ops
        self._outputs = outputs
        self._slot_count = slot_count

    def __repr__(self) -> str:
        computes = sum(1 for op in self._ops if op[0] == "compute")
        masks = sum(1 for op in self._ops if op[0] == "mask")
        return (f"<SweepPlan {len(self.inputs)} input(s) {computes} "
                f"compute(s) {masks} check(s)>")

    # -- execution ----------------------------------------------------------

    def run(self, candidates: Any, backend: str = "auto") -> SweepResult:
        """Evaluate the plan over N candidate bindings.

        ``candidates`` is one sequence of values for a single swept
        input, or a sequence of per-input columns (same length) for
        several.  ``backend`` is ``"auto"`` (numpy when available),
        ``"numpy"`` or ``"python"``.
        """
        columns = self._normalize(candidates)
        if backend == "auto":
            backend = "numpy" if HAVE_NUMPY else "python"
        if backend == "numpy":
            if not HAVE_NUMPY:
                raise SweepError("numpy backend requested but numpy is "
                                 "not importable")
            return self._run_numpy(columns)
        if backend == "python":
            return self._run_python(columns)
        raise SweepError(f"unknown sweep backend {backend!r}")

    def _normalize(self, candidates: Any) -> List[List[float]]:
        if len(self.inputs) == 1 and candidates \
                and not isinstance(candidates[0], (list, tuple)):
            candidates = [candidates]
        if len(candidates) != len(self.inputs):
            raise SweepError(f"expected {len(self.inputs)} candidate "
                             f"column(s), got {len(candidates)}")
        columns: List[List[float]] = []
        length: Optional[int] = None
        for variable, column in zip(self.inputs, candidates):
            try:
                floats = [float(value) for value in column]
            except (TypeError, ValueError) as error:
                raise SweepError(
                    f"non-numeric candidate for "
                    f"{variable.qualified_name()}: {error}") from None
            if length is None:
                length = len(floats)
            elif len(floats) != length:
                raise SweepError("candidate columns differ in length")
            columns.append(floats)
        return columns

    def _constant(self, variable: Any) -> float:
        value = variable.value
        if value is None:
            raise SweepError(f"swept network input "
                             f"{variable.qualified_name()} has no value")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise SweepError(f"non-numeric network value {value!r} at "
                             f"{variable.qualified_name()}") from None

    # -- numpy backend ------------------------------------------------------

    def _run_numpy(self, columns: List[List[float]]) -> SweepResult:
        import numpy as np
        length = len(columns[0]) if columns else 0
        ins = [np.asarray(column, dtype=np.float64) for column in columns]
        slots: List[Any] = [None] * self._slot_count

        def resolve(source: Tuple[Any, ...]) -> Any:
            kind = source[0]
            if kind is _IN:
                return ins[source[1]]
            if kind is _SLOT:
                return slots[source[1]]
            return self._constant(source[1])  # scalar broadcasts

        mask = np.ones(length, dtype=bool)
        for op in self._ops:
            if op[0] == "compute":
                _, kernel, sources, slot = op
                slots[slot] = self._numpy_kernel(np, kernel, sources,
                                                 resolve, length)
            else:  # "mask"
                _, kernel, sources = op
                mask &= self._numpy_check(np, kernel, sources, resolve,
                                          length)
        values = {variable: self._column(resolve(source), length)
                  for variable, source in self._outputs}
        return SweepResult(values, mask.tolist(), "numpy")

    @staticmethod
    def _column(resolved: Any, length: int) -> List[float]:
        if isinstance(resolved, float):  # broadcast constant
            return [resolved] * length
        return resolved.tolist() if hasattr(resolved, "tolist") \
            else list(resolved)

    def _numpy_kernel(self, np: Any, kernel: Tuple[Any, ...],
                      sources: List[Tuple[Any, ...]], resolve: Any,
                      length: int) -> Any:
        kind = kernel[0]
        arrays = [resolve(source) for source in sources]
        if kind == "sum":
            out = arrays[0]
            for array in arrays[1:]:
                out = out + array
        elif kind == "max":
            out = arrays[0]
            for array in arrays[1:]:
                out = np.where(array > out, array, out)
        elif kind == "min":
            out = arrays[0]
            for array in arrays[1:]:
                out = np.where(array < out, array, out)
        elif kind == "scale":
            _, scale, offset = kernel
            out = scale * arrays[0] + offset
        else:
            # "element": no vector kernel — element-wise scalar
            # evaluation, byte-identical to the python backend by
            # construction.
            compute = kernel[1]
            rows = zip(*(self._column(array, length) for array in arrays))
            out = [float(compute(list(row))) for row in rows]
        out = np.asarray(out, dtype=np.float64)
        if out.ndim == 0:
            out = np.broadcast_to(out, (length,))
        return out

    def _numpy_check(self, np: Any, kernel: Tuple[Any, ...],
                     sources: List[Tuple[Any, ...]], resolve: Any,
                     length: int) -> Any:
        kind = kernel[0]
        arrays = [resolve(source) for source in sources]
        if kind == "eq":
            result = arrays[0] == arrays[1]
        elif kind == "le":
            result = arrays[0] <= kernel[1]
        elif kind == "ge":
            result = arrays[0] >= kernel[1]
        elif kind == "range":
            result = (kernel[1] <= arrays[0]) & (arrays[0] <= kernel[2])
        elif kind == "le2":
            result = arrays[0] <= arrays[1]
        else:  # "holds": element-wise predicate
            holds = kernel[1]
            rows = zip(*(self._column(array, length) for array in arrays))
            result = [bool(holds(list(row))) for row in rows]
        result = np.asarray(result, dtype=bool)
        if result.ndim == 0:
            result = np.broadcast_to(result, (length,))
        return result

    # -- python backend -----------------------------------------------------

    def _run_python(self, columns: List[List[float]]) -> SweepResult:
        length = len(columns[0]) if columns else 0
        slots: List[Any] = [None] * self._slot_count
        consts: Dict[int, float] = {}

        def resolve(source: Tuple[Any, ...]) -> Any:
            kind = source[0]
            if kind is _IN:
                return columns[source[1]]
            if kind is _SLOT:
                return slots[source[1]]
            variable = source[1]
            key = id(variable)
            if key not in consts:
                consts[key] = self._constant(variable)
            return consts[key]

        def column_of(resolved: Any) -> List[float]:
            if isinstance(resolved, float):
                return [resolved] * length
            return resolved

        mask = [True] * length
        for op in self._ops:
            if op[0] == "compute":
                _, kernel, sources, slot = op
                slots[slot] = _python_kernel(kernel, [
                    column_of(resolve(source)) for source in sources],
                    length)
            else:  # "mask"
                _, kernel, sources = op
                checked = _python_check(kernel, [
                    column_of(resolve(source)) for source in sources],
                    length)
                mask = [a and b for a, b in zip(mask, checked)]
        values = {variable: list(column_of(resolve(source)))
                  for variable, source in self._outputs}
        return SweepResult(values, mask, "python")


def _python_kernel(kernel: Tuple[Any, ...], arrays: List[List[float]],
                   length: int) -> List[float]:
    kind = kernel[0]
    if kind == "sum":
        out = list(arrays[0])
        for array in arrays[1:]:
            for i in range(length):
                out[i] = out[i] + array[i]
        return out
    if kind == "max":
        out = list(arrays[0])
        for array in arrays[1:]:
            for i in range(length):
                if array[i] > out[i]:
                    out[i] = array[i]
        return out
    if kind == "min":
        out = list(arrays[0])
        for array in arrays[1:]:
            for i in range(length):
                if array[i] < out[i]:
                    out[i] = array[i]
        return out
    if kind == "scale":
        _, scale, offset = kernel
        return [scale * value + offset for value in arrays[0]]
    compute = kernel[1]  # "element"
    return [float(compute([array[i] for array in arrays]))
            for i in range(length)]


def _python_check(kernel: Tuple[Any, ...], arrays: List[List[float]],
                  length: int) -> List[bool]:
    kind = kernel[0]
    if kind == "eq":
        return [a == b for a, b in zip(arrays[0], arrays[1])]
    if kind == "le":
        bound = kernel[1]
        return [value <= bound for value in arrays[0]]
    if kind == "ge":
        bound = kernel[1]
        return [value >= bound for value in arrays[0]]
    if kind == "range":
        _, low, high = kernel
        return [low <= value <= high for value in arrays[0]]
    if kind == "le2":
        return [a <= b for a, b in zip(arrays[0], arrays[1])]
    holds = kernel[1]  # "holds"
    return [bool(holds([array[i] for array in arrays]))
            for i in range(length)]


# -- compilation ------------------------------------------------------------

def compile_sweep(inputs: Any, *, context: Any = None) -> SweepPlan:
    """Compile the forward closure of the swept variables into a plan.

    ``inputs`` is one :class:`~repro.core.variable.Variable` or a
    sequence of distinct variables.  The closure walks every constraint
    reachable through varying values; functional constraints become
    compute ops in topological order, equality constraints alias their
    arguments, and predicates (plus functional/equality constraints
    whose outputs are already pinned) become mask checks.  ``context``
    is accepted for signature symmetry; the variables carry it.
    """
    if hasattr(inputs, "all_constraints"):
        inputs = [inputs]
    swept: List[Any] = []
    for variable in inputs:
        if any(existing is variable for existing in swept):
            raise SweepError(f"duplicate swept input "
                             f"{variable.qualified_name()}")
        swept.append(variable)
    if not swept:
        raise SweepError("a sweep needs at least one swept variable")

    # Phase 1: the varying set — every variable whose value depends on a
    # swept input, to fixpoint (equality aliases make whole groups vary).
    varying: Dict[int, Any] = {id(variable): variable
                               for variable in swept}
    constraints: List[Any] = []
    seen: set = set()

    def collect(variable: Any) -> None:
        for constraint in variable.all_constraints():
            key = id(constraint)
            if key not in seen:
                seen.add(key)
                constraints.append(constraint)

    for variable in swept:
        collect(variable)
    changed = True
    while changed:
        changed = False
        for constraint in list(constraints):
            if isinstance(constraint, FunctionalConstraint):
                result = constraint.result_variable
                if id(result) not in varying and any(
                        id(argument) in varying
                        for argument in constraint.inputs):
                    varying[id(result)] = result
                    collect(result)
                    changed = True
            elif isinstance(constraint, EqualityConstraint):
                arguments = constraint.arguments
                if any(id(argument) in varying for argument in arguments):
                    for argument in arguments:
                        if id(argument) not in varying:
                            varying[id(argument)] = argument
                            collect(argument)
                            changed = True

    # Phase 2: emit ops in dependency order.
    computed: Dict[int, Tuple[Any, ...]] = {
        id(variable): (_IN, index) for index, variable in enumerate(swept)}
    ops: List[Tuple[Any, ...]] = []
    outputs: List[Tuple[Any, Tuple[Any, ...]]] = [
        (variable, (_IN, index)) for index, variable in enumerate(swept)]
    emitted: set = set()

    def source_of(variable: Any) -> Tuple[Any, ...]:
        source = computed.get(id(variable))
        return source if source is not None else (_CONST, variable)

    progress = True
    while progress:
        progress = False
        for constraint in constraints:
            key = id(constraint)
            if key in emitted:
                continue
            if isinstance(constraint, UpdateConstraint):
                emitted.add(key)  # cache eraser: inert under evaluation
                progress = True
            elif isinstance(constraint, FunctionalConstraint):
                if _emit_functional(constraint, varying, computed, ops,
                                    outputs, source_of):
                    emitted.add(key)
                    progress = True
            elif isinstance(constraint, EqualityConstraint):
                if _emit_equality(constraint, computed, ops, outputs,
                                  source_of):
                    emitted.add(key)
                    progress = True
            elif isinstance(constraint, PredicateConstraint):
                if _emit_predicate(constraint, varying, computed, ops,
                                   source_of):
                    emitted.add(key)
                    progress = True
            elif isinstance(constraint, Variable):
                # An implicit hierarchy link (stem's dual declaration):
                # the counterpart variable doubles as the constraint.
                # Only the class-to-instance direction propagates values
                # — and it is procedural (``adjust_class_value``), so a
                # varying class characteristic has no vector form.  The
                # instance-to-class direction merely checks consistency
                # against a constant characteristic: inert here.
                class_var = getattr(constraint, "class_var", None)
                if class_var is not None and id(class_var) in varying:
                    raise SweepError(
                        f"cannot sweep through the hierarchy link into "
                        f"{constraint.qualified_name()}: class-to-instance "
                        f"adoption is procedural; use propagation rounds")
                emitted.add(key)
                progress = True
            else:
                raise SweepError(
                    f"cannot sweep through "
                    f"{type(constraint).__name__} "
                    f"({constraint.qualified_name()}): no vector "
                    f"evaluation; use propagation rounds")
    remaining = [constraint for constraint in constraints
                 if id(constraint) not in emitted]
    if remaining:
        names = ", ".join(type(constraint).__name__
                          for constraint in remaining)
        raise SweepError(f"cyclic or underdetermined sweep closure: "
                         f"{names}")
    slot_count = sum(1 for op in ops if op[0] == "compute")
    return SweepPlan(swept, ops, outputs, slot_count)


def _compute_kernel(constraint: Any) -> Tuple[Any, ...]:
    """Pick the vector kernel for a functional constraint.

    Exact types only — a subclass overriding ``compute`` must not
    silently inherit its parent's kernel — with the element-wise kernel
    as the general fallback.
    """
    cls = type(constraint)
    if cls is UniAdditionConstraint:
        return ("sum",)
    if cls is UniMaximumConstraint:
        return ("max",)
    if cls is UniMinimumConstraint:
        return ("min",)
    if cls is ScaleOffsetConstraint:
        return ("scale", float(constraint.scale), float(constraint.offset))
    return ("element", constraint.compute)


def _predicate_kernel(constraint: Any) -> Tuple[Any, ...]:
    cls = type(constraint)
    if cls is UpperBoundConstraint:
        return ("le", float(constraint.bound))
    if cls is LowerBoundConstraint:
        return ("ge", float(constraint.bound))
    if cls is RangeConstraint:
        return ("range", float(constraint.low), float(constraint.high))
    if cls is OrderingConstraint:
        return ("le2",)
    return ("holds", constraint.holds_for)


def _emit_functional(constraint: Any, varying: Dict[int, Any],
                     computed: Dict[int, Tuple[Any, ...]],
                     ops: List[Tuple[Any, ...]],
                     outputs: List[Tuple[Any, Tuple[Any, ...]]],
                     source_of: Any) -> bool:
    result = constraint.result_variable
    pending = [argument for argument in constraint.inputs
               if id(argument) in varying and id(argument) not in computed]
    if pending:
        return False  # an input's producer has not been emitted yet
    sources = [source_of(argument) for argument in constraint.inputs]
    kernel = _compute_kernel(constraint)
    if id(result) in computed:
        # The result is pinned by another path (swept, aliased or
        # reconvergent): the engine would check agreement — mask it.
        slot = _next_slot(ops)
        ops.append(("compute", kernel, sources, slot))
        ops.append(("mask", ("eq",), [computed[id(result)], ("slot", slot)]))
        return True
    slot = _next_slot(ops)
    ops.append(("compute", kernel, sources, slot))
    computed[id(result)] = (_SLOT, slot)
    outputs.append((result, (_SLOT, slot)))
    return True


def _next_slot(ops: List[Tuple[Any, ...]]) -> int:
    return sum(1 for op in ops if op[0] == "compute")


def _emit_equality(constraint: Any, computed: Dict[int, Tuple[Any, ...]],
                   ops: List[Tuple[Any, ...]],
                   outputs: List[Tuple[Any, Tuple[Any, ...]]],
                   source_of: Any) -> bool:
    arguments = constraint.arguments
    determined = [argument for argument in arguments
                  if id(argument) in computed]
    if not determined:
        return False  # wait until one side's producer is emitted
    anchor = computed[id(determined[0])]
    for argument in arguments:
        if argument is determined[0]:
            continue
        if id(argument) in computed:
            # Two independently produced sides: values must agree,
            # exactly as the engine's propagation/sweep would demand.
            ops.append(("mask", ("eq",), [anchor, computed[id(argument)]]))
        else:
            computed[id(argument)] = anchor
            outputs.append((argument, anchor))
    return True


def _emit_predicate(constraint: Any, varying: Dict[int, Any],
                    computed: Dict[int, Tuple[Any, ...]],
                    ops: List[Tuple[Any, ...]], source_of: Any) -> bool:
    arguments = constraint.arguments
    for argument in arguments:
        if id(argument) in varying and id(argument) not in computed:
            return False
    sources = [source_of(argument) for argument in arguments]
    ops.append(("mask", _predicate_kernel(constraint), sources))
    return True


def bfs_partition(variables: Any) -> List[List[Any]]:
    """Partition the network around ``variables`` into connected components.

    Walks ``all_constraints``/``arguments`` edges from every given
    variable by breadth-first search and returns the connected
    components ("islands"), each one's variables in first-discovery
    order.  Computed from scratch on every call: nothing is cached, so
    the answer is always exact for the current network.
    """
    seen: Set[int] = set()
    components: List[List[Any]] = []
    for variable in variables:
        if id(variable) in seen:
            continue
        component: List[Any] = []
        frontier = [variable]
        seen.add(id(variable))
        while frontier:
            node = frontier.pop()
            component.append(node)
            for constraint in node.all_constraints():
                for argument in getattr(constraint, "arguments", ()):
                    if id(argument) not in seen:
                        seen.add(id(argument))
                        frontier.append(argument)
        components.append(component)
    return components


def compile_island_sweeps(inputs: Any, *,
                          context: Any = None) -> List[SweepPlan]:
    """Compile one sweep plan per constraint-graph island of the inputs.

    Swept variables in disjoint islands share no constraints, so their
    closures compile — and run — independently; a multi-module
    exploration becomes one small plan per module instead of one fused
    plan whose compile walks every module's closure together.  Inputs
    are grouped by :func:`bfs_partition`; within each group, input
    order is preserved.  Returns the plans in first-input order.
    """
    if hasattr(inputs, "all_constraints"):
        inputs = [inputs]
    swept = list(inputs)
    if not swept:
        raise SweepError("a sweep needs at least one swept variable")
    ctx = context if context is not None else swept[0].context
    groups: Dict[int, List[Any]] = {}
    for index, component in enumerate(bfs_partition(swept)):
        for variable in component:
            groups[id(variable)] = index
    grouped: Dict[int, List[Any]] = {}
    for variable in swept:
        grouped.setdefault(groups[id(variable)], []).append(variable)
    return [compile_sweep(group, context=ctx) for group in grouped.values()]


def sweep(inputs: Any, candidates: Any, *, context: Any = None,
          backend: str = "auto") -> SweepResult:
    """Compile and run a sweep in one call (see :func:`compile_sweep`)."""
    return compile_sweep(inputs, context=context).run(candidates,
                                                      backend=backend)

"""Delay estimation and checking (section 7.3).

Delay constraints incrementally compute worst-case delay estimates
between input and output signals of cells by searching for the longest
paths in *delay networks*.  The delay model is the simple RC model of
Fig. 7.10 (as in CRYSTAL): each declared cell delay is an internal delay,
and an instance's delay adds a transient ``R * C`` term — the output
resistance driving the instance's input net times the total load
capacitance on its output net.  Delays of cascaded components are
additive.

Dual delay variables (Fig. 7.11): a :class:`ClassDelay` per declared
input→output pair of a cell class, and a corresponding
:class:`InstanceDelay` in each instance.  A changed class delay
propagates (adjusted) to every instance delay; instance delays never
propagate up — instead they feed the containing cell's delay network of
:class:`~repro.core.functional.UniAdditionConstraint` (per path) and
:class:`~repro.core.functional.UniMaximumConstraint` (over paths,
Fig. 7.12), whose result *is* the containing cell's class delay.

Delay networks are built on demand by :func:`build_delay_network` —
enumerating all delay paths between a class delay's source and
destination through subcell delays and nets — and discarded whenever the
cell's internal structure changes (consistency before incrementality, as
the thesis chose).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..core.functional import UniAdditionConstraint, UniMaximumConstraint
from ..core.variable import Variable
from ..stem.implicit import ClassInstVar, InstanceInstVar

#: Relative tolerance for delay value comparisons (floats from RC sums).
_REL_TOL = 1e-9


def _close(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is b
    try:
        return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-15)
    except TypeError:
        return a == b


class DelayValueMixin:
    """Float-tolerant equality for delay variables."""

    def values_equal(self, a: Any, b: Any) -> bool:
        return _close(a, b)


class PathDelayVariable(DelayValueMixin, Variable):
    """Hidden variable holding one delay path's total delay."""


class ClassDelay(DelayValueMixin, ClassInstVar):
    """Characteristic delay of a cell class between two io-signals.

    ``source_name``/``dest_name`` identify the pair.  The designer may
    seed the value with an estimate before the cell's internals exist
    (least-commitment); once the internal delay network is built, the
    computed value replaces the estimate.
    """

    def __init__(self, *args: Any, source_name: str = "",
                 dest_name: str = "", **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.source_name = source_name
        self.dest_name = dest_name


class InstanceDelay(DelayValueMixin, InstanceInstVar):
    """One instance's delay for a (source, dest) pair of its class.

    The downward adjustment implements the RC model: the class delay plus
    the driving resistance on the instance's input net times the load
    capacitance on its output net.
    """

    def __init__(self, *args: Any, source_name: str = "",
                 dest_name: str = "", **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.source_name = source_name
        self.dest_name = dest_name

    def loading_penalty(self) -> float:
        """R_out(input net) * C_load(output net) for this instance."""
        instance = self.parent
        input_net = instance.net_on(self.source_name)
        output_net = instance.net_on(self.dest_name)
        resistance = input_net.driving_resistance() if input_net is not None else 0.0
        capacitance = output_net.load_capacitance() if output_net is not None else 0.0
        return resistance * capacitance

    def adjust_class_value(self, value: float) -> float:
        return value + self.loading_penalty()

    def consistent_with_class(self) -> bool:
        """An instance can never be faster than its class characteristic."""
        class_var = self.class_var
        if class_var is None or class_var.value is None or self.value is None:
            return True
        return (self.value > class_var.value
                or _close(self.value, class_var.value))


class DelayPathExplosion(RuntimeError):
    """Path enumeration exceeded the configured ``max_paths`` guard."""


class DelayNetwork:
    """The constraints realizing one cell's delay characteristics.

    Holds, per declared class delay, the path variables, per-path addition
    constraints and the top maximum constraint, so the whole network can
    be erased when the cell's structure changes (section 7.3 end).
    """

    def __init__(self, cell_class: Any) -> None:
        self.cell_class = cell_class
        self.path_variables: Dict[Tuple[str, str], List[Variable]] = {}
        self.constraints: List[Any] = []

    def discard(self) -> None:
        """Remove every constraint of the network (dependency erasure)."""
        for constraint in self.constraints:
            constraint.remove()
        self.constraints.clear()
        self.path_variables.clear()


def enumerate_delay_paths(cell_class: Any, source: str, dest: str, *,
                          cutoff: Optional[int] = None,
                          max_paths: Optional[int] = None
                          ) -> List[List[InstanceDelay]]:
    """All delay paths from io ``source`` to io ``dest`` of a composite cell.

    A path is the sequence of subcell :class:`InstanceDelay` variables it
    traverses.  Only subcell delays *declared* in their cell classes are
    considered (the designer focuses STEM on critical paths, limiting
    combinatorial explosion).  Connectivity flows through nets: a net is
    driven by parent inputs and subcell outputs and feeds parent outputs
    and subcell inputs.

    ``cutoff`` bounds path length (in graph edges) and ``max_paths``
    truncates enumeration — the explicit guards for the combinatorial
    explosion section 7.3 warns about; truncation raises
    :class:`DelayPathExplosion` rather than silently dropping paths (a
    missing path would silently under-estimate the worst case).
    """
    import networkx as nx  # only path enumeration needs it

    graph = nx.MultiDiGraph()
    source_node = ("io", source)
    dest_node = ("io", dest)
    graph.add_node(source_node)
    graph.add_node(dest_node)

    for net in cell_class.nets.values():
        drivers: List[Any] = []
        receivers: List[Any] = []
        for owner, signal_name in net.endpoints:
            if owner is None:
                direction = cell_class.signal(signal_name).direction
                node = ("io", signal_name)
                # Internal side of the parent io: an 'in' io drives the net.
                if direction in ("in", "inout"):
                    drivers.append(node)
                if direction in ("out", "inout"):
                    receivers.append(node)
            else:
                direction = owner.cell_class.signal(signal_name).direction
                node = (owner, signal_name)
                if direction in ("out", "inout"):
                    drivers.append(node)
                if direction in ("in", "inout"):
                    receivers.append(node)
        for driver in drivers:
            for receiver in receivers:
                if driver != receiver:
                    graph.add_edge(driver, receiver, delay_var=None)

    for instance in cell_class.subcells:
        for (src_name, dst_name), delay_var in instance.delays.items():
            graph.add_edge((instance, src_name), (instance, dst_name),
                           delay_var=delay_var)

    if source_node not in graph or dest_node not in graph:
        return []

    paths: List[List[InstanceDelay]] = []
    for edge_path in nx.all_simple_edge_paths(graph, source_node, dest_node,
                                              cutoff=cutoff):
        delay_vars = [graph.edges[edge]["delay_var"] for edge in edge_path]
        delay_vars = [var for var in delay_vars if var is not None]
        if delay_vars:
            if max_paths is not None and len(paths) >= max_paths:
                raise DelayPathExplosion(
                    f"more than {max_paths} delay paths from "
                    f"{source!r} to {dest!r} in {cell_class.name!r}; "
                    f"declare fewer subcell delays or raise max_paths")
            paths.append(delay_vars)
    return paths


def build_delay_network(cell_class: Any, *,
                        cutoff: Optional[int] = None,
                        max_paths: Optional[int] = None) -> DelayNetwork:
    """Construct the Fig. 7.12 constraint network for a composite cell.

    For each declared class delay: every source→dest path becomes a
    :class:`PathDelayVariable` fed by a ``UniAdditionConstraint`` over the
    instance delays along the path, and the class delay variable becomes
    the ``UniMaximumConstraint`` of all path variables.  ``cutoff`` /
    ``max_paths`` pass through to :func:`enumerate_delay_paths`.
    """
    network = DelayNetwork(cell_class)
    for (source, dest), class_delay in cell_class.delays.items():
        paths = enumerate_delay_paths(cell_class, source, dest,
                                      cutoff=cutoff, max_paths=max_paths)
        if not paths:
            continue
        path_vars: List[Variable] = []
        for index, delay_vars in enumerate(paths):
            path_var = PathDelayVariable(
                parent=cell_class,
                name=f"delayPath[{source}->{dest}][{index}]",
                context=cell_class.context)
            addition = UniAdditionConstraint(path_var, delay_vars)
            network.constraints.append(addition)
            path_vars.append(path_var)
        maximum = UniMaximumConstraint(class_delay, path_vars)
        network.constraints.append(maximum)
        network.path_variables[(source, dest)] = path_vars
    return network

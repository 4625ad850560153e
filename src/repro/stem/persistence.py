"""Design persistence — saving and loading the design database.

STEM keeps designs in a central database (section 1.2); this module
provides the equivalent file form: a JSON-able dictionary encoding of
cell libraries, covering interfaces (signals, pins, typing), parameters,
characteristics (bounding boxes, declared delays with their values and
justifications), device specs, internal structure (subcells, placements,
nets, connections) and the inheritance forest.

Derived state is *not* persisted: delay networks are rebuilt on demand
and propagated values re-derive from the externally justified values
(the same consistency argument as section 6.3 — store only essential
data, recalculate views).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..core.engine import PropagationContext
from ..core.justification import (
    APPLICATION,
    DEFAULT,
    ExternalJustification,
    USER,
    is_propagated,
)
from .cell import CellClass, CellInstance
from .geometry import Point, Rect, Transform
from .library import CellLibrary
from .parameters import ParameterRange
from .signals import PinSpec
from .types import S_MODULE_SIGNAL_TYPE


class PersistenceError(ValueError):
    """Malformed persisted design data."""


def _justification_name(justification: Any) -> str:
    if isinstance(justification, ExternalJustification):
        return justification.name
    if is_propagated(justification):
        return "APPLICATION"  # propagated values re-derive; keep the figure
    return "APPLICATION"


def _justification_from(name: str) -> ExternalJustification:
    return ExternalJustification(name)


def _rect_to_list(rect: Optional[Rect]) -> Optional[List[float]]:
    if rect is None:
        return None
    return [rect.origin.x, rect.origin.y, rect.corner.x, rect.corner.y]


def _rect_from_list(data: Optional[List[float]]) -> Optional[Rect]:
    if data is None:
        return None
    return Rect(Point(data[0], data[1]), Point(data[2], data[3]))


def _type_name(signal_type: Any) -> Optional[str]:
    return signal_type.name if signal_type is not None else None


def _type_from_name(name: Optional[str]) -> Any:
    if name is None:
        return None
    return S_MODULE_SIGNAL_TYPE.lookup(name)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_cell(cell: CellClass) -> Dict[str, Any]:
    """Encode one cell class (without its subclass tree)."""
    data: Dict[str, Any] = {
        "name": cell.name,
        "superclass": cell.superclass.name if cell.superclass else None,
        "is_generic": cell.is_generic,
        "documentation": cell.documentation,
        "signals": [_serialize_signal(signal)
                    for signal in cell.signals.values()],
        "parameters": [_serialize_parameter(name, parameter)
                       for name, parameter in cell.parameters.items()],
        "delays": [_serialize_delay(delay)
                   for delay in cell.delays.values()],
        "bounding_box": _serialize_valued(
            _rect_to_list(cell.bounding_box_var.value),
            cell.bounding_box_var.last_set_by),
        "subcells": [_serialize_instance(instance)
                     for instance in cell.subcells],
        "nets": [_serialize_net(net) for net in cell.nets.values()],
    }
    device = getattr(cell, "device", None)
    if device is not None:
        data["device"] = {"kind": device.kind,
                          "terminals": list(device.terminals),
                          "defaults": dict(device.defaults)}
    return data


def _serialize_valued(value: Any, justification: Any) -> Optional[Dict[str, Any]]:
    if value is None:
        return None
    return {"value": value, "justification": _justification_name(justification)}


def _serialize_signal(signal: Any) -> Dict[str, Any]:
    return {
        "name": signal.name,
        "direction": signal.direction,
        "data_type": _type_name(signal.data_type_var.value),
        "electrical_type": _type_name(signal.electrical_type_var.value),
        "bit_width": _serialize_valued(signal.bit_width_var.value,
                                       signal.bit_width_var.last_set_by),
        "output_resistance": signal.output_resistance,
        "load_capacitance": signal.load_capacitance,
        "max_load_capacitance": signal.max_load_capacitance,
        "max_fanout": signal.max_fanout,
        "pins": [{"side": pin.side, "position": pin.position}
                 for pin in signal.pins],
    }


def _serialize_parameter(name: str, parameter: Any) -> Dict[str, Any]:
    range_ = parameter.range
    data: Dict[str, Any] = {
        "name": name,
        "justification": _justification_name(parameter.last_set_by),
    }
    if range_ is not None:
        data.update({"low": range_.low, "high": range_.high,
                     "choices": (list(range_.choices)
                                 if range_.choices is not None else None),
                     "default": range_.default})
    return data


def _serialize_delay(delay: Any) -> Dict[str, Any]:
    return {
        "source": delay.source_name,
        "dest": delay.dest_name,
        "value": _serialize_valued(delay.value, delay.last_set_by),
    }


def _serialize_instance(instance: CellInstance) -> Dict[str, Any]:
    own_box = instance.bounding_box_var.value
    return {
        "name": instance.name,
        "cell": instance.cell_class.name,
        "transform": {"orientation": instance.transform.orientation,
                      "offset": [instance.transform.offset.x,
                                 instance.transform.offset.y]},
        "bounding_box": _serialize_valued(
            _rect_to_list(own_box), instance.bounding_box_var.last_set_by),
        "parameters": {name: parameter.value
                       for name, parameter in instance.parameters.items()
                       if parameter.value is not None},
    }


def _serialize_net(net: Any) -> Dict[str, Any]:
    return {
        "name": net.name,
        "endpoints": [[owner.name if owner is not None else None, signal]
                      for owner, signal in net.endpoints],
    }


def serialize_library(library: CellLibrary) -> Dict[str, Any]:
    """Encode a whole library, cells ordered so dependencies come first."""
    ordered: List[CellClass] = []
    seen: set = set()

    def visit(cell: CellClass) -> None:
        if cell.name in seen:
            return
        seen.add(cell.name)
        if cell.superclass is not None:
            visit(cell.superclass)
        for instance in cell.subcells:
            visit(instance.cell_class)
        ordered.append(cell)

    for cell in library:
        visit(cell)
    return {"name": library.name,
            "cells": [serialize_cell(cell) for cell in ordered]}


def dumps(library: CellLibrary, **kwargs: Any) -> str:
    """JSON text of a library."""
    return json.dumps(serialize_library(library), **kwargs)


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------

def load_library(data: Dict[str, Any],
                 context: Optional[PropagationContext] = None) -> CellLibrary:
    """Rebuild a library from its encoded form.

    Values are restored with propagation disabled (they were consistent
    when saved); constraint networks re-form as structure is rebuilt, so
    later edits are checked as usual.
    """
    library = CellLibrary(data.get("name", "library"), context=context)
    for cell_data in data.get("cells", []):
        _load_cell(library, cell_data)
    return library


def loads(text: str,
          context: Optional[PropagationContext] = None) -> CellLibrary:
    return load_library(json.loads(text), context=context)


def _load_cell(library: CellLibrary, data: Dict[str, Any]) -> CellClass:
    superclass = None
    if data.get("superclass"):
        superclass = library.cell(data["superclass"])
    cell = library.define(data["name"], superclass,
                          is_generic=data.get("is_generic", False),
                          documentation=data.get("documentation", ""))
    context = library.context

    with context.propagation_disabled():
        for signal_data in data.get("signals", []):
            _load_signal(cell, signal_data)
        for parameter_data in data.get("parameters", []):
            name = parameter_data["name"]
            range_ = ParameterRange(
                low=parameter_data.get("low"),
                high=parameter_data.get("high"),
                choices=parameter_data.get("choices"),
                default=parameter_data.get("default"))
            justification = _justification_from(
                parameter_data.get("justification", "APPLICATION"))
            if name in cell.parameters:
                # Inherited parameter: the subclass may have narrowed the
                # range (its own class-parameter variable diverged from
                # the superclass's); restore that divergence or the
                # narrowing is silently lost on reload.
                parameter = cell.parameters[name]
                if parameter.range != range_:
                    parameter._store(range_, justification)
                continue
            parameter = cell.add_parameter(name, range=range_)
            parameter._store(range_, justification)
        for delay_data in data.get("delays", []):
            _load_delay(cell, delay_data)
        box_data = data.get("bounding_box")
        if box_data is not None:
            cell.bounding_box_var._store(
                _rect_from_list(box_data["value"]),
                _justification_from(box_data["justification"]))
        if "device" in data:
            from ..spice.devices import DeviceSpec
            spec = data["device"]
            cell.device = DeviceSpec(spec["kind"], tuple(spec["terminals"]),
                                     dict(spec.get("defaults", {})))

        instances: Dict[str, CellInstance] = {}
        for instance_data in data.get("subcells", []):
            instances[instance_data["name"]] = _load_instance(
                library, cell, instance_data)
        for net_data in data.get("nets", []):
            net = cell.add_net(net_data["name"])
            for owner_name, signal_name in net_data.get("endpoints", []):
                if owner_name is None:
                    net.connect_io(signal_name)
                else:
                    try:
                        owner = instances[owner_name]
                    except KeyError:
                        raise PersistenceError(
                            f"net {net.name!r} references unknown subcell "
                            f"{owner_name!r}") from None
                    net.connect(owner, signal_name)
    return cell


def _load_signal(cell: CellClass, data: Dict[str, Any]) -> None:
    pins = [PinSpec(p["side"], p["position"]) for p in data.get("pins", [])]
    if data["name"] in cell.signals:
        # Inherited signal: restore subclass-specific geometry/electrical
        # attributes (they may have diverged from the superclass) before
        # refreshing the typing values below.
        signal = cell.signal(data["name"])
        signal.direction = data.get("direction", signal.direction)
        signal.pins = pins or signal.pins
        signal.output_resistance = data.get("output_resistance",
                                            signal.output_resistance)
        signal.load_capacitance = data.get("load_capacitance",
                                           signal.load_capacitance)
        signal.max_load_capacitance = data.get("max_load_capacitance",
                                               signal.max_load_capacitance)
        signal.max_fanout = data.get("max_fanout", signal.max_fanout)
    else:
        signal = cell.define_signal(
            data["name"], data.get("direction", "in"),
            output_resistance=data.get("output_resistance", 0.0),
            load_capacitance=data.get("load_capacitance", 0.0),
            max_load_capacitance=data.get("max_load_capacitance"),
            max_fanout=data.get("max_fanout"),
            pins=pins)
    # An unset type carries no justification, as on a freshly defined
    # signal; only a stored type is application-calculated state.
    for variable, key in ((signal.data_type_var, "data_type"),
                          (signal.electrical_type_var, "electrical_type")):
        signal_type = _type_from_name(data.get(key))
        variable._store(signal_type,
                        APPLICATION if signal_type is not None else None)
    width = data.get("bit_width")
    if width is not None:
        signal.bit_width_var._store(
            width["value"], _justification_from(width["justification"]))


def _load_delay(cell: CellClass, data: Dict[str, Any]) -> None:
    key = (data["source"], data["dest"])
    if key in cell.delays:
        delay = cell.delays[key]  # inherited
    else:
        delay = cell.declare_delay(*key)
    value = data.get("value")
    if value is not None:
        delay._store(value["value"],
                     _justification_from(value["justification"]))


def _load_instance(library: CellLibrary, parent: CellClass,
                   data: Dict[str, Any]) -> CellInstance:
    child = library.cell(data["cell"])
    transform_data = data.get("transform", {})
    transform = Transform(
        transform_data.get("orientation", "R0"),
        Point(*transform_data.get("offset", [0, 0])))
    instance = child.instantiate(parent, data["name"], transform)
    box_data = data.get("bounding_box")
    if box_data is not None:
        instance.bounding_box_var._store(
            _rect_from_list(box_data["value"]),
            _justification_from(box_data["justification"]))
    for name, value in data.get("parameters", {}).items():
        instance.parameters[name]._store(value, USER)
    return instance

"""An internal transient circuit simulator standing in for SPICE.

The thesis integrates the real SPICE as an external UNIX process behind a
textual data-stream interface (section 6.4.2).  This reproduction has no
external SPICE, so this module implements the closest synthetic
equivalent that exercises the same code path: a parser for the SPICE-
subset deck the extractor emits, and a fixed-step modified-nodal-analysis
(MNA) transient engine with backward-Euler capacitors and switch-level
MOS devices.  ``run_spice_deck`` consumes the *text* of a deck — so the
file-out → background run → file-in pattern of the thesis is preserved —
and returns waveforms with the measurement helpers SpicePlot needs.

Supported cards::

    R<name> n1 n2 <value>
    C<name> n1 n2 <value>
    M<name> nd ng ns NMOS|PMOS RON=<r> VT=<v>
    V<name> n+ n- DC <value>
    V<name> n+ n- PULSE(<v1> <v2> <td> <tr> <tf> <pw> <per>)
    .TRAN <dt> <tstop>
    .END

Node ``0`` is ground.
"""

from __future__ import annotations

import importlib.util
import math
import re
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # annotations only; analyses import numpy on first use
    import numpy as np

#: True when the numeric analyses (OP, DC, transient) can run.  Deck
#: parsing works on the stdlib; numpy is imported by the first analysis.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def _require_numpy() -> Any:
    """The numpy module, imported on first use by an analysis."""
    try:
        import numpy
    except ImportError:
        raise RuntimeError(
            "SPICE analyses require numpy, which is not importable; "
            "deck parsing and netlist export remain available") from None
    return numpy


_R_OFF = 1e12  # off-state switch resistance


class Pulse:
    """A PULSE(v1 v2 td tr tf pw per) waveform."""

    def __init__(self, v1: float, v2: float, td: float = 0.0,
                 tr: float = 1e-12, tf: float = 1e-12,
                 pw: float = math.inf, per: float = math.inf) -> None:
        self.v1, self.v2 = v1, v2
        self.td, self.tr, self.tf = td, max(tr, 1e-15), max(tf, 1e-15)
        self.pw, self.per = pw, per

    def value_at(self, t: float) -> float:
        if t < self.td:
            return self.v1
        local = t - self.td
        if math.isfinite(self.per) and self.per > 0:
            local = local % self.per
        if local < self.tr:
            return self.v1 + (self.v2 - self.v1) * local / self.tr
        local -= self.tr
        if local < self.pw:
            return self.v2
        local -= self.pw
        if local < self.tf:
            return self.v2 + (self.v1 - self.v2) * local / self.tf
        return self.v1

    def spice_text(self) -> str:
        fields = [self.v1, self.v2, self.td, self.tr, self.tf]
        if math.isfinite(self.pw):
            fields.append(self.pw)
            if math.isfinite(self.per):
                fields.append(self.per)
        return "PULSE(" + " ".join(f"{f:g}" for f in fields) + ")"


class DC:
    """A constant source."""

    def __init__(self, value: float) -> None:
        self.value = value

    def value_at(self, t: float) -> float:
        return self.value

    def spice_text(self) -> str:
        return f"DC {self.value:g}"


class _Element:
    __slots__ = ("name", "kind", "nodes", "value", "params", "waveform")

    def __init__(self, name, kind, nodes, value=None, params=None,
                 waveform=None):
        self.name = name
        self.kind = kind
        self.nodes = nodes
        self.value = value
        self.params = params or {}
        self.waveform = waveform


class SpiceParseError(ValueError):
    """A malformed deck line."""


_PULSE_RE = re.compile(r"PULSE\s*\(([^)]*)\)", re.IGNORECASE)

_SUFFIXES = {"t": 1e12, "g": 1e9, "meg": 1e6, "k": 1e3, "m": 1e-3,
             "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15}


def parse_value(token: str) -> float:
    """A SPICE number, with engineering suffixes (10k, 2.5n, 3meg)."""
    token = token.strip().lower()
    match = re.fullmatch(r"([-+]?[0-9.]+(?:e[-+]?\d+)?)(meg|[tgkmunpf])?"
                         r"[a-z]*", token)
    if not match:
        raise SpiceParseError(f"cannot parse number {token!r}")
    base = float(match.group(1))
    suffix = match.group(2)
    return base * _SUFFIXES.get(suffix, 1.0) if suffix else base


def parse_deck(text: str):
    """Parse a deck into (elements, tran_params)."""
    elements: List[_Element] = []
    tran: Optional[Tuple[float, float]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        upper = line.upper()
        if upper.startswith(".END"):
            break
        if upper.startswith(".TRAN"):
            fields = line.split()
            if len(fields) < 3:
                raise SpiceParseError(f"bad .TRAN line: {line!r}")
            tran = (parse_value(fields[1]), parse_value(fields[2]))
            continue
        if upper.startswith("."):
            continue  # other directives ignored
        elements.append(_parse_card(line))
    if tran is None:
        raise SpiceParseError("deck has no .TRAN directive")
    return elements, tran


def _parse_card(line: str) -> _Element:
    fields = line.split()
    name = fields[0]
    letter = name[0].upper()
    if letter in ("R", "C"):
        if len(fields) != 4:
            raise SpiceParseError(f"bad {letter} card: {line!r}")
        return _Element(name, letter, fields[1:3], parse_value(fields[3]))
    if letter == "M":
        if len(fields) < 5:
            raise SpiceParseError(f"bad M card: {line!r}")
        kind = fields[4].upper()
        if kind not in ("NMOS", "PMOS"):
            raise SpiceParseError(f"unknown MOS model {fields[4]!r}")
        params = {"r_on": 1e3, "v_t": 1.0}
        for assignment in fields[5:]:
            if "=" in assignment:
                key, _, value = assignment.partition("=")
                key = key.strip().lower()
                if key == "ron":
                    params["r_on"] = parse_value(value)
                elif key == "vt":
                    params["v_t"] = parse_value(value)
        return _Element(name, kind, fields[1:4], params=params)
    if letter == "V":
        pulse_match = _PULSE_RE.search(line)
        if pulse_match:
            numbers = [parse_value(tok) for tok in
                       pulse_match.group(1).replace(",", " ").split()]
            waveform = Pulse(*numbers)
        else:
            if len(fields) < 4:
                raise SpiceParseError(f"bad V card: {line!r}")
            value_token = fields[4] if fields[3].upper() == "DC" else fields[3]
            waveform = DC(parse_value(value_token))
        return _Element(name, "V", fields[1:3], waveform=waveform)
    raise SpiceParseError(f"unknown element {name!r}")


class SimulationResult:
    """Transient waveforms plus the measurements SpicePlot offers."""

    def __init__(self, time: np.ndarray,
                 voltages: Dict[str, np.ndarray]) -> None:
        self.time = time
        self.voltages = voltages

    def v(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise KeyError(f"no node {node!r}; have "
                           f"{sorted(self.voltages)}") from None

    def final_value(self, node: str) -> float:
        return float(self.v(node)[-1])

    def crossing_time(self, node: str, level: float, *,
                      rising: Optional[bool] = None,
                      after: float = 0.0) -> Optional[float]:
        """First time the node crosses ``level`` (linear interpolation)."""
        v = self.v(node)
        t = self.time
        for i in range(1, len(t)):
            if t[i] < after:
                continue
            lo, hi = v[i - 1], v[i]
            crosses_up = lo < level <= hi
            crosses_down = lo > level >= hi
            if rising is True and not crosses_up:
                continue
            if rising is False and not crosses_down:
                continue
            if crosses_up or crosses_down:
                if hi == lo:
                    return float(t[i])
                frac = (level - lo) / (hi - lo)
                return float(t[i - 1] + frac * (t[i] - t[i - 1]))
        return None

    def delay_between(self, from_node: str, to_node: str, level: float,
                      *, after: float = 0.0) -> Optional[float]:
        """Point-to-point measurement: Δt of the two nodes' crossings."""
        t_from = self.crossing_time(from_node, level, after=after)
        if t_from is None:
            return None
        t_to = self.crossing_time(to_node, level, after=t_from)
        if t_to is None:
            return None
        return t_to - t_from


def _parse_elements_only(text: str) -> List[_Element]:
    """Parse just the element cards (for non-transient analyses)."""
    elements: List[_Element] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        if line.upper().startswith(".END"):
            break
        if line.startswith("."):
            continue
        elements.append(_parse_card(line))
    return elements


def _solve_static(elements: List[_Element], *, time: float = 0.0,
                  overrides: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Steady-state (operating point) solution: capacitors open.

    ``overrides`` replaces named sources' values for DC sweeps.
    """
    np = _require_numpy()
    overrides = overrides or {}
    node_names = sorted({node for element in elements
                         for node in element.nodes if node != "0"})
    index = {name: i for i, name in enumerate(node_names)}
    n = len(node_names)
    sources = [element for element in elements if element.kind == "V"]
    m = len(sources)
    state = np.zeros(n)

    def v_of(values: np.ndarray, node: str) -> float:
        return 0.0 if node == "0" else values[index[node]]

    for _iteration in range(8):
        G = np.zeros((n + m, n + m))
        rhs = np.zeros(n + m)

        def stamp(a: str, b: str, g: float) -> None:
            if a != "0":
                G[index[a], index[a]] += g
            if b != "0":
                G[index[b], index[b]] += g
            if a != "0" and b != "0":
                G[index[a], index[b]] -= g
                G[index[b], index[a]] -= g

        for element in elements:
            if element.kind == "R":
                stamp(element.nodes[0], element.nodes[1], 1.0 / element.value)
            elif element.kind == "C":
                continue  # open at DC
            elif element.kind in ("NMOS", "PMOS"):
                nd, ng, ns = element.nodes
                v_gs = v_of(state, ng) - v_of(state, ns)
                on = (v_gs > element.params["v_t"]
                      if element.kind == "NMOS"
                      else v_gs < -element.params["v_t"])
                resistance = element.params["r_on"] if on else _R_OFF
                stamp(nd, ns, 1.0 / resistance)
        for k, source in enumerate(sources):
            positive, negative = source.nodes
            row = n + k
            if positive != "0":
                G[index[positive], row] += 1.0
                G[row, index[positive]] += 1.0
            if negative != "0":
                G[index[negative], row] -= 1.0
                G[row, index[negative]] -= 1.0
            if source.name in overrides:
                rhs[row] = overrides[source.name]
            else:
                rhs[row] = source.waveform.value_at(time)
        try:
            solution = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            solution, *_ = np.linalg.lstsq(G, rhs, rcond=None)
        new_state = solution[:n]
        if np.allclose(new_state, state, atol=1e-9):
            state = new_state
            break
        state = new_state
    result = {name: float(state[i]) for name, i in index.items()}
    result["0"] = 0.0
    return result


def run_operating_point(text: str) -> Dict[str, float]:
    """The .OP analysis: DC steady-state node voltages (capacitors open)."""
    return _solve_static(_parse_elements_only(text))


class DCSweepResult:
    """Node voltages as a function of a swept source value."""

    def __init__(self, sweep_values: np.ndarray,
                 voltages: Dict[str, np.ndarray]) -> None:
        self.sweep_values = sweep_values
        self.voltages = voltages

    def v(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise KeyError(f"no node {node!r}; have "
                           f"{sorted(self.voltages)}") from None

    def transfer_crossing(self, node: str, level: float) -> Optional[float]:
        """The swept value at which the node crosses ``level``."""
        v = self.v(node)
        x = self.sweep_values
        for i in range(1, len(x)):
            lo, hi = v[i - 1], v[i]
            if (lo < level <= hi) or (lo > level >= hi):
                if hi == lo:
                    return float(x[i])
                frac = (level - lo) / (hi - lo)
                return float(x[i - 1] + frac * (x[i] - x[i - 1]))
        return None


def run_dc_sweep(text: str, source_name: str,
                 values: Any) -> DCSweepResult:
    """The .DC analysis: sweep one source, record static node voltages."""
    np = _require_numpy()
    elements = _parse_elements_only(text)
    if not any(e.kind == "V" and e.name == source_name for e in elements):
        raise SpiceParseError(f"no source named {source_name!r} in the deck")
    sweep = np.asarray(list(values), dtype=float)
    collected: Dict[str, List[float]] = {}
    for value in sweep:
        solution = _solve_static(elements, overrides={source_name: value})
        for node, voltage in solution.items():
            collected.setdefault(node, []).append(voltage)
    return DCSweepResult(sweep, {node: np.asarray(column)
                                 for node, column in collected.items()})


def run_spice_deck(text: str) -> SimulationResult:
    """Simulate a deck text: the stand-in for the external SPICE run."""
    np = _require_numpy()
    elements, (dt, tstop) = parse_deck(text)

    node_names = sorted({node for element in elements
                         for node in element.nodes if node != "0"})
    index = {name: i for i, name in enumerate(node_names)}
    n = len(node_names)
    sources = [element for element in elements if element.kind == "V"]
    m = len(sources)
    steps = max(2, int(round(tstop / dt)) + 1)
    time = np.linspace(0.0, dt * (steps - 1), steps)

    voltages = np.zeros((steps, n))
    prev = np.zeros(n)

    def v_of(state: np.ndarray, node: str) -> float:
        return 0.0 if node == "0" else state[index[node]]

    for step in range(steps):
        t = time[step]
        state = prev.copy()
        # Fixed-point iteration over switch states within the step.
        for _iteration in range(4):
            G = np.zeros((n + m, n + m))
            rhs = np.zeros(n + m)

            def stamp_conductance(a: str, b: str, g: float) -> None:
                if a != "0":
                    ia = index[a]
                    G[ia, ia] += g
                if b != "0":
                    ib = index[b]
                    G[ib, ib] += g
                if a != "0" and b != "0":
                    G[index[a], index[b]] -= g
                    G[index[b], index[a]] -= g

            def stamp_current(a: str, b: str, i: float) -> None:
                # current i flowing from a to b
                if a != "0":
                    rhs[index[a]] -= i
                if b != "0":
                    rhs[index[b]] += i

            for element in elements:
                if element.kind == "R":
                    stamp_conductance(element.nodes[0], element.nodes[1],
                                      1.0 / element.value)
                elif element.kind == "C":
                    # Backward-Euler companion model; prev starts at zero,
                    # which models a from-rest initial condition.
                    g = element.value / dt
                    stamp_conductance(element.nodes[0], element.nodes[1], g)
                    v_prev = (v_of(prev, element.nodes[0])
                              - v_of(prev, element.nodes[1]))
                    # companion current source enforcing dv/dt
                    stamp_current(element.nodes[1], element.nodes[0],
                                  g * v_prev)
                elif element.kind in ("NMOS", "PMOS"):
                    nd, ng, ns = element.nodes
                    v_gs = v_of(state, ng) - v_of(state, ns)
                    v_t = element.params["v_t"]
                    if element.kind == "NMOS":
                        on = v_gs > v_t
                    else:
                        on = v_gs < -v_t
                    resistance = element.params["r_on"] if on else _R_OFF
                    stamp_conductance(nd, ns, 1.0 / resistance)

            for k, source in enumerate(sources):
                positive, negative = source.nodes
                row = n + k
                if positive != "0":
                    G[index[positive], row] += 1.0
                    G[row, index[positive]] += 1.0
                if negative != "0":
                    G[index[negative], row] -= 1.0
                    G[row, index[negative]] -= 1.0
                rhs[row] = source.waveform.value_at(t)

            try:
                solution = np.linalg.solve(G, rhs)
            except np.linalg.LinAlgError:
                solution, *_ = np.linalg.lstsq(G, rhs, rcond=None)
            new_state = solution[:n]
            if np.allclose(new_state, state, atol=1e-9):
                state = new_state
                break
            state = new_state
        voltages[step] = state
        prev = state

    waveform_map = {name: voltages[:, i] for name, i in index.items()}
    waveform_map["0"] = np.zeros(steps)
    return SimulationResult(time, waveform_map)

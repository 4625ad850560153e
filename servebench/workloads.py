"""The workloads: a design each connection builds, the requests it
then sends, and the oracle's expected answer to every one of them.

A model owns one session.  It keeps its own plain-Python copy of the
design state (no ``repro`` import), generates seeded requests, and for
each request predicts the server's answer: accepted values, derived
values (max and path-delay sums), what-if echoes, which writes a
constraint must reject, and the journal position.  ``build`` creates the
design over the public protocol; ``next_op`` yields the next request;
``expected`` is the state every final fingerprint must hold.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from oracle import Tally


@dataclass
class Op:
    """One request: how to send it and how to check its answer.

    ``check(result, error_kind)`` gets the ``result`` of a success, or
    ``None`` and the error frame's type when the server refused it.
    """

    write: bool
    cmd: str
    send: Callable[[Any], Any]
    check: Callable[[Any, Optional[str]], None]


class Model:
    """Base: one seeded session and its oracle state."""

    def __init__(self, key: str, size: int, tally: Tally) -> None:
        self.rng = random.Random(key)
        self.size = size
        self.tally = tally
        #: Journal position the session must be at (one per journaled op).
        self.position = 0
        self._ops = 0

    def expected(self) -> Dict[str, Any]:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """The oracle state, to put back with ``restore`` when the server
        refuses a request (the random generator goes on)."""
        return {key: copy.copy(value) for key, value in vars(self).items()
                if key not in ("rng", "tally")}

    def restore(self, state: Dict[str, Any]) -> None:
        vars(self).update(state)

    def check_build(self, handle: Any) -> None:
        for address, value in self.expected().items():
            self.tally.equal(f"after build {address}", handle.value(address),
                             value)


class HierCheck(Model):
    """Hierarchical delay checking (thesis ch. 5 and 7).

    Library cells declare an ``a -> z`` delay; ``size`` instances sit
    under ``TOP``; ``v:path`` is the ``sum`` of every instance's delay
    dual, bounded by an ``upper-bound`` spec.  Each write is an
    ``assign-many`` of class-level delays, which the hierarchy carries
    into every instance dual; a seeded one in eight exceeds the spec and
    must come back ``violation`` with the state rolled back.  Every
    write is followed by a read of the path delay.
    """

    CELLS = ("INV", "NAND2", "NOR2", "BUF")
    DELAY = "delay(a->z)"

    def build(self, handle: Any) -> None:
        for cell in self.CELLS:
            handle.define_cell(cell)
            handle.define_signal(cell, "a", "in")
            handle.define_signal(cell, "z", "out")
            handle.declare_delay(cell, "a", "z", estimate=1.0)
        handle.define_cell("TOP")
        kinds = [self.CELLS[k % len(self.CELLS)] for k in range(self.size)]
        self.rng.shuffle(kinds)
        self.kinds = kinds
        for index, kind in enumerate(kinds):
            handle.instantiate("TOP", kind, f"u{index}")
        duals = [f"i:TOP:u{index}:{self.DELAY}" for index in range(self.size)]
        handle.make_var("path")
        handle.add_constraint("sum", ["v:path"] + duals)
        self.bound = 5 * self.size
        handle.add_constraint("upper-bound", ["v:path"],
                              params={"bound": self.bound})
        self.position += 4 * len(self.CELLS) + 1 + self.size + 3
        self.delay = {cell: 1.0 for cell in self.CELLS}
        self.count = {cell: kinds.count(cell) for cell in self.CELLS}
        self._read_next = False
        self.check_build(handle)

    def path(self, delay: Dict[str, Any]) -> Any:
        return sum(self.count[cell] * delay[cell] for cell in self.CELLS)

    def expected(self) -> Dict[str, Any]:
        want: Dict[str, Any] = {f"c:{cell}:{self.DELAY}": self.delay[cell]
                                for cell in self.CELLS}
        for index, kind in enumerate(self.kinds):
            want[f"i:TOP:u{index}:{self.DELAY}"] = self.delay[kind]
        want["v:path"] = self.path(self.delay)
        return want

    def next_op(self) -> Op:
        if self._read_next:
            self._read_next = False
            want = self.path(self.delay)
            return Op(False, "get", lambda h: h.get("v:path"),
                      lambda result, kind: self._check_path(want, result,
                                                            kind))
        self._read_next = True
        cells = self.rng.sample(self.CELLS, self.rng.randint(2, 4))
        values = [self.rng.randint(1, 4) for _ in cells]
        if self.rng.random() < 1 / 8:
            values[self.rng.randrange(len(values))] = 6 * self.size
        trial = dict(self.delay)
        trial.update(zip(cells, values))
        rejected = self.path(trial) > self.bound
        if not rejected:
            self.delay = trial
        self.position += 1  # write-ahead: a rejected batch is journaled too
        entries = [(f"c:{cell}:{self.DELAY}", value)
                   for cell, value in zip(cells, values)]

        def check(result: Any, kind: Optional[str]) -> None:
            self.tally.rejected("assign-many", kind, rejected)
            if not rejected:
                self.tally.entries("assign-many", result.get("entries", []),
                                   [{"var": var, "value": value}
                                    for var, value in entries])

        return Op(True, "assign-many", lambda h: h.assign_many(entries),
                  check)

    def _check_path(self, want: Any, result: Any,
                    kind: Optional[str]) -> None:
        self.tally.rejected("get v:path", kind, False)
        self.tally.equal("get v:path", result.get("value"), want)


class ExploreFleet(Model):
    """Design-space exploration by least commitment.

    ``size`` widths feed an area ``sum`` and ``size`` loads feed a
    critical-load ``maximum``; both carry an ``upper-bound`` spec.  A
    round is eight reads -- six ``what-if`` previews of seeded candidate
    parameter sets and two ``get``s -- then one ``what-if-commit`` of
    the candidate the oracle ranks best (most entries accepted).
    """

    ROUND = ("what-if", "what-if", "get", "what-if", "what-if", "get",
             "what-if", "what-if", "what-if-commit")
    CANDIDATE = 3

    def build(self, handle: Any) -> None:
        n = self.size
        self.widths = [f"w{i}" for i in range(n)]
        self.loads = [f"l{i}" for i in range(n)]
        for name in self.widths:
            handle.make_var(name, 4)
        for name in self.loads:
            handle.make_var(name, 5)
        handle.make_var("area")
        handle.make_var("crit")
        handle.add_constraint("sum", ["v:area"]
                              + [f"v:{name}" for name in self.widths])
        handle.add_constraint("maximum", ["v:crit"]
                              + [f"v:{name}" for name in self.loads])
        self.area_max, self.crit_max = 10 * n + 20, 40
        handle.add_constraint("upper-bound", ["v:area"],
                              params={"bound": self.area_max})
        handle.add_constraint("upper-bound", ["v:crit"],
                              params={"bound": self.crit_max})
        self.position += 2 * n + 2 + 4
        self.v: Dict[str, Any] = {name: 4 for name in self.widths}
        self.v.update({name: 5 for name in self.loads})
        self._previews: List[Tuple[List[Tuple[str, int]], int]] = []
        self.check_build(handle)

    def derived(self, state: Dict[str, Any]) -> Tuple[Any, Any]:
        return (sum(state[name] for name in self.widths),
                max(state[name] for name in self.loads))

    def satisfied(self, state: Dict[str, Any]) -> bool:
        area, crit = self.derived(state)
        return area <= self.area_max and crit <= self.crit_max

    def expected(self) -> Dict[str, Any]:
        want = {f"v:{name}": value for name, value in self.v.items()}
        want["v:area"], want["v:crit"] = self.derived(self.v)
        return want

    def candidate(self) -> List[Tuple[str, int]]:
        names = self.rng.sample(self.widths + self.loads, self.CANDIDATE)
        entries = []
        for index, name in enumerate(names):
            good = index == 0 or self.rng.random() >= 1 / 6
            if name.startswith("w"):
                value = self.rng.randint(1, 10) if good else 50 * self.size
            else:
                value = self.rng.randint(1, 30) if good else 99
            entries.append((name, value))
        return entries

    def apply(self, entries: List[Tuple[str, int]]
              ) -> Tuple[Dict[str, Any], List[bool]]:
        """Entries one by one in a space: a violating one rolls back."""
        state = dict(self.v)
        accepted = []
        for name, value in entries:
            trial = dict(state)
            trial[name] = value
            ok = self.satisfied(trial)
            if ok:
                state = trial
            accepted.append(ok)
        return state, accepted

    def next_op(self) -> Op:
        cmd = self.ROUND[self._ops % len(self.ROUND)]
        self._ops += 1
        if cmd == "get":
            address = self.rng.choice(("v:area", "v:crit"))
            want = self.expected()[address]

            def check_get(result: Any, kind: Optional[str]) -> None:
                self.tally.rejected(f"get {address}", kind, False)
                self.tally.equal(f"get {address}", result.get("value"), want)

            return Op(False, cmd, lambda h: h.get(address), check_get)
        if cmd == "what-if":
            return self._preview()
        return self._commit()

    def _preview(self) -> Op:
        entries = self.candidate()
        state, accepted = self.apply(entries)
        self._previews.append((entries, sum(accepted)))
        # Inside the space each echo is the value right after its entry.
        echo_state = dict(self.v)
        want = []
        for (name, value), ok in zip(entries, accepted):
            if ok:
                echo_state[name] = value
            want.append({"var": f"v:{name}", "accepted": ok,
                         "value": echo_state[name]})
        position = self.position
        rejected = accepted.count(False)
        spec = [(f"v:{name}", value) for name, value in entries]

        def check(result: Any, kind: Optional[str]) -> None:
            self.tally.rejected("what-if", kind, False)
            self.tally.entries("what-if", result.get("entries", []), want)
            self.tally.equal("what-if violations", result.get("violations"),
                             rejected)
            self.tally.equal("what-if position", result.get("position"),
                             position)

        return Op(False, "what-if", lambda h: h.what_if(spec), check)

    def _commit(self) -> Op:
        best = max(range(len(self._previews)),
                   key=lambda index: (self._previews[index][1], -index))
        entries = self._previews[best][0]
        self._previews = []
        state, accepted = self.apply(entries)
        self.v = state
        self.position += 1
        position = self.position
        want = [{"var": f"v:{name}", "accepted": ok, "value": state[name]}
                for (name, _value), ok in zip(entries, accepted)]
        committed = sum(accepted)
        spec = [(f"v:{name}", value) for name, value in entries]

        def check(result: Any, kind: Optional[str]) -> None:
            self.tally.rejected("what-if-commit", kind, False)
            self.tally.entries("what-if-commit", result.get("entries", []),
                               want)
            self.tally.equal("what-if-commit committed",
                             result.get("committed"), committed)
            self.tally.equal("what-if-commit position",
                             result.get("position"), position)

        return Op(True, "what-if-commit", lambda h: h.what_if_commit(spec),
                  check)


@dataclass(frozen=True)
class Workload:
    """A workload's name, server kind and design sizes.  Why each was
    chosen is recorded in ``BENCHMARK.json``."""

    name: str
    kind: str            # "serve" or "fleet"
    model: type
    size: int
    smoke_size: int
    warmup: int          # requests per connection before timing starts


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("hier-check", "serve", HierCheck, 64, 8, 40),
    Workload("explore-fleet", "fleet", ExploreFleet, 8, 4, 90),
)}

"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest -q servebench/test_servebench.py

They check that the oracle rejects wrong answers, that refused requests
are counted rather than fatal, that a tiny run of
every workload emits every named metric with its unit, runs the oracle,
leaves no server process behind and repeats its exact work counters
under the same seed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

import bench  # noqa: E402
import servers  # noqa: E402
from oracle import OracleMismatch, Tally  # noqa: E402
from repro.session.client import ServerError  # noqa: E402
from workloads import WORKLOADS, HierCheck, Workload  # noqa: E402

with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def smoke(workload: str, trace: int, seed: int = 3, cwd: str = CHECKOUT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "servebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    lines = proc.stdout.splitlines()
    assert len(lines) >= 2, proc.stderr
    return json.loads(lines[-2])["servebench"], json.loads(lines[-1])


class TestOracle:
    def test_tally_rejects_a_wrong_value(self):
        tally = Tally()
        tally.equal("same", 3, 3.0)
        with pytest.raises(OracleMismatch):
            tally.equal("differs", 4, 3)
        with pytest.raises(OracleMismatch):
            tally.equal("bool is not a number", True, 1)
        assert tally.checks == 3

    def test_wrong_echo_and_a_false_violation_are_caught(self):
        model = _hier_model()
        op = model.next_op()
        while not op.write or _predicts_violation(op):
            op = model.next_op()
        right = [{"var": f"c:{cell}:{HierCheck.DELAY}",
                  "value": model.delay[cell]} for cell in _batch_cells(op)]
        op.check({"accepted": True, "entries": right}, None)
        wrong = [dict(entry, value=entry["value"] + 1) for entry in right]
        with pytest.raises(OracleMismatch):
            op.check({"accepted": True, "entries": wrong}, None)
        with pytest.raises(OracleMismatch):
            op.check(None, "violation")

    def test_a_missed_violation_is_caught(self):
        model = _hier_model()
        for _ in range(400):
            op = model.next_op()
            if op.write and _predicts_violation(op):
                break
        else:
            pytest.fail("no violating batch in 400 requests")
        with pytest.raises(OracleMismatch):
            op.check({"accepted": True, "entries": []}, None)

    def test_live_run_with_a_wrong_oracle_fails(self, monkeypatch):
        class WrongPath(HierCheck):
            def expected(self):
                want = super().expected()
                want["v:path"] += 1  # deliberately wrong expectation
                return want

        broken = Workload("hier-check", "serve", WrongPath, 8, 8, 20)
        monkeypatch.setitem(bench.WORKLOADS, "hier-check", broken)
        correct, _attempted, _failed, _metrics, detail = bench.run(
            "hier-check", 5, 0.5, False, smoke=True, setups=2)
        assert not correct
        assert any("oracle" in error for error in detail["errors"])
        assert not any(servers.alive(pid)
                       for pid in detail.get("server_pids", []))


class TestFailedRequests:
    """A refused request is counted and the loop goes on, up to
    ``MAX_FAILED``; the model forgets the refused request."""

    class Refusing:
        def __init__(self, model):
            self.model = model
            self.delay = dict(model.delay)
            self.refuse = True

        def assign_many(self, entries):
            if self.refuse:
                raise ServerError({"type": "busy", "message": "try later"})
            trial = dict(self.delay)
            trial.update((var.split(":")[1], value) for var, value in entries)
            if self.model.path(trial) > self.model.bound:
                raise ServerError({"type": "violation", "message": "bound"})
            self.delay = trial
            return {"accepted": True,
                    "entries": [{"var": var, "value": value}
                                for var, value in entries]}

        def get(self, address):
            return {"value": self.model.path(self.model.delay)}

    def connection(self):
        model = _hier_model()
        conn = bench.Connection.__new__(bench.Connection)
        conn.name, conn.model = "s", model
        conn.retries = conn.attempted = conn.failed = conn.untimed_writes = 0
        conn.samples = []
        conn.handle = self.Refusing(model)
        return conn

    def test_refused_requests_are_counted_not_fatal(self):
        conn = self.connection()
        before = conn.model.snapshot()
        conn.run_op()
        assert (conn.attempted, conn.failed, conn.samples) == (1, 1, [])
        assert conn.model.snapshot() == before
        conn.handle.refuse = False
        for _ in range(20):
            conn.run_op()
        assert conn.attempted == 21 and conn.failed == 1
        assert len(conn.samples) == 20

    def test_too_many_refusals_stop_the_run(self):
        conn = self.connection()
        with pytest.raises(bench.RunFailed):
            for _ in range(2 * bench.MAX_FAILED + 2):
                conn.run_op()
        assert conn.failed == bench.MAX_FAILED + 1

    def test_a_refusal_during_warm_up_stops_the_run(self):
        with pytest.raises(bench.RunFailed):
            self.connection().run_op(timed=False)


def _hier_model():
    """A HierCheck model in its after-build state, without a server."""
    model = HierCheck("1:0", 8, Tally())
    model.kinds = list(HierCheck.CELLS) * 2
    model.count = {cell: 2 for cell in HierCheck.CELLS}
    model.delay = {cell: 1.0 for cell in HierCheck.CELLS}
    model.bound = 5 * 8
    model._read_next = False
    return model


def _batch_cells(op):
    """The cells a HierCheck write assigns, read off its request."""
    class Recorder:
        def assign_many(self, entries):
            self.entries = entries

    recorder = Recorder()
    op.send(recorder)
    return [var.split(":")[1] for var, _value in recorder.entries]


def _predicts_violation(op):
    try:
        op.check(None, "violation")
    except OracleMismatch:
        return False
    return True


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_and_repeats_counters(workload):
    runs = []
    for trace in (0, 1, 1):
        proc = smoke(workload, trace)
        assert proc.returncode == 0, proc.stderr
        detail, result = parse(proc)
        section = "per_layer" if trace else "end_to_end"
        want = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: entry["unit"] for name, entry
                in result["metrics"].items()} == want
        assert all(isinstance(entry["value"], (int, float))
                   for entry in result["metrics"].values())
        assert detail["oracle_checks"] > 0
        assert detail["errors"] == []
        assert detail["server_pids"]
        assert not any(servers.alive(pid) for pid in detail["server_pids"])
        runs.append(detail["counters"])
    assert runs[1] == runs[2], "traced counters differ under one seed"
    untraced = {key: value for key, value in runs[0].items()
                if key != "fsyncs"}
    assert untraced == {key: value for key, value in runs[1].items()
                        if key != "fsyncs"}
    assert runs[1]["fsyncs"] > 0


def test_layers_document_every_per_layer_metric():
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)["metrics"]
    assert set(layers) == {metric["name"] for metric in SPEC["per_layer"]}
    workloads = {entry["name"] for entry in SPEC["workloads"]}
    assert workloads == set(WORKLOADS)
    for name, entry in layers.items():
        assert set(entry["on"]) <= workloads, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("hier-check", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

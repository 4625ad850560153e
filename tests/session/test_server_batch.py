"""The assign-many wire command: one round, one rid, exactly-once."""

import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.session.client import ServerError, SessionClient


@pytest.fixture(scope="module")
def server():
    root = tempfile.mkdtemp(prefix="repro-server-batch-")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", root,
         "--fsync", "never"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"unexpected server banner: {line!r}"
    yield match.group(1), int(match.group(2))
    proc.terminate()
    proc.wait(timeout=10)
    shutil.rmtree(root, ignore_errors=True)


def client_of(server):
    host, port = server
    return SessionClient(host, port)


class TestAssignMany:
    def test_batch_applies_and_reports_entries(self, server):
        with client_of(server) as client:
            handle = client.session("batch-basic")
            handle.make_var("x")
            handle.make_var("y")
            result = handle.assign_many([("v:x", 1), ("v:y", 2)])
            assert result["accepted"] is True
            assert result["coalesced"] == 0
            assert [(entry["var"], entry["value"])
                    for entry in result["entries"]] == \
                   [("v:x", 1), ("v:y", 2)]
            assert handle.value("v:x") == 1
            assert handle.value("v:y") == 2

    def test_coalescing_reported_per_batch(self, server):
        with client_of(server) as client:
            handle = client.session("batch-coalesce")
            handle.make_var("x")
            first = handle.assign_many([("v:x", 1), ("v:x", 2)])
            assert first["coalesced"] == 1
            assert handle.value("v:x") == 2
            # The delta is per batch, not the cumulative counter.
            second = handle.assign_many([("v:x", 3)])
            assert second["coalesced"] == 0

    def test_triples_and_default_justification(self, server):
        with client_of(server) as client:
            handle = client.session("batch-just")
            handle.make_var("x")
            handle.make_var("y")
            result = handle.assign_many(
                [{"var": "v:x", "value": 5, "just": "APPLICATION"},
                 ("v:y", 6)])
            justs = {entry["var"]: entry["just"]
                     for entry in result["entries"]}
            # Justification symbols print with their reader prefix.
            assert justs == {"v:x": "#APPLICATION", "v:y": "#USER"}

    def test_violation_rejects_whole_batch_atomically(self, server):
        with client_of(server) as client:
            handle = client.session("batch-viol")
            handle.make_var("x")
            handle.make_var("y")
            handle.add_constraint("upper-bound", ["v:y"],
                                  params={"bound": 10})
            with pytest.raises(ServerError) as info:
                handle.assign_many([("v:x", 1), ("v:y", 50)])
            assert info.value.kind == "violation"
            # Atomic: the accepted first entry rolled back too.
            assert handle.value("v:x") is None
            assert handle.value("v:y") is None

    def test_bad_request_frames(self, server):
        with client_of(server) as client:
            handle = client.session("batch-bad")
            with pytest.raises(ServerError) as info:
                client.call("assign-many", session="batch-bad",
                            entries="not-a-list")
            assert info.value.kind == "bad-request"
            with pytest.raises(ServerError) as info:
                client.call("assign-many", session="batch-bad",
                            entries=[{"value": 1}])
            assert info.value.kind == "bad-request"

    def test_retry_with_same_rid_applies_once(self, server):
        """Exactly-once: a duplicate rid replays the stored response
        instead of running the batch again."""
        with client_of(server) as client:
            handle = client.session("batch-rid")
            handle.make_var("x")
            handle.make_var("y")
            entries = [{"var": "v:x", "value": 7}, {"var": "v:y", "value": 8}]
            rid = f"{client.client_id}:batch-dedup"
            first = client.call("assign-many", session="batch-rid",
                                entries=entries, rid=rid)
            before = client.call("stats", session="batch-rid")
            replay = client.call("assign-many", session="batch-rid",
                                 entries=entries, rid=rid)
            after = client.call("stats", session="batch-rid")
            assert replay == first
            # No second round ran, nothing new hit the journal.
            assert after["stats"]["rounds"] == before["stats"]["rounds"]
            assert after["position"] == before["position"]

    def test_client_retry_budget_rides_one_rid(self, server):
        """The convenience wrapper auto-stamps one rid per call, so a
        retried assign_many can never double-apply."""
        with client_of(server) as client:
            client.retries = 2
            handle = client.session("batch-retry")
            handle.make_var("x")
            result = handle.assign_many([("v:x", 3)])
            assert result["accepted"] is True
            assert handle.value("v:x") == 3


class TestStatsFrame:
    def test_stats_frame_carries_engine_and_plan_counters_only(self, server):
        from repro.core import PropagationStats

        with client_of(server) as client:
            handle = client.session("batch-stats")
            a = handle.make_var("a")
            b = handle.make_var("b")
            handle.assign_many([(a, 1), (b, 2)])
            stats = handle.stats()["stats"]
        assert list(stats) == sorted(stats)
        assert set(stats) == set(PropagationStats.__slots__) | {
            "plan_chain_hits", "plan_deopts", "plan_hits"}

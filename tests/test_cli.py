"""Tests for the command-line front end."""

import io
import json

import pytest

from repro.cli import main
from repro.core import UpperBoundConstraint, reset_default_context
from repro.stem import CellClass, Rect
from repro.stem.library import CellLibrary
from repro.stem.persistence import serialize_library
from repro.spice import resistor


@pytest.fixture
def design_path(tmp_path):
    library = CellLibrary("cli-demo")
    add = library.define("ADD", is_generic=True)
    add.define_signal("x", "in")
    add.define_signal("y", "out")
    add.declare_delay("x", "y", estimate=5.0)
    add.set_bounding_box(Rect.of_extent(10, 10))
    rc = library.define("ADD.RC", add)
    rc.delay_var("x", "y").set(8.0)
    rc.set_bounding_box(Rect.of_extent(10, 10))
    cs = library.define("ADD.CS", add)
    cs.delay_var("x", "y").set(5.0)
    cs.set_bounding_box(Rect.of_extent(22, 10))

    drv = library.define("DRV")
    drv.define_signal("o", "out", output_resistance=1e3,
                      max_load_capacitance=1e-12)
    snk = library.define("SNK")
    snk.define_signal("i", "in", load_capacitance=1e-12)

    top = library.define("TOP")
    top.define_signal("in1", "in")
    top.define_signal("out1", "out")
    top.declare_delay("in1", "out1")
    a = add.instantiate(top, "A1")
    a.bounding_box_var.set(Rect.of_extent(25, 10))  # roomy placement area
    n0 = top.add_net("n0"); n0.connect_io("in1"); n0.connect(a, "x")
    n1 = top.add_net("n1"); n1.connect(a, "y"); n1.connect_io("out1")

    bad = library.define("BAD")
    d = drv.instantiate(bad, "d")
    s1 = snk.instantiate(bad, "s1")
    s2 = snk.instantiate(bad, "s2")
    net = bad.add_net("overloaded")
    net.connect(d, "o"); net.connect(s1, "i"); net.connect(s2, "i")

    rcell = library.register(resistor(1e3, name="R1K",
                                      context=library.context))
    phys = library.define("PHYS")
    phys.define_signal("p", "in")
    phys.define_signal("gnd", "inout")
    r = rcell.instantiate(phys, "Ra")
    pn = phys.add_net("pn"); pn.connect_io("p"); pn.connect(r, "p")
    gn = phys.add_net("gnd"); gn.connect_io("gnd"); gn.connect(r, "n")

    path = tmp_path / "design.json"
    path.write_text(json.dumps(serialize_library(library)))
    reset_default_context()
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfoAndTree:
    def test_info(self, design_path):
        code, text = run(["info", design_path])
        assert code == 0
        assert "cells: 9" in text
        assert "ADD.RC" in text

    def test_tree_shows_hierarchy_and_characteristics(self, design_path):
        code, text = run(["tree", design_path])
        assert code == 0
        assert "ADD (generic)" in text
        assert "  ADD.RC" in text
        assert "x->y=8" in text


class TestErc:
    def test_erc_flags_overload(self, design_path):
        code, text = run(["erc", design_path])
        assert code == 1
        assert "overload" in text

    def test_erc_single_clean_cell(self, design_path):
        code, text = run(["erc", design_path, "--cell", "TOP"])
        assert code == 0
        assert "0 finding(s)" in text


class TestNetlist:
    def test_netlist_extraction(self, design_path):
        code, text = run(["netlist", design_path, "--cell", "PHYS"])
        assert code == 0
        assert "R1 " in text


class TestDelay:
    def test_delay_value(self, design_path):
        code, text = run(["delay", design_path, "--cell", "TOP",
                          "--source", "in1", "--dest", "out1"])
        assert code == 0
        assert "in1->out1: 5" in text

    def test_delay_with_bound(self, design_path):
        code, text = run(["delay", design_path, "--cell", "TOP",
                          "--source", "in1", "--dest", "out1",
                          "--max", "4"])
        assert code == 1
        assert "VIOLATION" in text

    def test_unknown_delay_pair(self, design_path):
        with pytest.raises(SystemExit):
            run(["delay", design_path, "--cell", "TOP",
                 "--source", "out1", "--dest", "in1"])


class TestSelect:
    def test_select_lists_realizations(self, design_path):
        code, text = run(["select", design_path, "--cell", "TOP",
                          "--instance", "A1"])
        assert code == 0
        assert "ADD.RC" in text
        assert "ADD.CS" in text

    def test_select_ranked(self, design_path):
        code, text = run(["select", design_path, "--cell", "TOP",
                          "--instance", "A1", "--rank"])
        assert code == 0
        assert "score=" in text

    def test_unknown_instance(self, design_path):
        with pytest.raises(SystemExit):
            run(["select", design_path, "--cell", "TOP",
                 "--instance", "GHOST"])


class TestSearch:
    def test_search_matches_select_rank(self, design_path):
        ranked_code, ranked = run(["select", design_path, "--cell", "TOP",
                                   "--instance", "A1", "--rank"])
        code, text = run(["search", design_path, "--cell", "TOP",
                          "--instance", "A1"])
        assert (ranked_code, code) == (0, 0)
        assert [line.split()[0] for line in ranked.splitlines() if line] \
            == [line.split()[0] for line in text.splitlines()
                if line and not line.startswith("(")]
        assert "backend='serial'" in text

    def test_search_parallel_workers(self, design_path):
        code, text = run(["search", design_path, "--cell", "TOP",
                          "--instance", "A1", "--workers", "2",
                          "--backend", "thread"])
        assert code == 0
        assert "score=" in text
        assert "backend='thread'" in text

    def test_search_no_prune_same_ranking(self, design_path):
        pruned_code, pruned = run(["search", design_path, "--cell", "TOP",
                                   "--instance", "A1"])
        code, text = run(["search", design_path, "--cell", "TOP",
                          "--instance", "A1", "--no-prune"])
        assert (pruned_code, code) == (0, 0)
        assert [line for line in pruned.splitlines()
                if line.startswith("ADD")] \
            == [line for line in text.splitlines()
                if line.startswith("ADD")]


class TestBrowse:
    def test_browse_panes(self, design_path):
        code, text = run(["browse", design_path, "--cell", "TOP"])
        assert code == 0
        assert "cell TOP" in text
        assert "structure of TOP" in text
        assert "A1: ADD" in text

    def test_browse_unknown_cell_clean_error(self, design_path):
        code, text = run(["browse", design_path, "--cell", "NOPE"])
        assert code == 2


class TestStats:
    def test_stats_is_sorted_and_deterministic(self, design_path):
        code, text = run(["stats", design_path])
        assert code == 0
        lines = [line for line in text.splitlines() if line]
        names = [line.split(":", 1)[0] for line in lines]
        assert names == sorted(names)
        assert any(name == "engine.stats.rounds" for name in names)
        _, rerun = run(["stats", design_path])
        assert rerun == text

    def test_stats_json(self, design_path):
        code, text = run(["stats", design_path, "--json"])
        assert code == 0
        snapshot = json.loads(text)
        assert snapshot["engine.stats.rounds"] >= 1
        assert all(name.startswith("engine.stats.") for name in snapshot)

    def test_stats_includes_plan_counters(self, design_path):
        code, text = run(["stats", design_path, "--json"])
        assert code == 0
        snapshot = json.loads(text)
        assert snapshot["engine.stats.plan_hits"] == 0
        assert snapshot["engine.stats.plan_deopts"] == 0

    def test_stats_reports_engine_and_plan_counters_only(self, design_path):
        from repro.core import PropagationStats

        code, text = run(["stats", design_path, "--json"])
        assert code == 0
        names = {name[len("engine.stats."):] for name in json.loads(text)}
        assert names == set(PropagationStats.__slots__) | {
            "plan_chain_hits", "plan_deopts", "plan_hits"}


class TestIslands:
    @staticmethod
    def bfs_sizes(design_path):
        """Island sizes of the design's constrained variables, computed
        directly with bfs_partition."""
        from repro.core import bfs_partition
        from repro.stem.persistence import load_library

        with open(design_path) as handle:
            library = load_library(json.load(handle),
                                   context=reset_default_context())
        variables = []
        for cell in library:
            if cell.delays and cell.subcells:
                cell.build_delay_network()
            variables.extend(cell.variables.values())
            for instance in cell.subcells:
                variables.extend(instance.variables.values())
            for net in cell.nets.values():
                variables.extend([net.bit_width_var, net.data_type_var,
                                  net.electrical_type_var])
        constrained = [v for v in variables if v.all_constraints()]
        return sorted((len(c) for c in bfs_partition(constrained)),
                      reverse=True)

    def test_islands_text_matches_bfs_partition(self, design_path):
        sizes = self.bfs_sizes(design_path)
        code, text = run(["islands", design_path])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == (f"{len(sizes)} island(s) in 'cli-demo' "
                            f"(largest {sizes[0]})")
        assert lines[1:] == [f"  island {index}: {size} variable(s)"
                             for index, size in enumerate(sizes)]
        _, rerun = run(["islands", design_path])
        assert rerun == text

    def test_islands_json_matches_bfs_partition(self, design_path):
        sizes = self.bfs_sizes(design_path)
        code, text = run(["islands", design_path, "--json", "--members"])
        assert code == 0
        report = json.loads(text)
        assert sorted(report) == ["islands", "largest_island", "members",
                                  "sizes"]
        assert report["sizes"] == sizes
        assert report["islands"] == len(sizes)
        assert report["largest_island"] == sizes[0]
        assert [len(group) for group in report["members"]] == sizes
        for group in report["members"]:
            assert group == sorted(group)
        names = [name for group in report["members"] for name in group]
        assert len(names) == len(set(names))


class TestPlancacheStats:
    def test_plancache_stats_text(self, design_path):
        code, text = run(["plancache-stats", design_path, "--repeat", "6"])
        assert code == 0
        assert "plan cache after 6 pass(es)" in text
        names = [line.strip().split(":", 1)[0]
                 for line in text.splitlines()[1:] if line.strip()]
        assert names == sorted(names)
        assert "hits" in names and "deopts" in names and "misses" in names

    def test_plancache_stats_json(self, design_path):
        code, text = run(["plancache-stats", design_path, "--json"])
        assert code == 0
        snapshot = json.loads(text)
        for key in ("hits", "misses", "deopts", "promotions",
                    "invalidations", "epoch", "keys", "plans"):
            assert key in snapshot
        # the fixture's leaf delays promote and replay; the
        # hierarchy-crossing round is refused (certification), not mis-planned
        assert snapshot["promotions"] >= 1 and snapshot["hits"] >= 1
        _, rerun = run(["plancache-stats", design_path, "--json"])
        assert rerun == text


class TestMetrics:
    def test_metrics_text_report(self, design_path):
        code, text = run(["metrics", design_path])
        assert code == 0
        assert "engine.inference_runs:" in text
        assert "engine.round_latency_us: count=" in text

    def test_metrics_json_snapshot(self, design_path):
        code, text = run(["metrics", design_path, "--json"])
        assert code == 0
        snapshot = json.loads(text)
        assert snapshot["engine.inference_runs"] >= 1
        assert snapshot["engine.round_latency_us"]["count"] >= 1
        assert "buckets" in snapshot["engine.round_latency_us"]


class TestProfile:
    def test_profile_reports_hot_constraints(self, design_path):
        code, text = run(["profile", design_path, "--top", "3"])
        assert code == 0
        assert "hottest constraints" in text
        assert "cum µs" in text

    def test_profile_writes_chrome_trace(self, design_path, tmp_path):
        trace_path = str(tmp_path / "round.trace.json")
        code, text = run(["profile", design_path, "--trace", trace_path])
        assert code == 0
        assert "chrome trace" in text
        with open(trace_path) as handle:
            trace = json.load(handle)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        assert trace["otherData"]["design"] == design_path

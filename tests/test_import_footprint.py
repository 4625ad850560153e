"""Server processes import only the served kernel.

``repro serve``, ``repro fleet-worker`` and the fleet router run the
propagation kernel and the hierarchy; numpy (sweeps, SPICE analyses)
and networkx (delay-path enumeration) load on first use.  Every check
here runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds whatever other tests imported.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from repro.session.client import SessionClient

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
HAVE_NETWORKX = importlib.util.find_spec("networkx") is not None

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

#: Makes ``import numpy`` / ``import networkx`` raise ImportError, as on
#: an interpreter where neither is installed.
BLOCK_OPTIONAL = ('import sys\n'
                  'sys.modules["numpy"] = sys.modules["networkx"] = None\n')

SERVED_STACK = ("repro", "repro.cli", "repro.session.server",
                "repro.fleet.worker", "repro.fleet.router")


def run_fresh(code: str, prelude: str = "") -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_served_stack_loads_no_analysis_code(self, tmp_path):
        result = run_fresh(f"""
            import importlib, json, sys
            for name in {SERVED_STACK!r}:
                importlib.import_module(name)
            watched = ("numpy", "networkx", "repro.checking",
                       "repro.spice", "repro.selection",
                       "repro.consistency")
            after_import = [m for m in watched if m in sys.modules]

            from repro.session import Session
            cells = ("INV", "NAND2", "NOR2", "BUF")
            with Session("footprint", directory={str(tmp_path)!r},
                         fsync="never") as s:
                for cell in cells:
                    s.define_cell(cell)
                    s.define_signal(cell, "a", "in")
                    s.define_signal(cell, "z", "out")
                    s.declare_delay(cell, "a", "z", estimate=1.0)
                s.define_cell("TOP")
                for index in range(16):
                    s.instantiate("TOP", cells[index % 4], f"u{{index}}")
                s.make_variable("path")
                s.add_constraint("sum", ["v:path"] + [
                    f"i:TOP:u{{index}}:delay(a->z)" for index in range(16)])
                s.add_constraint("upper-bound", ["v:path"],
                                 params={{"bound": 80}})
                for step in range(1, 4):
                    s.assign_many([(f"c:{{cell}}:delay(a->z)", float(step))
                                   for cell in cells])
                path = s.get("v:path")[0]
            after_session = [m for m in ("numpy", "networkx")
                             if m in sys.modules]
            print(json.dumps({{"after_import": after_import,
                               "after_session": after_session,
                               "path": path}}))
        """)
        assert result["after_import"] == []
        assert result["after_session"] == []
        assert result["path"] == 48.0


@pytest.mark.slow
class TestServeWithoutOptionalDependencies:
    def test_serve_runs_a_hierarchy_without_numpy_or_networkx(self,
                                                              tmp_path):
        """A server must start and serve on an interpreter that has
        neither numpy nor networkx installed."""
        code = BLOCK_OPTIONAL + textwrap.dedent(f"""
            from repro.cli import main
            sys.exit(main(["serve", "--root", {str(tmp_path)!r},
                           "--port", "0", "--fsync", "never"]))
        """)
        proc = subprocess.Popen([sys.executable, "-c", code], env=ENV,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match, f"unexpected server banner: {line!r}"
            with SessionClient(match.group(1), int(match.group(2))) as client:
                handle = client.session("no-optional-deps")
                for cell in ("INV", "BUF"):
                    handle.define_cell(cell)
                    handle.define_signal(cell, "a", "in")
                    handle.define_signal(cell, "z", "out")
                    handle.declare_delay(cell, "a", "z", estimate=1.0)
                handle.define_cell("TOP")
                for index, cell in enumerate(("INV", "BUF", "INV")):
                    handle.instantiate("TOP", cell, f"u{index}")
                handle.make_var("path")
                handle.add_constraint("sum", ["v:path"] + [
                    f"i:TOP:u{index}:delay(a->z)" for index in range(3)])
                result = handle.assign_many([("c:INV:delay(a->z)", 2.0),
                                             ("c:BUF:delay(a->z)", 3.0)])
                assert result["accepted"] is True
                assert handle.value("v:path") == 7.0
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()


class TestLazyLoadingKeepsResults:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
    def test_first_auto_sweep_uses_numpy_bit_identically(self):
        result = run_fresh("""
            import json, struct, sys
            from repro.core import (EqualityConstraint, PropagationContext,
                                    UniMaximumConstraint,
                                    UpperBoundConstraint, Variable,
                                    compile_sweep)
            loaded_before = "numpy" in sys.modules
            context = PropagationContext()
            v1 = Variable(7, name="V1", context=context)
            v2 = Variable(7, name="V2", context=context)
            v3 = Variable(5, name="V3", context=context)
            v4 = Variable(7, name="V4", context=context)
            EqualityConstraint(v1, v2)
            UniMaximumConstraint(v4, [v2, v3])
            UpperBoundConstraint(v4, 61.875)
            plan = compile_sweep([v1])
            candidates = [value * 0.644 + 0.125 for value in range(101)]

            def packed(result):
                return {variable.name: struct.pack(
                            f"<{len(column)}d", *column).hex()
                        for variable, column in result.values.items()}

            auto = plan.run(candidates, backend="auto")
            python = plan.run(candidates, backend="python")
            print(json.dumps({"loaded_before": loaded_before,
                              "backend": auto.backend,
                              "columns": [packed(auto), packed(python)],
                              "masks": [auto.mask, python.mask]}))
        """)
        assert result["loaded_before"] is False
        assert result["backend"] == "numpy"
        auto_columns, python_columns = result["columns"]
        assert auto_columns == python_columns
        auto_mask, python_mask = result["masks"]
        assert auto_mask == python_mask
        assert True in auto_mask and False in auto_mask

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
    def test_first_operating_point_analysis_runs(self):
        result = run_fresh("""
            import json, sys
            from repro.spice import run_operating_point
            loaded_before = "numpy" in sys.modules
            op = run_operating_point("V1 1 0 DC 10\\nR1 1 2 1k\\n"
                                     "R2 2 0 3k\\n.END")
            print(json.dumps({"loaded_before": loaded_before,
                              "v2": op["2"]}))
        """)
        assert result["loaded_before"] is False
        assert result["v2"] == pytest.approx(7.5)

    @pytest.mark.skipif(not HAVE_NETWORKX, reason="networkx not importable")
    def test_first_delay_path_enumeration_finds_the_same_paths(self):
        result = run_fresh("""
            import json, sys
            from repro.checking.delay import enumerate_delay_paths
            from repro.stem import CellClass
            loaded_before = "networkx" in sys.modules

            stage = CellClass("STAGE")
            stage.define_signal("a", "in")
            stage.define_signal("y", "out")
            stage.declare_delay("a", "y", estimate=10.0)
            top = CellClass("TOP")
            top.define_signal("in1", "in")
            top.define_signal("out1", "out")
            top.declare_delay("in1", "out1")
            s1, s2, s3 = (stage.instantiate(top, name)
                          for name in ("s1", "s2", "s3"))
            nin = top.add_net("nin")
            nin.connect_io("in1"); nin.connect(s1, "a"); nin.connect(s2, "a")
            nmid = top.add_net("nmid")
            nmid.connect(s1, "y"); nmid.connect(s2, "y")
            nmid.connect(s3, "a")
            nout = top.add_net("nout")
            nout.connect(s3, "y"); nout.connect_io("out1")
            owner = {id(instance.delay_var("a", "y")): instance.name
                     for instance in (s1, s2, s3)}
            paths = [[owner[id(var)] for var in path]
                     for path in enumerate_delay_paths(top, "in1", "out1")]
            print(json.dumps({"loaded_before": loaded_before,
                              "paths": paths}))
        """)
        assert result["loaded_before"] is False
        assert result["paths"] == [["s1", "s3"], ["s2", "s3"]]

    def test_without_numpy_sweeps_fall_back_and_analyses_refuse(self):
        result = run_fresh("""
            import json
            from repro.core import PropagationContext, Variable, sweep
            from repro.core.sweep import HAVE_NUMPY, SweepError, compile_sweep
            from repro.spice import simulator

            context = PropagationContext()
            source = Variable(1, name="source", context=context)
            plan = compile_sweep([source])
            try:
                plan.run([1.0], backend="numpy")
                sweep_error = None
            except SweepError as error:
                sweep_error = str(error)
            try:
                simulator.run_operating_point("V1 1 0 DC 1\\nR1 1 0 1k\\n.END")
                spice_error = None
            except RuntimeError as error:
                spice_error = str(error)
            print(json.dumps({
                "have_numpy": [HAVE_NUMPY, simulator.HAVE_NUMPY],
                "auto_backend": plan.run([1.0]).backend,
                "sweep_error": sweep_error,
                "spice_error": spice_error}))
        """, prelude=BLOCK_OPTIONAL)
        assert result["have_numpy"] == [False, False]
        assert result["auto_backend"] == "python"
        assert "numpy" in result["sweep_error"]
        assert "numpy" in result["spice_error"]

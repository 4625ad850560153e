"""Documentation consistency checks."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiReference:
    def test_api_doc_is_current(self):
        """docs/api.md must match the live public surface.

        Regenerate with `python tools/gen_api_docs.py` when this fails.
        """
        generator = load_generator()
        expected = generator.render() + "\n"
        actual = (REPO / "docs" / "api.md").read_text()
        assert actual == expected

    def test_every_package_documented(self):
        text = (REPO / "docs" / "api.md").read_text()
        for package in ("repro.core", "repro.stem", "repro.spice",
                        "repro.checking", "repro.selection",
                        "repro.spaces", "repro.consistency", "repro.obs",
                        "repro.session", "repro.fleet", "repro.cli"):
            assert f"## `{package}`" in text


class TestApiSummaries:
    def test_constants_do_not_borrow_their_types_docstring(self):
        generator = load_generator()
        for value in (object(), 3, "name", {"a": 1}, (1, 2), True):
            assert generator.first_line(value) == "", value

    def test_classes_do_not_inherit_a_base_docstring(self):
        generator = load_generator()

        class Base:
            """Base summary."""

        class Child(Base):
            pass

        assert generator.first_line(Base) == "Base summary"
        assert generator.first_line(Child) == ""

    def test_module_without_all_lists_only_its_own_names(self):
        generator = load_generator()
        names = {name for name, _kind, _summary
                 in generator.entries_for("repro.cli")}
        assert "main" in names and "cmd_serve" in names
        assert not names & {"Any", "Iterator", "List", "Optional",
                            "annotations", "reset_default_context"}


class TestExperimentRegeneration:
    def test_all_deterministic_experiment_checks_hold(self):
        """tools/run_experiments.py reproduces every counted claim."""
        spec = importlib.util.spec_from_file_location(
            "run_experiments", REPO / "tools" / "run_experiments.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        report = module.run()
        failing = [row for row in report.rows if not row[3]]
        assert not failing, report.render()


class TestReadmeExamplesExist:
    def test_readme_example_paths_exist(self):
        readme = (REPO / "README.md").read_text()
        for line in readme.splitlines():
            if line.startswith("| `examples/"):
                path = line.split("`")[1]
                assert (REPO / path).exists(), f"README names missing {path}"

    def test_all_examples_in_readme(self):
        readme = (REPO / "README.md").read_text()
        for script in sorted((REPO / "examples").glob("*.py")):
            assert f"examples/{script.name}" in readme, \
                f"{script.name} missing from README examples table"

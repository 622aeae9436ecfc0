"""The package loads each layer on first use; its public names stay what they were."""

import importlib
import json

import pytest
from click.testing import CliRunner

import pml
from pml.cli import main
from conftest import run_python

LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('pml.'))))"


def loaded_after(command: list[str]) -> list[str]:
    """The ``pml.*`` modules a fresh interpreter holds after one CLI command."""
    code = (
        "import contextlib, io, json, sys, pml.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    pml.cli.main.main({command!r}, standalone_mode=False)\n" + LOADED
    )
    return json.loads(run_python(code))


def test_importing_pml_loads_no_submodule():
    assert json.loads(run_python("import json, sys, pml\n" + LOADED)) == []


@pytest.mark.parametrize("command, text", [
    ("estimate", '{"pairs": [[6, 1], [5, 2], [3, 2], [2, 7], [1, 4]]}'),
    ("estimate", '{"d": 2, "entries": [[[2, 1], 1], [[1, 0], 2], [[0, 2], 1]]}'),
])
def test_an_estimate_never_loads_the_oracles(tmp_path, command, text):
    path = tmp_path / "profile.json"
    path.write_text(text)
    loaded = loaded_after([command, str(path), "--property", "support"])
    assert "pml.pipeline" in loaded
    assert "pml.exact" not in loaded


def test_profile_loads_no_solver(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("a\nb\na\n")
    loaded = loaded_after(["profile", str(path)])
    for module in ("solver", "exact", "assignment", "rounding", "combinatorics"):
        assert f"pml.{module}" not in loaded


def test_every_public_name_is_its_defining_submodules_object():
    for name in pml.__all__:
        value = getattr(pml, name)
        module = importlib.import_module(f"pml.{pml._EXPORTS[name]}")
        assert value.__module__ == module.__name__, name
        assert value is getattr(module, name), name


def test_dir_and_star_import_see_every_public_name():
    assert set(pml.__all__) <= set(dir(pml))
    code = "import pml\nnamespace = {}\nexec('from pml import *', namespace)\n" \
           "print(sorted(set(pml.__all__) - set(namespace)))"
    assert run_python(code).strip() == "[]"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pml.no_such_name
    assert not hasattr(pml, "no_such_name")
    assert hasattr(pml, "approximate_pml")


def test_submodules_are_attributes_of_a_fresh_package():
    # bench/spans.py patches functions on several of these.
    names = ["_special", "assignment", "combinatorics", "estimators", "exact", "grids", "multi",
             "pipeline", "profiles", "rounding", "solver"]
    code = (
        "import sys, pml\n"
        f"print(all(getattr(pml, n) is sys.modules['pml.' + n] for n in {names!r}))"
    )
    assert run_python(code).strip() == "True"


def test_the_cli_calls_its_layers_through_module_attributes(tmp_path, monkeypatch):
    # A patch on the pipeline or estimators module reaches the estimate
    # command, as a traced benchmark run relies on.
    calls = []

    def counted(module, attr):
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, **k: calls.append(attr) or original(*a, **k))

    counted(pml.pipeline, "approximate_pml_d")
    counted(pml.estimators, "entropy")
    path = tmp_path / "profile.json"
    path.write_text('{"pairs": [[2, 2], [1, 1]]}')
    result = CliRunner().invoke(main, ["estimate", str(path), "--property", "entropy"])
    assert result.exit_code == 0, result.output
    assert calls == ["approximate_pml_d", "entropy"]

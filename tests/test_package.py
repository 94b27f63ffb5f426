"""Package declarations: every documented module, script entry point,
declared dependency and benchmark-traced layer must exist."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import corrverify

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def project_table() -> dict:
    # tomllib is in the standard library from Python 3.11 on; only the tests
    # that read pyproject.toml skip without it
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]


def test_documented_modules_import():
    names = re.findall(r":mod:`(corrverify\.\w+)`", corrverify.__doc__)
    assert names
    for name in names:
        importlib.import_module(name)


def test_package_root_reexports_nothing():
    # callers import the submodules; a second name at the package root for a
    # submodule's function or class is a second import path to keep in step
    leaked = [name for name, value in vars(corrverify).items()
              if inspect.isfunction(value) or inspect.isclass(value)]
    assert leaked == []


def test_script_entry_points_resolve():
    for script, target in project_table().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script!r} target {target!r} is not callable"


def test_declared_dependencies_import():
    for requirement in project_table()["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        importlib.import_module(name.lower().replace("-", "_"))


def test_benchmark_traced_layers_resolve():
    # perfbench/spans.py times layers by rebinding these names; one that no
    # longer exists would make the traced benchmark fail at install time
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_FUNCTIONS and spans.LAYER_METHODS
    for module, name, _ in spans.LAYER_FUNCTIONS:
        obj = getattr(importlib.import_module(f"corrverify.{module}"), name, None)
        assert callable(obj), f"corrverify.{module}.{name} does not resolve"
    for module, cls, method in spans.LAYER_METHODS:
        owner = getattr(importlib.import_module(f"corrverify.{module}"), cls, None)
        assert callable(getattr(owner, method, None)), f"corrverify.{module}.{cls}.{method} does not resolve"

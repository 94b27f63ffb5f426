"""Package declarations: every documented module, script entry point and
declared dependency must exist."""

import importlib
import re
from pathlib import Path

import pytest

import corrverify

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def project_table() -> dict:
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]


def test_documented_modules_import():
    names = re.findall(r":mod:`(corrverify\.\w+)`", corrverify.__doc__)
    assert names
    for name in names:
        importlib.import_module(name)


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

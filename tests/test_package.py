"""Package declarations: every documented module, script entry point,
declared dependency and benchmark-traced layer must exist."""

import ast
import collections
import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import corrverify

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src" / "corrverify"


def documented_modules() -> list:
    names = re.findall(r":mod:`(corrverify\.\w+)`", corrverify.__doc__)
    assert names
    return names


def dependency_modules() -> set:
    return {re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0).lower().replace("-", "_")
            for requirement in project_table()["dependencies"]}


def project_table() -> dict:
    # tomllib is in the standard library from Python 3.11 on; only the tests
    # that read pyproject.toml skip without it
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]


def test_documented_modules_import():
    for name in documented_modules():
        importlib.import_module(name)


def test_imports_no_undeclared_module():
    # a fresh interpreter, so modules the test run already loaded do not
    # hide any; the startup modules (site hooks preload some) are not counted
    code = (
        "import importlib, json, sys\n"
        "before = set(sys.modules)\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, *documented_modules()],
                         capture_output=True, text=True, check=True).stdout
    loaded = {name.partition(".")[0] for name in json.loads(out)}
    third_party = loaded - set(sys.stdlib_module_names)
    assert third_party - {"corrverify"} - dependency_modules() == set()


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
    for name in dependency_modules():
        importlib.import_module(name)


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


def source_trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def loaded_names(tree: ast.AST, skip: ast.AST = None) -> collections.Counter:
    """Names read in tree, as bare names or attributes, outside skip."""
    names, stack = collections.Counter(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return names


def private_definitions(tree: ast.Module):
    """(name, node) for each top-level _private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in assigned if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_private_names_used_in_source():
    # a private name kept in src/ only for the tests is a second path to keep
    # in step; recursion inside its own definition does not count as a use
    trees = source_trees()
    dead = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            uses = sum(loaded_names(other, skip=node if other is tree else None)[name]
                       for other in trees.values())
            if not uses:
                dead.append(f"{module}:{name}")
    assert dead == []


def test_source_imports_used():
    unused = []
    for module, tree in source_trees().items():
        read = loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if not read[bound]:
                        unused.append(f"{module}:{bound}")
    assert unused == []

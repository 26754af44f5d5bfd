"""Public-API surface checks.

Guards the contract a downstream user relies on: everything exported in
``__all__`` resolves, every public module, class and function carries
a docstring, and every production module is reached from an entry point.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.ahh",
    "repro.isa",
    "repro.machine",
    "repro.vliwcomp",
    "repro.iformat",
    "repro.trace",
    "repro.cache",
    "repro.explore",
    "repro.runtime",
    "repro.workloads",
    "repro.experiments",
    "repro.oracles",
    "repro.service",
    "repro.analytics",
]


def all_modules():
    out = []
    for name in PACKAGES:
        package = importlib.import_module(name)
        out.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":
                continue  # importing it would execute the CLI
            out.append(importlib.import_module(f"{name}.{info.name}"))
    return out


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_entries_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for symbol in getattr(package, "__all__", []):
            assert hasattr(package, symbol), (
                f"{package_name}.__all__ names missing symbol {symbol!r}"
            )

    def test_top_level_convenience_imports(self):
        assert repro.P1111.issue_width == 4
        assert repro.CacheConfig.from_size(1024, 1, 32).sets == 32
        assert callable(repro.load_benchmark)
        assert callable(repro.measure_dilation)


class TestDocstrings:
    def test_every_module_documented(self):
        for module in all_modules():
            assert module.__doc__, f"{module.__name__} lacks a docstring"

    def test_public_classes_and_functions_documented(self):
        missing = []
        for module in all_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not obj.__doc__:
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, f"undocumented public items: {missing}"

    def test_public_methods_documented(self):
        missing = []
        for module in all_modules():
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for name, member in vars(cls).items():
                    if name.startswith("_"):
                        continue
                    if not inspect.isfunction(member):
                        continue
                    if not member.__doc__:
                        missing.append(f"{module.__name__}.{cls_name}.{name}")
        # Tiny accessors may reasonably go untended, but the bulk of the
        # public method surface must be documented.
        assert len(missing) < 25, f"undocumented methods: {missing}"


#: Imports every ``repro`` module except ``repro.oracles`` (and the CLI
#: entry point), then reports whether any of them pulled the oracles in.
_ISOLATION_SCRIPT = """
import importlib, pkgutil, sys
import repro

imported = []

def walk(package):
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        if info.name == "repro.oracles" or info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        imported.append(info.name)
        if info.ispkg:
            walk(module)

walk(repro)
print(len(imported), "repro.oracles" in sys.modules)
"""


class TestOracleIsolation:
    def test_production_modules_never_import_oracles(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _ISOLATION_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert int(out[0]) > 80, out  # the walk really covered the tree
        assert out[1] == "False", "a production module imports repro.oracles"


REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: The modules a user, a service or an experiment starts from.  Every
#: file under ``benchmarks/`` and ``examples/`` is a root too.
ENTRY_MODULES = [
    "repro.cli",
    "repro.service.server",
    "repro.service.worker",
    "repro.service.jobs",
    "repro.service.client",
    "repro.experiments.pipeline",
    "repro.experiments.runner",
]


def _source_modules():
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _runtime_imports(tree):
    """``(module, names)`` for every import that runs, at any depth.

    ``names`` is None for a plain ``import``.  Imports under
    ``if TYPE_CHECKING:`` never run and are skipped.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
            node.test
        ):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, [alias.name for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))


def _import_closure(root_modules, root_files):
    """Modules reached from ``root_modules`` and the scripts ``root_files``.

    A package counts as reached when it or a module in it is imported,
    but its ``__init__`` re-exports are not followed: ``from pkg import
    name`` reaches only the module that defines ``name``.  The walk stops
    at ``repro.oracles``, so code only an oracle imports stays unreached.
    """
    modules = _source_modules()
    trees = {}
    reached = set()

    def tree_of(name):
        if name not in trees:
            trees[name] = ast.parse(modules[name].read_text())
        return trees[name]

    def visit(name):
        if name not in modules or name in reached:
            return
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            reached.add(".".join(parts[:depth]))
        is_package = modules[name].name == "__init__.py"
        if not is_package and not name.startswith("repro.oracles"):
            follow(tree_of(name))

    def visit_name(package, name):
        """Reach what ``from package import name`` binds."""
        if f"{package}.{name}" in modules:
            visit(f"{package}.{name}")
            return
        visit(package)
        if package not in modules or modules[package].name != "__init__.py":
            return
        for node in tree_of(package).body:
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        visit_name(node.module, alias.name)
                        return

    def follow(tree):
        # Modules outside src/repro are not in ``modules``; visits skip them.
        for module, names in _runtime_imports(tree):
            if names is None:
                visit(module)
            else:
                for name in names:
                    visit_name(module, name)

    for name in root_modules:
        visit(name)
    for path in root_files:
        follow(ast.parse(path.read_text()))
    return reached


class TestReachability:
    def test_every_module_is_reached_from_an_entry_point(self):
        scripts = sorted((REPO / "benchmarks").glob("*.py"))
        scripts += sorted((REPO / "examples").glob("*.py"))
        reached = _import_closure(ENTRY_MODULES, scripts)
        unreached = sorted(
            name
            for name in _source_modules()
            if name not in reached
            and name != "repro.__main__"
            and name.split(".")[:2] != ["repro", "oracles"]
        )
        assert not unreached, (
            f"modules no entry point, benchmark or example imports: "
            f"{unreached}"
        )

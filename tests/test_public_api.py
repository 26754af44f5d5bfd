"""Public-API surface checks.

Guards the contract a downstream user relies on: everything exported in
``__all__`` resolves, and every public module, class and function carries
a docstring.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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

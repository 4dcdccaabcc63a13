"""The package runs on its declared dependencies alone.

It declares none: importing every ``repro`` module in a fresh
interpreter must leave numpy, sympy and networkx (the tests' routing
reference) out of ``sys.modules``, whether or not they are installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_IMPORT_ALL = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print(" ".join(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def loaded_after_import_all() -> set[str]:
    """Names in ``sys.modules`` once every ``repro`` module is imported."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    imported, modules = result.stdout.splitlines()
    assert int(imported) > 100
    return set(modules.split())


def test_importing_every_module_leaves_numpy_out(loaded_after_import_all):
    assert "numpy" not in loaded_after_import_all


def test_importing_every_module_leaves_sympy_out(loaded_after_import_all):
    assert "sympy" not in loaded_after_import_all


def test_importing_every_module_leaves_networkx_out(loaded_after_import_all):
    assert "networkx" not in loaded_after_import_all

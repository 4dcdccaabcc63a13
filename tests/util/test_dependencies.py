"""The package runs on its declared dependencies alone.

numpy is not one of them: importing every ``repro`` module in a fresh
interpreter must leave it out of ``sys.modules``, whether or not it is
installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_IMPORT_ALL = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print("numpy" in sys.modules)
"""


def test_importing_every_module_leaves_numpy_out():
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    imported, numpy_loaded = result.stdout.split()
    assert int(imported) > 100
    assert numpy_loaded == "False"

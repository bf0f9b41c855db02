"""Importing the package stays light, and every name it exports exists."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import deltasqueeze

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats, scipy.interpolate and scipy.optimize take most of a second
    # to import, scipy.spatial and scipy.io a few tenths together; the package
    # loads them only inside the functions that use them
    code = ("import sys, deltasqueeze; print(sorted(m for m in "
            "('scipy.stats', 'scipy.interpolate', 'scipy.optimize', 'scipy.spatial', "
            "'scipy.io') if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # a name left in __all__ or in the package's imports after its definition
    # is deleted breaks `from deltasqueeze.<module> import *` or the import
    missing = []
    for info in pkgutil.iter_modules(deltasqueeze.__path__):
        module = importlib.import_module(f"deltasqueeze.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    tree = ast.parse((ROOT / "src" / "deltasqueeze" / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"deltasqueeze.{node.module}")
        missing += [f"{node.module}.{alias.name}" for alias in node.names
                    if not hasattr(module, alias.name) or alias.name not in module.__all__]
    assert missing == []

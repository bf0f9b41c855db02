"""Importing the package stays light."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats, scipy.interpolate and scipy.optimize take most of a second
    # to import; the package loads them only inside the functions that use them
    code = ("import sys, deltasqueeze; print(sorted(m for m in "
            "('scipy.stats', 'scipy.interpolate', 'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"

"""The README's library example runs as printed, and the names it cites exist."""

import importlib
import pathlib
import pkgutil
import re

import deltasqueeze

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    alpha, lam1 = namespace["alpha"], namespace["res"].eigenvalues[0]
    assert -alpha**2 / 4.0 < lam1 < 0.0
    assert capsys.readouterr().out.strip()


def test_readme_module_names_resolve():
    # every backticked `module.NAME` with a package module on the left
    modules = {m.name for m in pkgutil.iter_modules(deltasqueeze.__path__)}
    cited = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
             if mod in modules]
    assert cited
    missing = [f"{mod}.{name}" for mod, name in cited
               if not hasattr(importlib.import_module(f"deltasqueeze.{mod}"), name)]
    assert not missing, f"README cites names that do not exist: {missing}"

"""The README's library example runs as printed."""

import pathlib
import re

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

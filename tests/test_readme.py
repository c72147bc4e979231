"""The README's python examples run as written."""

import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_readme_python_examples_run(monkeypatch, capsys):
    # every python block, in order, in one namespace, from the repo root
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    e = float(capsys.readouterr().out.split()[0])
    assert 0.0 <= e <= 1.0

"""The demo scripts: their tncse imports resolve, and the quick ones (and
demo 03 at two steps a stage) run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def _tncse_imports(path):
    """(module, name) for every ``from tncse... import name`` and (module,
    None) for every ``import tncse...`` in one script."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tncse":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "tncse")


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_tncse_imports_resolve(demo):
    imports = list(_tncse_imports(DEMOS / demo))
    assert imports
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")


QUICK_ARGS = {"01_autodiff_basics.py": [], "02_loss_landscape.py": [],
              "03_train_and_evaluate.py": ["--pretrain-steps", "2", "--train-steps", "2"]}


@pytest.mark.parametrize("demo", list(QUICK_ARGS))
def test_quick_demo_runs(demo, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DEMOS / demo), *QUICK_ARGS[demo]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr

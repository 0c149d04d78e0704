"""Tooling guard: the package needs numpy alone.

No module under ``src/mpdo_kit`` imports scipy, at the top or inside a
function; the searches run on the package's own numpy solver.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"


def scipy_imports(source: str):
    """``(line number, module)`` of every import of scipy or a scipy submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_every_import_form():
    source = (
        "import numpy as np\n"
        "import scipy\n"
        "def f():\n"
        "    from scipy.optimize import least_squares\n"
        "    import scipy.linalg as sl\n"
        "from . import scipy_like\n"
        "from .scipy import x\n"
    )
    assert scipy_imports(source) == [(2, "scipy"), (4, "scipy.optimize"), (5, "scipy.linalg")]

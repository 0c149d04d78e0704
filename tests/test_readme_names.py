"""Tooling guard: every package name README.md quotes still resolves.

A backticked ``module.name`` whose module is one of ``mpdo_kit``'s must
resolve, attribute by attribute, in that module, and a backticked
UPPER_CASE constant must be an attribute of some ``mpdo_kit`` module, so a
rename cannot strand the documentation.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mpdo_kit

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name: importlib.import_module(f"mpdo_kit.{info.name}") for info in pkgutil.iter_modules(mpdo_kit.__path__)}

QUOTED = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
DOTTED = sorted({q for q in QUOTED if re.fullmatch(r"\w+(\.\w+)+", q) and q.split(".")[0] in MODULES})
CONSTANTS = sorted({q for q in QUOTED if re.fullmatch(r"[A-Z][A-Z0-9]*(_[A-Z0-9]+)+", q)})


def test_the_readme_quotes_package_names():
    assert len(DOTTED) >= 18 and len(CONSTANTS) >= 20


@pytest.mark.parametrize("name", DOTTED)
def test_quoted_module_name_resolves(name):
    module, *attrs = name.split(".")
    obj = MODULES[module]
    for attr in attrs:
        obj = getattr(obj, attr)


@pytest.mark.parametrize("name", CONSTANTS)
def test_quoted_constant_is_defined(name):
    assert [m for m in MODULES.values() if hasattr(m, name)]

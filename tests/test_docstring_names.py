"""Tooling guard: every cross-reference in the package's docstrings resolves.

A ``:func:``, ``:class:``, ``:meth:``, ``:data:`` or ``:attr:`` target in
``src/mpdo_kit/*.py``, in a docstring or a ``#:`` comment, must resolve,
attribute by attribute: in its own module, from ``mpdo_kit``, by its full
``mpdo_kit.`` path, or, for a method, in the class whose body names it.  So
a deleted or renamed helper cannot stay cited.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mpdo_kit

ROLE = re.compile(r":(func|class|meth|data|attr):`~?([\w.]+)`")
MODULES = {info.name: importlib.import_module(f"mpdo_kit.{info.name}") for info in pkgutil.iter_modules(mpdo_kit.__path__)}


def _classes(tree):
    """``(first line, last line, name)`` of every top-level class."""
    return [(node.lineno, node.end_lineno, node.name) for node in tree.body if isinstance(node, ast.ClassDef)]


def _references():
    refs = []
    for name, module in sorted(MODULES.items()):
        text = Path(module.__file__).read_text(encoding="utf-8")
        classes = _classes(ast.parse(text))
        for match in ROLE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            owner = next((cls for first, last, cls in classes if first <= line <= last), None)
            refs.append((name, line, match.group(1), match.group(2), owner))
    return refs


REFERENCES = _references()


def _walk(obj, dotted):
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def _resolves(module, role, target, owner) -> bool:
    roots = [MODULES[module], mpdo_kit]
    if role == "meth" and owner is not None:
        roots.append(getattr(MODULES[module], owner))
    if target.startswith("mpdo_kit."):
        roots, target = [mpdo_kit], target.removeprefix("mpdo_kit.")
    for root in roots:
        try:
            _walk(root, target)
        except AttributeError:
            continue
        return True
    return False


def test_the_package_cites_its_names():
    assert len(REFERENCES) >= 60


@pytest.mark.parametrize(
    "module, line, role, target, owner", REFERENCES, ids=[f"{m}:{line}:{t}" for m, line, _, t, _ in REFERENCES]
)
def test_docstring_reference_resolves(module, line, role, target, owner):
    assert _resolves(module, role, target, owner), f"{module}.py:{line} cites :{role}:`{target}`"

"""Tooling guard: the shared tolerances stay named.

A bare ``1e-6``, ``1e-8``, ``1e-10``, ``1e-12`` or ``1e-300`` in the package source, outside a
``NAME = value`` constant line, is a decision made next to the shared
predicates instead of through them.  ``certificates.py`` is exempt: the
independent checker keeps its own copies of the constants on purpose.
"""

import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"
GUARDED = {1e-6, 1e-8, 1e-10, 1e-12, 1e-300}
EXEMPT = {"certificates.py"}
CONSTANT_LINE = re.compile(r"^[A-Z][A-Z0-9_]*\s*=\s*[0-9.eE+-]+\s*(#.*)?$")


def bare_literals(source: str):
    """``(line number, line)`` of every guarded number outside a constant line."""
    lines = source.splitlines()
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.NUMBER or "j" in tok.string.lower():
            continue
        if float(tok.string) in GUARDED and not CONSTANT_LINE.match(lines[tok.start[0] - 1]):
            found.append((tok.start[0], lines[tok.start[0] - 1].strip()))
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name not in EXEMPT), ids=lambda p: p.name
)
def test_no_bare_tolerance_literals(path):
    assert bare_literals(path.read_text(encoding="utf-8")) == []


def test_guard_flags_a_bare_literal_and_spares_constants():
    source = 'TOL = 1e-10\nDOC = "1e-10 in a string"\nx = y > 1.0e-10 * z  # 1e-12\n'
    assert bare_literals(source) == [(3, "x = y > 1.0e-10 * z  # 1e-12")]

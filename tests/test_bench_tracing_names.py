"""Tooling guard: every package name the benchmark's tracer binds still resolves.

``bench/run.py --trace 1`` wraps the functions that ``bench/tracing.py``
names.  Its source is read and run here (never imported, so nothing is
written under ``bench/``), and each name must resolve to a callable in
``mpdo_kit``.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names() -> list[str]:
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    commands = [f"cli.cmd_{sub}" for sub in ("analyze", "factorize", "convert", "experiment")]
    return [*namespace["PACKAGE"], *commands, "cli.Report.emit"]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves_to_a_package_callable(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"mpdo_kit.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)

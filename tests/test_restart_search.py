"""The restart protocol the nonneg, psd and cp searches share.

``nonneg_factorizations._restart_search`` is the one place that screens by
rank, runs the solver and re-checks the winner's certificate against the
acceptance bar.  The tests below pin the re-check and the zero-matrix
certificate, and a tooling guard keeps the solver and the rank screen
behind that one function.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from mpdo_kit import nonneg_factorizations
from mpdo_kit.certificates import check_factor_certificate, pair_traces
from mpdo_kit.nonneg_factorizations import (
    SEARCH_RESIDUAL_TOL,
    cp_factorization_search,
    nonneg_factorization_search,
    psd_factorization_search,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"

#: Names only the restart protocol may call.
PROTOCOL_CALLS = {"least_squares", "_rank_floor_exceeds"}
PROTOCOL = "_restart_search"


def planted(kind):
    """A 4 x 4 instance of inner dimension 2 and the packed solver vector that solves it exactly."""
    rng = np.random.default_rng(31)
    if kind == "nonneg":
        w, h = rng.uniform(0.2, 1.0, (4, 2)), rng.uniform(0.2, 1.0, (2, 4))
        return w @ h, np.concatenate([w.ravel(), h.ravel()])
    if kind == "cp":
        a = rng.uniform(0.2, 1.0, (4, 2))
        return a @ a.T, a.ravel()
    g = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    e = g @ g.conj().transpose(0, 2, 1)
    x = np.concatenate([g[:4].real.ravel(), g[:4].imag.ravel(), g[4:].real.ravel(), g[4:].imag.ravel()])
    return pair_traces(e[:4], e[4:]), x


SEARCHES = {
    "nonneg": nonneg_factorization_search,
    "cp": cp_factorization_search,
    "psd": psd_factorization_search,
}


def solver_claiming(winner, calls):
    """A stand-in for ``least_squares`` that declares restart 0 won at ``winner``."""

    def fake(fun, x, iters, tol, nonneg=False):
        calls.append((len(x), tol))
        return 0, np.array(winner, dtype=float)

    return fake


@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_a_winner_whose_certificate_misses_the_bar_is_refused(kind, monkeypatch):
    m, x = planted(kind)
    calls = []
    # every unknown 3 overshoots every entry of M, whose largest is below 4
    monkeypatch.setattr(nonneg_factorizations, "least_squares", solver_claiming(np.full(x.size, 3.0), calls))
    assert SEARCHES[kind](m, 2, restarts=4) is None
    assert calls == [(4, SEARCH_RESIDUAL_TOL * np.abs(m).max())]


@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_a_winner_that_meets_the_bar_is_certified(kind, monkeypatch):
    # the control of the test above: the same path accepts an exact winner
    m, x = planted(kind)
    calls = []
    monkeypatch.setattr(nonneg_factorizations, "least_squares", solver_claiming(x, calls))
    cert = SEARCHES[kind](m, 2, restarts=4)
    assert len(calls) == 1
    assert cert is not None and cert.inner_dim == 2
    assert cert.residual <= SEARCH_RESIDUAL_TOL * np.abs(m).max()
    check_factor_certificate(m, cert, residual_tol=1e-10)


@pytest.mark.parametrize("kind", sorted(SEARCHES))
def test_zero_matrix_certificate_without_restarts(kind, monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("the zero matrix needs no restart")

    monkeypatch.setattr(nonneg_factorizations, "least_squares", no_solver)
    z = np.zeros((3, 3))
    cert = SEARCHES[kind](z, 2, restarts=0)
    assert cert is not None and (cert.inner_dim, cert.residual) == (2, 0.0)
    check_factor_certificate(z, cert)
    for value in cert.payload.values():
        assert not np.any(value)
    if kind == "psd":
        # the Gram factors are complex, so E and F are too
        assert all(np.iscomplexobj(e) for e in cert.payload["E"] + cert.payload["F"])


def test_search_defaults_are_the_protocol_constants():
    for search in SEARCHES.values():
        params = inspect.signature(search).parameters
        assert params["restarts"].default == nonneg_factorizations.SEARCH_RESTARTS == 20
        assert params["iters"].default == nonneg_factorizations.SEARCH_ITERS


# ---------------------------------------------------------------------------
# tooling guard: one function calls the solver and the rank screen


def protocol_calls(source: str):
    """``(line, enclosing function path, callee)`` of each protocol call outside ``_restart_search``."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in PROTOCOL_CALLS and path != [PROTOCOL]:
                    found.append((child.lineno, ".".join(path) or "<module>", name))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_restart_search_runs_the_protocol(path):
    assert protocol_calls(path.read_text(encoding="utf-8")) == []


def test_restart_search_does_run_the_protocol():
    tree = ast.parse((SRC / "nonneg_factorizations.py").read_text(encoding="utf-8"))
    (protocol,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == PROTOCOL]
    calls = [node.func for node in ast.walk(protocol) if isinstance(node, ast.Call)]
    called = {func.id for func in calls if isinstance(func, ast.Name)}
    assert PROTOCOL_CALLS <= called


def test_guard_flags_calls_outside_restart_search():
    source = (
        "def _restart_search(m):\n"
        "    _rank_floor_exceeds(m, 1, 0.0)\n"
        "    return least_squares(f, x, 1, 0.0)\n"
        "def search(m):\n"
        "    won = least_squares(f, x, 1, 0.0)\n"
        "    def inner():\n"
        "        return mod._rank_floor_exceeds(m, 1, 0.0)\n"
        "    return inner\n"
        "class Solver:\n"
        "    def run(self):\n"
        "        return nonneg_factorizations.least_squares(f, x, 1, 0.0)\n"
        "least_squares(f, x, 1, 0.0)\n"
        "least_squares_like(f)\n"
    )
    assert protocol_calls(source) == [
        (5, "search", "least_squares"),
        (7, "search.inner", "_rank_floor_exceeds"),
        (11, "run", "least_squares"),
        (12, "<module>", "least_squares"),
    ]

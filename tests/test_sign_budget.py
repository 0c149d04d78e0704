"""One sign budget rule for every sign walk.

``tensor_core.require_sign_budget`` is the one function that compares a
count of sign patterns with a budget and words the refusal.  Every caller
of the engine (``min_rank_sign_pattern``) calls it before the engine, and
the rank cap it replaced stays gone.  A tooling guard over
``src/mpdo_kit`` keeps it so; the tests below it pin the counts.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mpdo_kit import tensor_core
from mpdo_kit.decompositions import q_sqrt_rank
from mpdo_kit.nonneg_factorizations import cpsdt_construct
from mpdo_kit.tensor_core import PsdOperator, SignBudgetError, SiteSpec, UsageError, require_sign_budget

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"
SOURCES = sorted(SRC.glob("*.py"))

BUDGET = "require_sign_budget"
ENGINE = "min_rank_sign_pattern"
GONE = {"MAX_ENUM_RANK", "max_enum_rank"}


def identifiers(tree):
    """Every name a module binds or reads: names, attributes, arguments, keywords, defs and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def own_nodes(func):
    """The nodes of a function's body, nested function bodies left out."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def called(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def mentions_a_budget(node):
    return any(
        "budget" in (sub.id if isinstance(sub, ast.Name) else sub.attr).lower()
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def budget_comparisons(source: str):
    """``(line, function)`` of every comparison that reads a budget, ``<module>`` outside any function."""
    tree = ast.parse(source)
    owner = {}
    for func in functions(tree):
        for node in own_nodes(func):
            owner[node] = func.name
    return sorted(
        (node.lineno, owner.get(node, "<module>"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and mentions_a_budget(node)
    )


def unbudgeted_engine_calls(source: str):
    """``(line, function)`` of each engine call whose function has not called the budget check before it."""
    found = []
    for func in functions(ast.parse(source)):
        calls = [node for node in own_nodes(func) if isinstance(node, ast.Call)]
        checks = [node.lineno for node in calls if called(node) == BUDGET]
        for node in calls:
            if called(node) == ENGINE and not any(line < node.lineno for line in checks):
                found.append((node.lineno, func.name))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_rank_cap_stays_gone(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert identifiers(tree) & GONE == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_budget_check_compares_a_budget(path):
    found = budget_comparisons(path.read_text(encoding="utf-8"))
    assert [where for where in found if where[1] != BUDGET] == []


def test_the_budget_check_does_compare_the_budget():
    found = budget_comparisons((SRC / "tensor_core.py").read_text(encoding="utf-8"))
    assert [name for _, name in found] == [BUDGET]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_engine_caller_checks_the_budget_first(path):
    assert unbudgeted_engine_calls(path.read_text(encoding="utf-8")) == []


def test_the_engine_has_callers_and_each_checks():
    # the three walks: the shared diagonal walk, the spectral q_sqrt_rank and cpsdt
    callers = set()
    for path in SOURCES:
        for func in functions(ast.parse(path.read_text(encoding="utf-8"))):
            names = [called(node) for node in own_nodes(func) if isinstance(node, ast.Call)]
            if ENGINE in names:
                assert BUDGET in names, func.name
                callers.add(func.name)
    assert callers == {"_root_sign_walk", "q_sqrt_rank", "cpsdt_construct"}


def test_guard_flags_what_it_should():
    source = (
        "def require_sign_budget(k, pinned, sign_budget):\n"
        "    if 2 ** (k - pinned) > sign_budget:\n"
        "        raise SignBudgetError('over')\n"
        "def walk(k, budget):\n"
        "    if 2**k <= budget:\n"
        "        return min_rank_sign_pattern(k, build, 4)\n"
        "def checked(k, sign_budget):\n"
        "    require_sign_budget(k, 1, sign_budget)\n"
        "    def build(s):\n"
        "        return tensor_core.min_rank_sign_pattern(k, b, 4)\n"
        "    return min_rank_sign_pattern(k, build, 4)\n"
        "def late(k, sign_budget):\n"
        "    rank = min_rank_sign_pattern(k, build, 4)\n"
        "    require_sign_budget(k, 1, sign_budget)\n"
        "    return rank\n"
        "ok = args.budget >= 1\n"
    )
    assert budget_comparisons(source) == [(2, BUDGET), (5, "walk"), (16, "<module>")]
    assert unbudgeted_engine_calls(source) == [(6, "walk"), (10, "build"), (13, "late")]
    assert identifiers(ast.parse("def f(max_enum_rank=MAX_ENUM_RANK): pass")) >= GONE


# ---------------------------------------------------------------------------
# the counts


def test_the_one_rule_counts_the_ranked_patterns():
    require_sign_budget(5, 2, 2**3)
    with pytest.raises(SignBudgetError, match=r"^5 nonzero entries leave 2\^3 sign patterns to rank, "
                       r"over the sign budget 7$"):
        require_sign_budget(5, 2, 2**3 - 1)
    # no sign: the one empty pattern, whatever the budget
    require_sign_budget(0, 0, 0)
    assert issubclass(SignBudgetError, UsageError)


def eight_qubit_diagonal():
    # 18 nonzeros on 8 qubits: the global and the 8 site flips pin 9 signs,
    # so 2^9 of the 2^18 patterns are ranked
    rng = np.random.default_rng(1)
    diag = np.zeros(256)
    diag[rng.choice(256, 18, replace=False)] = rng.uniform(0.25, 4.0, 18)
    return PsdOperator(SiteSpec((2,) * 8), np.diag(diag))


def test_diagonal_q_sqrt_rank_counts_its_per_site_pins():
    op = eight_qubit_diagonal()
    values = np.diagonal(op.data).real.reshape((2,) * 8)
    support = np.nonzero(values)
    pins = int(np.count_nonzero(tensor_core._flip_pivots(18, [pos == a for pos in support for a in (0, 1)])))
    free = 18 - pins
    assert free == 9
    assert q_sqrt_rank(op, sign_budget=2**free)[0] == 9
    with pytest.raises(SignBudgetError, match=rf"18 nonzero entries leave 2\^{free} sign patterns"):
        q_sqrt_rank(op, sign_budget=2**free - 1)


def test_cpsdt_counts_the_patterns_after_its_global_pin():
    # five upper-triangle signs, 2^4 patterns after the pin: the walk finds
    # the rank-2 root at a budget of 2^4, and one short it keeps the
    # all-positive root, of rank 3
    m = np.array([[1.0, 1.0, 2.0], [1.0, -1.0, 0.0], [2.0, 0.0, 2.0]]) ** 2
    assert cpsdt_construct(m, sign_budget=2**4).inner_dim == 2
    fallback = cpsdt_construct(m, sign_budget=2**4 - 1)
    assert np.array_equal(fallback.payload["root"], np.sqrt(m))
    assert fallback.inner_dim == 3

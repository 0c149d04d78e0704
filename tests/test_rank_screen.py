"""The rank screen at the top of the nonneg, cp and psd searches.

A search at inner dimension r only produces matrices of rank <= k (k = r,
or r^2 for psd).  When the singular-value tail of M beyond k exceeds
``RANK_SCREEN_MARGIN * sqrt(pq)`` times the acceptance bar (the floor; the
margin is 2), the search returns None without a restart.  A tail of 0.3x
the floor leaves a flat residual of 0.6x the bar per entry, which a
search can reach, so a screen with a margin below 1 would refuse it.  The instances below are planted with
rows (and columns) in identical pairs, so M is orthogonal to the
alternating sign vector on both sides, and a perturbation along
``alt alt^T`` adds one singular value, flat across the entries, at a
chosen multiple of the screen's floor.
"""

from math import sqrt

import numpy as np
import pytest

from mpdo_kit.certificates import NecessaryConditionError, check_factor_certificate
from mpdo_kit.nonneg_factorizations import (
    RANK_SCREEN_MARGIN,
    SEARCH_RESIDUAL_TOL,
    _rank_floor_exceeds,
    cp_factorization_search,
    nonneg_factorization_search,
    psd_factorization_search,
)
from mpdo_kit.tensor_core import UsageError


def alt(n):
    return np.array([(-1.0) ** i for i in range(n)])


def target_of(m):
    return SEARCH_RESIDUAL_TOL * np.abs(m).max()


def floor_of(m):
    """The screen's floor at its documented margin of 2."""
    p, q = m.shape
    return 2.0 * sqrt(p * q) * target_of(m)


def tail(m, k):
    return float(np.linalg.norm(np.linalg.svd(m, compute_uv=False)[k:]))


def with_tail(m0, ratio):
    """m0 plus a flat alt alt^T perturbation whose tail is ``ratio`` x the floor."""
    p, q = m0.shape
    e = np.outer(alt(p), alt(q)) / sqrt(p * q)
    m = m0
    for _ in range(4):  # the floor moves with max|M|, by ~1e-6 relative
        m = m0 + ratio * floor_of(m) * e
    return m


def planted(kind, case):
    """An 8 x 8 matrix with inner dimension 2 and rows/columns in identical pairs.

    Returns ``(matrix, k)``: k is the rank the search's candidates have at r = 2.
    """
    rng = np.random.default_rng([case, 21])
    if kind == "nonneg":
        w = np.repeat(rng.uniform(0.0, 1.0, (4, 2)), 2, axis=0)
        h = np.repeat(rng.uniform(0.0, 1.0, (2, 4)), 2, axis=1)
        return w @ h, 2
    if kind == "cp":
        a = np.repeat(rng.uniform(0.2, 1.0, (4, 2)), 2, axis=0)
        return a @ a.T, 2
    # psd at r = 2: E_i = g_i g_i^dag, F_j = h_j h_j^dag give
    # tr(E_i F_j^T) = |g_i . h_j|^2, of rank 4 = r^2
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    h = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    m0 = np.abs(g @ h.T) ** 2
    return np.repeat(np.repeat(m0, 2, axis=0), 2, axis=1), 4


SEARCHES = {
    "nonneg": lambda m, r: nonneg_factorization_search(m, r, restarts=20),
    "cp": lambda m, r: cp_factorization_search(m, r, restarts=20),
    "psd": lambda m, r: psd_factorization_search(m, r, restarts=20),
}


@pytest.mark.parametrize("kind", ["nonneg", "cp", "psd"])
def test_never_fires_on_a_feasible_instance(kind):
    m0, k = planted(kind, 1)
    assert np.linalg.matrix_rank(m0) == k
    m = with_tail(m0, 0.3)
    assert tail(m, k) == pytest.approx(0.3 * floor_of(m), rel=1e-6)
    assert not _rank_floor_exceeds(m, k, target_of(m))
    cert = SEARCHES[kind](m, 2)
    assert cert is not None and cert.inner_dim == 2
    assert cert.residual <= target_of(m)


@pytest.mark.parametrize("kind", ["nonneg", "cp", "psd"])
def test_fires_above_the_floor(kind, monkeypatch):
    m0, k = planted(kind, 2)
    m = with_tail(m0, 3.0)
    assert _rank_floor_exceeds(m, k, target_of(m))

    def no_restarts(*args, **kwargs):
        raise AssertionError("the screen should have answered before any restart")

    # every restart starts by drawing from its own generator
    monkeypatch.setattr(np.random, "default_rng", no_restarts)
    assert SEARCHES[kind](m, 2) is None


def test_threshold_is_the_margin_times_the_floor():
    assert RANK_SCREEN_MARGIN == 2.0
    m0, k = planted("nonneg", 3)
    for ratio, fires in [(0.99, False), (1.01, True)]:
        m = with_tail(m0, ratio)
        assert _rank_floor_exceeds(m, k, target_of(m)) is fires


def test_psd_screen_uses_r_squared():
    # rank 4 at psd r = 2: a screen at k = r would reject a feasible search
    m, k = planted("psd", 3)
    assert k == 4 and tail(m, 2) > 10 * floor_of(m)
    cert = psd_factorization_search(m, 2)
    assert cert is not None
    check_factor_certificate(m, cert, residual_tol=2e-6)


def test_k_at_least_the_side_never_fires():
    rng = np.random.default_rng(7)
    m = rng.uniform(0.0, 1.0, (3, 5))
    for k in (3, 4, 9):
        assert not _rank_floor_exceeds(m, k, 0.0)
    assert _rank_floor_exceeds(m, 2, 0.0)
    # the trivial factorization at r = min(p, q) is still found
    assert nonneg_factorization_search(np.eye(3), 3, restarts=5) is not None


def test_zero_matrix_never_fires():
    z = np.zeros((4, 4))
    assert not _rank_floor_exceeds(z, 1, target_of(z))
    assert nonneg_factorization_search(z, 1) is not None


def test_cp_rejections_still_raise_before_the_screen():
    # rank 2 at r = 1: the screen would fire, but the necessary conditions come first
    with pytest.raises(NecessaryConditionError) as info:
        cp_factorization_search(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert info.value.condition == "not psd"
    with pytest.raises(NecessaryConditionError):
        cp_factorization_search(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)


@pytest.mark.parametrize("kind", ["nonneg", "cp", "psd"])
def test_r_below_one_is_still_a_usage_error(kind):
    with pytest.raises(UsageError):
        SEARCHES[kind](np.eye(3), 0)

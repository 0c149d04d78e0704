"""Oracle tests for the lockstep restarts of the nonneg, cp and psd searches.

The references below are plain per-restart loops: restart ``idx`` runs
alone from ``default_rng([seed, idx])`` and the first success by index
wins.  A lone restart's Levenberg-Marquardt run is the package solver
called on a stack of one row.  The lockstep searches stack every restart
into one batched iteration; their certificates must equal the references'
bit for bit (or both be None).
"""

from math import sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpdo_kit import nonneg_factorizations
from mpdo_kit.certificates import FactorCertificate, pair_traces
from mpdo_kit.nonneg_factorizations import (
    SEARCH_RESIDUAL_TOL,
    _cp_residuals,
    _gram_pairs,
    _nonneg_residuals,
    _psd_gram_factors,
    _psd_residuals,
    _rank_floor_exceeds,
    cp_factorization_search,
    least_squares,
    nonneg_factorization_search,
    psd_factorization_search,
)


def nonneg_restart(m, r, iters, seed, idx):
    """One serial restart of the nonneg search: certificate or None."""
    p, q = m.shape
    target = SEARCH_RESIDUAL_TOL * np.abs(m).max()
    scale = sqrt(m.mean() / r)
    rng = np.random.default_rng([seed, idx])
    w = rng.uniform(0.1, 1.0, (p, r)) * scale
    h = rng.uniform(0.1, 1.0, (r, q)) * scale
    x0 = np.concatenate([w.ravel(), h.ravel()])
    won = least_squares(_nonneg_residuals(m, r), x0[None], iters, target, nonneg=True)
    if won is None:
        return None
    assert won[0] == 0
    w, h = won[1][: p * r].reshape(p, r), won[1][p * r :].reshape(r, q)
    residual = float(np.abs(w @ h - m).max())
    if residual <= target:
        return FactorCertificate("nonnegative", r, {"left": w, "right": h}, residual)
    return None


def cp_restart(m, r, iters, seed, idx):
    """One serial restart of the cp search: certificate or None."""
    p = m.shape[0]
    target = SEARCH_RESIDUAL_TOL * np.abs(m).max()
    a = np.random.default_rng([seed, idx]).uniform(0.1, 1.0, (p, r)) * (m.mean() / r) ** 0.25
    won = least_squares(_cp_residuals(m, r), a.reshape(1, -1), iters, target, nonneg=True)
    if won is None:
        return None
    assert won[0] == 0
    a = won[1].reshape(p, r)
    residual = float(np.abs(a @ a.T - m).max())
    if residual <= target:
        return FactorCertificate("cp", r, {"factor": a}, residual)
    return None


def psd_restart(m, r, iters, seed, idx):
    """One serial restart of the psd search: certificate or None."""
    p, q = m.shape
    target = SEARCH_RESIDUAL_TOL * np.abs(m).max()
    scale = (m.mean() / r) ** 0.25 + 1e-3
    x0 = np.random.default_rng([seed, idx]).normal(size=2 * (p + q) * r * r) * scale
    won = least_squares(_psd_residuals(m, r), x0[None], iters, target)
    if won is None:
        return None
    assert won[0] == 0
    g, h = _psd_gram_factors(won[1][None], p, q, r)
    e_list, f_list, residual = _gram_pairs(g[0], h[0], m)
    if residual <= target:
        return FactorCertificate("psd", r, {"E": e_list, "F": f_list}, residual)
    return None


def first_success(run, restarts):
    """Index of the first restart whose certificate is not None, and that certificate."""
    for idx in range(restarts):
        cert = run(idx)
        if cert is not None:
            return idx, cert
    return None, None


def reference_nonneg(m, r, restarts, iters, seed):
    return first_success(lambda idx: nonneg_restart(m, r, iters, seed, idx), restarts)


def reference_cp(m, r, restarts, iters, seed):
    return first_success(lambda idx: cp_restart(m, r, iters, seed, idx), restarts)


def reference_psd(m, r, restarts, iters, seed):
    return first_success(lambda idx: psd_restart(m, r, iters, seed, idx), restarts)


def assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert (got.kind, got.inner_dim, got.residual) == (want.kind, want.inner_dim, want.residual)
    assert got.payload.keys() == want.payload.keys()
    for key in want.payload:
        assert np.array_equal(got.payload[key], want.payload[key])
    if want.kind == "cp":
        assert np.asarray(want.payload["factor"]).min() >= 0.0


def planted_nonneg(case, p=5, q=5, r=2):
    rng = np.random.default_rng([case, 11])
    return rng.uniform(0.0, 1.0, (p, r)) @ rng.uniform(0.0, 1.0, (r, q))


def planted_cp(case, p=5, r=2):
    a = np.random.default_rng([case, 12]).uniform(0.0, 1.0, (p, r))
    return a @ a.T


def sparse_nonneg(case):
    """A 5x5 product of 5x3 and 3x5 nonnegative factors with exact zeros."""
    rng = np.random.default_rng([case, 13])
    a = rng.uniform(0.0, 1.0, (5, 3)) * (rng.uniform(size=(5, 3)) < 0.5)
    b = rng.uniform(0.0, 1.0, (3, 5)) * (rng.uniform(size=(3, 5)) < 0.5)
    return a @ b


def sparse_cp(case):
    """A A^T of a 5x4 nonnegative A with exact zeros."""
    rng = np.random.default_rng([case, 13])
    a = rng.uniform(0.0, 1.0, (5, 4)) * (rng.uniform(size=(5, 4)) < 0.5)
    return a @ a.T


def planted_psd(case, p=4, q=4, r=2):
    rng = np.random.default_rng([case, 14])
    g = rng.normal(size=(p + q, r, r)) + 1j * rng.normal(size=(p + q, r, r))
    e = g @ g.conj().transpose(0, 2, 1)
    return pair_traces(e[:p], e[p:])


# ---------------------------------------------------------------------------
# nonnegative search


def test_nonneg_single_restart():
    m = planted_nonneg(4)
    idx, want = reference_nonneg(m, 2, 1, 200, seed=1)
    assert idx == 0
    assert_same(nonneg_factorization_search(m, 2, restarts=1, iters=200, seed=1), want)
    # and a lone restart that fails
    m = sparse_nonneg(1)
    assert reference_nonneg(m, 3, 1, 200, seed=0) == (None, None)
    assert nonneg_factorization_search(m, 3, restarts=1, iters=200, seed=0) is None


def test_nonneg_later_index_wins_over_a_frozen_higher_index():
    # restart 0 fails; restart 2 meets the bar within 20 steps and restart 1
    # only later: the batch must keep restart 1 running past the freeze
    m = sparse_nonneg(1)
    assert [nonneg_restart(m, 3, 20, 0, idx) is not None for idx in range(3)] == [False, False, True]
    idx, want = reference_nonneg(m, 3, 5, 200, seed=0)
    assert idx == 1
    assert_same(nonneg_factorization_search(m, 3, restarts=5, iters=200, seed=0), want)


def test_nonneg_lowest_index_wins_over_higher_indices_that_met_first():
    # restart 0 needs more than 20 steps, restart 1 fewer
    m = planted_nonneg(5)
    assert nonneg_restart(m, 2, 20, 0, 0) is None
    assert nonneg_restart(m, 2, 20, 0, 1) is not None
    idx, want = reference_nonneg(m, 2, 5, 200, seed=0)
    assert idx == 0
    assert_same(nonneg_factorization_search(m, 2, restarts=5, iters=200, seed=0), want)
    idx, want = reference_nonneg(m, 2, 5, 20, seed=0)
    assert idx == 1
    assert_same(nonneg_factorization_search(m, 2, restarts=5, iters=20, seed=0), want)


@pytest.mark.parametrize("iters", [0, 1, 5, 8, 49, 50, 137])
def test_nonneg_short_runs(iters):
    m = planted_nonneg(3)
    _, want = reference_nonneg(m, 2, 4, iters, seed=1)
    assert_same(nonneg_factorization_search(m, 2, restarts=4, iters=iters, seed=1), want)


def test_nonneg_infeasible_r():
    # the cyclic 0/1 matrix has rank 3 but nonnegative rank 4, so no restart
    # can succeed at r = 3, and the rank screen cannot tell: every restart
    # runs to the end on both sides
    m = np.array([[1.0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
    assert np.linalg.matrix_rank(m) == 3
    assert not _rank_floor_exceeds(m, 3, SEARCH_RESIDUAL_TOL)
    _, want = reference_nonneg(m, 3, 6, 200, seed=0)
    assert want is None
    assert nonneg_factorization_search(m, 3, restarts=6, iters=200, seed=0) is None


def test_nonneg_no_restarts():
    assert nonneg_factorization_search(np.ones((3, 3)), 1, restarts=0) is None


# ---------------------------------------------------------------------------
# cp search


def test_cp_single_restart():
    m = planted_cp(0)
    idx, want = reference_cp(m, 2, 1, 200, seed=0)
    assert idx == 0
    assert_same(cp_factorization_search(m, 2, restarts=1, iters=200, seed=0), want)


def test_cp_later_index_wins():
    # a planted factor with exact zeros: restart 0 fails, and restart 3
    # meets the bar within 25 steps, before restart 1 does
    m = sparse_cp(7)
    assert [cp_restart(m, 4, 25, 1, idx) is not None for idx in range(4)] == [False, False, False, True]
    idx, want = reference_cp(m, 4, 6, 200, seed=1)
    assert idx == 1
    assert_same(cp_factorization_search(m, 4, restarts=6, iters=200, seed=1), want)


@pytest.mark.parametrize("iters", [0, 1, 3, 137])
def test_cp_short_runs(iters):
    m = planted_cp(1)
    _, want = reference_cp(m, 2, 3, iters, seed=2)
    assert_same(cp_factorization_search(m, 2, restarts=3, iters=iters, seed=2), want)


def test_cp_infeasible_r(monkeypatch):
    # rank 3 at r = 2: the rank screen would answer at once, so it is
    # switched off here to compare the full lockstep loop with the reference
    monkeypatch.setattr(nonneg_factorizations, "_rank_floor_exceeds", lambda m, k, target: False)
    m = planted_cp(2, p=5, r=3)
    _, want = reference_cp(m, 2, 4, 200, seed=0)
    assert want is None
    assert cp_factorization_search(m, 2, restarts=4, iters=200, seed=0) is None


# ---------------------------------------------------------------------------
# psd search


def test_psd_single_restart():
    m = planted_psd(0)
    idx, want = reference_psd(m, 2, 1, 200, seed=0)
    assert idx == 0
    assert_same(psd_factorization_search(m, 2, restarts=1, iters=200, seed=0), want)


def test_psd_lowest_index_wins_over_higher_indices_that_met_first():
    # restart 0 needs more than 20 steps, restart 1 fewer: the batch must
    # keep restart 0 running after restart 1 froze
    m = planted_psd(1)
    assert psd_restart(m, 2, 20, 0, 0) is None
    assert psd_restart(m, 2, 20, 0, 1) is not None
    idx, want = reference_psd(m, 2, 5, 200, seed=0)
    assert idx == 0
    assert_same(psd_factorization_search(m, 2, restarts=5, iters=200, seed=0), want)
    # capped at 20 steps, restart 1 is the lowest success
    idx, want = reference_psd(m, 2, 5, 20, seed=0)
    assert idx == 1
    assert_same(psd_factorization_search(m, 2, restarts=5, iters=20, seed=0), want)


@pytest.mark.parametrize("iters", [0, 1, 8])
def test_psd_short_runs(iters):
    m = planted_psd(2, p=3, q=5)
    _, want = reference_psd(m, 2, 3, iters, seed=1)
    assert_same(psd_factorization_search(m, 2, restarts=3, iters=iters, seed=1), want)


def test_psd_infeasible_r(monkeypatch):
    # rank 4 at r = 1: switched-off rank screen, as in the cp case
    monkeypatch.setattr(nonneg_factorizations, "_rank_floor_exceeds", lambda m, k, target: False)
    m = planted_psd(3)
    _, want = reference_psd(m, 1, 4, 60, seed=0)
    assert want is None
    assert psd_factorization_search(m, 1, restarts=4, iters=60, seed=0) is None


def test_psd_and_cp_no_restarts():
    assert psd_factorization_search(planted_psd(0), 2, restarts=0) is None
    assert cp_factorization_search(planted_cp(0), 2, restarts=0) is None


# ---------------------------------------------------------------------------
# the solver


def test_stalled_row_leaves_the_batch_and_the_next_row_wins():
    # x0 * x1 = 1: row 0 starts at the origin, where the Jacobian (x1, x0)
    # vanishes and every step is rejected until the damping stalls it;
    # row 1 converges, along its lone-row path
    def fun(x):
        return x[:, :1] * x[:, 1:] - 1.0, x[:, None, ::-1].copy()

    x0 = np.array([[0.0, 0.0], [1.0, 2.0]])
    k, x = least_squares(fun, x0, 100, 1e-9)
    assert k == 1 and abs(x[0] * x[1] - 1.0) <= 1e-9
    lone = least_squares(fun, x0[1:], 100, 1e-9)
    assert lone[0] == 0 and np.array_equal(lone[1], x)
    assert least_squares(fun, x0[:1], 100, 1e-9) is None


# ---------------------------------------------------------------------------
# property: random planted matrices


@settings(max_examples=30, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.integers(0, 10**6),
    p=st.integers(2, 5),
    q=st.integers(2, 5),
    planted=st.integers(1, 3),
    r=st.integers(1, 3),
    seed=st.integers(0, 3),
)
def test_lockstep_matches_serial_restarts(case, p, q, planted, r, seed):
    m = planted_nonneg(case, p, q, planted)
    _, want = reference_nonneg(m, r, 3, 30, seed)
    assert_same(nonneg_factorization_search(m, r, restarts=3, iters=30, seed=seed), want)
    c = planted_cp(case, p, planted)
    _, want = reference_cp(c, r, 3, 30, seed)
    assert_same(cp_factorization_search(c, r, restarts=3, iters=30, seed=seed), want)
    s = planted_psd(case, p, q, planted)
    _, want = reference_psd(s, r, 3, 30, seed)
    assert_same(psd_factorization_search(s, r, restarts=3, iters=30, seed=seed), want)

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
    CP_POLISH_ITERS,
    MU_EPS,
    SEARCH_RESIDUAL_TOL,
    _cp_residuals,
    _frobenius_norms,
    _gram_pairs,
    _psd_gram_factors,
    _psd_residuals,
    _rank_floor_exceeds,
    cp_factorization_search,
    least_squares,
    nonneg_factorization_search,
    psd_factorization_search,
)


def nonneg_restart(m, r, iters, seed, idx):
    """One serial restart: ``(certificate or None, checkpoint it stopped at or None)``."""
    p, q = m.shape
    target = SEARCH_RESIDUAL_TOL * np.abs(m).max()
    scale = sqrt(max(m.mean(), MU_EPS) / r)
    rng = np.random.default_rng([seed, idx])
    w = rng.uniform(0.1, 1.0, (p, r)) * scale
    h = rng.uniform(0.1, 1.0, (r, q)) * scale
    stop = None
    for it in range(iters):
        w *= (m @ h.T) / (w @ (h @ h.T) + MU_EPS)
        h *= (w.T @ m) / ((w.T @ w) @ h + MU_EPS)
        if it % 50 == 49 and np.abs(m - w @ h).max() <= target:
            stop = it
            break
    residual = float(np.abs(m - w @ h).max())
    if residual <= target:
        return FactorCertificate("nonnegative", r, {"left": w, "right": h}, residual), stop
    return None, stop


def cp_restart(m, r, iters, seed, idx):
    """One serial restart of the cp search: certificate or None."""
    p = m.shape[0]
    target = SEARCH_RESIDUAL_TOL * np.abs(m).max()
    rng = np.random.default_rng([seed, idx])
    a = rng.uniform(0.1, 1.0, (p, r)) * (max(m.mean(), MU_EPS) / max(r, 1)) ** 0.25
    step = 1.0 / (4 * (np.linalg.norm(a.T @ a, 2) + np.linalg.norm(m, 2)) + MU_EPS)
    for _ in range(iters):
        res = a @ a.T - m
        trial = np.maximum(a - step * (4 * res @ a), 0.0)
        if np.linalg.norm(trial @ trial.T - m) <= np.linalg.norm(res):
            a = trial
            step *= 1.1
        else:
            step *= 0.5

    won = least_squares(_cp_residuals(m, r), a.reshape(1, -1), CP_POLISH_ITERS, target, nonneg=True)
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
    return first_success(lambda idx: nonneg_restart(m, r, iters, seed, idx)[0], restarts)


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


def planted_psd(case, p=4, q=4, r=2):
    rng = np.random.default_rng([case, 14])
    g = rng.normal(size=(p + q, r, r)) + 1j * rng.normal(size=(p + q, r, r))
    e = g @ g.conj().transpose(0, 2, 1)
    return pair_traces(e[:p], e[p:])


# ---------------------------------------------------------------------------
# nonnegative search


def test_nonneg_single_restart():
    m = planted_nonneg(4)
    idx, want = reference_nonneg(m, 2, 1, 300, seed=1)
    assert idx == 0
    assert_same(nonneg_factorization_search(m, 2, restarts=1, iters=300, seed=1), want)
    # and a lone restart that fails
    m = planted_nonneg(0)
    assert reference_nonneg(m, 2, 1, 300, seed=0) == (None, None)
    assert nonneg_factorization_search(m, 2, restarts=1, iters=300, seed=0) is None


def test_nonneg_later_index_wins_over_a_frozen_higher_index():
    # restart 1 succeeds at iteration 249, after restart 3 froze at 199:
    # the batch must keep restart 1 running past the freeze
    m = planted_nonneg(3)
    stops = [nonneg_restart(m, 2, 300, 0, idx)[1] for idx in range(5)]
    assert stops == [None, 249, None, 199, 299]
    idx, want = reference_nonneg(m, 2, 5, 300, seed=0)
    assert idx == 1
    assert_same(nonneg_factorization_search(m, 2, restarts=5, iters=300, seed=0), want)


def test_nonneg_success_after_the_last_check_when_iters_not_a_multiple_of_50():
    # iters = 263: restart 3 meets the bar only after its last check at
    # 249, and restart 4 froze at 249 while restart 3 was still running
    m = planted_nonneg(1)
    runs = [nonneg_restart(m, 2, 263, 3, idx) for idx in range(5)]
    assert [(cert is not None, stop) for cert, stop in runs] == [
        (False, None), (False, None), (False, None), (True, None), (True, 249)
    ]
    idx, want = reference_nonneg(m, 2, 5, 263, seed=3)
    assert idx == 3
    assert_same(nonneg_factorization_search(m, 2, restarts=5, iters=263, seed=3), want)


def test_nonneg_early_break_at_checkpoint():
    m = np.ones((4, 4))
    cert, stop = nonneg_restart(m, 1, 4000, 0, 0)
    assert cert is not None and stop == 49
    _, want = reference_nonneg(m, 1, 20, 4000, seed=0)
    assert_same(nonneg_factorization_search(m, 1, restarts=20, iters=4000, seed=0), want)


@pytest.mark.parametrize("iters", [0, 1, 49, 50, 137])
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
    _, want = reference_nonneg(m, 3, 6, 400, seed=0)
    assert want is None
    assert nonneg_factorization_search(m, 3, restarts=6, iters=400, seed=0) is None


def test_nonneg_no_restarts():
    assert nonneg_factorization_search(np.ones((3, 3)), 1, restarts=0) is None


# ---------------------------------------------------------------------------
# cp search


def test_stacked_frobenius_norms_equal_the_single_matrix_norm():
    # the cp accept test compares these norms; a reordered sum could flip ties
    rng = np.random.default_rng(5)
    for shape in [(7, 5, 5), (3, 6, 6), (4, 2, 3), (1, 1, 1)]:
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
        want = [np.linalg.norm(s) for s in x]
        assert _frobenius_norms(x).tolist() == want


def test_cp_single_restart():
    m = planted_cp(0)
    idx, want = reference_cp(m, 2, 1, 400, seed=0)
    assert idx == 0
    assert_same(cp_factorization_search(m, 2, restarts=1, iters=400, seed=0), want)


def test_cp_later_index_wins():
    # a planted factor with exact zeros: the polish of restart 0 stalls
    rng = np.random.default_rng([9, 13])
    a = rng.uniform(0.0, 1.0, (5, 4)) * (rng.uniform(size=(5, 4)) < 0.5)
    m = a @ a.T
    idx, want = reference_cp(m, 4, 6, 400, seed=0)
    assert idx == 1
    assert_same(cp_factorization_search(m, 4, restarts=6, iters=400, seed=0), want)


@pytest.mark.parametrize("iters", [0, 1, 137])
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
    _, want = reference_nonneg(m, r, 3, 120, seed)
    assert_same(nonneg_factorization_search(m, r, restarts=3, iters=120, seed=seed), want)
    c = planted_cp(case, p, planted)
    _, want = reference_cp(c, r, 3, 60, seed)
    assert_same(cp_factorization_search(c, r, restarts=3, iters=60, seed=seed), want)
    s = planted_psd(case, p, q, planted)
    _, want = reference_psd(s, r, 3, 30, seed)
    assert_same(psd_factorization_search(s, r, restarts=3, iters=30, seed=seed), want)

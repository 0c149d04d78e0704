"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one PASS line (visible under ``pytest -s`` or in captured
output on failure); the assertions pin the tolerances, the prints are for
the human scanning a run.
"""

import itertools
import time

import numpy as np
import pytest

from mpdo_kit.certificates import (
    FactorCertificate,
    NecessaryConditionError,
    check_factor_certificate,
    pair_traces,
)
from mpdo_kit.correspondence import (
    DiagBipartite,
    decomposition_to_factorization,
    diag_embed,
    factorization_to_decomposition,
)
from mpdo_kit.decompositions import (
    MpoTrain,
    SeparableCertificate,
    local_purification_spectral,
    make_translation_invariant,
    mixed_w_generator,
    mpo_train_form,
    operator_schmidt_rank,
    periodicity_lower_bound,
    purification_from_separable,
    q_sqrt_rank,
    schmidt_rank_cap,
    transfer_matrix,
    w_state_generators,
)
from mpdo_kit.nonneg_factorizations import (
    cp_factorization_search,
    cpsdt_construct,
    nonneg_factorization_search,
    psd_factorization_search,
    slack_matrix_tgon,
    sqrt_rank,
)
from mpdo_kit.tensor_core import (
    PsdOperator,
    SiteSpec,
    contract_cyclic,
    contract_train,
    cyclic_shift_defect,
    matricize,
    numerical_rank,
)


class Timer:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"{self.label}: took {elapsed:.1f}s, budget {self.budget_s}s"
            )
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        return False


def rand_psd(dim, rng, rank=None):
    x = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    return x @ x.conj().T


def rand_cpsd(r, rng):
    x = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return x @ x.conj().T


def test_criterion_1_rank_equality_of_embedded_matrices():
    rng = np.random.default_rng(101)
    with Timer("1 embedded-rank equality", 5.0):
        for _ in range(50):
            p, q = rng.integers(1, 7, size=2)
            r = int(rng.integers(1, min(p, q) + 1))
            m = rng.uniform(0, 1, (p, r)) @ rng.uniform(0, 1, (r, q))
            sigma = diag_embed(m)
            assert operator_schmidt_rank(sigma, rel_tol=1e-10) == numerical_rank(m, 1e-10)


def test_criterion_2_train_roundtrip_three_sites():
    rng = np.random.default_rng(102)
    with Timer("2 train round trip", 30.0):
        for k in range(100):
            rho = rand_psd(8, rng, rank=int(rng.integers(1, 9)))
            op = PsdOperator(SiteSpec((2, 2, 2)), rho)
            train, osr = mpo_train_form(op)
            recon = contract_train(train)
            assert (
                np.linalg.norm(recon - op.data) <= 1e-9 * np.linalg.norm(op.data)
            ), f"instance {k}"
            cuts = [numerical_rank(matricize(op, c)) for c in (1, 2)]
            assert osr == max(cuts)


def test_criterion_3_w_state_suite():
    with Timer("3 W-state suite", 20.0):
        for n in range(3, 11):
            fam = w_state_generators(n)
            assert fam.open_train.max_bond == 2
            assert fam.cyclic_site.bond_dim == 2 * n
            open_vec = contract_train(fam.open_train).ravel()
            cyc_vec = contract_cyclic(fam.cyclic_site, n).ravel()
            assert np.linalg.norm(open_vec - fam.vector) <= 1e-12
            assert np.linalg.norm(cyc_vec - fam.vector) <= 1e-12
            eigs = np.linalg.eigvals(transfer_matrix(fam.cyclic_site))
            scaled = eigs / np.abs(eigs).max()
            for r in range(n):
                root = np.exp(2j * np.pi * r / n)
                assert np.min(np.abs(scaled - root)) <= 1e-8
            holds, bound = periodicity_lower_bound(fam.cyclic_site, n, tol=1e-8)
            assert holds and bound == int(np.ceil(np.sqrt(n)))


def test_criterion_4_polygon_slack_rank():
    with Timer("4 polygon slack rank", 2.0):
        for t in range(3, 51):
            slack = slack_matrix_tgon(t).entries
            assert numerical_rank(slack, 1e-8) == 3


def test_criterion_5_square_root_correspondence():
    with Timer("5 square-root correspondence", 60.0):
        for bits in itertools.product((0.0, 1.0), repeat=9):
            m = np.asarray(bits).reshape(3, 3)
            sigma = diag_embed(m)
            q_rank, _ = q_sqrt_rank(sigma)
            if m.any():
                s_rank, _ = sqrt_rank(m)
            else:
                s_rank = 0
            assert q_rank == s_rank, m


def test_criterion_6_purification_bridge_planted():
    rng = np.random.default_rng(106)
    with Timer("6 purification bridge", 10.0):
        for _ in range(30):
            p, q = rng.integers(2, 6, size=2)
            e = [rand_cpsd(2, rng) for _ in range(p)]
            f = [rand_cpsd(2, rng) for _ in range(q)]
            m = pair_traces(e, f)
            cert = FactorCertificate("psd", 2, {"E": e, "F": f}, 0.0)
            dec = factorization_to_decomposition("psd", cert, DiagBipartite(m))
            sigma = diag_embed(m).data
            dense = contract_train(dec.payload.train)
            assert (
                np.linalg.norm(dense @ dense.conj().T - sigma)
                <= 1e-8 * np.linalg.norm(sigma)
            )
            assert dec.inner_dim == 2
            back = decomposition_to_factorization("psd", dec)
            assert back.inner_dim == 2
            for mat in back.payload["E"] + back.payload["F"]:
                assert np.linalg.eigvalsh(mat).min() >= -1e-10
            assert np.abs(pair_traces(back.payload["E"], back.payload["F"]) - m).max() <= 1e-8 * np.abs(m).max()


def test_criterion_7_cpsdt_existence():
    rng = np.random.default_rng(107)
    with Timer("7 cpsdt existence", 10.0):
        for _ in range(30):
            x = rng.uniform(0, 1, (4, 4))
            m = x + x.T
            cert = cpsdt_construct(m)
            for e in cert.payload["E"]:
                w = np.linalg.eigvalsh(e)
                assert w.min() >= -1e-10 * max(np.trace(e).real, 1e-300)
            recon = pair_traces(cert.payload["E"], cert.payload["E"])
            assert np.abs(recon - m).max() <= 1e-8 * np.abs(m).max()
            assert cert.inner_dim == numerical_rank(cert.payload["root"])
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        cert = cpsdt_construct(flip)
        assert any(np.abs(np.asarray(e).imag).max() > 0.01 for e in cert.payload["E"])
        try:
            cp_factorization_search(flip, 2)
            raise AssertionError("cp prescreen should reject the flip matrix")
        except NecessaryConditionError as exc:
            assert exc.condition == "not psd"


def test_criterion_8_inequality_sweep():
    rng = np.random.default_rng(108)
    with Timer("8 inequality sweep", 60.0):
        for k in range(200):
            n = 2 + (k % 2)
            dims = (2,) * n
            side = 2**n
            rho = rand_psd(side, rng, rank=int(rng.integers(1, side + 1)))
            tau = rand_psd(side, rng, rank=int(rng.integers(1, side + 1)))
            ra = operator_schmidt_rank(rho, dims)
            rb = operator_schmidt_rank(tau, dims)
            assert operator_schmidt_rank(rho + tau, dims) <= ra + rb
            assert operator_schmidt_rank(rho @ tau, dims) <= ra * rb
            assert ra <= schmidt_rank_cap(dims)

            op = PsdOperator(SiteSpec(dims), rho)
            puri = local_purification_spectral(op)
            assert ra <= puri.osr_L**2
            assert puri.residual <= 1e-8

            d_sep = int(rng.integers(1, 4))
            cores = []
            core1 = np.zeros((1, 2, 2, d_sep), dtype=complex)
            coren = np.zeros((d_sep, 2, 2, 1), dtype=complex)
            for a in range(d_sep):
                core1[0, :, :, a] = rand_psd(2, rng)
                coren[a, :, :, 0] = rand_psd(2, rng)
            cores.append(core1)
            for _ in range(n - 2):
                mid = np.zeros((d_sep, 2, 2, d_sep), dtype=complex)
                for a in range(d_sep):
                    for b in range(d_sep):
                        mid[a, :, :, b] = rand_psd(2, rng)
                cores.append(mid)
            cores.append(coren)
            sep = SeparableCertificate(MpoTrain(tuple(cores)), d_sep, 0.0)
            sep_puri = purification_from_separable(sep)
            assert sep_puri.osr_L <= d_sep
            assert sep_puri.residual <= 1e-8

            small = rand_psd(side, rng, rank=int(rng.integers(1, 4)))
            small_op = PsdOperator(SiteSpec(dims), small)
            q_rank, _ = q_sqrt_rank(small_op)
            osr_small = operator_schmidt_rank(small_op)
            assert q_rank >= int(np.ceil(np.sqrt(osr_small)))


def test_criterion_9_planted_recovery():
    with Timer("9 planted recovery", 120.0):
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng([109, trial])
            a = rng.uniform(0.2, 1.2, (8, 3))
            b = rng.uniform(0.2, 1.2, (3, 8))
            m = a @ b
            cert = nonneg_factorization_search(m, 3, restarts=50, seed=trial)
            if cert is not None and cert.residual <= 1e-6 * np.abs(m).max():
                wins += 1
        assert wins >= 19, f"nonneg planted recovery {wins}/20"

        wins = 0
        for trial in range(20):
            rng = np.random.default_rng([209, trial])
            a = rng.uniform(0.2, 1.2, (5, 3))
            m = a @ a.T
            cert = cp_factorization_search(m, 3, restarts=50, seed=trial)
            if cert is not None and cert.residual <= 1e-6 * np.abs(m).max():
                wins += 1
        assert wins >= 19, f"cp planted recovery {wins}/20"


@pytest.mark.parametrize("side, r", [(4, 2), (5, 2), (6, 2), (6, 3)])
def test_criterion_9_psd_planted_recovery(side, r):
    # M_ij = tr(E_i F_j^T) from random complex r x r psd E_i, F_j; every
    # seed must give a certificate at the default restarts
    with Timer(f"9 psd planted recovery {side}x{side} r={r}", 60.0):
        for trial in range(10):
            rng = np.random.default_rng([309, side, r, trial])
            e = [rand_cpsd(r, rng) for _ in range(side)]
            f = [rand_cpsd(r, rng) for _ in range(side)]
            m = pair_traces(e, f)
            cert = psd_factorization_search(m, r, seed=trial)
            assert cert is not None, f"psd planted {side}x{side} r={r} seed {trial} not found"
            check_factor_certificate(m, cert, residual_tol=1e-6)


def test_criterion_10_mixed_w_suite():
    with Timer("10 mixed-W suite", 10.0):
        for n in range(2, 7):
            rho, cert = mixed_w_generator(n)
            diag = np.diagonal(rho.data)
            assert np.linalg.norm(rho.data - np.diag(diag)) == 0.0
            assert cyclic_shift_defect(rho) <= 1e-12
            assert cert.inner_dim == 2
            assert cert.residual <= 1e-10
            assert cert.psd_defect() <= 1e-12
            train, _ = mpo_train_form(rho)
            site = make_translation_invariant(train)
            holds, bound = periodicity_lower_bound(site, n)
            assert holds and bound == int(np.ceil(np.sqrt(n)))

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdo_kit import decompositions
from mpdo_kit.decompositions import (
    MpoTrain,
    SeparableCertificate,
    _psd_root,
    clipped_spectrum,
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
from mpdo_kit.tensor_core import (
    SCALE_FLOOR,
    PsdOperator,
    SignBudgetError,
    SiteSpec,
    TiSiteTensor,
    UsageError,
    _gram_residual,
    block_eigvals,
    contract_cyclic,
    contract_train,
    cyclic_shift_defect,
    kron_chain,
    matricize,
    max_abs,
    numerical_rank,
    psd_gram_factor,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def rand_psd(dim, rng, rank=None):
    x = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    return x @ x.conj().T


def op_on_qubits(data, n):
    return PsdOperator(SiteSpec((2,) * n), data)


# ---------------------------------------------------------------------------
# train form and Schmidt rank


def test_train_form_product_osr_one():
    rng = np.random.default_rng(0)
    op = kron_chain([rand_psd(2, rng) for _ in range(3)])
    train, osr = mpo_train_form(op_on_qubits(op, 3))
    assert osr == 1
    assert np.linalg.norm(contract_train(train) - op) <= 1e-12 * np.linalg.norm(op)


def test_train_form_diag_embed_matches_matrix_rank():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p, q = rng.integers(2, 6, size=2)
        r = int(rng.integers(1, min(p, q) + 1))
        m = rng.uniform(0, 1, (p, r)) @ rng.uniform(0, 1, (r, q))
        sigma = np.diag(m.ravel())
        _, osr = mpo_train_form(sigma, (p, q))
        assert osr == np.linalg.matrix_rank(m)


def test_train_form_w_vector_osr_two():
    fam = w_state_generators(3)
    # oracle: SVD rank of the explicit 2 x 4 first-cut matricization
    cut = fam.vector.reshape(2, 4)
    s = np.linalg.svd(cut, compute_uv=False)
    oracle = int((s > 1e-10 * s[0]).sum())
    assert oracle == 2
    assert operator_schmidt_rank(fam.vector, (2, 2, 2), in_dims=(1, 1, 1)) == oracle


def test_train_roundtrip_tolerance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = rand_psd(16, rng)
        op = op_on_qubits(rho, 4)
        train, osr = mpo_train_form(op)
        err = np.linalg.norm(contract_train(train) - rho) / np.linalg.norm(rho)
        assert err <= 10 * 1e-10
        cuts = [numerical_rank(matricize(op, c)) for c in (1, 2, 3)]
        assert osr == max(cuts) == max(train.bond_dims)


def test_train_form_weighted_cut_ranks():
    # the 1e-11 component is below the relative threshold at the second cut
    # only once the first cut's singular values weight the carried remainder
    psi = np.zeros((2, 2, 3))
    psi[0, 0, 0] = psi[0, 1, 1] = 1.0
    psi[1, 0, 1] = 1e-5
    psi[1, 1, 2] = 1e-11
    vec = psi.ravel()
    train, osr = mpo_train_form(vec, (2, 2, 3), in_dims=(1, 1, 1))
    assert (osr, train.bond_dims) == (2, (2, 2))
    assert operator_schmidt_rank(vec, (2, 2, 3), in_dims=(1, 1, 1)) == 2
    rho = PsdOperator(SiteSpec((2, 2, 3)), np.outer(vec, vec))
    assert local_purification_spectral(rho).osr_L == 2


def test_osr_flip_symmetric_pair():
    rho = np.eye(4) + kron_chain([SX, SX])
    assert operator_schmidt_rank(op_on_qubits(rho, 2)) == 2


def test_osr_maximally_entangled_projector():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1.0 / np.sqrt(2)
    assert operator_schmidt_rank(op_on_qubits(np.outer(phi, phi), 2)) == 4


def test_osr_zero_operator():
    assert operator_schmidt_rank(np.zeros((4, 4)), (2, 2)) == 0


def test_schmidt_rank_cap_uniform():
    # equals d^(2*floor(n/2)) for n equal sites of dimension d
    for n in (2, 3, 4, 5):
        assert schmidt_rank_cap((2,) * n) == 2 ** (2 * (n // 2))


# ---------------------------------------------------------------------------
# spectral purification


def test_purification_pure_state_squares():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho = np.outer(psi, psi.conj())
    cert = local_purification_spectral(op_on_qubits(rho, 2))
    assert cert.residual <= 1e-8
    assert cert.osr_L ** 2 == operator_schmidt_rank(op_on_qubits(rho, 2))


def test_purification_diag_embed_identity():
    # oracle: sigma = diag(1,0,0,1) is its own psd root, Schmidt rank 2
    sigma = np.diag([1.0, 0.0, 0.0, 1.0])
    cert = local_purification_spectral(op_on_qubits(sigma, 2))
    assert cert.osr_L == 2
    assert cert.residual <= 1e-12


def test_purification_product_rank_one():
    rng = np.random.default_rng(4)
    rho = kron_chain([rand_psd(2, rng), rand_psd(2, rng)])
    cert = local_purification_spectral(op_on_qubits(rho, 2))
    assert cert.osr_L == 1


def test_purification_rejects_non_psd():
    with pytest.raises(UsageError):
        local_purification_spectral(op_on_qubits(np.diag([1.0, -1.0, 1.0, 1.0]), 2))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a call owns its arguments from CPython 3.11 on")
def test_purification_frees_its_dense_factor_before_the_sweep(monkeypatch, traced_memory):
    # at the first split only the sweep's permuted copy of the factor (one
    # rho's worth) may be held beside rho; the factor itself is gone
    op = op_on_qubits(rand_psd(64, np.random.default_rng(6), rank=3), 6)
    held = []
    split = decompositions.svd_split

    def recording(matrix, rel_tol):
        held.append(mem.now())
        return split(matrix, rel_tol)

    monkeypatch.setattr(decompositions, "svd_split", recording)
    with traced_memory() as mem:
        cert = local_purification_spectral(op)
    assert cert.residual < 1e-10
    assert held[0] - mem.base < 1.5 * op.data.nbytes


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a call owns its arguments from CPython 3.11 on")
def test_purification_frees_handed_eigenvectors_before_the_sweep(monkeypatch, traced_memory):
    # full rank: the eigenvectors are as large as rho; handed over as a
    # temporary, they are gone by the first split, where only the sweep's
    # permuted copy of the root is held
    op = op_on_qubits(rand_psd(64, np.random.default_rng(6)), 6)
    held = []
    split = decompositions.svd_split

    def recording(matrix, rel_tol):
        held.append(mem.now())
        return split(matrix, rel_tol)

    monkeypatch.setattr(decompositions, "svd_split", recording)
    with traced_memory() as mem:
        cert = local_purification_spectral(op, spectrum=clipped_spectrum(op))
    assert cert.residual < 1e-10
    assert held[0] - mem.base < 1.5 * op.data.nbytes


def test_full_rank_purification_peak_is_bounded(traced_memory):
    # with the spectrum in hand, building the root, sweeping it and checking
    # L L^dag never hold four operators' worth at once: the check is formed
    # a block of rows at a time (the whole product beside a conjugate copy
    # of L peaked at 4.55)
    op = op_on_qubits(rand_psd(128, np.random.default_rng(7)), 7)
    spectrum = clipped_spectrum(op)
    assert spectrum[0].size == 128
    with traced_memory() as mem:
        cert = local_purification_spectral(op, spectrum=spectrum)
    assert cert.residual < 1e-10
    assert mem.peak - mem.base < 4 * op.data.nbytes


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_purification_residual_is_that_of_the_contracted_train(n):
    # from 6 qubits every cut of a full-rank root is screened, and the check
    # on the root itself is the check on its train; below, the train is
    # contracted and checked
    op = op_on_qubits(rand_psd(2**n, np.random.default_rng(50 + n)), n)
    cert = local_purification_spectral(op)
    assert all(cert.train.screened) == (n >= 6)
    assert cert.residual == _gram_residual(contract_train(cert.train), op.data)


def test_purification_of_a_rank_deficient_operator_checks_its_train(monkeypatch):
    # rho = A (x) B: its root has Schmidt rank 1 at the middle cut, which
    # fails the screen and goes to the SVD
    rng = np.random.default_rng(57)
    op = op_on_qubits(np.kron(rand_psd(8, rng), rand_psd(8, rng)), 6)
    calls = []
    contract = decompositions.contract_train

    def counting(train):
        calls.append(train)
        return contract(train)

    monkeypatch.setattr(decompositions, "contract_train", counting)
    cert = local_purification_spectral(op)
    assert len(calls) == 1 and not all(cert.train.screened)
    assert cert.residual == _gram_residual(contract(cert.train), op.data) < 1e-10


def test_psd_root_writes_no_input_and_is_the_plain_product():
    op = op_on_qubits(rand_psd(32, np.random.default_rng(58)), 5)
    lam, vec = clipped_spectrum(op)
    before = lam.copy(), vec.copy()
    root = _psd_root(lam, vec)
    assert np.array_equal(lam, before[0]) and np.array_equal(vec, before[1])
    # conj(V) sqrt(lam) V^T rounds as the conjugate of V sqrt(lam) V^dag
    assert np.array_equal(root, (vec * np.sqrt(lam)) @ vec.conj().T)


def test_purification_square_bound_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = rand_psd(8, rng, rank=int(rng.integers(1, 9)))
        op = op_on_qubits(rho, 3)
        cert = local_purification_spectral(op)
        assert operator_schmidt_rank(op) <= cert.osr_L ** 2
        assert cert.residual <= 1e-8


# ---------------------------------------------------------------------------
# separable-based purification


def _flip_pair_separable():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    c1 = np.zeros((1, 2, 2, 2), dtype=complex)
    c1[0, :, :, 0] = np.outer(plus, plus)
    c1[0, :, :, 1] = np.outer(minus, minus)
    c2 = np.zeros((2, 2, 2, 1), dtype=complex)
    c2[0, :, :, 0] = np.outer(plus, plus)
    c2[1, :, :, 0] = np.outer(minus, minus)
    return SeparableCertificate(MpoTrain((c1, c2)), 2, 0.0)


def test_purification_from_flip_pair_certificate():
    sep = _flip_pair_separable()
    assert np.allclose(contract_train(sep.train), (np.eye(4) + kron_chain([SX, SX])) / 2)
    puri = purification_from_separable(sep)
    assert puri.osr_L <= 2
    assert puri.residual <= 1e-8


def test_purification_from_product_certificate():
    rng = np.random.default_rng(6)
    cores = tuple(rand_psd(2, rng).reshape(1, 2, 2, 1) for _ in range(3))
    sep = SeparableCertificate(MpoTrain(cores), 1, 0.0)
    puri = purification_from_separable(sep)
    assert puri.osr_L == 1
    assert puri.residual <= 1e-10


def test_purification_from_mixed_w_certificate():
    _, cert = mixed_w_generator(4)
    puri = purification_from_separable(cert)
    assert puri.residual <= 1e-8
    assert puri.osr_L <= 2


def test_purification_from_separable_rejects_non_psd_core():
    c1 = np.zeros((1, 2, 2, 1), dtype=complex)
    c1[0, :, :, 0] = np.diag([1.0, -1.0])
    c2 = np.eye(2).reshape(1, 2, 2, 1).astype(complex)
    sep = SeparableCertificate(MpoTrain((c1, c2)), 1, 0.0)
    with pytest.raises(UsageError):
        purification_from_separable(sep)


def test_separable_dominates_purification_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d_inner = int(rng.integers(1, 4))
        c1 = np.zeros((1, 2, 2, d_inner), dtype=complex)
        c2 = np.zeros((d_inner, 2, 2, 1), dtype=complex)
        for k in range(d_inner):
            c1[0, :, :, k] = rand_psd(2, rng)
            c2[k, :, :, 0] = rand_psd(2, rng)
        sep = SeparableCertificate(MpoTrain((c1, c2)), d_inner, 0.0)
        puri = purification_from_separable(sep)
        assert puri.osr_L <= d_inner
        assert puri.residual <= 1e-8


def loop_purification_from_separable(cert):
    """Cores, residual and osr_L of the separable purification, built one
    core slice at a time: the oracle of the stacked construction."""
    n = cert.train.n
    roots = []
    for core in cert.train.cores:
        dl, _, _, dr = core.shape
        rt = np.empty_like(core)
        for a in range(dl):
            for b in range(dr):
                h, v = psd_gram_factor(core[a, :, :, b])
                rt[a, :, :, b] = h @ v.conj().T
        roots.append(rt)
    cores = []
    for l, rt in enumerate(roots):
        dl, d, _, dr = rt.shape
        core = rt
        if l < n - 1:
            core = np.zeros((dl, d, d * dr, dr), dtype=complex)
            for b in range(dr):
                core[:, :, b::dr, b] = rt[:, :, :, b]
        cores.append(core)
    train = MpoTrain(tuple(cores))
    dense = contract_train(train)
    residual = _gram_residual(dense, contract_train(cert.train))
    return cores, residual, operator_schmidt_rank(dense, train.out_dims, in_dims=train.in_dims)


def loop_psd_defect(cert):
    """The psd defect taken one core slice at a time."""
    worst = 0.0
    for core in cert.train.cores:
        for a in range(core.shape[0]):
            for b in range(core.shape[3]):
                mat = core[a, :, :, b]
                w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
                top = max(w.max(initial=0.0), SCALE_FLOOR)
                skew = np.abs(mat - mat.conj().T).max(initial=0.0) / max_abs(mat)
                worst = max(worst, -w.min(initial=0.0) / top, skew)
    return worst


def random_separable(n, d, bond, dtype, seed):
    """Open train of psd core slices, of every rank from 1 to d."""
    rng = np.random.default_rng(seed)
    bonds = (1,) + (bond,) * (n - 1) + (1,)
    cores = []
    for k in range(n):
        g = rng.normal(size=(bonds[k], bonds[k + 1], d, 1 + k % d))
        if dtype is complex:
            g = g + 1j * rng.normal(size=g.shape)
        cores.append(np.ascontiguousarray((g @ np.conj(g).swapaxes(-1, -2)).transpose(0, 2, 3, 1)))
    return SeparableCertificate(MpoTrain(tuple(cores)), bond, 0.0)


SEPARABLE_CASES = [(f"mixedw-{n}", (n,)) for n in range(2, 8)] + [
    (f"n{n}-d{d}-bond{bond}-{dtype.__name__}", (n, d, bond, dtype))
    for n in (2, 3, 4)
    for d in (2, 3)
    for bond in (1, 2, 3)
    for dtype in (float, complex)
]


@pytest.mark.parametrize("args", [case[1] for case in SEPARABLE_CASES], ids=[case[0] for case in SEPARABLE_CASES])
def test_separable_purification_and_defect_match_the_slice_loops(args):
    cert = mixed_w_generator(*args)[1] if len(args) == 1 else random_separable(*args, seed=sum(args[:3]))
    puri = purification_from_separable(cert)
    cores, residual, osr = loop_purification_from_separable(cert)
    for got, want in zip(puri.train.cores, cores, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    assert puri.residual == residual and puri.osr_L == osr
    assert cert.psd_defect() == loop_psd_defect(cert)


# ---------------------------------------------------------------------------
# quantum square-root rank


def test_q_sqrt_all_ones_embed():
    op = op_on_qubits(np.diag([1.0, 1.0, 1.0, 1.0]), 2)
    rank, signs = q_sqrt_rank(op)
    assert rank == 1


def test_q_sqrt_flip_embed():
    # oracle: all four sign patterns of [[0,s1],[s2,0]] have |det| = 1
    for s1 in (1, -1):
        for s2 in (1, -1):
            assert abs(np.linalg.det(np.array([[0, s1], [s2, 0]]))) == 1
    op = op_on_qubits(np.diag([0.0, 1.0, 1.0, 0.0]), 2)
    rank, _ = q_sqrt_rank(op)
    assert rank == 2


def test_q_sqrt_pure_state():
    rng = np.random.default_rng(8)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho = np.outer(psi, psi.conj())
    op = op_on_qubits(rho, 2)
    rank, signs = q_sqrt_rank(op)
    assert rank == operator_schmidt_rank(op)
    assert len(signs.signs) == 1


def test_q_sqrt_refuses_large_rank():
    # rank 32, not diagonal: the walk would rank 2^31 sign vectors, over the
    # default budget of 2^15 (the walk of a rank-16 operator)
    rng = np.random.default_rng(9)
    op = op_on_qubits(rand_psd(32, rng), 5)
    with pytest.raises(SignBudgetError, match=r"32 nonzero eigenvalues leave 2\^31 sign patterns to rank, "
                       r"over the sign budget 32768"):
        q_sqrt_rank(op)


def test_q_sqrt_spectral_budget_counts_the_global_flip_walk():
    # rank 5, not diagonal: one pin, 2^4 vectors ranked, so a budget of 2^4
    # admits the walk and one vector less refuses it
    op = op_on_qubits(rand_psd(8, np.random.default_rng(19), rank=5), 3)
    assert q_sqrt_rank(op, sign_budget=2**4)[0] >= 3
    with pytest.raises(SignBudgetError, match=r"5 nonzero eigenvalues leave 2\^4 sign patterns"):
        q_sqrt_rank(op, sign_budget=2**4 - 1)


def test_q_sqrt_refuses_a_full_rank_operator_before_forming_a_root(monkeypatch, traced_memory):
    # 7 qubits at full rank, spectrum given: past the is_diagonal test, which
    # copies rho once, the refusal forms no root, stack or matricization
    op = op_on_qubits(rand_psd(128, np.random.default_rng(20)), 7)
    spectrum = clipped_spectrum(op)

    def refuse(*args, **kwargs):
        raise AssertionError("the walk was prepared for an operator over budget")

    monkeypatch.setattr(decompositions, "min_rank_sign_pattern", refuse)
    with traced_memory() as mem:
        with pytest.raises(SignBudgetError, match=r"128 nonzero eigenvalues leave 2\^127"):
            q_sqrt_rank(op, spectrum=spectrum)
    assert mem.peak - mem.base < 1.5 * op.data.nbytes


def test_q_sqrt_upper_bounded_by_psd_root_osr():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rho = rand_psd(8, rng, rank=3)
        op = op_on_qubits(rho, 3)
        w, v = np.linalg.eigh(rho)
        root = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        rank, _ = q_sqrt_rank(op)
        assert rank <= operator_schmidt_rank(root, (2, 2, 2))


def test_q_sqrt_all_plus_equals_psd_root_osr():
    # ties break toward all-plus, so whenever the minimizer comes back
    # all-plus the value must equal the Schmidt rank of the psd square root
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(20):
        rho = rand_psd(8, rng, rank=int(rng.integers(1, 4)))
        op = op_on_qubits(rho, 3)
        rank, signs = q_sqrt_rank(op)
        w, v = np.linalg.eigh(rho)
        root = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        root_osr = operator_schmidt_rank(root, (2, 2, 2))
        assert rank <= root_osr
        if all(s == 1 for s in signs.signs):
            assert rank == root_osr
            hits += 1
    assert hits > 0


def test_q_sqrt_polynomial_bound_diagonal_corpus():
    # distinct-eigenvalue polynomial bound on random low-rank diagonal operators
    rng = np.random.default_rng(11)
    for _ in range(15):
        m = np.round(rng.uniform(0, 1, (2, 2)) * rng.integers(0, 2, (2, 2)), 3)
        op = op_on_qubits(np.diag(m.ravel()), 2)
        osr = operator_schmidt_rank(op)
        if osr == 0:
            continue
        rank, _ = q_sqrt_rank(op)
        # distinct eigenvalues, grouped within 1e-8 * lambda_max
        w = np.sort(op.eigenvalues())
        mclusters = 1 + int(np.count_nonzero(np.diff(w) > 1e-8 * np.abs(w).max()))
        bound = sum(osr**l for l in range(mclusters))
        assert rank <= bound


# ---------------------------------------------------------------------------
# translation-invariant forms


def test_make_ti_product_state():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    target = kron_chain([a, a, a])
    train, _ = mpo_train_form(target, (2, 2, 2))
    site = make_translation_invariant(train)
    assert site.bond_dim == 3 * max(train.bond_dims)
    rec = contract_cyclic(site, 3)
    assert np.linalg.norm(rec - target) <= 1e-9 * np.linalg.norm(target)


def test_make_ti_w_train():
    fam = w_state_generators(4)
    site = make_translation_invariant(fam.open_train)
    assert site.bond_dim == 8
    rec = contract_cyclic(site, 4).ravel()
    assert np.linalg.norm(rec - fam.vector) <= 1e-9


def loop_fold(train):
    """The fold with each core first padded into a block of its own."""
    n, bond = train.n, max(max(c.shape[0], c.shape[3]) for c in train.cores)
    do, di = train.out_dims[0], train.in_dims[0]
    big = np.zeros((n * bond, do, di, n * bond), dtype=complex)
    for k, core in enumerate(train.cores):
        kk = (k + 1) % n
        block = np.zeros((bond, do, di, bond), dtype=complex)
        block[: core.shape[0], :, :, : core.shape[3]] = core
        big[k * bond : (k + 1) * bond, :, :, kk * bond : (kk + 1) * bond] = block
    big *= n ** (-1.0 / n)
    return big


FOLD_CASES = (
    [(f"w-{n}", lambda n=n: w_state_generators(n).open_train) for n in (2, 3, 6)]
    + [(f"mixedw-{n}", lambda n=n: mixed_w_generator(n)[1].train) for n in (2, 3, 5)]
    + [("product", lambda: mpo_train_form(kron_chain([np.diag([0.7, 0.3])] * 3), (2, 2, 2))[0])]
)


@pytest.mark.parametrize("make", [case[1] for case in FOLD_CASES], ids=[case[0] for case in FOLD_CASES])
def test_fold_matches_the_padded_blocks(make):
    train = make()
    got = make_translation_invariant(train).tensor
    want = loop_fold(train)
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def test_w_family_cyclic_site_is_the_fold_of_its_open_train():
    for n in (2, 5):
        fam = w_state_generators(n)
        assert np.array_equal(fam.cyclic_site.tensor, make_translation_invariant(fam.open_train).tensor)


# ---------------------------------------------------------------------------
# tooling guard: one builder of cyclic tensors

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"
FOLD = "make_translation_invariant"


def cyclic_builds(source: str):
    """``(line, enclosing function path)`` of each ``TiSiteTensor(...)`` call outside the fold."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TiSiteTensor" and path != [FOLD]:
                    found.append((child.lineno, ".".join(path) or "<module>"))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_fold_builds_cyclic_tensors(path):
    assert cyclic_builds(path.read_text(encoding="utf-8")) == []


def test_guard_flags_cyclic_tensors_built_outside_the_fold():
    source = (
        "def make_translation_invariant(train):\n"
        "    return TiSiteTensor(big)\n"
        "def w_state_generators(n):\n"
        "    cyc = np.zeros((2 * n, 2, 1, 2 * n))\n"
        "    return WStateFamily(cyclic_site=TiSiteTensor(cyc))\n"
        "class Family:\n"
        "    def site(self):\n"
        "        return tensor_core.TiSiteTensor(self.cyc)\n"
        "def isinstance_only(site):\n"
        "    return isinstance(site, TiSiteTensor)\n"
    )
    assert cyclic_builds(source) == [(5, "w_state_generators"), (8, "site")]


def test_make_ti_random_diagonal():
    rng = np.random.default_rng(13)
    vals = rng.uniform(0.2, 1.0, 8)
    acc = np.zeros(8)
    cur = vals.copy()
    for _ in range(3):
        acc += cur
        nxt = np.zeros(8)
        for idx in range(8):
            bits = [(idx >> (2 - k)) & 1 for k in range(3)]
            shifted = bits[1:] + bits[:1]
            nxt[4 * shifted[0] + 2 * shifted[1] + shifted[2]] = cur[idx]
        cur = nxt
    sigma = np.diag(acc)
    train, _ = mpo_train_form(sigma, (2, 2, 2))
    site = make_translation_invariant(train)
    rec = contract_cyclic(site, 3)
    assert np.linalg.norm(rec - sigma) <= 1e-9 * np.linalg.norm(sigma)


def test_make_ti_full_nondiagonal_operator():
    # shift-symmetrized sum of random product operators: dense, non-diagonal
    rng = np.random.default_rng(20)
    mats = [rand_psd(2, rng) for _ in range(3)]
    target = np.zeros((8, 8), dtype=complex)
    for shift in range(3):
        target += kron_chain([mats[(k + shift) % 3] for k in range(3)])
    train, _ = mpo_train_form(target, (2, 2, 2))
    site = make_translation_invariant(train)
    rec = contract_cyclic(site, 3)
    assert np.linalg.norm(rec - target) <= 1e-9 * np.linalg.norm(target)


def test_make_ti_rejects_non_invariant():
    rng = np.random.default_rng(14)
    op = kron_chain([rand_psd(2, rng), rand_psd(2, rng), rand_psd(2, rng)])
    train, _ = mpo_train_form(op, (2, 2, 2))
    with pytest.raises(UsageError):
        make_translation_invariant(train)


def test_cyclic_output_shift_invariant():
    fam = w_state_generators(5)
    rec = contract_cyclic(fam.cyclic_site, 5)
    assert cyclic_shift_defect(rec, (2,) * 5, (1,) * 5) <= 1e-12


# ---------------------------------------------------------------------------
# W-state family


def test_w_vector_three_sites():
    fam = w_state_generators(3)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1.0 / np.sqrt(3)
    assert np.allclose(fam.vector, expected, atol=1e-15)


def test_w_word_traces():
    # the open train's amplitudes are the word tr(B A^{i_1} A^{i_2} A^{i_3}) / sqrt(3)
    amp = contract_train(w_state_generators(3).open_train).ravel()
    assert abs(np.sqrt(3) * amp[0b100] - 1.0) < 1e-15
    assert abs(amp[0b000]) < 1e-15


def test_w_family_mutual_consistency():
    for n in range(2, 11):
        fam = w_state_generators(n)
        open_vec = contract_train(fam.open_train).ravel()
        cyc_vec = contract_cyclic(fam.cyclic_site, n).ravel()
        assert np.linalg.norm(open_vec - fam.vector) <= 1e-12
        assert np.linalg.norm(cyc_vec - fam.vector) <= 1e-12
        assert fam.cyclic_site.bond_dim == 2 * n


# ---------------------------------------------------------------------------
# transfer matrix and periodicity


def test_transfer_matrix_scalar_case():
    v = np.array([0.6, 0.8])
    site = TiSiteTensor(v.reshape(1, 2, 1, 1))
    e = transfer_matrix(site)
    assert e.shape == (1, 1)
    assert abs(e[0, 0] - 1.0) < 1e-15


def test_transfer_matrix_w_shape():
    fam = w_state_generators(5)
    assert transfer_matrix(fam.cyclic_site).shape == (100, 100)


def test_w_transfer_contains_roots_of_unity():
    fam = w_state_generators(5)
    eigs = np.linalg.eigvals(transfer_matrix(fam.cyclic_site))
    scaled = eigs / np.abs(eigs).max()
    for r in range(5):
        root = np.exp(2j * np.pi * r / 5)
        assert np.min(np.abs(scaled - root)) <= 1e-8


def test_periodicity_w_nine():
    fam = w_state_generators(9)
    holds, bound = periodicity_lower_bound(fam.cyclic_site, 9)
    assert holds and bound == 3


def test_periodicity_product_fails():
    site = TiSiteTensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
    holds, bound = periodicity_lower_bound(site, 3)
    assert not holds and bound == 1


def test_periodicity_mixed_w_diagonal_tensor():
    rho, _ = mixed_w_generator(4)
    train, _ = mpo_train_form(rho)
    site = make_translation_invariant(train)
    # oracle: eigenvalues of the transfer map, rescaled to unit radius
    eigs = np.linalg.eigvals(transfer_matrix(site))
    scaled = eigs / np.abs(eigs).max()
    assert all(
        np.min(np.abs(scaled - np.exp(2j * np.pi * r / 4))) <= 1e-8 for r in range(4)
    )
    holds, bound = periodicity_lower_bound(site, 4)
    assert holds and bound == 2


# ---------------------------------------------------------------------------
# the transfer spectrum block by block, against the whole matrix


def unmatched(got, want, tol):
    """Entries of ``want`` with no partner within ``tol`` in ``got``, pairing one to one
    by nearest distance (``got`` and ``want`` must have the same length)."""
    assert len(got) == len(want)
    free = list(got)
    missing = []
    for w in sorted(want, key=abs, reverse=True):
        k = int(np.argmin(np.abs(np.asarray(free) - w)))
        if abs(free[k] - w) > tol:
            missing.append(w)
        free.pop(k)
    return missing


def full_periodicity(site, n, tol=1e-8):
    """The periodicity test on the spectrum of the whole transfer matrix."""
    eigs = np.linalg.eigvals(transfer_matrix(site))
    radius = np.abs(eigs).max(initial=0.0)
    if radius == 0.0:
        return False, 1
    scaled = eigs / radius
    holds = all(np.abs(scaled - np.exp(2j * np.pi * k / n)).min() <= tol for k in range(n))
    return bool(holds), (int(np.ceil(np.sqrt(n))) if holds else 1)


def mixed_w_fold(n):
    rho, _ = mixed_w_generator(n)
    return make_translation_invariant(mpo_train_form(rho)[0])


def dense_site(bond=3, seed=11):
    rng = np.random.default_rng(seed)
    shape = (bond, 2, 2, bond)
    return TiSiteTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape))


PERIODICITY_CASES = (
    [(f"w-{n}", w_state_generators(n).cyclic_site, n) for n in range(2, 13)]
    + [(f"mixedw-{n}", mixed_w_fold(n), n) for n in range(2, 9)]
    + [
        ("dense", dense_site(), 3),
        ("product", TiSiteTensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1)), 3),
        ("zero", TiSiteTensor(np.zeros((2, 2, 2, 2))), 3),
    ]
)


@pytest.mark.parametrize(
    "site, n", [case[1:] for case in PERIODICITY_CASES], ids=[case[0] for case in PERIODICITY_CASES]
)
def test_block_transfer_spectrum_matches_the_whole_matrix(site, n):
    e = transfer_matrix(site)
    want = np.linalg.eigvals(e)
    got = block_eigvals(e)
    radius = np.abs(want).max(initial=0.0)
    assert np.abs(got).max(initial=0.0) == pytest.approx(radius, rel=1e-12, abs=0.0)
    # The folds are defective at 0 (nilpotent Jordan blocks), where eigvals of
    # either form scatters the eigenvalue 0 by up to ~eps^(1/k): 1.6e-2 of the
    # radius at W n = 12.  Every other eigenvalue has modulus >= 0.69 of the
    # radius, so the spectra are compared pairwise above a cut in that gap and
    # by count below it.
    cut = 0.1 * radius
    assert np.count_nonzero(np.abs(got) <= cut) == np.count_nonzero(np.abs(want) <= cut)
    assert unmatched(got[np.abs(got) > cut], want[np.abs(want) > cut], 1e-10 * radius) == []
    assert periodicity_lower_bound(site, n) == full_periodicity(site, n)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_every_fold_has_the_periodic_signature(n):
    # a property of the given tensor, not a bound on the state: the fold of
    # a product state has it, while the bond-1 tensor sigma gives the same state
    sigma = np.array([[0.7, 0.1], [0.1, 0.3]])
    rho = kron_chain([sigma] * n)
    site = make_translation_invariant(mpo_train_form(op_on_qubits(rho, n))[0])
    assert periodicity_lower_bound(site, n) == (True, int(np.ceil(np.sqrt(n))))
    bond_one = TiSiteTensor(sigma.reshape(1, 2, 2, 1))
    assert np.linalg.norm(contract_cyclic(bond_one, n) - rho) <= 1e-12 * np.linalg.norm(rho)
    assert periodicity_lower_bound(bond_one, n) == (False, 1)


@pytest.mark.parametrize(
    "site, largest, calls",
    [(w_state_generators(10).cyclic_site, 19, 19), (mixed_w_fold(8), 29, 3), (dense_site(), 9, 1)],
    ids=["w-10", "mixedw-8", "dense"],
)
def test_block_eigvals_stacks_one_call_per_block_size(monkeypatch, site, largest, calls):
    shapes = []
    eigvals = np.linalg.eigvals

    def spy(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    got = block_eigvals(transfer_matrix(site))
    assert len(shapes) == calls and max(s[-1] for s in shapes) == largest
    assert sum(s[0] * s[1] for s in shapes) == got.size == site.bond_dim**2


@st.composite
def permuted_block_diagonal(draw):
    """A complex block-diagonal matrix under a random symmetric permutation.

    Blocks are dense, all zero (isolated zero rows and columns; a 1 x 1 zero
    block at size 1), or dense but for one zero row or column.
    """
    blocks = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from(["dense", "zero", "zero-row", "zero-col"])),
            min_size=1,
            max_size=8,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = sum(size for size, _ in blocks)
    a = np.zeros((side, side), dtype=complex)
    at = 0
    for size, kind in blocks:
        blk = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        if kind == "zero":
            blk[:] = 0.0
        elif kind == "zero-row":
            blk[rng.integers(size)] = 0.0
        elif kind == "zero-col":
            blk[:, rng.integers(size)] = 0.0
        a[at : at + size, at : at + size] = blk
        at += size
    perm = rng.permutation(side)
    return a[np.ix_(perm, perm)]


@settings(max_examples=80, deadline=None, database=None)
@given(permuted_block_diagonal())
def test_block_eigvals_is_the_spectrum_of_the_whole_matrix(a):
    want = np.linalg.eigvals(a)
    got = block_eigvals(a)
    assert unmatched(got, want, 1e-9 * max(np.linalg.norm(a, 2), 1.0)) == []


# ---------------------------------------------------------------------------
# mixed W generator


def test_mixed_w_two_sites_explicit():
    rho, cert = mixed_w_generator(2)
    assert np.allclose(rho.data, np.diag([0.0, 0.5, 0.5, 0.0]))
    assert cert.inner_dim == 2
    assert cert.residual <= 1e-10


def test_mixed_w_diagonal_support():
    rho, _ = mixed_w_generator(4)
    diag = np.diagonal(rho.data).real
    nz = diag[diag > 0]
    assert len(nz) == 4 and np.allclose(nz, 0.25)
    assert np.linalg.norm(rho.data - np.diag(diag)) == 0.0


def test_mixed_w_shift_invariant_and_psd_cores():
    for n in (2, 3, 5):
        rho, cert = mixed_w_generator(n)
        assert cyclic_shift_defect(rho) <= 1e-12
        assert cert.psd_defect() <= 1e-12


# ---------------------------------------------------------------------------
# rank inequality properties


def test_subadditive_and_submultiplicative():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        dims = (2,) * n
        side = 2**n
        rho = rand_psd(side, rng, rank=int(rng.integers(1, side + 1)))
        tau = rand_psd(side, rng, rank=int(rng.integers(1, side + 1)))
        ra = operator_schmidt_rank(rho, dims)
        rb = operator_schmidt_rank(tau, dims)
        assert operator_schmidt_rank(rho + tau, dims) <= ra + rb
        assert operator_schmidt_rank(rho @ tau, dims) <= ra * rb
        assert ra <= schmidt_rank_cap(dims)


def test_pure_state_identity():
    rng = np.random.default_rng(16)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        osr_l = operator_schmidt_rank(psi, (2, 2), in_dims=(1, 1))
        rho = np.outer(psi, psi.conj())
        assert operator_schmidt_rank(rho, (2, 2)) == osr_l**2

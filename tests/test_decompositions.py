import numpy as np
import pytest

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
    spectral_cluster_count,
    transfer_matrix,
    w_state_generators,
)
from mpdo_kit.tensor_core import (
    PsdOperator,
    SiteSpec,
    TiSiteTensor,
    UsageError,
    contract_cyclic,
    contract_train,
    cyclic_shift_defect,
    kron_chain,
    matricize,
    numerical_rank,
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
    rng = np.random.default_rng(9)
    op = op_on_qubits(rand_psd(32, rng), 5)
    with pytest.raises(UsageError):
        q_sqrt_rank(op, max_enum_rank=16)


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
        mclusters = spectral_cluster_count(op)
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
    fam = w_state_generators(3)
    assert abs(np.trace(fam.b @ fam.a1 @ fam.a0 @ fam.a0) - 1.0) < 1e-15
    assert abs(np.trace(fam.b @ fam.a0 @ fam.a0 @ fam.a0)) < 1e-15


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

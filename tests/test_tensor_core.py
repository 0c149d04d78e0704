import numpy as np
import pytest

from mpdo_kit.decompositions import transfer_matrix
from mpdo_kit.tensor_core import (
    MpoTrain,
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
    svd_split,
    unmatricize,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def rand_psd(dim, rng, rank=None):
    x = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    return x @ x.conj().T


def rand_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return q


# ---------------------------------------------------------------------------
# kron_chain


def test_kron_identity():
    assert np.array_equal(kron_chain([np.eye(2), np.eye(2)]), np.eye(4))


def test_kron_basis_projectors():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert np.array_equal(kron_chain([p0, p1]), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_flip_pair():
    # oracle: direct 4x4 hand expansion of the two-site spin flip
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert np.array_equal(kron_chain([SX, SX]), expected)


def test_kron_empty_rejected():
    with pytest.raises(UsageError):
        kron_chain([])


# ---------------------------------------------------------------------------
# matricize


def test_matricize_diag_embed_rank_equals_matrix_rank():
    rng = np.random.default_rng(0)
    m = rng.uniform(0, 1, (3, 2)) @ rng.uniform(0, 1, (2, 4))
    sigma = np.diag(m.ravel())
    cut = matricize(sigma, 1, out_dims=(3, 4))
    assert numerical_rank(cut) == np.linalg.matrix_rank(m)


def test_matricize_product_operator_rank_one():
    rng = np.random.default_rng(1)
    a, b, c = (rand_psd(2, rng) for _ in range(3))
    op = kron_chain([a, b, c])
    for cut in (1, 2):
        assert numerical_rank(matricize(op, cut, out_dims=(2, 2, 2))) == 1


def test_matricize_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    rho = rand_psd(8, rng)
    for cut in (1, 2):
        m = matricize(rho, cut, out_dims=(2, 2, 2))
        assert np.array_equal(unmatricize(m, cut, (2, 2, 2)), rho)


def test_matricize_rectangular_roundtrip():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(2 * 3, 4 * 5))
    m = matricize(data, 1, out_dims=(2, 3), in_dims=(4, 5))
    assert m.shape == (2 * 4, 3 * 5)
    assert np.array_equal(unmatricize(m, 1, (2, 3), (4, 5)), data)


def test_matricize_cut_out_of_range():
    with pytest.raises(UsageError):
        matricize(np.eye(4), 2, out_dims=(2, 2))


# ---------------------------------------------------------------------------
# numerical_rank / svd_split


def test_rank_threshold():
    assert numerical_rank(np.diag([1.0, 1e-15]), 1e-10) == 1


def test_rank_planted_outer_product():
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=5), rng.normal(size=5)
    assert numerical_rank(np.outer(u, v)) == 1


def test_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 4))) == 0


def test_rank_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.normal(size=(6, 6)) @ np.diag([3, 1, 0.5, 1e-14, 0, 0]) @ rng.normal(size=(6, 6))
        r = numerical_rank(m)
        u, v = rand_unitary(6, rng), rand_unitary(6, rng)
        assert numerical_rank(u @ m @ v) == r


def test_svd_split_planted_rank_one():
    rng = np.random.default_rng(6)
    m = np.outer(rng.normal(size=4), rng.normal(size=6))
    left, right, r = svd_split(m)
    assert r == 1
    assert np.linalg.norm(left @ right - m) <= 1e-10 * np.linalg.norm(m)


def test_svd_split_identity_full_rank():
    left, right, r = svd_split(np.eye(4))
    assert r == 4
    assert np.allclose(left @ right, np.eye(4))


def test_svd_split_zero():
    left, right, r = svd_split(np.zeros((3, 5)))
    assert r == 0 and left.shape == (3, 0) and right.shape == (0, 5)


# ---------------------------------------------------------------------------
# contraction


def test_contract_identity_train():
    cores = tuple(np.eye(2).reshape(1, 2, 2, 1) for _ in range(3))
    assert np.allclose(contract_train(MpoTrain(cores)), np.eye(8))


def test_contract_two_site_bond2_separable_form():
    # bond-2 train of projectors onto |+> and |->: reproduces the
    # two-site flip-symmetric operator at a positive scale
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    c1 = np.zeros((1, 2, 2, 2))
    c1[0, :, :, 0] = np.outer(plus, plus)
    c1[0, :, :, 1] = np.outer(minus, minus)
    c2 = np.zeros((2, 2, 2, 1))
    c2[0, :, :, 0] = np.outer(plus, plus)
    c2[1, :, :, 0] = np.outer(minus, minus)
    got = contract_train(MpoTrain((c1, c2)))
    target = (np.eye(4) + kron_chain([SX, SX])) / 2.0
    # scale-free comparison: positive multiple
    scale = np.trace(got.conj().T @ target).real / np.linalg.norm(target) ** 2
    assert scale > 0
    assert np.linalg.norm(got - scale * target) <= 1e-12 * np.linalg.norm(target)


def test_contract_bond_mismatch_rejected():
    c1 = np.zeros((1, 2, 2, 2))
    c2 = np.zeros((3, 2, 2, 1))
    with pytest.raises(UsageError):
        MpoTrain((c1, c2))


def test_boundary_bond_must_be_one():
    with pytest.raises(UsageError):
        MpoTrain((np.zeros((2, 2, 2, 1)),))


def test_contract_cyclic_product_case():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    site = TiSiteTensor(a.reshape(1, 2, 2, 1))
    for n in (1, 2, 3):
        assert np.allclose(contract_cyclic(site, n), kron_chain([a] * n))


def rand_cores(rng, out_dims, in_dims, bonds):
    """Random complex cores with the given legs and internal bonds, boundary bonds 1."""
    edges = (1,) + tuple(bonds) + (1,)
    return tuple(
        rng.normal(size=(edges[k], do, di, edges[k + 1]))
        + 1j * rng.normal(size=(edges[k], do, di, edges[k + 1]))
        for k, (do, di) in enumerate(zip(out_dims, in_dims))
    )


def einsum_contract_train(cores):
    """Reference open-train contraction by np.einsum, one bond at a time."""
    cur = cores[0][0]
    for core in cores[1:]:
        cur = np.einsum("ijb,bklc->ikjlc", cur, core)
        cur = cur.reshape(cur.shape[0] * cur.shape[1], cur.shape[2] * cur.shape[3], cur.shape[4])
    return cur[:, :, 0]


def einsum_contract_cyclic(t, n):
    """Reference cyclic contraction by np.einsum, closed by an einsum trace."""
    cur = t
    for _ in range(n - 1):
        cur = np.einsum("aijb,bklc->aikjlc", cur, t)
        s = cur.shape
        cur = cur.reshape(s[0], s[1] * s[2], s[3] * s[4], s[5])
    return np.einsum("aija->ij", cur)


@pytest.mark.parametrize(
    "out_dims, in_dims, bonds",
    [
        ((3,), (2,), ()),
        ((2,), (1,), ()),
        ((2, 3), (3, 1), (4,)),
        ((2, 3, 2), (1, 2, 3), (3, 5)),
        ((3, 2, 2, 2), (2, 2, 1, 3), (2, 4, 3)),
        ((2, 2, 2), (2, 2, 2), (1, 1)),
    ],
)
def test_contract_train_matches_einsum_oracle(out_dims, in_dims, bonds):
    rng = np.random.default_rng(sum(bonds) + len(out_dims))
    cores = rand_cores(rng, out_dims, in_dims, bonds)
    want = einsum_contract_train(cores)
    got = contract_train(MpoTrain(cores))
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("shape", [(1, 2, 3, 1), (3, 2, 1, 3), (2, 3, 2, 2), (4, 1, 2, 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contract_cyclic_matches_einsum_oracle(shape, n):
    rng = np.random.default_rng(n)
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = einsum_contract_cyclic(t, n)
    got = contract_cyclic(TiSiteTensor(t), n)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("shape", [(1, 2, 3, 1), (3, 2, 1, 3), (2, 3, 2, 2), (5, 1, 1, 5)])
def test_transfer_matrix_matches_einsum_oracle(shape):
    rng = np.random.default_rng(shape[0])
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    d = shape[0]
    want = np.einsum("aijb,cijd->acbd", t, t.conj()).reshape(d * d, d * d)
    got = transfer_matrix(TiSiteTensor(t))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_cyclic_shift_defect():
    rng = np.random.default_rng(8)
    a = rand_psd(2, rng)
    sym = kron_chain([a, a, a])
    assert cyclic_shift_defect(sym, (2, 2, 2)) < 1e-15
    asym = kron_chain([a, rand_psd(2, rng), a])
    assert cyclic_shift_defect(asym, (2, 2, 2)) > 1e-3


# ---------------------------------------------------------------------------
# PsdOperator ingestion


def test_operator_symmetrization_warning():
    data = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.warns(UserWarning):
        op = PsdOperator(SiteSpec((2,)), data)
    assert np.allclose(op.data, 0.5 * (data + data.T))


def test_operator_shape_validation():
    with pytest.raises(UsageError):
        PsdOperator(SiteSpec((2, 2)), np.eye(3))


def test_psd_assertion():
    op = PsdOperator(SiteSpec((2,)), np.diag([1.0, -0.5]))
    assert not op.is_psd()
    with pytest.raises(UsageError):
        op.assert_psd()

import itertools

import numpy as np
import pytest

from mpdo_kit.certificates import (
    FactorCertificate,
    NecessaryConditionError,
    check_factor_certificate,
    pair_traces,
)
from mpdo_kit import correspondence, decompositions, nonneg_factorizations, tensor_core
from mpdo_kit.correspondence import (
    DiagBipartite,
    canonical_kind,
    decomposition_to_factorization,
    diag_embed,
    diag_extract,
    factorization_to_decomposition,
    verify_correspondence,
)
from mpdo_kit.decompositions import (
    local_purification_spectral,
    mixed_w_generator,
    mpo_train_form,
    operator_schmidt_rank,
)
from mpdo_kit.nonneg_factorizations import (
    cp_factorization_search,
    cpsdt_construct,
    hadamard_root_certificate,
    minimal_factorization,
    psd_factorization_search,
    sqrt_rank,
    symmetric_factorization,
)
from mpdo_kit.tensor_core import (
    DEFAULT_RANK_TOL,
    PsdOperator,
    SignBudgetError,
    SiteSpec,
    UsageError,
    contract_train,
    nonzero_mask,
    psd_gram_factor,
    relative_residual,
)


def rand_cpsd(r, rng):
    x = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return x @ x.conj().T


# ---------------------------------------------------------------------------
# embedding


def test_diag_embed_identity():
    sigma = diag_embed(np.eye(2))
    assert np.allclose(sigma.data, np.diag([1.0, 0.0, 0.0, 1.0]))
    assert sigma.sites.dims == (2, 2)


def test_diag_embed_all_ones():
    sigma = diag_embed(np.ones((2, 2)))
    assert np.allclose(sigma.data, np.eye(4))


def test_diag_embed_trace():
    rng = np.random.default_rng(0)
    m = rng.uniform(0, 1, (3, 4))
    assert abs(np.trace(diag_embed(m).data).real - m.sum()) < 1e-12


def test_diag_embed_mixed_w_scale():
    # the two-site spin-flip mixture equals the embedded flip matrix after
    # removing its 1/2 trace normalization
    rho, _ = mixed_w_generator(2)
    embedded = diag_embed(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(embedded.data, 2.0 * rho.data)


def test_diag_extract_roundtrip_exact():
    rng = np.random.default_rng(1)
    m = rng.uniform(0, 1, (4, 5))
    assert np.array_equal(diag_extract(diag_embed(m)), m)


def test_diag_extract_flip_mixture():
    rho, _ = mixed_w_generator(2)
    assert np.allclose(diag_extract(rho), 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_diag_extract_rejects_entangled_projector():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1.0 / np.sqrt(2)
    op = PsdOperator(SiteSpec((2, 2)), np.outer(phi, phi))
    with pytest.raises(UsageError):
        diag_extract(op)


def test_diag_extract_rejects_three_sites():
    op = PsdOperator(SiteSpec((2, 2, 2)), np.eye(8))
    with pytest.raises(UsageError):
        diag_extract(op)


def test_kind_aliases():
    assert canonical_kind("iii") == "psd"
    assert canonical_kind("sqrt") == "hadamard-root"
    assert canonical_kind("nonneg") == "nonnegative"
    with pytest.raises(UsageError):
        canonical_kind("viii")


# ---------------------------------------------------------------------------
# converters, kind by kind


def test_minimal_forward_gives_osr_train():
    rng = np.random.default_rng(2)
    m = rng.uniform(0, 1, (4, 3)) @ rng.uniform(0, 1, (3, 5))
    cert = minimal_factorization(m)
    dec = factorization_to_decomposition("minimal", cert, DiagBipartite(m))
    assert dec.inner_dim == cert.inner_dim == 3
    assert dec.residual <= 1e-10
    assert operator_schmidt_rank(diag_embed(m)) == 3


def test_minimal_reverse_from_generic_train():
    rng = np.random.default_rng(3)
    m = rng.uniform(0, 1, (4, 5))
    train, osr = mpo_train_form(diag_embed(m))
    cert = decomposition_to_factorization("minimal", train)
    assert cert.inner_dim == osr == np.linalg.matrix_rank(m)
    check_factor_certificate(m, cert)


def test_nonneg_forward_cores_are_psd():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, (3, 2))
    b = rng.uniform(0, 1, (2, 3))
    cert = FactorCertificate("nonnegative", 2, {"left": a, "right": b}, 0.0)
    dec = factorization_to_decomposition("ii", cert, DiagBipartite(a @ b))
    assert dec.payload.psd_defect() <= 1e-12
    assert dec.residual <= 1e-10
    back = decomposition_to_factorization("ii", dec)
    check_factor_certificate(a @ b, back)
    assert back.inner_dim == 2


def test_psd_forward_purifies_and_reverse_recovers():
    rng = np.random.default_rng(5)
    for trial in range(5):
        p, q = rng.integers(2, 6, size=2)
        e = [rand_cpsd(2, rng) for _ in range(p)]
        f = [rand_cpsd(2, rng) for _ in range(q)]
        m = pair_traces(e, f)
        cert = FactorCertificate("psd", 2, {"E": e, "F": f}, 0.0)
        dec = factorization_to_decomposition("psd", cert, DiagBipartite(m))
        sigma = diag_embed(m).data
        dense = contract_train(dec.payload.train)
        assert np.linalg.norm(dense @ dense.conj().T - sigma) <= 1e-8 * np.linalg.norm(sigma)
        back = decomposition_to_factorization("psd", dec)
        assert back.inner_dim == dec.inner_dim == 2
        check_factor_certificate(m, back)
        for mat in back.payload["E"] + back.payload["F"]:
            assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_psd_reverse_from_spectral_purification():
    # oracle: evaluating the Gram formulas on the explicit spectral factor
    sigma = diag_embed(np.eye(2))
    puri = local_purification_spectral(sigma)
    cert = decomposition_to_factorization("psd", puri)
    assert cert.inner_dim == puri.osr_L == 2
    check_factor_certificate(np.eye(2), cert)


def test_symmetric_roundtrip():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    cert = symmetric_factorization(m)
    dec = factorization_to_decomposition("iv", cert, DiagBipartite(m))
    assert dec.site_symmetric and dec.inner_dim == 2
    assert dec.residual <= 1e-10
    back = decomposition_to_factorization("iv", dec)
    check_factor_certificate(m, back)


def test_cp_roundtrip():
    rng = np.random.default_rng(6)
    a = rng.uniform(0.2, 1.0, (3, 2))
    m = a @ a.T
    cert = cp_factorization_search(m, 2, restarts=30)
    assert cert is not None
    dec = factorization_to_decomposition("v", cert, DiagBipartite(m))
    assert dec.site_symmetric
    assert dec.payload.psd_defect() <= 1e-10
    back = decomposition_to_factorization("v", dec)
    check_factor_certificate(m, back, residual_tol=1e-5)


def test_cpsdt_roundtrip_flip_witness():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    cert = cpsdt_construct(m)
    dec = factorization_to_decomposition("vi", cert, DiagBipartite(m))
    assert dec.site_symmetric
    assert dec.residual <= 1e-10
    # both sites carry the same factor slices (site-symmetric form)
    core1, core2 = dec.payload.train.cores
    for k in range(core1.shape[3]):
        assert np.array_equal(core1[0, :, :, k], core2[k, :, :, 0])
    back = decomposition_to_factorization("vi", dec)
    assert back.inner_dim == cert.inner_dim == 2
    check_factor_certificate(m, back)
    # the flip mixture admits no real symmetric route: some recovered E is
    # genuinely complex and the cp prescreen rejects the matrix
    assert any(np.abs(np.asarray(e).imag).max() > 0.01 for e in back.payload["E"])
    with pytest.raises(NecessaryConditionError):
        cp_factorization_search(m, 2)


@pytest.mark.parametrize("kind", ["symmetric", "cpsdt"])
def test_symmetric_read_back_records_the_residual_of_its_mirrored_payload(kind):
    # M = I @ M on a symmetric M: a decomposition whose two sites differ,
    # read back as a symmetric kind, keeps the first site and mirrors it
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    general = "minimal" if kind == "symmetric" else "psd"
    if kind == "symmetric":
        cert = FactorCertificate(general, 2, {"left": np.eye(2), "right": m}, 0.0)
    else:
        e_list = [np.diag(row).astype(complex) for row in np.eye(2)]
        f_list = [np.diag(col).astype(complex) for col in m.T]
        cert = FactorCertificate(general, 2, {"E": e_list, "F": f_list}, 0.0)
    dec = factorization_to_decomposition(general, cert, DiagBipartite(m))
    back = decomposition_to_factorization(kind, dec)
    if kind == "symmetric":
        a = back.payload["factor"]
        rebuilt = (a @ a.T).real
    else:
        rebuilt = pair_traces(back.payload["E"], back.payload["E"])
    assert back.residual == pytest.approx(np.abs(rebuilt - m).max())
    assert back.residual >= 1.0


def test_hadamard_roundtrip():
    m = np.ones((2, 2))
    cert = hadamard_root_certificate(m)
    dec = factorization_to_decomposition("vii", cert, DiagBipartite(m))
    tau = dec.payload
    sigma = diag_embed(m).data
    assert np.linalg.norm(tau @ tau - sigma) <= 1e-12
    back = decomposition_to_factorization("vii", dec, sites=(2, 2))
    assert back.inner_dim == 1
    check_factor_certificate(m, back)
    # a dense root does not say how its side splits into two sites
    with pytest.raises(UsageError, match="site dimensions are required"):
        decomposition_to_factorization("vii", dec)
    with pytest.raises(UsageError, match="must be bipartite"):
        decomposition_to_factorization("vii", dec, sites=(2, 2, 1))


def test_hadamard_root_read_back_measures_its_residual():
    # tau squares to diag(-1, 1, 1, 1), not even psd: the real part of its
    # diagonal is no root of it, so it cannot read back as exact
    forged = decomposition_to_factorization("hadamard-root", np.diag([1j, 1, 1, 1]), (2, 2))
    assert np.array_equal(forged.payload["root"], [[0.0, 1.0], [1.0, 1.0]])
    assert forged.residual >= 1.0
    # roots transported from the sign walk read back exactly
    rng = np.random.default_rng(26)
    for shape in ((2, 2), (2, 3), (4, 4)):
        m = rng.uniform(0.1, 1.0, shape)
        dec = factorization_to_decomposition("hadamard-root", hadamard_root_certificate(m), DiagBipartite(m))
        assert decomposition_to_factorization("hadamard-root", dec, sites=shape).residual == 0.0


def test_kind_mismatch_rejected():
    cert = minimal_factorization(np.ones((2, 2)))
    with pytest.raises(UsageError):
        factorization_to_decomposition("psd", cert, DiagBipartite(np.ones((2, 2))))


def test_symmetric_kind_needs_square_symmetric():
    rng = np.random.default_rng(7)
    m = rng.uniform(0, 1, (3, 3))
    with pytest.raises(UsageError):
        verify_correspondence("iv", m)


# ---------------------------------------------------------------------------
# two-way verification


def test_verify_minimal_random_corpus():
    rng = np.random.default_rng(8)
    for _ in range(30):
        p, q = rng.integers(1, 7, size=2)
        r = int(rng.integers(1, min(p, q) + 1))
        m = rng.uniform(0, 1, (p, r)) @ rng.uniform(0, 1, (r, q))
        entry = verify_correspondence("i", m)
        assert entry["verdict"] == "exact-match", entry


def test_verify_symmetric_random_corpus():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(0, 1, (4, 4))
        entry = verify_correspondence("iv", x + x.T)
        assert entry["verdict"] == "exact-match", entry


def test_verify_sqrt_symmetric_binary_patterns():
    # double enumeration across the bridge on all symmetric 0/1 patterns
    for bits in itertools.product((0.0, 1.0), repeat=6):
        m = np.zeros((3, 3))
        m[0, 0], m[1, 1], m[2, 2] = bits[:3]
        m[0, 1] = m[1, 0] = bits[3]
        m[0, 2] = m[2, 0] = bits[4]
        m[1, 2] = m[2, 1] = bits[5]
        entry = verify_correspondence("vii", m)
        assert entry["verdict"] == "exact-match", (m, entry)


def test_verify_nonneg_identity():
    entry = verify_correspondence("ii", np.eye(3))
    assert entry["verdict"] == "intervals-consistent"
    assert entry["matrix_side"] == [3, 3]
    assert entry["state_side"] == [3, 3]


def planted_nonneg(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (6, 3)) @ rng.uniform(0.0, 1.0, (3, 6))


def test_verify_nonneg_planted_graded_at_search_bar():
    # the search certificate meets 1e-6 of max|M|, not the exact 1e-8
    for seed in (1, 2):
        entry = verify_correspondence("ii", planted_nonneg(seed), seed=seed)
        assert entry["verdict"] == "intervals-consistent", entry
        assert entry["matrix_side"] == entry["state_side"] == [3, 3]


def test_verify_nonneg_corrupted_certificate_is_violation(monkeypatch):
    m = planted_nonneg(1)
    scan = correspondence.scan_nonneg_certificate

    def corrupted(matrix, **kwargs):
        # shift one product entry by 5e-6 of max|M|, five times the search bar
        cert = scan(matrix, **kwargs)
        left, right = cert.payload["left"].copy(), cert.payload["right"]
        left[0, 0] += 5e-6 * np.abs(m).max() / right[0].max()
        return FactorCertificate("nonnegative", cert.inner_dim, {"left": left, "right": right}, cert.residual)

    monkeypatch.setattr(correspondence, "scan_nonneg_certificate", corrupted)
    assert verify_correspondence("ii", m, seed=1)["verdict"] == "violation"


def test_verify_psd_and_cpsdt_consistent():
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (3, 3))
    m = x + x.T
    assert verify_correspondence("iii", m)["verdict"] == "intervals-consistent"
    assert verify_correspondence("vi", m)["verdict"] == "intervals-consistent"


def test_verify_cp_planted_and_rejection():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.2, 1.0, (3, 2))
    entry = verify_correspondence("v", a @ a.T, restarts=20)
    assert entry["verdict"] == "intervals-consistent"
    rejected = verify_correspondence("v", np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rejected["verdict"] == "skipped"
    assert "not psd" in rejected["note"]


def test_verify_sqrt_budget_skip():
    entry = verify_correspondence("vii", np.ones((5, 5)), sign_budget=2**4)
    assert entry["verdict"] == "skipped"


def test_verify_sqrt_budget_note_is_the_walks_refusal():
    with pytest.raises(SignBudgetError) as info:
        sqrt_rank(np.ones((5, 5)), 2**4)
    entry = verify_correspondence("vii", np.ones((5, 5)), sign_budget=2**4)
    assert entry["note"] == str(info.value) == "25 nonzero entries leave 2^16 sign patterns to rank, over the sign budget 16"


def test_verify_sqrt_walks_once_and_reads_the_state_side_off_the_root(monkeypatch):
    # the state side is the Schmidt rank of the transported root, read by
    # SVDs, not a second walk over the same signs
    calls = []
    walk = tensor_core._root_sign_walk

    def counting(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(nonneg_factorizations, "_root_sign_walk", counting)
    monkeypatch.setattr(decompositions, "_root_sign_walk", counting)
    m = np.random.default_rng(90).uniform(0.25, 4.0, (3, 4)) * np.array([[1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1]])
    entry = verify_correspondence("vii", m)
    assert len(calls) == 1
    root = hadamard_root_certificate(m).payload["root"]
    tau = np.diag(root.ravel()).astype(complex)
    assert entry["state_side"] == operator_schmidt_rank(tau, (3, 4)) == entry["matrix_side"]
    assert entry["verdict"] == "exact-match"


def test_root_transport_residual_is_that_of_the_dense_square():
    # the transport squares the diagonal root entrywise; the residual of the
    # dense product tau @ tau, its reference, rounds to the same bits
    rng = np.random.default_rng(91)
    for _ in range(50):
        p, q = rng.integers(1, 6, size=2)
        m = rng.uniform(0, 1, (p, q)) * (rng.uniform(size=(p, q)) < 0.7) * 10.0 ** rng.integers(-3, 3)
        cert = hadamard_root_certificate(m)
        dec = factorization_to_decomposition("hadamard-root", cert, DiagBipartite(m))
        tau = dec.payload
        assert dec.residual == relative_residual(tau @ tau, diag_embed(m).data)


@pytest.mark.parametrize("defect", ["rank", "square"])
def test_verify_sqrt_grades_the_transported_root(monkeypatch, defect):
    # a root whose rank is not the certificate's inner dimension, or whose
    # square is not M, is a violation
    m = np.array([[1.0, 4.0], [4.0, 16.0]])
    honest = correspondence.hadamard_root_certificate

    def forged(matrix, sign_budget, rel_tol):
        cert = honest(matrix, sign_budget, rel_tol)
        root = cert.payload["root"].copy()
        if defect == "rank":
            root[1, 1] = -root[1, 1]  # still squares to M, at rank 2
        else:
            root *= 1.001  # rank 1, squaring to 1.002 M
        return FactorCertificate("hadamard-root", cert.inner_dim, {"root": root, "signs": cert.payload["signs"]}, 0.0)

    monkeypatch.setattr(correspondence, "hadamard_root_certificate", forged)
    entry = verify_correspondence("vii", m)
    assert entry["matrix_side"] == 1 and entry["verdict"] == "violation"
    assert entry["state_side"] == (2 if defect == "rank" else 1)


def test_roundtrip_preserves_inner_dim_every_kind():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.1, 1.0, (3, 3))
    sym = x + x.T

    cert = minimal_factorization(sym)
    dec = factorization_to_decomposition("minimal", cert, DiagBipartite(sym))
    assert decomposition_to_factorization("minimal", dec).inner_dim == cert.inner_dim

    cert = symmetric_factorization(sym)
    dec = factorization_to_decomposition("symmetric", cert, DiagBipartite(sym))
    assert decomposition_to_factorization("symmetric", dec).inner_dim == cert.inner_dim

    cert = cpsdt_construct(sym)
    dec = factorization_to_decomposition("cpsdt", cert, DiagBipartite(sym))
    assert decomposition_to_factorization("cpsdt", dec).inner_dim == cert.inner_dim

    cert = hadamard_root_certificate(sym)
    dec = factorization_to_decomposition("hadamard-root", cert, DiagBipartite(sym))
    assert (
        decomposition_to_factorization("hadamard-root", dec, sites=(3, 3)).inner_dim
        == cert.inner_dim
    )


# ---------------------------------------------------------------------------
# one nonzero rule on both sides of pairing (vii)


def test_vii_entry_below_the_cutoff_is_zero_on_both_sides():
    # 1e-12 is below 1e-10 * max|M|: sqrt_rank and q_sqrt_rank of the
    # embedding both leave it out of the support
    entry = verify_correspondence("vii", np.diag([1.0, 1e-12]))
    assert (entry["matrix_side"], entry["state_side"], entry["verdict"]) == (1, 1, "exact-match")


def test_vii_sign_budget_counts_only_nonzero_entries():
    # four unit entries and one at 1e-14: four signs, within a 2^4 budget
    m = np.array([[1.0, 1.0, 1e-14], [1.0, 1.0, 0.0]])
    entry = verify_correspondence("vii", m, sign_budget=2**4)
    assert (entry["matrix_side"], entry["state_side"], entry["verdict"]) == (1, 1, "exact-match")


# ---------------------------------------------------------------------------
# the bridge's vectorized kernels against their index-loop oracles


def loop_diag_cores(left, right):
    d1, r = left.shape
    d2 = right.shape[1]
    core1 = np.zeros((1, d1, d1, r), dtype=complex)
    core2 = np.zeros((r, d2, d2, 1), dtype=complex)
    for k in range(r):
        core1[0, :, :, k] = np.diag(left[:, k])
        core2[k, :, :, 0] = np.diag(right[k, :])
    return core1, core2


def loop_purification_cores(he, hf):
    p, r, s_e = he.shape
    q, _, s_f = hf.shape
    core1 = np.zeros((1, p, p * s_e, r), dtype=complex)
    core2 = np.zeros((r, q, q * s_f, 1), dtype=complex)
    for k in range(r):
        for i in range(p):
            core1[0, i, i * s_e : (i + 1) * s_e, k] = he[i][k, :]
        for j in range(q):
            core2[k, j, j * s_f : (j + 1) * s_f, 0] = hf[j][k, :]
    return core1, core2


def loop_gram(cores, d, r):
    return [
        np.array([[np.sum(cores[k][i, :] * np.conj(cores[l][i, :])) for l in range(r)] for k in range(r)])
        for i in range(d)
    ]


def loop_diagonal_cores(factors):
    """``core[a, i, i*aux + k, b] = factor[a, i, k, b]``, entry by entry."""
    cores = []
    for f in factors:
        left, d, aux, right = f.shape
        core = np.zeros((left, d, d * aux, right), dtype=complex)
        for a, i, k, b in itertools.product(range(left), range(d), range(aux), range(right)):
            core[a, i, i * aux + k, b] = f[a, i, k, b]
        cores.append(core)
    return cores


#: Factor shapes ``(left, d, aux, right)`` per site: the two-site product
#: kinds, Gram columns (aux > 1) and a four-site train.
DIAGONAL_TRAIN_SHAPES = {
    "product": [(1, 3, 1, 2), (2, 4, 1, 1)],
    "gram-columns": [(1, 3, 2, 2), (2, 4, 3, 1)],
    "four-sites": [(1, 2, 1, 3), (3, 3, 2, 2), (2, 2, 1, 4), (4, 3, 3, 1)],
}


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", sorted(DIAGONAL_TRAIN_SHAPES))
def test_diagonal_train_matches_the_index_loop(case, dtype):
    rng = np.random.default_rng(20)
    factors = [rng.normal(size=shape).astype(dtype) for shape in DIAGONAL_TRAIN_SHAPES[case]]
    if dtype is complex:
        factors = [f + 1j * rng.normal(size=f.shape) for f in factors]
    want = loop_diagonal_cores(factors)
    if case == "product":
        assert all(np.array_equal(x, y) for x, y in zip(want, loop_diag_cores(factors[0][0, :, 0], factors[1][..., 0, 0])))
    train = tensor_core._diagonal_train(factors)
    for got, core in zip(train.cores, want, strict=True):
        assert got.shape == core.shape and np.array_equal(got, core)


def test_purification_train_matches_the_index_loop():
    rng = np.random.default_rng(21)
    e = [rand_cpsd(3, rng) for _ in range(2)]
    f = [rand_cpsd(3, rng) for _ in range(4)]
    he = np.array([psd_gram_factor(x)[0] for x in e])
    hf = np.array([psd_gram_factor(x)[0] for x in f])
    train = correspondence._purification_train(e, f)
    for got, want in zip(train.cores, loop_purification_cores(he, hf)):
        assert got.shape == want.shape and np.array_equal(got, want)


def loop_gram_vectors(mats, rel_tol):
    """The Gram vectors of a tuple taken one matrix at a time."""
    h = np.array([psd_gram_factor(x)[0] for x in mats])
    weight = (np.abs(h) ** 2).sum(axis=1)
    s = max(int(np.count_nonzero(nonzero_mask(weight, rel_tol).any(axis=0))), min(h.shape[2], 1))
    return h[:, :, h.shape[2] - s :]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("r, rank, count", [(1, 1, 3), (2, 1, 4), (3, 2, 5), (3, 3, 1)])
def test_gram_vectors_match_the_per_matrix_loop(r, rank, count, dtype):
    rng = np.random.default_rng(24 + r + rank)
    g = rng.normal(size=(count, r, rank))
    if dtype is complex:
        g = g + 1j * rng.normal(size=g.shape)
    mats = list(g @ np.conj(g).swapaxes(-1, -2))
    got = correspondence._gram_vectors(mats, DEFAULT_RANK_TOL)
    want = loop_gram_vectors(mats, DEFAULT_RANK_TOL)
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def test_purification_keeps_only_the_gram_columns_that_carry_weight():
    # the psd and cpsdt constructions pair rank-one matrices: one Gram
    # column each, so each site's auxiliary leg has its own dimension
    m = np.random.default_rng(23).uniform(0.1, 1.0, (5, 5))
    for kind, mat in (("psd", m), ("cpsdt", m + m.T)):
        cert = correspondence._matrix_certificate(kind, mat)
        core1, core2 = factorization_to_decomposition(kind, cert, DiagBipartite(mat)).payload.train.cores
        assert core1.shape == (1, 5, 5, cert.inner_dim) and core2.shape == (cert.inner_dim, 5, 5, 1)
    # all-zero tuples keep one column
    zero = np.zeros((2, 3))
    cert = psd_factorization_search(zero, 2)
    dec = factorization_to_decomposition("psd", cert, DiagBipartite(zero))
    core1, core2 = dec.payload.train.cores
    assert core1.shape == (1, 2, 2, 2) and core2.shape == (2, 3, 3, 1)
    assert dec.payload.osr_L == 0 and dec.residual == 0.0


@pytest.mark.parametrize("kind", ["psd", "cpsdt"])
def test_gram_matrices_match_the_index_loop(kind):
    rng = np.random.default_rng(22)
    e = [rand_cpsd(3, rng) for _ in range(4)]
    f = e if kind == "cpsdt" else [rand_cpsd(3, rng) for _ in range(3)]
    m = pair_traces(e, f)
    payload = {"E": e} if kind == "cpsdt" else {"E": e, "F": f}
    dec = factorization_to_decomposition(kind, FactorCertificate(kind, 3, payload, 0.0), DiagBipartite(m))
    back = decomposition_to_factorization(kind, dec)
    core1, core2 = dec.payload.train.cores
    want_e = loop_gram([core1[0, :, :, k] for k in range(3)], core1.shape[1], 3)
    np.testing.assert_allclose(back.payload["E"], want_e, rtol=1e-12, atol=0)
    if kind == "psd":
        want_f = loop_gram([core2[k, :, :, 0] for k in range(3)], core2.shape[1], 3)
        np.testing.assert_allclose(back.payload["F"], want_f, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["minimal", "nonnegative", "psd", "symmetric", "cp", "cpsdt", "hadamard-root"])
def test_zero_matrix_crosses_the_bridge(kind):
    # every route gives inner dimension 0: the zero matrix has rank 0, so
    # the scans return the empty factorization and the Gram kinds a
    # purification with no columns
    m = np.zeros((2, 2))
    cert = correspondence._matrix_certificate(kind, m)
    dec = factorization_to_decomposition(kind, cert, DiagBipartite(m))
    back = decomposition_to_factorization(kind, dec, sites=(2, 2))
    assert cert.inner_dim == dec.inner_dim == back.inner_dim == 0
    assert verify_correspondence(kind, m)["verdict"] in ("exact-match", "intervals-consistent")


ALL_KINDS = ("minimal", "nonnegative", "psd", "symmetric", "cp", "cpsdt", "hadamard-root")
ZERO_CASES = [(kind, (3, 3)) for kind in ALL_KINDS]
ZERO_CASES += [(kind, (2, 4)) for kind in ("minimal", "nonnegative", "psd", "hadamard-root")]


@pytest.mark.parametrize("kind, shape", ZERO_CASES, ids=[f"{k}-{p}x{q}" for k, (p, q) in ZERO_CASES])
def test_checker_accepts_the_zero_matrix_certificates(kind, shape):
    # the nonnegative and cp factors have no columns: their sign tests
    # reduce over an empty array
    m = np.zeros(shape)
    cert = correspondence._matrix_certificate(kind, m)
    assert cert.inner_dim == 0
    assert check_factor_certificate(m, cert)["max_abs_residual"] == 0.0


# ---------------------------------------------------------------------------
# one grading rule: a transport that misses sigma is a violation for every kind


#: At rel_tol 0.2 the rank of this matrix is 1, so every exact route truncates.
LOOSE_TOL_M = np.array([[1.0, 1.0], [1.0, 1.2]])

#: Only the routes whose transport still reproduces sigma pass: the root
#: keeps every entry, and the searches meet their own max-abs bar.
VERDICTS_AT_LOOSE_TOL = {
    "minimal": "violation",
    "symmetric": "violation",
    "psd": "violation",
    "cpsdt": "violation",
    "hadamard-root": "exact-match",
    "nonnegative": "intervals-consistent",
    "cp": "intervals-consistent",
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_verdict_at_a_loose_tolerance(kind):
    entry = verify_correspondence(kind, LOOSE_TOL_M, rel_tol=0.2)
    assert entry["verdict"] == VERDICTS_AT_LOOSE_TOL[kind], entry


#: The payload field a 0.1% scaling puts off M, per exact-route kind.
SCALED_FIELD = {"minimal": "left", "symmetric": "factor", "psd": "E", "cpsdt": "E", "hadamard-root": "root"}


@pytest.mark.parametrize("scale, verdict", [(1.0, "pass"), (1.001, "violation")], ids=["exact", "off"])
@pytest.mark.parametrize("kind", sorted(SCALED_FIELD))
def test_a_certificate_off_by_a_tenth_of_a_percent_is_a_violation(kind, scale, verdict, monkeypatch):
    # the ranks are those of the exact certificate: only the transport's
    # residual against sigma can tell the two apart
    m = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])
    produce = correspondence._matrix_certificate

    def scaled(kind, m, **options):
        cert = produce(kind, m, **options)
        field = SCALED_FIELD[kind]
        payload = {**cert.payload, field: scale * np.asarray(cert.payload[field])}
        return FactorCertificate(kind, cert.inner_dim, payload, cert.residual)

    monkeypatch.setattr(correspondence, "_matrix_certificate", scaled)
    entry = verify_correspondence(kind, m)
    if verdict == "pass":
        assert entry["verdict"] in ("exact-match", "intervals-consistent"), entry
    else:
        assert entry["verdict"] == "violation", entry

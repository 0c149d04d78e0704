from math import ceil, sqrt

import numpy as np
import pytest

from mpdo_kit.certificates import (
    FactorCertificate,
    NecessaryConditionError,
    NonnegMatrix,
    as_nonneg,
    check_factor_certificate,
    pair_traces,
)
from mpdo_kit.nonneg_factorizations import (
    cp_factorization_search,
    cpsdt_construct,
    hadamard_root_certificate,
    minimal_factorization,
    nonneg_factorization_search,
    psd_certificate_from_nonneg,
    psd_construct,
    psd_factorization_search,
    scan_cp_certificate,
    scan_nonneg_certificate,
    slack_matrix_tgon,
    sqrt_rank,
    symmetric_factorization,
    trivial_nonneg_certificate,
)
from mpdo_kit.tensor_core import UsageError, numerical_rank


def rand_cpsd(r, rng):
    x = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return x @ x.conj().T


# ---------------------------------------------------------------------------
# ingestion


def test_nonneg_clipping():
    m = NonnegMatrix(np.array([[1.0, -1e-13], [0.5, 0.0]]))
    assert m.entries.min() == 0.0


def test_nonneg_rejects_material_negative():
    with pytest.raises(NecessaryConditionError):
        as_nonneg(np.array([[1.0, -0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonneg_rejects_non_finite_entries(bad):
    m = np.array([[bad, 1.0], [1.0, 1.0]])
    for ingest in (NonnegMatrix, as_nonneg):
        with pytest.raises(ValueError, match="non-finite"):
            ingest(m)
    # NaN once passed the sign test: sqrt_rank answered rank 0 with all-zero
    # signs, and psd_construct inner dimension 0 at a NaN residual
    with pytest.raises(ValueError, match="non-finite"):
        sqrt_rank(m)
    with pytest.raises(ValueError, match="non-finite"):
        psd_construct(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "route",
    [
        lambda m: cp_factorization_search(m, 1),
        lambda m: scan_cp_certificate(m),
        minimal_factorization,
        symmetric_factorization,
    ],
    ids=["cp_factorization_search", "scan_cp_certificate", "minimal_factorization", "symmetric_factorization"],
)
def test_raw_array_routes_reject_non_finite_entries(route, bad):
    # at the parent, NaN drew a false "not symmetric" impossibility
    # certificate from the cp routes, an SVD failure from the minimal one
    # and "needs a square symmetric matrix" from the symmetric one
    m = np.array([[bad, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite") as raised:
        route(m)
    assert not isinstance(raised.value, NecessaryConditionError | UsageError)


# ---------------------------------------------------------------------------
# minimal factorization


def test_minimal_all_ones():
    cert = minimal_factorization(np.ones((3, 3)))
    assert cert.inner_dim == 1
    check_factor_certificate(np.ones((3, 3)), cert)


def test_minimal_full_rank_diagonal():
    cert = minimal_factorization(np.diag([1.0, 2.0, 3.0]))
    assert cert.inner_dim == 3


def test_minimal_octagon_slack():
    slack = slack_matrix_tgon(8)
    cert = minimal_factorization(slack.entries)
    assert cert.inner_dim == 3
    check_factor_certificate(slack.entries, cert)


# ---------------------------------------------------------------------------
# slack matrices


def test_slack_triangle_entries():
    # oracle: b - a.v takes only cos(pi/3) + 1 = 1.5 off the facet
    slack = slack_matrix_tgon(3).entries
    assert slack.shape == (3, 3)
    nonzero = slack[slack > 1e-9]
    assert np.allclose(nonzero, 1.5)
    assert all((slack[i] > 1e-9).sum() == 1 for i in range(3))


def test_slack_rank_three_and_two_zeros_per_row():
    for t in (3, 7, 12, 33, 50):
        slack = slack_matrix_tgon(t).entries
        assert np.linalg.matrix_rank(slack, tol=1e-8 * np.linalg.svd(slack, compute_uv=False)[0]) == 3
        assert all((slack[i] < 1e-9).sum() == 2 for i in range(t))


def test_slack_needs_three_vertices():
    with pytest.raises(UsageError):
        slack_matrix_tgon(2)


# ---------------------------------------------------------------------------
# nonnegative search


def test_nonneg_search_all_ones():
    cert = nonneg_factorization_search(np.ones((4, 4)), 1)
    assert cert is not None
    check_factor_certificate(np.ones((4, 4)), cert, residual_tol=2e-6)


def test_nonneg_search_identity_r2_fails():
    # rank+ of I3 is 3: distinct standard-basis supports cannot merge, so
    # the search must come up empty at r = 2 for any restart budget
    assert nonneg_factorization_search(np.eye(3), 2, restarts=20) is None


def test_nonneg_search_planted():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.2, 1.2, (8, 3))
    b = rng.uniform(0.2, 1.2, (3, 8))
    cert = nonneg_factorization_search(a @ b, 3, restarts=50)
    assert cert is not None
    check_factor_certificate(a @ b, cert, residual_tol=2e-6)


def test_scan_certifies_the_hexagon_at_nonnegative_rank_five():
    # the regular hexagon's slack matrix has rank 3 and nonnegative rank 5
    # (Vandaele, Gillis and Glineur, Linear Algebra Appl. 2017): the scan
    # must get below the trivial certificate of inner dimension 6
    m = slack_matrix_tgon(6).entries
    cert = scan_nonneg_certificate(m)
    assert cert.inner_dim == 5
    check_factor_certificate(m, cert, residual_tol=1e-6)


def nonneg_rank_interval(m, restarts=20):
    """[rank(M), the scan's inner dimension]: the certified interval for the nonnegative rank."""
    return numerical_rank(m), scan_nonneg_certificate(m, restarts).inner_dim


def psd_rank_lower(m):
    """ceil(sqrt(rank M)): the trace pairing of a size-r psd factorization has rank <= r^2."""
    return ceil(sqrt(numerical_rank(m)))


def test_nonneg_rank_bounds():
    assert nonneg_rank_interval(np.eye(4)) == (4, 4)
    assert nonneg_rank_interval(np.ones((3, 3))) == (1, 1)


def test_nonneg_rank_bounds_circulant_gap():
    # oracle: eigenvalues of the (1,1,0,0) circulant are 1 + i^k, one of
    # which vanishes, so rank = 3; the nonnegative rank is 4 at this size
    circ = np.array(
        [[1.0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    )
    eigs = np.array([1 + 1j**k for k in range(4)])
    assert np.count_nonzero(np.abs(eigs) > 1e-12) == 3
    assert nonneg_rank_interval(circ) == (3, 4)


def test_trivial_certificate():
    rng = np.random.default_rng(1)
    m = rng.uniform(0, 1, (5, 3))
    cert = trivial_nonneg_certificate(m)
    assert cert.inner_dim == 3
    check_factor_certificate(m, cert)


# ---------------------------------------------------------------------------
# psd search and bound


def test_psd_search_all_ones_rank_one():
    cert = psd_factorization_search(np.ones((3, 3)), 1)
    assert cert is not None and cert.inner_dim == 1
    check_factor_certificate(np.ones((3, 3)), cert, residual_tol=2e-6)


def test_psd_search_identity_two():
    # oracle: diagonal projectors E_i = F_i = |i><i| give an exact size-2
    # factorization of I2, so the search must succeed at r = 2
    e = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert np.allclose(pair_traces(e, e), np.eye(2))
    cert = psd_factorization_search(np.eye(2), 2)
    assert cert is not None
    check_factor_certificate(np.eye(2), cert, residual_tol=2e-6)


def test_psd_search_planted():
    rng = np.random.default_rng(2)
    e = [rand_cpsd(2, rng) for _ in range(4)]
    f = [rand_cpsd(2, rng) for _ in range(5)]
    m = pair_traces(e, f)
    cert = psd_factorization_search(m, 2, restarts=15)
    assert cert is not None
    check_factor_certificate(m, cert, residual_tol=2e-6)


def test_psd_rank_lower_bound_values():
    assert psd_rank_lower(np.ones((3, 3))) == 1
    assert psd_rank_lower(np.eye(4)) == 2
    assert psd_rank_lower(slack_matrix_tgon(16).entries) == 2


# ---------------------------------------------------------------------------
# symmetric factorization


def test_symmetric_identity():
    cert = symmetric_factorization(np.eye(3))
    assert cert.inner_dim == 3
    assert np.allclose(cert.payload["factor"] @ cert.payload["factor"].T, np.eye(3))


def test_symmetric_flip_is_complex():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    cert = symmetric_factorization(m)
    a = cert.payload["factor"]
    assert cert.inner_dim == 2
    assert np.abs(a.imag).max() > 0.01
    assert np.abs(a @ a.T - m).max() <= 1e-8
    check_factor_certificate(m, cert)


def test_symmetric_all_ones_single_column():
    cert = symmetric_factorization(np.ones((4, 4)))
    assert cert.inner_dim == 1


def test_symmetric_random_indefinite():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.normal(size=(6, 6))
        m = x + x.T
        cert = symmetric_factorization(m)
        a = cert.payload["factor"]
        assert np.abs(a @ a.T - m).max() <= 1e-8 * max(np.abs(m).max(), 1.0)
        assert cert.inner_dim == np.linalg.matrix_rank(m)


def test_symmetric_complex_inputs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = x + x.T
        cert = symmetric_factorization(m)
        a = cert.payload["factor"]
        assert np.abs(a @ a.T - m).max() <= 1e-8 * np.abs(m).max()
        assert cert.inner_dim == np.linalg.matrix_rank(m)


def test_symmetric_rejects_asymmetric():
    with pytest.raises(UsageError):
        symmetric_factorization(np.array([[0.0, 1.0], [2.0, 0.0]]))


# ---------------------------------------------------------------------------
# cp search


def test_cp_diagonal():
    cert = cp_factorization_search(np.diag([2.0, 3.0]), 2)
    assert cert is not None
    a = cert.payload["factor"]
    assert np.abs(a @ a.T - np.diag([2.0, 3.0])).max() <= 2e-6
    check_factor_certificate(np.diag([2.0, 3.0]), cert, residual_tol=2e-6)


def test_cp_rejects_non_psd():
    with pytest.raises(NecessaryConditionError) as info:
        cp_factorization_search(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    assert info.value.condition == "not psd"


def test_cp_rejects_asymmetric():
    with pytest.raises(NecessaryConditionError) as info:
        cp_factorization_search(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
    assert info.value.condition == "not symmetric"


@pytest.mark.parametrize(
    "m, condition, message",
    [
        (np.ones((2, 3)), "not symmetric", "necessary condition violated: not symmetric (shape (2, 3))"),
        (
            np.array([[1.0, -0.5], [-0.5, 1.0]]),
            "not entrywise nonnegative",
            "necessary condition violated: not entrywise nonnegative (min entry -5.000e-01)",
        ),
    ],
    ids=["non-square", "negative-entry"],
)
def test_cp_rejects_before_any_restart(m, condition, message):
    with pytest.raises(NecessaryConditionError) as info:
        cp_factorization_search(m, 2)
    assert info.value.condition == condition and str(info.value) == message


def test_cp_planted():
    rng = np.random.default_rng(4)
    a = rng.uniform(0.2, 1.2, (5, 3))
    m = a @ a.T
    cert = cp_factorization_search(m, 3, restarts=50)
    assert cert is not None
    check_factor_certificate(m, cert, residual_tol=2e-6)


def test_cp_diagonal_always_succeeds_at_full_size():
    rng = np.random.default_rng(5)
    d = np.diag(rng.uniform(0.5, 2.0, 4))
    cert = cp_factorization_search(d, 4, restarts=20)
    assert cert is not None


def test_scan_cp_certificate_starts_at_the_numerical_rank(monkeypatch):
    from mpdo_kit import nonneg_factorizations

    rng = np.random.default_rng(14)
    a = rng.uniform(0.2, 1.2, (5, 2))
    # a rank-2 matrix plus a 1e-13 perturbation: np.linalg.matrix_rank
    # counts 5, the package's relative rule counts 2
    m = a @ a.T + 1e-13 * np.eye(5)
    assert np.linalg.matrix_rank(m) == 5
    tried = []
    search = nonneg_factorizations.cp_factorization_search

    def recording(matrix, r, **kwargs):
        tried.append(r)
        return search(matrix, r, **kwargs)

    monkeypatch.setattr(nonneg_factorizations, "cp_factorization_search", recording)
    cert = scan_cp_certificate(m, restarts=10)
    assert tried[0] == 2
    assert cert is not None and cert.inner_dim == tried[-1]
    check_factor_certificate(m, cert, residual_tol=2e-6)


def test_scan_cp_certificate_surfaces_necessary_conditions():
    with pytest.raises(NecessaryConditionError) as info:
        scan_cp_certificate(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert info.value.condition == "not psd"


# ---------------------------------------------------------------------------
# square-root rank


def test_sqrt_rank_all_ones():
    rank, signs = sqrt_rank(np.ones((2, 2)))
    assert rank == 1


def test_sqrt_rank_flip():
    # oracle: every sign pattern of the flip has determinant +-1
    rank, _ = sqrt_rank(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rank == 2


def test_sqrt_rank_triangular_pattern():
    # oracle: roots [[s1, s2], [s3, 0]] have det = -s2*s3, never zero
    rank, _ = sqrt_rank(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert rank == 2


def test_sqrt_rank_budget_refusal():
    with pytest.raises(UsageError):
        sqrt_rank(np.ones((3, 3)), sign_budget=4)


def test_sqrt_rank_enumeration_order_independent():
    rng = np.random.default_rng(6)
    m = np.round(rng.uniform(0, 1, (3, 3)), 2)
    rank1, _ = sqrt_rank(m)
    rank2, _ = sqrt_rank(m[::-1, ::-1].copy())
    assert rank1 == rank2


def test_hadamard_root_certificate_checked():
    m = np.array([[1.0, 4.0], [4.0, 1.0]])
    cert = hadamard_root_certificate(m)
    check_factor_certificate(m, cert)
    root = cert.payload["root"]
    assert np.allclose(root * root, m)


# ---------------------------------------------------------------------------
# cpsdt construction


def test_cpsdt_all_ones():
    cert = cpsdt_construct(np.ones((3, 3)))
    assert cert.inner_dim == 1
    check_factor_certificate(np.ones((3, 3)), cert)


def test_cpsdt_flip_complex_and_no_real_route():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    cert = cpsdt_construct(m)
    assert cert.inner_dim == 2
    assert any(np.abs(np.asarray(e).imag).max() > 0.01 for e in cert.payload["E"])
    check_factor_certificate(m, cert)
    # the matching real route is impossible: M is not psd
    with pytest.raises(NecessaryConditionError):
        cp_factorization_search(m, 2)


def test_cpsdt_pair_of_ones():
    cert = cpsdt_construct(np.ones((2, 2)))
    assert cert.inner_dim == 1


def test_cpsdt_random_and_psd_checker_view():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(0, 1, (4, 4))
        m = x + x.T
        cert = cpsdt_construct(m)
        check_factor_certificate(m, cert)
        as_psd = FactorCertificate(
            "psd", cert.inner_dim, {"E": cert.payload["E"], "F": cert.payload["E"]}, cert.residual
        )
        check_factor_certificate(m, as_psd)


def test_cpsdt_rejects_asymmetric():
    with pytest.raises(UsageError):
        cpsdt_construct(np.array([[1.0, 0.5], [0.2, 1.0]]))


# ---------------------------------------------------------------------------
# rank chain and checker independence


def test_rank_chain_on_random_corpus():
    # computable version of the rank / psd-rank / nonnegative-rank chain:
    # the psd upper bound inherited from a nonnegative certificate sits
    # between the square-root lower bound and the nonnegative upper bound
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = rng.uniform(0, 1, (4, 4))
        rank = minimal_factorization(m).inner_dim
        psd_lower = psd_rank_lower(m)
        lower, upper = nonneg_rank_interval(m, restarts=5)
        assert lower == rank <= upper
        nn_cert = trivial_nonneg_certificate(m)
        psd_cert = psd_certificate_from_nonneg(nn_cert)
        check_factor_certificate(m, psd_cert)
        assert psd_lower <= psd_cert.inner_dim <= nn_cert.inner_dim


def test_psd_certificate_from_nonneg_exact():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, (4, 2))
    b = rng.uniform(0, 1, (2, 5))
    nn = FactorCertificate("nonnegative", 2, {"left": a, "right": b}, 0.0)
    psd = psd_certificate_from_nonneg(nn)
    assert psd.inner_dim == 2
    check_factor_certificate(a @ b, psd)


def test_checker_rejects_bad_reconstruction():
    cert = FactorCertificate("minimal", 1, {"left": np.ones((2, 1)), "right": np.ones((1, 2))}, 0.0)
    with pytest.raises(ValueError):
        check_factor_certificate(np.eye(2), cert)


def test_checker_rejects_negative_factor():
    cert = FactorCertificate(
        "nonnegative", 1, {"left": -np.ones((2, 1)), "right": -np.ones((1, 2))}, 0.0
    )
    with pytest.raises(ValueError):
        check_factor_certificate(np.ones((2, 2)), cert)


def test_checker_rejects_non_psd_payload():
    bad = [np.diag([1.0, -1.0]), np.eye(2)]
    cert = FactorCertificate("psd", 2, {"E": bad, "F": bad}, 0.0)
    with pytest.raises(ValueError):
        check_factor_certificate(pair_traces(bad, bad), cert)


@pytest.mark.parametrize("search", [cp_factorization_search, psd_factorization_search, nonneg_factorization_search])
def test_zero_matrix_gets_the_exact_zero_certificate(search):
    # no restart runs: the certificate is built, not searched for
    m = np.zeros((3, 3))
    cert = search(m, 1, restarts=0)
    assert cert is not None
    assert cert.residual == 0.0
    check_factor_certificate(m, cert)


def test_checker_ranks_a_hadamard_root_by_the_relative_rule():
    # the root's second singular value is ~1e-11 of its first: rank 1 by the
    # package's rule, rank 2 at numpy's default matrix_rank threshold
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    cert = hadamard_root_certificate(m)
    assert cert.inner_dim == 1
    assert np.linalg.matrix_rank(cert.payload["root"]) == 2
    check_factor_certificate(m, cert)


def test_minimal_rejects_an_out_of_range_tolerance():
    with pytest.raises(UsageError):
        minimal_factorization(np.ones((2, 2)), rel_tol=2.0)


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_psd_and_cp_searches_recover_planted_matrices_at_any_scale(scale):
    # the solver's damping and stopping rules are relative to M and its
    # Jacobian, so tiny and huge matrices converge like unit ones
    rng = np.random.default_rng([3, 5])
    g = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    e = g @ g.conj().transpose(0, 2, 1)
    m = pair_traces(e[:5], e[5:]) * scale
    check_factor_certificate(m, psd_factorization_search(m, 2, seed=3), residual_tol=1e-6)
    a = rng.uniform(0.2, 1.2, (5, 3))
    m = a @ a.T * scale
    check_factor_certificate(m, cp_factorization_search(m, 3, seed=3), residual_tol=1e-6)

"""Hypothesis properties of the correspondence, its round trips, the train sweep
and the rank relations between a state and its purifications.

Nonzero entries of the sparse matrices are drawn log-uniformly from
[1e-16, 1e3], so a matrix can hold entries on both sides of the nonzero
rule's cutoff (1e-10 of its largest entry); fixed ``max_examples`` keep the
runtime bounded and no example database is written.
"""

import itertools
from math import prod

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpdo_kit.certificates import check_factor_certificate
from mpdo_kit.correspondence import (
    DiagBipartite,
    _matrix_certificate,
    decomposition_to_factorization,
    diag_embed,
    factorization_to_decomposition,
    verify_correspondence,
)
from mpdo_kit.decompositions import (
    CERT_RESIDUAL_TOL,
    clipped_spectrum,
    local_purification_spectral,
    mpo_train_form,
    operator_schmidt_rank,
    q_sqrt_rank,
)
from mpdo_kit.nonneg_factorizations import cpsdt_construct, sqrt_rank, symmetric_factorization
from mpdo_kit.tensor_core import (
    MpoTrain,
    PsdOperator,
    SiteSpec,
    clip_psd_spectrum,
    contract_train,
    is_diagonal,
    matricize,
    nonzero_mask,
    numerical_rank,
    relative_residual,
)

MAX_NONZEROS = 10

entry = st.floats(min_value=-16.0, max_value=3.0).map(lambda e: 10.0**e)


@st.composite
def sparse_nonneg(draw):
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    cells = draw(st.sets(st.integers(0, p * q - 1), max_size=MAX_NONZEROS))
    m = np.zeros(p * q)
    for c in cells:
        m[c] = draw(entry)
    return m.reshape(p, q)


@st.composite
def sparse_symmetric(draw):
    d = draw(st.integers(1, 4))
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    cells = draw(st.sets(st.sampled_from(upper), max_size=MAX_NONZEROS))
    m = np.zeros((d, d))
    for i, j in cells:
        m[i, j] = m[j, i] = draw(entry)
    return m


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_nonneg())
def test_sqrt_rank_equals_q_sqrt_rank_of_embedding(m):
    rank, _ = sqrt_rank(m)
    q_rank, _ = q_sqrt_rank(diag_embed(m))
    assert rank == q_rank


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_symmetric())
def test_cpsdt_inner_dim_is_root_rank_and_rebuilds_m(m):
    cert = cpsdt_construct(m)
    assert cert.inner_dim == numerical_rank(cert.payload["root"])
    assert cert.residual <= 1e-8 * max(np.abs(m).max(), 1e-300)


@st.composite
def symmetric_of_random_rank(draw):
    """Real indefinite or complex symmetric d x d matrix of drawn rank k.

    M = Q diag(s) Q^T with Q random orthogonal (real) or Gaussian (complex),
    and s Gaussian or drawn from {+1, -1}; in the real case the latter
    repeats the singular value 1 with both signs, as in diag(1, -1, 1)
    turned by Q.
    """
    d = draw(st.integers(1, 6))
    k = draw(st.integers(0, d))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if complex_:
        q = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    else:
        q = np.linalg.qr(rng.normal(size=(d, d)))[0][:, :k]
    s = rng.choice([-1.0, 1.0], k) if draw(st.booleans()) else rng.normal(size=k)
    return (q * s) @ q.T


@settings(max_examples=60, deadline=None, database=None)
@given(symmetric_of_random_rank())
def test_takagi_factor_has_the_rank_and_rebuilds_m(m):
    cert = symmetric_factorization(m)
    a = cert.payload["factor"]
    assert cert.inner_dim == numerical_rank(m)
    assert np.abs(a @ a.T - m).max() <= 1e-10 * np.abs(m).max(initial=0.0)


@st.composite
def kind_and_matrix(draw):
    """A kind with a small random matrix, symmetrized for the symmetric kinds.

    Entries are uniform on [0, 1) from a drawn seed, with a drawn share of
    them set to zero.
    """
    kind = draw(st.sampled_from(["minimal", "symmetric", "psd", "cpsdt", "hadamard-root"]))
    p = draw(st.integers(1, 3))
    q = p if kind in ("symmetric", "cpsdt") else draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(0.0, 1.0, (p, q)) * (rng.uniform(0.0, 1.0, (p, q)) >= draw(st.floats(0.0, 0.6)))
    if kind in ("symmetric", "cpsdt"):
        m = m + m.T
    return kind, m


@settings(max_examples=60, deadline=None, database=None)
@given(kind_and_matrix())
def test_round_trip_keeps_the_inner_dim_and_verification_never_fails(case):
    kind, m = case
    cert = _matrix_certificate(kind, m)
    dec = factorization_to_decomposition(kind, cert, DiagBipartite(m))
    back = decomposition_to_factorization(kind, dec, sites=m.shape)
    assert cert.inner_dim == dec.inner_dim == back.inner_dim
    assert verify_correspondence(kind, m)["verdict"] != "violation"


@st.composite
def low_rank_operator(draw):
    """Dense operator (or column vector, in dims all 1) of a random small-bond train.

    The entries are Gaussian from a drawn seed, so the cut ranks are
    generic: every singular value is either far above the rank threshold
    or at rounding level.
    """
    n = draw(st.integers(1, 4))
    out_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        in_dims = (1,) * n
    else:
        in_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    edges = (1,) + tuple(draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))) + (1,)
    return train_operator(draw(st.integers(0, 2**32 - 1)), out_dims, in_dims, edges)


def train_operator(seed, out_dims, in_dims, edges):
    """``(op, out_dims, in_dims)`` for the dense operator of a Gaussian train
    whose bonds have the dimensions ``edges`` (boundaries included)."""
    rng = np.random.default_rng(seed)
    cores = tuple(
        rng.normal(size=(edges[k], do, di, edges[k + 1]))
        + 1j * rng.normal(size=(edges[k], do, di, edges[k + 1]))
        for k, (do, di) in enumerate(zip(out_dims, in_dims))
    )
    return contract_train(MpoTrain(cores)), out_dims, in_dims


@settings(max_examples=80, deadline=None, database=None)
@given(low_rank_operator())
@example(train_operator(1, (2, 3, 5), (2, 3, 5), (1, 4, 25, 1)))  # uneven dims, full rank
@example(train_operator(2, (2, 3, 2), (3, 1, 2), (1, 3, 3, 1)))  # rectangular
@example(train_operator(3, (2, 2, 3, 2), (1, 1, 1, 1), (1, 2, 3, 2, 1)))  # a vector
@example(train_operator(4, (3,), (2,), (1, 1)))  # n = 1
@example(train_operator(5, (2, 3), (2, 3), (1, 4, 1)))  # n = 2, no right cut
@example(train_operator(6, (3, 2), (3, 2), (1, 4, 1)))  # n = 2, no left cut
@example(train_operator(7, (2, 2, 2), (2, 2, 2), (1, 2, 3, 1)))  # n = 3
@example((np.zeros((8, 8)), (2, 2, 2), (2, 2, 2)))  # zero bonds on both sides
@example(train_operator(8, (2,) * 4, (2,) * 4, (1, 2, 1, 2, 1)))  # rank-deficient halves
@example(train_operator(9, (2,) * 6, (2,) * 6, (1, 4, 16, 64, 16, 4, 1)))  # screened splits
def test_sweep_bonds_are_the_per_cut_rank_profile(case):
    op, out_dims, in_dims = case
    n = len(out_dims)
    train, osr = mpo_train_form(op, out_dims, in_dims=in_dims)
    oracle = [
        numerical_rank(matricize(op, cut, out_dims=out_dims, in_dims=in_dims))
        for cut in range(1, n)
    ]
    # a zero rank keeps a bond of dimension 1
    assert list(train.bond_dims) == [max(r, 1) for r in oracle]
    assert osr == max(oracle, default=1)
    assert operator_schmidt_rank(op, out_dims, in_dims=in_dims) == osr
    back = contract_train(train)
    assert np.linalg.norm(back - op) <= 1e-12 * np.linalg.norm(op)
    # mixed-canonical: isometries left of the centre, co-isometries right of it
    sizes = [do * di for do, di in zip(out_dims, in_dims)]
    centre = max((cut for cut in range(1, n) if prod(sizes[:cut]) <= prod(sizes[cut:])), default=0)
    for k, core in enumerate(train.cores):
        if k < centre:
            m = core.reshape(-1, core.shape[3])
            assert np.abs(m.conj().T @ m - np.eye(m.shape[1])).max() <= 1e-12
        elif k > centre:
            m = core.reshape(core.shape[0], -1)
            assert np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() <= 1e-12


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_nonneg())
@example(np.diag([1.0, 1e-12]))  # an entry below the nonzero rule has no root
def test_psd_certificate_has_the_spectral_purification_rank(m):
    # the Gram pairs of the entrywise root's rank factorization against the
    # purification read off the spectrum of diag_embed(M)
    cert = _matrix_certificate("psd", m)
    assert cert.inner_dim == local_purification_spectral(diag_embed(m)).osr_L
    check_factor_certificate(m, cert)
    dec = factorization_to_decomposition("psd", cert, DiagBipartite(m))
    assert dec.residual <= CERT_RESIDUAL_TOL


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_nonneg())
def test_schmidt_rank_of_the_embedding_is_the_rank(m):
    assert operator_schmidt_rank(diag_embed(m)) == numerical_rank(m)


@settings(max_examples=60, deadline=None, database=None)
@given(low_rank_operator())
def test_schmidt_rank_is_at_most_the_square_of_the_purification_rank(case):
    x, out_dims, _ = case
    rho = PsdOperator(SiteSpec(out_dims), x @ x.conj().T)
    puri = local_purification_spectral(rho)
    assert operator_schmidt_rank(rho) <= puri.osr_L**2


@st.composite
def small_rank_operator(draw):
    """Psd operator on 1-3 sites of dimension 1-3: diagonal with at most 8
    nonzero entries, or X X^dag with X Gaussian of at most 5 columns."""
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    total = int(np.prod(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        diag = np.zeros(total)
        cells = rng.choice(total, min(total, draw(st.integers(0, 8))), replace=False)
        diag[cells] = rng.uniform(0.1, 2.0, cells.size)
        return PsdOperator(SiteSpec(dims), np.diag(diag))
    k = draw(st.integers(0, 5))
    x = rng.normal(size=(total, k)) + 1j * rng.normal(size=(total, k))
    return PsdOperator(SiteSpec(dims), x @ x.conj().T)


@settings(max_examples=60, deadline=None, database=None)
@given(small_rank_operator())
def test_q_sqrt_signs_build_a_purification_of_that_schmidt_rank(rho):
    # the Hermitian root tau with the returned signs has tau tau^dag = rho,
    # so it is a purification: purification rank <= q_sqrt_rank
    q_rank, signs = q_sqrt_rank(rho)
    s = np.asarray(signs.signs, dtype=float)
    if is_diagonal(rho):
        vals = clip_psd_spectrum(np.diagonal(rho.data).real)
        keep = nonzero_mask(vals)
        diag = np.zeros(vals.size)
        diag[keep] = s * np.sqrt(vals[keep])
        tau = np.diag(diag)
    else:
        lam, vec = clipped_spectrum(rho)
        tau = (vec * (s * np.sqrt(lam))) @ vec.conj().T
    assert relative_residual(tau @ tau.conj().T, rho.data) <= CERT_RESIDUAL_TOL
    assert operator_schmidt_rank(tau, rho.sites) == q_rank


@st.composite
def sparse_diagonal(draw):
    """Diagonal of an operator on 2-4 sites of dimension 1-3, with at most 10
    nonzero entries; some are tied at 1 and some may fall below the cutoff."""
    n = draw(st.integers(2, 4))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    total = int(np.prod(dims))
    cells = draw(st.sets(st.integers(0, total - 1), max_size=MAX_NONZEROS))
    values = np.zeros(total)
    for c in cells:
        values[c] = draw(st.one_of(entry, st.just(1.0)))
    return values, dims


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_diagonal())
def test_diagonal_q_sqrt_rank_is_the_first_minimizer_of_the_full_walk(case):
    # the oracle ranks every pattern of itertools.product, nothing pinned
    values, dims = case
    keep = nonzero_mask(values)
    best = None
    for signs in itertools.product((1, -1), repeat=int(keep.sum())):
        full = np.zeros(values.size)
        full[keep] = np.array(signs) * np.sqrt(values[keep])
        rank = max(numerical_rank(full.reshape(int(np.prod(dims[:cut])), -1)) for cut in range(1, len(dims)))
        if best is None or rank < best[0]:
            best = (rank, signs)
            if rank <= 1:
                break
    rank, signs = q_sqrt_rank(PsdOperator(SiteSpec(dims), np.diag(values)))
    assert (rank, signs.signs) == best

"""Converters between factorizations of a nonnegative matrix M and
decompositions of the diagonal bipartite operator carrying M on its diagonal.

The embedding sends M (p x q, entrywise nonnegative) to the diagonal psd
operator sigma = sum_ij M_ij |i,j><i,j| on two sites of dimensions (p, q).
Each factorization kind converts to a structured decomposition of sigma and
back, preserving the inner dimension:

  minimal        <-> open train (operator Schmidt form)
  nonnegative    <-> separable train (psd diagonal cores)
  psd            <-> purification L with L L^dag = sigma
  symmetric      <-> site-symmetric two-site form  sum_k D_k (x) D_k
  cp             <-> site-symmetric separable form
  cpsdt          <-> site-symmetric purification
  hadamard-root  <-> diagonal Hermitian square root of sigma

Every matrix-side certificate comes from one producer,
``_matrix_certificate``; the psd one pairs the Gram matrices of a rank
factorization of the entrywise root (``psd_construct``), so its
purification is built from the matrix side like every other kind's.
``verify_correspondence`` transports that certificate across once and
grades every kind by one rule: the transport must reproduce sigma at the
bar its producer met, and then the rank relation must hold, exact equality
where both sides are exactly computable (minimal, symmetric,
hadamard-root), interval consistency for the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from .certificates import (
    FactorCertificate,
    NecessaryConditionError,
    as_nonneg,
)
from .decompositions import (
    CERT_RESIDUAL_TOL,
    PurificationCertificate,
    SeparableCertificate,
    operator_schmidt_rank,
)
from .nonneg_factorizations import (
    DEFAULT_SIGN_BUDGET,
    SEARCH_RESIDUAL_TOL,
    SEARCH_RESTARTS,
    _gram_pairs,
    cpsdt_construct,
    hadamard_root_certificate,
    minimal_factorization,
    psd_construct,
    scan_cp_certificate,
    scan_nonneg_certificate,
    symmetric_factorization,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    DIAG_TOL,
    MpoTrain,
    PsdOperator,
    SignBudgetError,
    SiteSpec,
    UsageError,
    _diagonal_train,
    _gram_residual,
    _resolve_dims,
    contract_train,
    is_diagonal,
    is_symmetric,
    max_abs,
    nonzero_mask,
    numerical_rank,
    psd_gram_factor,
    relative_residual,
)

#: Roman labels in the traditional order of the six factorizations plus the
#: square-root pairing; accepted anywhere a kind is named.
ROMAN_KINDS = {
    "i": "minimal",
    "ii": "nonnegative",
    "iii": "psd",
    "iv": "symmetric",
    "v": "cp",
    "vi": "cpsdt",
    "vii": "hadamard-root",
}

#: The kinds come in three factor shapes: a product M = left @ right
#: (a train with diagonal cores), a Gram pairing M_ij = tr(E_i F_j^T) (a
#: purification train), and the entrywise square root (a Hermitian root).
#: A symmetric kind is its general kind with the single factor mirrored.
PRODUCT_KINDS = ("minimal", "nonnegative", "symmetric", "cp")
GRAM_KINDS = ("psd", "cpsdt")
SYMMETRIC_KINDS = ("symmetric", "cp", "cpsdt")

#: The product kinds with nonnegative factors, whose trains are separable.
SEPARABLE_KINDS = ("nonnegative", "cp")

#: Largest imaginary part, summed over both factors, that minimal factors
#: read off a train may carry and still be returned as real arrays.
REAL_TOL = 1e-12


def canonical_kind(kind: str) -> str:
    kind = kind.strip().lower()
    kind = ROMAN_KINDS.get(kind, kind)
    if kind in ("nonneg",):
        kind = "nonnegative"
    if kind in ("sqrt", "hadamard", "root"):
        kind = "hadamard-root"
    if kind not in set(ROMAN_KINDS.values()):
        raise UsageError(f"unknown conversion kind {kind!r}")
    return kind


@dataclass(frozen=True)
class DiagBipartite:
    """A nonnegative matrix; its shape gives the two site dimensions it spans."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_nonneg(self.matrix))


@dataclass(frozen=True)
class StateDecomposition:
    """State-side certificate produced by the converters.

    ``payload`` holds an MpoTrain (minimal / symmetric kinds), a
    SeparableCertificate (nonnegative / cp), a PurificationCertificate
    (psd / cpsdt), or a dense Hermitian square root (hadamard-root).
    """

    kind: str
    inner_dim: int
    payload: object
    residual: float
    site_symmetric: bool = False


def diag_embed(matrix) -> PsdOperator:
    """Embed a nonnegative matrix as the diagonal bipartite psd operator."""
    m = as_nonneg(matrix)
    p, q = m.shape
    return PsdOperator(SiteSpec((p, q)), np.diag(m.ravel().astype(complex)))


def diag_extract(sigma, sites=None) -> np.ndarray:
    """Read the matrix back off the diagonal of a diagonal bipartite operator.

    Inverse of :func:`diag_embed` bit-exactly; on a diagonal square root
    of sigma it reads the signed root.  Raises on more or fewer
    than two sites and on an operator that fails
    :func:`~mpdo_kit.tensor_core.is_diagonal`, the predicate ``analyze``
    reports as ``diagonal``.
    """
    data, dims, _ = _resolve_dims(sigma, sites)
    if len(dims) != 2:
        raise UsageError(f"operator must be bipartite, got {len(dims)} sites")
    if not is_diagonal(data):
        raise UsageError(f"operator is not diagonal (relative off-diagonal mass above {DIAG_TOL:g})")
    return np.ascontiguousarray(np.diagonal(data).real.reshape(dims[0], dims[1]))


# ---------------------------------------------------------------------------
# matrix side -> state side


def _gram_vectors(mats, rel_tol: float) -> np.ndarray:
    """``(count, r, s)`` Gram vectors of a psd tuple, h h^dag = X for each X.

    Only the s trailing columns that carry weight are kept: those whose
    eigenvalue some matrix of the tuple counts as nonzero (the nonzero rule
    at ``rel_tol``, against that matrix's largest), and at least one.
    """
    h = psd_gram_factor(np.asarray(mats))[0]  # eigenvalues ascending
    weight = (np.abs(h) ** 2).sum(axis=1)  # (count, r): the eigenvalues
    s = max(int(np.count_nonzero(nonzero_mask(weight, rel_tol).any(axis=0))), min(h.shape[2], 1))
    return h[:, :, h.shape[2] - s :]


def _purification_train(e_list, f_list, rel_tol: float = DEFAULT_RANK_TOL) -> MpoTrain:
    """Two-site factor train realizing M_ij = tr(E_i F_j^T) as L L^dag = sigma.

    Site l carries an auxiliary leg of dimension d_l * s holding the s
    weighted Gram vectors of each matrix of its psd tuple (see
    :func:`_gram_vectors`); the bond enumerates the r rows of the Gram
    vectors.
    """
    he = _gram_vectors(e_list, rel_tol)  # (p, r, s_e)
    hf = _gram_vectors(f_list, rel_tol)  # (q, r, s_f)
    return _diagonal_train((he.transpose(0, 2, 1)[None], hf.transpose(1, 0, 2)[..., None]))


def _factor_sides(kind: str, payload: dict):
    """The two factor sides of a product or Gram certificate's payload.

    ``(left, right)`` for a product kind and ``(E, F)`` for a Gram kind; a
    symmetric kind mirrors its single factor: right = left^T, F = E.
    """
    if kind in ("symmetric", "cp"):
        a = np.asarray(payload["factor"])
        return a, a.T
    if kind in PRODUCT_KINDS:
        return payload["left"], payload["right"]
    return payload["E"], payload["E" if kind == "cpsdt" else "F"]


def factorization_to_decomposition(
    kind: str, cert: FactorCertificate, target: DiagBipartite, rel_tol: float = DEFAULT_RANK_TOL
) -> StateDecomposition:
    """Turn a matrix-side certificate into the matching decomposition of sigma.

    A product kind gives a train with diagonal cores (a separable
    certificate when its factors are nonnegative), a Gram kind a
    purification train, the square root a Hermitian root.  A purification
    keeps the Gram columns that carry weight and measures its Schmidt rank
    ``osr_L``, both at ``rel_tol``.
    """
    kind = canonical_kind(kind)
    if cert.kind != kind:
        raise UsageError(f"certificate kind {cert.kind!r} does not match requested {kind!r}")
    m = target.matrix
    sigma = diag_embed(m).data
    symmetric = kind in SYMMETRIC_KINDS
    if symmetric and not is_symmetric(m):
        raise UsageError("symmetric kinds need a square symmetric matrix")

    if kind == "hadamard-root":
        # the diagonal Hermitian square root of sigma; tau @ tau is the
        # diagonal of the root's squares, which rounds as the product does
        root = np.asarray(cert.payload["root"], dtype=float)
        tau = np.diag(root.ravel()).astype(complex)
        square = np.diag((root * root).ravel()).astype(complex)
        return StateDecomposition(kind, cert.inner_dim, tau, relative_residual(square, sigma, overwrite_approx=True))

    first, second = _factor_sides(kind, cert.payload)
    if kind in PRODUCT_KINDS:
        # bond k carries column k of the left factor and row k of the right
        train = _diagonal_train((np.asarray(first)[None, :, None], np.asarray(second)[:, :, None, None]))
        residual = relative_residual(contract_train(train), sigma)
        payload = SeparableCertificate(train, cert.inner_dim, residual) if kind in SEPARABLE_KINDS else train
    else:
        train = _purification_train(first, second, rel_tol)
        dense = contract_train(train)
        residual = _gram_residual(dense, sigma)
        # an inner dimension of 0 leaves L with no columns, and Schmidt rank 0
        osr_l = operator_schmidt_rank(dense, train.out_dims, rel_tol, train.in_dims) if dense.size else 0
        payload = PurificationCertificate(train, osr_l, residual)
    return StateDecomposition(kind, cert.inner_dim, payload, residual, site_symmetric=symmetric)


# ---------------------------------------------------------------------------
# state side -> matrix side


def _two_site_train(obj) -> MpoTrain:
    train = obj.train if isinstance(obj, (SeparableCertificate, PurificationCertificate)) else obj
    if not isinstance(train, MpoTrain):
        raise UsageError(f"expected a train-backed decomposition, got {type(obj).__name__}")
    if train.n != 2:
        raise UsageError(f"conversion needs a two-site decomposition, got {train.n} sites")
    return train


def decomposition_to_factorization(
    kind: str, decomposition, sites=None, rel_tol: float = DEFAULT_RANK_TOL
) -> FactorCertificate:
    """Read the matrix-side factorization off a decomposition of diagonal sigma.

    Accepts a StateDecomposition or the bare payload (train, separable or
    purification certificate, dense root).  The rule per kind follows the
    constructive correspondence: diagonal matrix elements of the cores for
    the train kinds, Gram matrices of the factor slices for purifications,
    the diagonal of the square root read by :func:`diag_extract` on the two
    sites ``sites`` (required for a dense root), whose rank is read at
    ``rel_tol``.  A symmetric kind keeps the first site's factor and
    mirrors it.  The recorded residual is that of the returned payload
    against the diagonal of the operator the decomposition itself
    represents, which must be diagonal bipartite.
    """
    kind = canonical_kind(kind)
    obj = decomposition.payload if isinstance(decomposition, StateDecomposition) else decomposition

    if kind in PRODUCT_KINDS:
        train = _two_site_train(obj)
        core1, core2 = train.cores
        r = core1.shape[3]
        implied = diag_extract(contract_train(train), (core1.shape[1], core2.shape[1]))
        left = np.diagonal(core1[0], axis1=0, axis2=1).T.copy()
        right = np.diagonal(core2[..., 0], axis1=1, axis2=2).copy()
        imag = np.abs(left.imag).max(initial=0.0) + np.abs(right.imag).max(initial=0.0)
        if kind in SEPARABLE_KINDS:
            left, right = np.clip(left.real, 0.0, None), np.clip(right.real, 0.0, None)
        elif kind == "minimal" and imag < REAL_TOL:
            left, right = left.real, right.real
        payload = {"factor": left} if kind in SYMMETRIC_KINDS else {"left": left, "right": right}
        first, second = _factor_sides(kind, payload)
        residual = float(np.abs((first @ second).real - implied).max())
        return FactorCertificate(kind, r, payload, residual)

    if kind in GRAM_KINDS:
        train = _two_site_train(obj)
        core1, core2 = train.cores
        r = core1.shape[3]
        d1, d2 = core1.shape[1], core2.shape[1]
        dense = contract_train(train)
        implied = diag_extract(dense @ dense.conj().T, (d1, d2))
        # (E_i)_kl = sum_a core1[0, i, a, k] conj(core1[0, i, a, l]), and F_j alike
        g1 = core1[0].transpose(0, 2, 1)  # (d1, r, aux)
        g2 = g1 if kind in SYMMETRIC_KINDS else core2[..., 0].transpose(1, 0, 2)  # (d2, r, aux)
        e_list, f_list, residual = _gram_pairs(g1, g2, implied)
        payload = {"E": e_list} if kind in SYMMETRIC_KINDS else {"E": e_list, "F": f_list}
        return FactorCertificate(kind, r, payload, residual)

    # hadamard-root: diagonal Hermitian root tau -> sign pattern and root
    # matrix, against the diagonal of tau tau, read with no product formed
    root = diag_extract(obj, sites)
    tau = _resolve_dims(obj, sites)[0]
    residual = float(np.abs(root * root - np.einsum("ij,ji->i", tau, tau).reshape(root.shape)).max())
    signs = np.sign(root).astype(int)
    rank = numerical_rank(root, rel_tol)
    return FactorCertificate("hadamard-root", rank, {"root": root, "signs": signs}, residual)


# ---------------------------------------------------------------------------
# the producer table and the two-way verification report


def _matrix_certificate(
    kind: str,
    m: np.ndarray,
    *,
    rel_tol: float = DEFAULT_RANK_TOL,
    sign_budget: int = DEFAULT_SIGN_BUDGET,
    restarts: int = SEARCH_RESTARTS,
    seed: int = 0,
):
    """The canonical matrix-side certificate of one (canonical) kind for m.

    Exact routes for minimal, psd, symmetric, cpsdt and hadamard-root; the
    smallest certificate the rank scans (starting at the rank at
    ``rel_tol``) find for nonnegative and cp, None when the cp scan finds
    none (``NecessaryConditionError`` propagates).  Each producer checks
    its own preconditions: an asymmetric m is a ``UsageError`` for the
    symmetric and cpsdt kinds and a violated necessary condition for cp.
    """
    if kind == "minimal":
        return minimal_factorization(m, rel_tol)
    if kind == "psd":
        return psd_construct(m, rel_tol)
    if kind == "symmetric":
        return symmetric_factorization(m, rel_tol)
    if kind == "cpsdt":
        return cpsdt_construct(m, sign_budget, rel_tol)
    if kind == "hadamard-root":
        return hadamard_root_certificate(m, sign_budget, rel_tol)
    if kind == "nonnegative":
        return scan_nonneg_certificate(m, restarts=restarts, seed=seed, rel_tol=rel_tol)
    return scan_cp_certificate(m, restarts=restarts, seed=seed, rel_tol=rel_tol)


def verify_correspondence(
    kind: str,
    matrix,
    sign_budget: int = DEFAULT_SIGN_BUDGET,
    restarts: int = SEARCH_RESTARTS,
    seed: int = 0,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> dict:
    """Drive both converters for one kind and grade it by one rule.

    The certificate comes from ``_matrix_certificate`` and is transported
    to sigma once, by ``factorization_to_decomposition``.  The transport is
    sound when it reproduces sigma at the bar its producer met: within
    ``SEARCH_RESIDUAL_TOL`` of max|sigma| in max-abs drift for the
    search-origin kinds (nonnegative, cp), and ``residual <=
    CERT_RESIDUAL_TOL`` for every other kind.  An unsound transport is a
    "violation" whatever the ranks say.  The rank relation is then read by
    factor shape.  The exact kinds (minimal, symmetric, hadamard-root)
    report integers and are an "exact-match" when the matrix rank, the
    Schmidt rank of sigma and every inner dimension of the round trip
    agree.  For hadamard-root the sign walk runs once, on the matrix side
    (``sqrt_rank``), and its root is transported as the diagonal operator
    tau: the two sides are the walk's rank and the Schmidt rank of tau read
    by the train sweep's SVDs, the rank of the root it was handed rather
    than the minimum over roots, which only the walk computes.  The Gram
    (psd, cpsdt) and separable (nonnegative, cp) kinds report [lower,
    upper] intervals on both sides and are "intervals-consistent" when
    they overlap.  The lower ends are ceil(sqrt(.)) of the matrix rank and
    of the Schmidt rank of sigma for a Gram kind (a size-r psd
    factorization has rank <= r^2) and those ranks themselves for a
    separable kind.  The upper ends are the certificate's inner dimension
    and, on the state side, the transported purification's Schmidt rank
    ``osr_L`` or separable train's inner dimension.  The certificates,
    their transport, the ranks and the support the sign budget counts are
    all taken at ``rel_tol``.  A budget overrun (the walk's refusal,
    :class:`SignBudgetError`), a violated necessary condition or a search
    without a certificate marks the kind "skipped".
    """
    kind = canonical_kind(kind)
    m = as_nonneg(matrix)
    entry: dict = {"kind": kind}
    try:
        cert = _matrix_certificate(kind, m, rel_tol=rel_tol, sign_budget=sign_budget, restarts=restarts, seed=seed)
    except SignBudgetError as exc:
        entry.update(verdict="skipped", note=str(exc))
        return entry
    except NecessaryConditionError as exc:
        entry.update(verdict="skipped", note=f"no {kind} factorization: {exc.condition}")
        return entry
    if cert is None:
        entry.update(verdict="skipped", note="search exhausted without a certificate")
        return entry

    # the state-side upper bounds are backed by the transported certificate,
    # which must reproduce sigma at the bar its producer met
    dec = factorization_to_decomposition(kind, cert, DiagBipartite(m), rel_tol)
    sigma = diag_embed(m)
    if kind in SEPARABLE_KINDS:
        drift = np.abs(contract_train(dec.payload.train) - sigma.data).max()
        sound = drift / max_abs(sigma.data) <= SEARCH_RESIDUAL_TOL
    else:
        sound = dec.residual <= CERT_RESIDUAL_TOL

    if kind == "hadamard-root":
        # the walk's rank against the Schmidt rank of the root it handed over
        sides = (cert.inner_dim, operator_schmidt_rank(dec.payload, m.shape, rel_tol))
    else:
        sides = (numerical_rank(m, rel_tol), operator_schmidt_rank(sigma, rel_tol=rel_tol))

    gram = kind in GRAM_KINDS
    if gram or kind in SEPARABLE_KINDS:
        # a size-r psd factorization has rank <= r^2
        lower = [ceil(sqrt(x)) if gram else x for x in sides]
        upper = [cert.inner_dim, dec.payload.osr_L if gram else dec.inner_dim]
        consistent = max(lower) <= min(upper)
        entry.update(
            matrix_side=[lower[0], upper[0]],
            state_side=[lower[1], upper[1]],
            verdict="intervals-consistent" if sound and consistent else "violation",
        )
        return entry

    dims = {*sides, cert.inner_dim}
    entry.update(matrix_side=sides[0], state_side=sides[1])
    if kind != "hadamard-root":
        back = decomposition_to_factorization(kind, dec)
        dims.add(back.inner_dim)
        if kind == "minimal":
            entry["round_trip_inner"] = (dec.inner_dim, back.inner_dim)
    entry["verdict"] = "exact-match" if sound and len(dims) == 1 else "violation"
    return entry

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

``verify_correspondence`` drives both converters and grades the rank
relation: exact equality where both sides are exactly computable (minimal,
symmetric, hadamard-root), interval consistency for the heuristic kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from .certificates import (
    FactorCertificate,
    NecessaryConditionError,
    as_nonneg,
    pair_traces,
)
from .decompositions import (
    CERT_RESIDUAL_TOL,
    PurificationCertificate,
    SeparableCertificate,
    local_purification_spectral,
    operator_schmidt_rank,
    q_sqrt_rank,
)
from .nonneg_factorizations import (
    SEARCH_RESIDUAL_TOL,
    cp_factorization_search,
    cpsdt_construct,
    minimal_factorization,
    psd_rank_lower_bound,
    scan_nonneg_certificate,
    sqrt_rank,
    symmetric_factorization,
)
from .tensor_core import (
    MpoTrain,
    PsdOperator,
    SiteSpec,
    UsageError,
    _resolve_dims,
    contract_train,
    numerical_rank,
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

SYMMETRIC_KINDS = ("symmetric", "cp", "cpsdt")


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
    """A nonnegative matrix together with the two site dimensions it spans."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_nonneg(self.matrix))

    @property
    def d1(self) -> int:
        return self.matrix.shape[0]

    @property
    def d2(self) -> int:
        return self.matrix.shape[1]


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
    """Read the nonnegative matrix back off a diagonal bipartite operator.

    Inverse of :func:`diag_embed` bit-exactly.  Raises on more or fewer
    than two sites and on material off-diagonal mass.
    """
    data, dims, _ = _resolve_dims(sigma, sites)
    if len(dims) != 2:
        raise UsageError(f"operator must be bipartite, got {len(dims)} sites")
    diag = np.diagonal(data)
    norm = np.linalg.norm(data)
    off = np.linalg.norm(data - np.diag(diag))
    if norm > 0 and off > 1e-10 * norm:
        raise UsageError(f"operator is materially non-diagonal (off mass {off / norm:.3e})")
    return np.ascontiguousarray(diag.real.reshape(dims[0], dims[1]))


# ---------------------------------------------------------------------------
# matrix side -> state side


def _diag_cores_train(left, right) -> MpoTrain:
    """Two-site train with diagonal cores from the columns/rows of a factorization."""
    left = np.asarray(left)
    right = np.asarray(right)
    d1, r = left.shape
    d2 = right.shape[1]
    core1 = np.zeros((1, d1, d1, r), dtype=complex)
    core2 = np.zeros((r, d2, d2, 1), dtype=complex)
    for k in range(r):
        core1[0, :, :, k] = np.diag(left[:, k])
        core2[k, :, :, 0] = np.diag(right[k, :])
    return MpoTrain((core1, core2))


def _gram_vectors(mat, tol: float = 1e-10):
    """Factor H with psd mat = H H^dag (rows index the Gram vectors by site)."""
    herm = 0.5 * (mat + np.conj(mat).T)
    w, v = np.linalg.eigh(herm)
    top = max(w.max(initial=0.0), 1e-300)
    if w.min(initial=0.0) < -tol * top:
        raise UsageError(f"matrix is not psd (min eigenvalue {w.min():.3e})")
    return v * np.sqrt(np.clip(w, 0.0, None))


def _purification_train(e_list, f_list) -> MpoTrain:
    """Two-site factor train realizing M_ij = tr(E_i F_j^T) as L L^dag = sigma.

    Site l carries an auxiliary leg of dimension d_l * r holding the Gram
    vectors of its psd tuple; the bond enumerates the Gram columns.
    """
    p = len(e_list)
    q = len(f_list)
    r = np.asarray(e_list[0]).shape[0]
    he = [_gram_vectors(e) for e in e_list]
    hf = [_gram_vectors(f) for f in f_list]
    s_e = he[0].shape[1]
    s_f = hf[0].shape[1]
    core1 = np.zeros((1, p, p * s_e, r), dtype=complex)
    core2 = np.zeros((r, q, q * s_f, 1), dtype=complex)
    for k in range(r):
        for i in range(p):
            core1[0, i, i * s_e : (i + 1) * s_e, k] = he[i][k, :]
        for j in range(q):
            core2[k, j, j * s_f : (j + 1) * s_f, 0] = hf[j][k, :]
    return MpoTrain((core1, core2))


def _train_residual(train: MpoTrain, sigma: np.ndarray, purifies: bool) -> float:
    dense = contract_train(train)
    recon = dense @ dense.conj().T if purifies else dense
    return float(np.linalg.norm(recon - sigma) / max(np.linalg.norm(sigma), 1e-300))


def factorization_to_decomposition(
    kind: str, cert: FactorCertificate, target: DiagBipartite
) -> StateDecomposition:
    """Turn a matrix-side certificate into the matching decomposition of sigma."""
    kind = canonical_kind(kind)
    if cert.kind != kind:
        raise UsageError(f"certificate kind {cert.kind!r} does not match requested {kind!r}")
    m = target.matrix
    sigma = diag_embed(m).data
    sym = kind in SYMMETRIC_KINDS
    if sym and (
        m.shape[0] != m.shape[1]
        or np.abs(m - m.T).max(initial=0.0) > 1e-10 * max(np.abs(m).max(), 1e-300)
    ):
        raise UsageError("symmetric kinds need a square symmetric matrix")

    if kind in ("minimal", "nonnegative"):
        train = _diag_cores_train(cert.payload["left"], cert.payload["right"])
        residual = _train_residual(train, sigma, purifies=False)
        if kind == "nonnegative":
            payload = SeparableCertificate(train, cert.inner_dim, residual)
        else:
            payload = train
        return StateDecomposition(kind, cert.inner_dim, payload, residual)

    if kind == "symmetric":
        a = np.asarray(cert.payload["factor"])
        train = _diag_cores_train(a, a.T)
        residual = _train_residual(train, sigma, purifies=False)
        return StateDecomposition(kind, cert.inner_dim, train, residual, site_symmetric=True)

    if kind == "cp":
        a = np.asarray(cert.payload["factor"])
        train = _diag_cores_train(a, a.T)
        residual = _train_residual(train, sigma, purifies=False)
        payload = SeparableCertificate(train, cert.inner_dim, residual)
        return StateDecomposition(kind, cert.inner_dim, payload, residual, site_symmetric=True)

    if kind in ("psd", "cpsdt"):
        e_list = cert.payload["E"]
        f_list = cert.payload["F"] if kind == "psd" else cert.payload["E"]
        train = _purification_train(e_list, f_list)
        residual = _train_residual(train, sigma, purifies=True)
        dense = contract_train(train)
        osr_l = operator_schmidt_rank(dense, train.out_dims, in_dims=train.in_dims)
        payload = PurificationCertificate(train, osr_l, residual)
        return StateDecomposition(kind, cert.inner_dim, payload, residual, site_symmetric=(kind == "cpsdt"))

    # hadamard-root: the diagonal Hermitian square root of sigma
    root = np.asarray(cert.payload["root"], dtype=float)
    tau = np.diag(root.ravel()).astype(complex)
    residual = float(
        np.linalg.norm(tau @ tau - sigma) / max(np.linalg.norm(sigma), 1e-300)
    )
    return StateDecomposition(kind, cert.inner_dim, tau, residual)


# ---------------------------------------------------------------------------
# state side -> matrix side


def _two_site_train(obj) -> MpoTrain:
    train = obj.train if isinstance(obj, (SeparableCertificate, PurificationCertificate)) else obj
    if not isinstance(train, MpoTrain):
        raise UsageError(f"expected a train-backed decomposition, got {type(obj).__name__}")
    if train.n != 2:
        raise UsageError(f"conversion needs a two-site decomposition, got {train.n} sites")
    return train


def decomposition_to_factorization(kind: str, decomposition, sites=None) -> FactorCertificate:
    """Read the matrix-side factorization off a decomposition of diagonal sigma.

    Accepts a StateDecomposition or the bare payload (train, separable or
    purification certificate, dense root).  The rule per kind follows the
    constructive correspondence: diagonal matrix elements of the cores for
    the train kinds, Gram matrices of the factor slices for purifications,
    the reshaped diagonal for the square root.  The recorded residual is
    against the diagonal of the operator the decomposition itself
    represents, which must be diagonal bipartite.
    """
    kind = canonical_kind(kind)
    obj = decomposition.payload if isinstance(decomposition, StateDecomposition) else decomposition

    if kind in ("minimal", "nonnegative", "symmetric", "cp"):
        train = _two_site_train(obj)
        core1, core2 = train.cores
        r = core1.shape[3]
        dense = contract_train(train)
        implied = diag_extract(dense, (core1.shape[1], core2.shape[1]))
        left = np.stack([np.diagonal(core1[0, :, :, k]) for k in range(r)], axis=1)
        right = np.stack([np.diagonal(core2[k, :, :, 0]) for k in range(r)], axis=0)
        if kind == "minimal":
            if np.abs(left.imag).max(initial=0.0) + np.abs(right.imag).max(initial=0.0) < 1e-12:
                left, right = left.real, right.real
            residual = float(np.abs((left @ right).real - implied).max())
            return FactorCertificate(kind, r, {"left": left, "right": right}, residual)
        if kind == "nonnegative":
            left_r = np.clip(left.real, 0.0, None)
            right_r = np.clip(right.real, 0.0, None)
            residual = float(np.abs(left_r @ right_r - implied).max())
            return FactorCertificate(kind, r, {"left": left_r, "right": right_r}, residual)
        if kind == "symmetric":
            residual = float(np.abs((left @ left.T).real - implied).max())
            return FactorCertificate(kind, r, {"factor": left}, residual)
        factor = np.clip(left.real, 0.0, None)
        residual = float(np.abs(factor @ factor.T - implied).max())
        return FactorCertificate(kind, r, {"factor": factor}, residual)

    if kind in ("psd", "cpsdt"):
        train = _two_site_train(obj)
        core1, core2 = train.cores
        r = core1.shape[3]
        d1, d2 = core1.shape[1], core2.shape[1]
        dense = contract_train(train)
        implied = diag_extract(dense @ dense.conj().T, (d1, d2))
        l1 = [core1[0, :, :, k] for k in range(r)]
        l2 = [core2[k, :, :, 0] for k in range(r)]
        e_list = [
            np.array([[np.sum(l1[k][i, :] * np.conj(l1[l][i, :])) for l in range(r)] for k in range(r)])
            for i in range(d1)
        ]
        f_list = [
            np.array([[np.sum(l2[k][j, :] * np.conj(l2[l][j, :])) for l in range(r)] for k in range(r)])
            for j in range(d2)
        ]
        residual = float(np.abs(pair_traces(e_list, f_list) - implied).max())
        if kind == "psd":
            return FactorCertificate(kind, r, {"E": e_list, "F": f_list}, residual)
        return FactorCertificate(kind, r, {"E": e_list}, residual)

    # hadamard-root: diagonal Hermitian root -> sign pattern and root matrix
    tau = np.asarray(obj)
    if sites is None:
        side = tau.shape[0]
        root_side = int(round(sqrt(side)))
        if root_side * root_side != side:
            raise UsageError("site dimensions required to reshape the root")
        sites = (root_side, root_side)
    tau, dims, _ = _resolve_dims(tau, sites)
    if len(dims) != 2:
        raise UsageError("square-root conversion needs a bipartite root")
    diag = np.diagonal(tau)
    off = np.linalg.norm(tau - np.diag(diag))
    if off > 1e-10 * max(np.linalg.norm(tau), 1e-300):
        raise UsageError("Hermitian root is not diagonal in the computational basis")
    root = diag.real.reshape(dims)
    signs = np.sign(root).astype(int)
    rank = numerical_rank(root)
    return FactorCertificate("hadamard-root", rank, {"root": root, "signs": signs}, 0.0)


# ---------------------------------------------------------------------------
# the two-way verification report


def _interval_verdict(matrix_iv, state_iv) -> str:
    lo = max(matrix_iv[0], state_iv[0])
    up = min(matrix_iv[1], state_iv[1])
    return "intervals-consistent" if lo <= up else "violation"


def _search_verdict(cert: FactorCertificate, target: DiagBipartite, rank: int, osr: int):
    """Transport a search certificate and grade it at the bar it was accepted at.

    The search accepted it at ``SEARCH_RESIDUAL_TOL`` of max|M| in max-abs
    residual, so the transported state is held to the same measure, not to
    the exact ``CERT_RESIDUAL_TOL``.
    """
    dec = factorization_to_decomposition(cert.kind, cert, target)
    sigma = diag_embed(target.matrix).data
    drift = np.abs(contract_train(dec.payload.train) - sigma).max() / max(np.abs(sigma).max(), 1e-300)
    matrix_iv = [rank, cert.inner_dim]
    state_iv = [osr, dec.inner_dim]
    verdict = _interval_verdict(matrix_iv, state_iv)
    if drift > SEARCH_RESIDUAL_TOL:
        verdict = "violation"
    return {"matrix_side": matrix_iv, "state_side": state_iv, "verdict": verdict}


def verify_correspondence(
    kind: str,
    matrix,
    sign_budget: int = 2**20,
    restarts: int = 20,
    iters: int = 4000,
    seed: int = 0,
    max_enum_rank: int = 16,
) -> dict:
    """Drive both converters for one kind and grade the rank relation.

    Exact kinds (minimal, symmetric, hadamard-root) must match integer for
    integer; heuristic kinds report [lower, upper] intervals on both sides
    and are graded for overlap.  Transported certificates must reproduce
    sigma: search-origin ones (nonnegative, cp) within
    ``SEARCH_RESIDUAL_TOL``, the bar their search accepted them at, the
    others within ``CERT_RESIDUAL_TOL``.  A budget overrun marks the kind "skipped"; any
    inconsistency is a "violation".
    """
    kind = canonical_kind(kind)
    m = as_nonneg(matrix)
    target = DiagBipartite(m)
    sigma = diag_embed(m)
    entry: dict = {"kind": kind}

    if kind in SYMMETRIC_KINDS and (
        m.shape[0] != m.shape[1] or np.abs(m - m.T).max(initial=0.0) > 1e-10 * max(np.abs(m).max(), 1e-300)
    ):
        raise UsageError(f"kind {kind!r} needs a symmetric matrix")

    if kind == "minimal":
        rank = numerical_rank(m)
        osr = operator_schmidt_rank(sigma)
        dec = factorization_to_decomposition(kind, minimal_factorization(m), target)
        back = decomposition_to_factorization(kind, dec)
        entry.update(
            matrix_side=rank,
            state_side=osr,
            round_trip_inner=(dec.inner_dim, back.inner_dim),
            verdict="exact-match" if rank == osr == dec.inner_dim == back.inner_dim else "violation",
        )
        return entry

    if kind == "symmetric":
        cert = symmetric_factorization(m)
        rank = numerical_rank(m)
        dec = factorization_to_decomposition(kind, cert, target)
        back = decomposition_to_factorization(kind, dec)
        osr = operator_schmidt_rank(sigma)
        ok = cert.inner_dim == rank == osr == dec.inner_dim == back.inner_dim and dec.residual <= CERT_RESIDUAL_TOL
        entry.update(matrix_side=rank, state_side=osr, verdict="exact-match" if ok else "violation")
        return entry

    if kind == "hadamard-root":
        nonzeros = int(np.count_nonzero(m))
        if 2**nonzeros > sign_budget:
            entry.update(verdict="skipped", note=f"{nonzeros} nonzeros exceed the sign budget")
            return entry
        try:
            q_rank, _ = q_sqrt_rank(sigma, max_enum_rank=max_enum_rank)
        except UsageError as exc:
            entry.update(verdict="skipped", note=str(exc))
            return entry
        s_rank, _ = sqrt_rank(m, sign_budget)
        entry.update(
            matrix_side=s_rank,
            state_side=q_rank,
            verdict="exact-match" if s_rank == q_rank else "violation",
        )
        return entry

    rank = numerical_rank(m)
    osr = operator_schmidt_rank(sigma)

    if kind == "nonnegative":
        cert = scan_nonneg_certificate(m, restarts=restarts, iters=iters, seed=seed)
        # transport the certificate across the bridge so the state-side
        # upper bound is certificate-backed, not just transcribed
        entry.update(_search_verdict(cert, target, rank, osr))
        return entry

    if kind == "psd":
        puri = local_purification_spectral(sigma)
        back = decomposition_to_factorization(kind, puri)
        matrix_iv = [psd_rank_lower_bound(m), back.inner_dim]
        state_iv = [ceil(sqrt(osr)), puri.osr_L]
        verdict = _interval_verdict(matrix_iv, state_iv)
        if puri.residual > CERT_RESIDUAL_TOL:
            verdict = "violation"
        entry.update(matrix_side=matrix_iv, state_side=state_iv, verdict=verdict)
        return entry

    if kind == "cp":
        try:
            found = None
            for r in range(max(rank, 1), m.shape[0] + 1):
                found = cp_factorization_search(m, r, restarts=restarts, seed=seed)
                if found is not None:
                    break
        except NecessaryConditionError as exc:
            entry.update(verdict="skipped", note=f"no cp factorization: {exc.condition}")
            return entry
        if found is None:
            entry.update(verdict="skipped", note="search exhausted without a certificate")
            return entry
        entry.update(_search_verdict(found, target, rank, osr))
        return entry

    # cpsdt
    cert = cpsdt_construct(m, sign_budget)
    dec = factorization_to_decomposition(kind, cert, target)
    puri: PurificationCertificate = dec.payload
    matrix_iv = [psd_rank_lower_bound(m), cert.inner_dim]
    state_iv = [ceil(sqrt(osr)), puri.osr_L]
    verdict = _interval_verdict(matrix_iv, state_iv)
    if dec.residual > CERT_RESIDUAL_TOL:
        verdict = "violation"
    entry.update(matrix_side=matrix_iv, state_side=state_iv, verdict=verdict)
    return entry

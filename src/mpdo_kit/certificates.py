"""Factorization certificates and their independent feasibility checker.

The checker recomputes reconstruction and feasibility directly from the
certificate payload with plain numpy; it shares no code with the search
routines that produce certificates, so a bug there cannot silently accept
its own output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Entries above this magnitude below zero fail nonnegativity outright;
#: anything in (-CLIP_TOL, 0) is clipped on ingestion.
CLIP_TOL = 1e-12

#: Relative psd tolerance for certificate payload matrices.
PSD_FEAS_TOL = 1e-10

#: Largest max|X - X^dag| / max|X| a payload matrix may have and still
#: count as Hermitian; psd feasibility is judged only past this test.
HERMITIAN_TOL = 1e-10

#: A root's rank counts its singular values above ROOT_RANK_TOL * sigma_max.
ROOT_RANK_TOL = 1e-10

KINDS = ("minimal", "nonnegative", "psd", "symmetric", "cp", "cpsdt", "hadamard-root")


class NecessaryConditionError(ValueError):
    """A factorization cannot exist: a necessary condition fails.

    Distinct from a search coming up empty; carries the violated condition.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(f"necessary condition violated: {condition}" + (f" ({detail})" if detail else ""))


def require_finite(m: np.ndarray) -> np.ndarray:
    """``m`` itself; ``ValueError`` when an entry is NaN or infinite."""
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class NonnegMatrix:
    """Real entrywise-nonnegative matrix; tiny negative round-off is clipped."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim {m.ndim}")
        require_finite(m)  # NaN would slip past the sign test below
        if m.min(initial=0.0) < -CLIP_TOL:
            raise NecessaryConditionError(
                "entrywise nonnegative", f"min entry {m.min():.3e}"
            )
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def shape(self):
        return self.entries.shape


def as_nonneg(matrix) -> np.ndarray:
    """Validate and clip a raw array to an entrywise-nonnegative matrix."""
    if isinstance(matrix, NonnegMatrix):
        return matrix.entries
    return NonnegMatrix(np.asarray(matrix, dtype=float)).entries


@dataclass(frozen=True)
class FactorCertificate:
    """A tagged factorization with its inner dimension and reconstruction error.

    Payload keys by kind:
      minimal / nonnegative : "left" (p x r), "right" (r x q)
      psd                   : "E" (list of r x r psd), "F" (list of r x r psd)
      symmetric             : "factor" (p x r complex, M = factor factor^T)
      cp                    : "factor" (p x r real nonnegative)
      cpsdt                 : "E" (list of r x r psd)
      hadamard-root         : "root" (p x q real, root o root = M), "signs"
    """

    kind: str
    inner_dim: int
    payload: dict[str, Any]
    residual: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")


def pair_traces(e_list, f_list) -> np.ndarray:
    """Matrix of tr(E_i F_j^T) over all pairs (no conjugation in the pairing)."""
    e = np.asarray(e_list)
    f = np.asarray(f_list)
    return np.einsum("iab,jab->ij", e, f).real


def _trace_pairs(e_list, f_list, inner_dim: int) -> np.ndarray:
    """The checker's own tr(E_i F_j^T) table: each E_i flattened against each F_j.

    The tuples hold inner_dim x inner_dim matrices; an empty tuple gives
    the table no rows (or no columns), which the shape rule then refuses.
    """
    e = np.asarray(e_list).reshape(len(e_list), inner_dim * inner_dim)
    f = np.asarray(f_list).reshape(len(f_list), inner_dim * inner_dim)
    return (e @ f.T).real


def _real(x, what: str) -> np.ndarray:
    """``x`` as a real array; raise when any entry has a nonzero imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if np.abs(x.imag).max(initial=0.0) > 0:
            raise ValueError(f"{what} must be real")
        x = x.real
    return x


def _min_rel_eig(mat) -> float:
    herm = 0.5 * (mat + np.conj(mat).T)
    w = np.linalg.eigvalsh(herm)
    top = max(w.max(initial=0.0), 1e-300)
    return float(w.min(initial=0.0) / top)


def _check_psd_payload(mats, inner_dim: int) -> None:
    """Raise unless every matrix is inner_dim x inner_dim, Hermitian and psd."""
    for x in mats:
        x = np.asarray(x)
        if x.shape != (inner_dim, inner_dim):
            raise ValueError("psd factor size does not match inner dimension")
        scale = max(np.abs(x).max(initial=0.0), 1e-300)
        if np.abs(x - np.conj(x).T).max(initial=0.0) > HERMITIAN_TOL * scale:
            raise ValueError("payload matrix is not Hermitian")
        if _min_rel_eig(x) < -PSD_FEAS_TOL:
            raise ValueError("payload matrix is not psd")


def _real_product(prod, residual_tol: float, scale: float, what: str) -> np.ndarray:
    """Real part of a factor product; raise when its imaginary part exceeds the residual bar."""
    if np.abs(np.imag(prod)).max(initial=0.0) > residual_tol * scale:
        raise ValueError(f"{what} has a material imaginary part")
    return np.real(prod)


def _check_reconstruction(recon, m, bar: float, what: str) -> float:
    """Max-abs residual of ``recon`` against ``m``; raise on another shape or a residual above ``bar``."""
    if recon.shape != m.shape:
        raise ValueError(f"{what} reconstruction has shape {recon.shape}, the matrix has shape {m.shape}")
    residual = float(np.abs(recon - m).max())
    if residual > bar:
        raise ValueError(f"{what} does not reconstruct the matrix: max-abs residual {residual:.3e} > {bar:.3e}")
    return residual


def check_factor_certificate(matrix, cert: FactorCertificate, residual_tol: float = 1e-8):
    """Recompute reconstruction and kind-specific feasibility of a certificate.

    Returns a dict with the measured max-abs residual and feasibility flags;
    raises ValueError when the certificate is infeasible or fails to
    reconstruct ``matrix`` within ``residual_tol * max|matrix|``.
    """
    m = np.asarray(matrix, dtype=float)
    scale = max(np.abs(m).max(), 1e-300)
    kind = cert.kind
    pay = cert.payload

    if kind in ("minimal", "nonnegative"):
        a = np.asarray(pay["left"])
        b = np.asarray(pay["right"])
        if a.shape[1] != cert.inner_dim or b.shape[0] != cert.inner_dim:
            raise ValueError("inner dimension does not match the factors")
        if kind == "nonnegative":
            a, b = _real(a, "nonnegative factors"), _real(b, "nonnegative factors")
            if a.min(initial=0.0) < -CLIP_TOL or b.min(initial=0.0) < -CLIP_TOL:
                raise ValueError("factors are not entrywise nonnegative")
        recon = _real_product(a @ b, residual_tol, scale, "left @ right")
    elif kind == "psd":
        e_list, f_list = pay["E"], pay["F"]
        _check_psd_payload(list(e_list) + list(f_list), cert.inner_dim)
        recon = _trace_pairs(e_list, f_list, cert.inner_dim)
    elif kind == "symmetric":
        a = np.asarray(pay["factor"])
        if a.shape[1] != cert.inner_dim:
            raise ValueError("inner dimension does not match the factor")
        recon = _real_product(a @ a.T, residual_tol, scale, "factor factor^T")
    elif kind == "cp":
        a = _real(pay["factor"], "cp factor")
        if a.min(initial=0.0) < -CLIP_TOL:
            raise ValueError("cp factor is not entrywise nonnegative")
        if a.shape[1] != cert.inner_dim:
            raise ValueError("inner dimension does not match the factor")
        recon = a @ a.T
    elif kind == "cpsdt":
        e_list = pay["E"]
        _check_psd_payload(e_list, cert.inner_dim)
        if "root" in pay:
            # the symmetric entrywise root N the E_i are built from: N o N = M
            root = _real(pay["root"], "cpsdt root")
            if not np.array_equal(root, root.T):
                raise ValueError("cpsdt root is not symmetric")
            _check_reconstruction(root * root, m, residual_tol * scale, "root o root")
        recon = _trace_pairs(e_list, e_list, cert.inner_dim)
    elif kind == "hadamard-root":
        root = _real(pay["root"], "hadamard root")
        recon = root * root
        s = np.linalg.svd(root, compute_uv=False)
        rank = int(np.count_nonzero(s > ROOT_RANK_TOL * s.max(initial=0.0)))
        if rank != cert.inner_dim:
            raise ValueError(f"root has rank {rank}, certificate claims {cert.inner_dim}")
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind}")

    residual = _check_reconstruction(recon, m, residual_tol * scale, "certificate")
    return {"kind": kind, "inner_dim": cert.inner_dim, "max_abs_residual": residual}

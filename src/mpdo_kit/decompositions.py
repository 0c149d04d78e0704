"""Train decompositions of psd operators and their certified rank data.

Covers the open-boundary train form of an operator and its Schmidt rank
across cuts, spectral and separable-based purifications, the Hermitian
square-root rank by sign enumeration, the cyclic (translation-invariant)
form obtained by padding an open train, the W-state family, and the
transfer-matrix periodicity bound on cyclic bond dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod, sqrt

import numpy as np

from .tensor_core import (
    DEFAULT_RANK_TOL,
    PSD_TOL,
    MpoTrain,
    PsdOperator,
    SiteSpec,
    TiSiteTensor,
    UsageError,
    _resolve_dims,
    contract_train,
    cyclic_shift_defect,
    min_rank_sign_pattern,
    svd_split,
)

#: Certificates are accepted when they reproduce their operator to this
#: relative Frobenius residual.
CERT_RESIDUAL_TOL = 1e-8

#: Relative off-diagonal mass below which an operator counts as diagonal.
DIAG_TOL = 1e-12

#: Default cap on the rank (hence 2^rank sign vectors) in the square-root
#: rank enumeration.
MAX_ENUM_RANK = 16


@dataclass(frozen=True)
class PurificationCertificate:
    """A factor L with ``L L^dag = rho``, held as an open train.

    ``osr_L`` is the measured Schmidt rank of L and upper-bounds the
    purification rank of rho; ``residual`` is the relative Frobenius error
    of the reproduction.
    """

    train: MpoTrain
    osr_L: int
    residual: float

    def dense_factor(self) -> np.ndarray:
        return contract_train(self.train)


@dataclass(frozen=True)
class SeparableCertificate:
    """Open train whose every bond-slice core matrix is psd.

    Existence of such a train certifies separability; the inner dimension
    upper-bounds the separable rank.
    """

    train: MpoTrain
    inner_dim: int
    residual: float

    def core_matrices(self):
        """All bond-slice matrices chi^(l)_(a,b), flattened over (l, a, b)."""
        out = []
        for core in self.train.cores:
            dl, _, _, dr = core.shape
            for a in range(dl):
                for b in range(dr):
                    out.append(core[a, :, :, b])
        return out

    def psd_defect(self) -> float:
        """Worst relative negative eigenvalue over the core matrices."""
        worst = 0.0
        for mat in self.core_matrices():
            w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
            top = max(w.max(initial=0.0), 1e-300)
            worst = max(worst, -w.min(initial=0.0) / top)
        return worst


@dataclass(frozen=True)
class SignVector:
    """Signs chosen for the nonzero eigenvalues of a Hermitian square root."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise UsageError("signs must be +-1")


@dataclass(frozen=True)
class WStateFamily:
    """The W state on n sites together with its two train representations.

    ``open_train`` is the bond-2 open-boundary form; ``cyclic_site`` is the
    bond-2n single-tensor cyclic form.  Both reproduce ``vector`` exactly,
    which fixes the overall scale of the cyclic tensor to ``n**(-3/(2n))``
    per site (the unnormalized convention would drop a factor sqrt(n)).
    """

    n: int
    vector: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b: np.ndarray
    open_train: MpoTrain
    cyclic_site: TiSiteTensor


# ---------------------------------------------------------------------------
# train form and Schmidt rank


def mpo_train_form(op, sites=None, rel_tol: float = DEFAULT_RANK_TOL, in_dims=None):
    """Left-canonical sweep of rank-revealing splits into an open train.

    At each cut the remainder is split by :func:`svd_split`: the core keeps
    the orthonormal left singular vectors and the singular values are
    carried right into the next remainder.  The cores to the left of a cut
    then form an isometry, so the matrix split there has the singular
    values of the operator's own matricization at that cut: each bond is
    the numerical rank at its cut, ``train.bond_dims`` is the per-cut rank
    profile (a zero rank keeps a zero bond of dimension 1), and the
    returned ``osr`` is its maximum.  Works for rectangular operators and
    column vectors alike.  Returns ``(train, osr)``.
    """
    data, out_dims, in_dims = _resolve_dims(op, sites, in_dims)
    n = len(out_dims)
    if n == 1:
        core = data.reshape(1, out_dims[0], in_dims[0], 1)
        osr = 1 if np.linalg.norm(data) > 0.0 else 0
        return MpoTrain((core,)), osr

    t = data.reshape(tuple(out_dims) + tuple(in_dims))
    perm = []
    for k in range(n):
        perm += [k, n + k]
    t = t.transpose(perm)

    cores = []
    osr = 0
    left = 1
    rest = t.reshape(out_dims[0] * in_dims[0], -1)
    for k in range(n - 1):
        lf, rf, r = svd_split(rest, rel_tol)
        osr = max(osr, r)
        if r == 0:
            lf = np.zeros((rest.shape[0], 1), dtype=complex)
            rf = np.zeros((1, rest.shape[1]), dtype=complex)
        cores.append(lf.reshape(left, out_dims[k], in_dims[k], -1))
        left = lf.shape[1]
        rest = rf.reshape(left * out_dims[k + 1] * in_dims[k + 1], -1)
    cores.append(rest.reshape(left, out_dims[n - 1], in_dims[n - 1], 1))
    return MpoTrain(tuple(cores)), osr


def operator_schmidt_rank(op, sites=None, rel_tol: float = DEFAULT_RANK_TOL, in_dims=None) -> int:
    """Largest matricization rank over the n-1 cuts (0 for the zero operator).

    Read off the :func:`mpo_train_form` sweep.
    """
    return mpo_train_form(op, sites, rel_tol, in_dims)[1]


def schmidt_rank_cap(out_dims, in_dims=None) -> int:
    """Dimension cap on the Schmidt rank: max over cuts of the smaller side."""
    out_dims = tuple(int(d) for d in out_dims)
    in_dims = out_dims if in_dims is None else tuple(int(d) for d in in_dims)
    n = len(out_dims)
    if n == 1:
        return 1
    caps = []
    for cut in range(1, n):
        rows = prod(out_dims[:cut]) * prod(in_dims[:cut])
        cols = prod(out_dims[cut:]) * prod(in_dims[cut:])
        caps.append(min(rows, cols))
    return max(caps)


# ---------------------------------------------------------------------------
# purifications


def _clipped_spectrum(rho: PsdOperator, rel_tol: float, psd_tol: float):
    w, v = np.linalg.eigh(rho.data)
    top = w.max(initial=0.0)
    if w.min(initial=0.0) < -psd_tol * max(top, 0.0):
        raise UsageError(
            f"operator is materially non-psd (min eigenvalue {w.min():.3e})"
        )
    w = np.clip(w, 0.0, None)
    keep = w > rel_tol * top if top > 0.0 else np.zeros_like(w, dtype=bool)
    return w[keep], v[:, keep]


def local_purification_spectral(
    rho: PsdOperator,
    rel_tol: float = DEFAULT_RANK_TOL,
    psd_tol: float = PSD_TOL,
) -> PurificationCertificate:
    """Purification from the spectral decomposition of rho.

    Rank-one operators get the column-vector factor sqrt(lambda) psi, whose
    Schmidt rank squares to the rank of rho itself.  Otherwise L is the
    unique psd square root of rho, pairing each eigenvector with itself;
    that choice keeps product inputs at Schmidt rank one, which an arbitrary
    orthonormal relabeling of the eigenbasis would destroy.
    """
    lam, vec = _clipped_spectrum(rho, rel_tol, psd_tol)
    dims = rho.sites.dims
    n = len(dims)
    if lam.size == 0:
        dense = np.zeros((rho.sites.total_dim, 1), dtype=complex)
        train, _ = mpo_train_form(dense, dims, rel_tol, in_dims=(1,) * n)
        return PurificationCertificate(train, 0, 0.0)
    if lam.size == 1:
        dense = np.sqrt(lam[0]) * vec[:, :1]
        train, osr = mpo_train_form(dense, dims, rel_tol, in_dims=(1,) * n)
    else:
        dense = (vec * np.sqrt(lam)) @ vec.conj().T
        train, osr = mpo_train_form(dense, dims, rel_tol, in_dims=dims)
    got = contract_train(train)
    recon = got @ got.conj().T
    residual = float(np.linalg.norm(recon - rho.data) / max(np.linalg.norm(rho.data), 1e-300))
    return PurificationCertificate(train, osr, residual)


def _psd_root(mat, tol: float = PSD_TOL):
    herm = 0.5 * (mat + mat.conj().T)
    w, v = np.linalg.eigh(herm)
    top = max(w.max(initial=0.0), 0.0)
    if w.min(initial=0.0) < -tol * max(top, 1e-300):
        raise UsageError(f"core matrix is not psd (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def purification_from_separable(cert: SeparableCertificate) -> PurificationCertificate:
    """Build a purification whose Schmidt rank is at most the separable inner dim.

    Each psd core is replaced by its psd root with the right bond index
    recorded on an auxiliary flag leg; the flags force matching bond values
    between L and L^dag, so the contraction reproduces the separable sum.
    """
    train = cert.train
    n = train.n
    roots = []
    for core in train.cores:
        dl, do, di, dr = core.shape
        if do != di:
            raise UsageError("separable cores must be square on the physical legs")
        rt = np.empty_like(core)
        for a in range(dl):
            for b in range(dr):
                rt[a, :, :, b] = _psd_root(core[a, :, :, b])
        roots.append(rt)

    l_cores = []
    for l, rt in enumerate(roots):
        dl, d, _, dr = rt.shape
        if l < n - 1:
            core = np.zeros((dl, d, d * dr, dr), dtype=complex)
            for b in range(dr):
                core[:, :, b::dr, b] = rt[:, :, :, b]
        else:
            core = rt
        l_cores.append(core)
    l_train = MpoTrain(tuple(l_cores))

    dense_l = contract_train(l_train)
    recon = dense_l @ dense_l.conj().T
    target = contract_train(train)
    residual = float(np.linalg.norm(recon - target) / max(np.linalg.norm(target), 1e-300))
    osr = operator_schmidt_rank(dense_l, train.out_dims, in_dims=l_train.in_dims)
    return PurificationCertificate(l_train, osr, residual)


# ---------------------------------------------------------------------------
# quantum square-root rank


def is_diagonal(rho: PsdOperator) -> bool:
    """True when the off-diagonal mass of rho is below ``DIAG_TOL`` (relative).

    :func:`q_sqrt_rank` is exact on such operators and an upper bound on
    all others.
    """
    off = np.linalg.norm(rho.data - np.diag(np.diagonal(rho.data)))
    return bool(off / max(np.linalg.norm(rho.data), 1e-300) <= DIAG_TOL)


def q_sqrt_rank(
    rho: PsdOperator,
    max_enum_rank: int = MAX_ENUM_RANK,
    rel_tol: float = DEFAULT_RANK_TOL,
    psd_tol: float = PSD_TOL,
):
    """Minimal Schmidt rank over sign choices of the Hermitian square roots.

    Enumerates the spectral sign vectors (lexicographic, +1 first; first
    minimizer wins) with the first sign pinned to +1, since a global flip
    preserves every Schmidt rank, so 2^(rank-1) vectors are ranked, in
    chunks of bounded memory; refuses when the rank exceeds
    ``max_enum_rank``.  Diagonal operators keep the computational basis as
    their eigenbasis, which makes the enumeration exact there; in general
    the result upper-bounds the true minimum over all Hermitian roots.
    Returns ``(rank, SignVector)``.
    """
    dims = rho.sites.dims
    n = len(dims)
    diagonal = is_diagonal(rho)

    if diagonal:
        vals = np.diagonal(rho.data).real
        top = vals.max(initial=0.0)
        if vals.min(initial=0.0) < -psd_tol * max(top, 0.0):
            raise UsageError("operator is materially non-psd")
        vals = np.clip(vals, 0.0, None)
        keep = np.flatnonzero(vals > rel_tol * top) if top > 0 else np.array([], int)
        lam = vals[keep]
    else:
        lam, vec = _clipped_spectrum(rho, rel_tol, psd_tol)

    r = lam.size
    if r == 0:
        return 0, SignVector(())
    if r > max_enum_rank:
        raise UsageError(
            f"rank {r} exceeds the enumeration cap {max_enum_rank}; refusing 2^{r} sign vectors"
        )

    roots = np.sqrt(lam)
    total = rho.sites.total_dim
    # one row-by-column matricization per cut; a single site is ranked as one row
    cuts = range(1, n) if n > 1 else [0]

    if diagonal:
        def build(signs):
            full = np.zeros((len(signs), total))
            full[:, keep] = signs * roots
            return [full.reshape(len(signs), prod(dims[:cut]), -1) for cut in cuts]

        rank, signs = min_rank_sign_pattern(r, build, total, rel_tol)
    else:
        def build(signs):
            taus = (vec * (signs * roots)[:, None, :]) @ vec.conj().T
            t = taus.reshape((len(signs),) + dims + dims)
            # one matricized copy per cut, made only when the engine asks for it
            for cut in cuts:
                left = [1 + k for k in range(cut)] + [1 + n + k for k in range(cut)]
                right = [1 + k for k in range(cut, n)] + [1 + n + k for k in range(cut, n)]
                yield t.transpose([0] + left + right).reshape(len(signs), prod(dims[:cut]) ** 2, -1)

        rank, signs = min_rank_sign_pattern(r, build, total * total, rel_tol)
    return rank, SignVector(signs)


def spectral_cluster_count(rho: PsdOperator, gap_tol: float = 1e-8) -> int:
    """Number of distinct eigenvalue clusters, grouping within ``gap_tol * lambda_max``."""
    w = np.sort(rho.eigenvalues())
    top = max(abs(w[-1]), abs(w[0]), 1e-300)
    clusters = 1
    for a, b in zip(w, w[1:]):
        if b - a > gap_tol * top:
            clusters += 1
    return clusters


# ---------------------------------------------------------------------------
# translation-invariant forms


def make_translation_invariant(
    train: MpoTrain,
    ti_tol: float = 1e-10,
) -> TiSiteTensor:
    """Fold an open train for a shift-invariant operator into one cyclic tensor.

    Zero-pads every core to the largest bond D, places core l in cyclic
    block (l, l+1) of an (n D)-bond tensor with an ``n**(-1/n)`` scale, so
    the trace closure averages the n cyclic rotations of the train -- each
    of which reproduces the operator, by the checked shift invariance.
    """
    n = train.n
    out_dims = train.out_dims
    in_dims = train.in_dims
    if len(set(out_dims)) != 1 or len(set(in_dims)) != 1:
        raise UsageError("translation invariance needs equal dimensions on every site")
    dense = contract_train(train)
    defect = cyclic_shift_defect(dense, out_dims, in_dims)
    if defect > ti_tol:
        raise UsageError(
            f"operator is not translation invariant (shift defect {defect:.3e})"
        )
    do, di = out_dims[0], in_dims[0]
    bond = max(max(c.shape[0], c.shape[3]) for c in train.cores)
    big = np.zeros((n * bond, do, di, n * bond), dtype=complex)
    for k, core in enumerate(train.cores):
        kk = (k + 1) % n
        block = np.zeros((bond, do, di, bond), dtype=complex)
        block[: core.shape[0], :, :, : core.shape[3]] = core
        big[k * bond : (k + 1) * bond, :, :, kk * bond : (kk + 1) * bond] = block
    big *= n ** (-1.0 / n)
    return TiSiteTensor(big)


def transfer_matrix(site: TiSiteTensor) -> np.ndarray:
    """The D^2 x D^2 map summing tensor (x) conjugate-tensor over physical legs."""
    t = site.tensor
    d = site.bond_dim
    # rows (a, b) against the physical legs (i, j); M M^dag pairs (a, b) with (c, d)
    m = t.transpose(0, 3, 1, 2).reshape(d * d, -1)
    e = (m @ m.conj().T).reshape(d, d, d, d)
    return np.ascontiguousarray(e.transpose(0, 2, 1, 3).reshape(d * d, d * d))


def periodicity_lower_bound(site: TiSiteTensor, n: int, tol: float = 1e-8):
    """Check the n-periodicity signature in the transfer spectrum.

    The spectrum is rescaled to unit spectral radius (the signature is scale
    covariant) and tested for containing every n-th root of unity within
    ``tol``.  When it does, any cyclic single-tensor representation of the
    same n-periodic state needs D^2 >= n, so the certified bond lower bound
    ceil(sqrt(n)) is returned; otherwise the trivial bound 1.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    eigs = np.linalg.eigvals(transfer_matrix(site))
    radius = np.abs(eigs).max(initial=0.0)
    if radius == 0.0:
        return False, 1
    scaled = eigs / radius
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    holds = all(np.abs(scaled - root).min() <= tol for root in roots)
    return bool(holds), (ceil(sqrt(n)) if holds else 1)


# ---------------------------------------------------------------------------
# W-state family and its mixed diagonal variant


def _w_vector(n: int) -> np.ndarray:
    v = np.zeros(2**n)
    for j in range(n):
        v[1 << (n - 1 - j)] = 1.0
    return v / np.sqrt(n)


def w_state_generators(n: int) -> WStateFamily:
    """W state on n sites with its bond-2 open train and bond-2n cyclic tensor.

    The open train realizes the coefficients ``n**(-1/2) tr(B A^{i_1} ...
    A^{i_n})``; the cyclic tensor is the block-cyclic fold of the same word
    with overall scale ``n**(-3/(2n))`` per site so that the trace closure
    reproduces the normalized vector exactly.
    """
    if n < 2:
        raise UsageError(f"W state needs n >= 2, got {n}")
    a0 = np.eye(2)
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])

    site_a = np.stack([a0, a1])  # (i, bond, bond)
    first = np.zeros((1, 2, 1, 2), dtype=complex)
    first[0, :, 0, :] = site_a[:, 0, :] / np.sqrt(n)
    mid = np.zeros((2, 2, 1, 2), dtype=complex)
    mid[:, :, 0, :] = site_a.transpose(1, 0, 2)
    last = np.zeros((2, 2, 1, 1), dtype=complex)
    last[:, :, 0, 0] = site_a[:, :, 1].T
    open_train = MpoTrain((first,) + (mid,) * (n - 2) + (last,))

    bond = 2 * n
    cyc = np.zeros((bond, 2, 1, bond), dtype=complex)
    for i, ai in enumerate((a0, a1)):
        for k in range(n):
            blk = b @ ai if k == 0 else ai
            kk = (k + 1) % n
            cyc[2 * k : 2 * k + 2, i, 0, 2 * kk : 2 * kk + 2] = blk
    cyc *= n ** (-1.5 / n)
    return WStateFamily(
        n=n,
        vector=_w_vector(n),
        a0=a0,
        a1=a1,
        b=b,
        open_train=open_train,
        cyclic_site=TiSiteTensor(cyc),
    )


def mixed_w_generator(n: int):
    """Uniform mixture of single-site spin flips of the all-zero product state.

    Returns the diagonal shift-invariant operator together with an
    inner-dimension-2 separable certificate whose first core carries the
    1/n trace normalization (the certificate's natural scale is the trace-n
    unnormalized sum, so the constant is fixed here by trace matching).
    """
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    dim = 2**n
    data = np.zeros((dim, dim))
    for j in range(n):
        idx = 1 << (n - 1 - j)
        data[idx, idx] = 1.0 / n
    rho = PsdOperator(SiteSpec((2,) * n), data)

    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    first = np.zeros((1, 2, 2, 2), dtype=complex)
    first[0, :, :, 0] = p0 / n
    first[0, :, :, 1] = p1 / n
    mid = np.zeros((2, 2, 2, 2), dtype=complex)
    mid[0, :, :, 0] = p0
    mid[0, :, :, 1] = p1
    mid[1, :, :, 1] = p0
    last = np.zeros((2, 2, 2, 1), dtype=complex)
    last[0, :, :, 0] = p1
    last[1, :, :, 0] = p0
    train = MpoTrain((first,) + (mid,) * (n - 2) + (last,))

    recon = contract_train(train)
    residual = float(np.linalg.norm(recon - data) / np.linalg.norm(data))
    return rho, SeparableCertificate(train, 2, residual)

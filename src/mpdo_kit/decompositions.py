"""Train decompositions of psd operators and their certified rank data.

Covers the open-boundary train form of an operator and its Schmidt rank
across cuts, spectral and separable-based purifications, the Hermitian
square-root rank by sign enumeration, the cyclic (translation-invariant)
form obtained by padding an open train, the W-state family, and the
n-periodic signature in the transfer spectrum of a cyclic tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod, sqrt

import numpy as np

from .tensor_core import (
    DEFAULT_RANK_TOL,
    SCALE_FLOOR,
    SHIFT_TOL,
    MpoTrain,
    PsdOperator,
    SiteSpec,
    TiSiteTensor,
    UsageError,
    _cuts_widest_first,
    _diagonal_train,
    _gram_residual,
    _resolve_dims,
    _root_sign_walk,
    block_eigvals,
    clip_psd_spectrum,
    contract_train,
    cyclic_shift_defect,
    is_diagonal,
    matricize,
    min_rank_sign_pattern,
    nonzero_mask,
    psd_gram_factor,
    relative_residual,
    require_sign_budget,
    svd_split,
)

#: Certificates are accepted when they reproduce their operator to this
#: relative Frobenius residual.
CERT_RESIDUAL_TOL = 1e-8

#: Default sign budget of :func:`q_sqrt_rank`, the spectral walk of a
#: rank-16 operator: at ~100 us per dense 5-qubit candidate, 2^20 would
#: take ~100 s.
OPERATOR_SIGN_BUDGET = 2**15

#: Default distance, in the unit-rescaled transfer spectrum, within which an
#: n-th root of unity counts as present (``periodicity_lower_bound``).
PERIODICITY_TOL = 1e-8


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


@dataclass(frozen=True)
class SeparableCertificate:
    """Open train whose every bond-slice core matrix is psd.

    Existence of such a train certifies separability; the inner dimension
    upper-bounds the separable rank.
    """

    train: MpoTrain
    inner_dim: int
    residual: float

    def psd_defect(self) -> float:
        """Worst defect over the bond-slice core matrices chi^(l)_(a,b): 0
        when every one is psd.

        A matrix's defect is the larger of its relative negative eigenvalue
        (of the Hermitian part) and its relative anti-Hermitian mass
        max|X - X^dag| / max|X|, so a non-Hermitian core cannot pass on
        the strength of its Hermitian part.  Each core's slices are read as
        one ``(a, b, i, j)`` stack.
        """
        worst = 0.0
        for core in self.train.cores:
            mats = core.transpose(0, 3, 1, 2)
            adj = np.conj(mats).swapaxes(-1, -2)
            w = np.linalg.eigvalsh(0.5 * (mats + adj))
            top = np.maximum(w.max(axis=-1, initial=0.0), SCALE_FLOOR)
            neg = -w.min(axis=-1, initial=0.0) / top
            scale = np.maximum(np.abs(mats).max(axis=(-2, -1), initial=0.0), SCALE_FLOOR)
            skew = np.abs(mats - adj).max(axis=(-2, -1), initial=0.0) / scale
            worst = max(worst, neg.max(initial=0.0), skew.max(initial=0.0))
        return float(worst)


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

    ``open_train`` is the bond-2 open-boundary form; ``cyclic_site`` is its
    bond-2n fold by :func:`make_translation_invariant`.  Both reproduce
    ``vector``, the closed form.
    """

    n: int
    vector: np.ndarray
    open_train: MpoTrain
    cyclic_site: TiSiteTensor


# ---------------------------------------------------------------------------
# train form and Schmidt rank


def mpo_train_form(op, sites=None, rel_tol: float = DEFAULT_RANK_TOL, in_dims=None):
    """Mixed-canonical sweep of rank-revealing splits into an open train.

    The central cut c is the last cut whose left side, the product of the
    site dimensions ``out_dims[l] * in_dims[l]`` to its left, has no more
    entries than its right side (c = 0 when there is none).  Cuts 1..c are
    split by :func:`svd_split` left to right: the core keeps the left
    factor, which has orthonormal columns, and the right factor, which has
    the remainder's singular values, moves right.  Cuts n-1..c+1 are split
    right to left, on the transpose: the core keeps the transpose of its
    left factor, which has orthonormal rows, and the rest moves left.  So
    cores 1..c are left-isometries, cores c+2..n are right-isometries, and
    core c+1, the centre, carries the rest; each split has the singular
    values of the operator's own matricization at its cut.  Each bond is
    the numerical rank at its cut, ``train.bond_dims`` is the per-cut rank
    profile (a zero rank keeps a zero bond of dimension 1, whose isometry
    side is a unit vector), and the returned ``osr`` is its maximum.  On an
    operator of full rank at every cut, every split is wide, so one of at
    least ``SCREEN_MIN_ENTRIES`` entries passes the full-rank screen and
    takes no QR and no SVD.  ``train.screened`` records, cut by cut, which
    splits the screen passed.  When it passed them all, every core but the
    centre is an identity and the centre holds the operator's own entries,
    so :func:`~mpdo_kit.tensor_core.contract_train` reproduces the
    operator bit for bit and a residual check has nothing to find (one
    site has no cut and is its own core).  Works for rectangular operators
    and column vectors alike.  Returns ``(train, osr)``.
    """
    data, out_dims, in_dims = _resolve_dims(op, sites, in_dims)
    n = len(out_dims)
    if n == 1:
        core = data.reshape(1, out_dims[0], in_dims[0], 1)
        osr = 1 if np.linalg.norm(data) > 0.0 else 0
        return MpoTrain((core,), screened=()), osr

    sizes = [do * di for do, di in zip(out_dims, in_dims)]
    total = prod(sizes)
    centre, left_size = 0, sizes[0]
    while left_size * left_size <= total and centre < n - 1:
        centre += 1
        left_size *= sizes[centre]

    t = data.reshape(tuple(out_dims) + tuple(in_dims))
    perm = []
    for k in range(n):
        perm += [k, n + k]
    # a complex permuted copy, so that a screened split hands it back itself;
    # an operator passed as a temporary is freed here
    rest = np.asarray(t.transpose(perm).reshape(sizes[0], -1), dtype=complex)
    del op, data, t

    cores = [None] * n
    screened = [False] * (n - 1)
    osr = 0
    left = 1
    for k in range(centre):
        lf, rest, r, screened[k] = _bond_split(rest.reshape(left * sizes[k], -1), rel_tol)
        osr = max(osr, r)
        left = lf.shape[1]
        cores[k] = lf.reshape(-1, out_dims[k], in_dims[k], left)
    right = 1
    for k in range(n - 1, centre, -1):
        lf, rest, r, screened[k - 1] = _bond_split(rest.reshape(-1, sizes[k] * right).T, rel_tol)
        osr = max(osr, r)
        rest = rest.T
        cores[k] = lf.T.reshape(-1, out_dims[k], in_dims[k], right)
        right = lf.shape[1]
    cores[centre] = rest.reshape(left, out_dims[centre], in_dims[centre], right)
    return MpoTrain(tuple(cores), screened=tuple(screened)), osr


def _bond_split(matrix, rel_tol):
    """:func:`svd_split` of a complex matrix and whether the full-rank screen
    split it (the screen hands back the matrix itself as the right factor),
    except that a zero matrix keeps a bond of dimension 1: a unit column on
    the isometry side and a zero row on the other."""
    lf, rf, r = svd_split(matrix, rel_tol)
    if r == 0:
        lf = np.zeros((matrix.shape[0], 1), dtype=complex)
        lf[0, 0] = 1.0
        rf = np.zeros((1, matrix.shape[1]), dtype=complex)
    return lf, rf, r, rf is matrix


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


def clipped_spectrum(rho: PsdOperator, rel_tol: float = DEFAULT_RANK_TOL):
    """Eigenvalues of rho above ``rel_tol * lambda_max`` and their eigenvectors.

    One ``eigh``; negative round-off is clipped, and a materially negative
    eigenvalue (below ``-PSD_TOL * lambda_max``) raises ``UsageError``.
    Returns ``(lam, vec)`` with ``vec[:, i]`` the eigenvector of ``lam[i]``;
    ``lam.size`` is the numerical rank of rho.
    """
    w, v = np.linalg.eigh(rho.data)
    w = clip_psd_spectrum(w)
    keep = nonzero_mask(w, rel_tol)
    return w[keep], v[:, keep]


def local_purification_spectral(
    rho: PsdOperator,
    rel_tol: float = DEFAULT_RANK_TOL,
    spectrum=None,
) -> PurificationCertificate:
    """Purification from the spectral decomposition of rho.

    Rank-one operators get the column-vector factor sqrt(lambda) psi, whose
    Schmidt rank squares to the rank of rho itself.  Otherwise L is the
    unique psd square root of rho, pairing each eigenvector with itself;
    that choice keeps product inputs at Schmidt rank one, which an arbitrary
    orthonormal relabeling of the eigenbasis would destroy.  The zero
    operator gets a zero column whose every bond has dimension 0.
    ``spectrum`` is :func:`clipped_spectrum` of rho at the same tolerance,
    for a caller that already has it; by default it is computed here.  A
    caller that passes it as a temporary hands it over: from CPython 3.11
    on the eigenvectors are then freed once the root is built, before the
    sweep.  The root is built with no conjugate copy of the eigenvectors
    (:func:`_psd_root`).  The check ``L L^dag = rho`` is made a block of
    rows at a time (``tensor_core._gram_residual``), on the dense factor itself
    before the sweep frees it: a sweep that screened every cut reproduces
    the factor bit for bit (:func:`mpo_train_form`).  When a cut went to
    the SVD the check is made again, on the contracted train, and that is
    the residual reported.
    """
    lam, vec = spectrum if spectrum is not None else clipped_spectrum(rho, rel_tol)
    del spectrum
    dims = rho.sites.dims
    n = len(dims)
    if lam.size == 0:
        bonds = (1,) + (0,) * (n - 1) + (1,)
        cores = tuple(np.zeros((bonds[k], d, 1, bonds[k + 1])) for k, d in enumerate(dims))
        return PurificationCertificate(MpoTrain(cores), 0, 0.0)
    if lam.size == 1:
        factor, in_dims = [np.sqrt(lam[0]) * vec[:, :1]], (1,) * n
    else:
        factor, in_dims = [_psd_root(lam, vec)], dims
    # the eigenvectors, if the caller handed them over, go first; the dense
    # factor, as large as rho, is popped into the sweep as a temporary: from
    # CPython 3.11 on the call owns it and frees it once the sweep has its
    # permuted copy, so the two are not both held through the sweep
    del vec
    residual = _gram_residual(factor[0], rho.data)
    train, osr = mpo_train_form(factor.pop(), dims, rel_tol, in_dims=in_dims)
    if not all(train.screened):
        residual = _gram_residual(contract_train(train), rho.data)
    return PurificationCertificate(train, osr, residual)


def _psd_root(lam, vec):
    """The psd root ``V sqrt(lam) V^dag``, with no conjugate copy of V: the
    product ``conj(V) sqrt(lam) V^T`` is its conjugate, taken in place.
    Only new arrays are written, never ``lam`` or ``vec``."""
    half = np.conjugate(vec)
    half *= np.sqrt(lam)
    root = half @ vec.T
    del half
    return np.conjugate(root, out=root)


def purification_from_separable(cert: SeparableCertificate) -> PurificationCertificate:
    """Build a purification whose Schmidt rank is at most the separable inner dim.

    Each psd core is replaced by its psd root with the right bond index
    recorded on an auxiliary flag leg; the flags force matching bond values
    between L and L^dag, so the contraction reproduces the separable sum.
    A core's ``(a, b)`` slices are rooted as one stack, and its flag leg
    is one broadcast against the identity on the right bond.
    """
    train = cert.train
    n = train.n
    l_cores = []
    for l, core in enumerate(train.cores):
        dl, do, di, dr = core.shape
        if do != di:
            raise UsageError("separable cores must be square on the physical legs")
        h, v = psd_gram_factor(core.transpose(0, 3, 1, 2))
        rt = (h @ np.conj(v).swapaxes(-1, -2)).transpose(0, 2, 3, 1)
        if l < n - 1:
            # L[a, i, j * dr + c, b] = rt[a, i, j, b] when c == b, else 0
            rt = (rt[:, :, :, None, :] * np.eye(dr, dtype=complex)).reshape(dl, do, do * dr, dr)
        l_cores.append(rt)
    l_train = MpoTrain(tuple(l_cores))

    dense_l = contract_train(l_train)
    residual = _gram_residual(dense_l, contract_train(train))
    osr = operator_schmidt_rank(dense_l, train.out_dims, in_dims=l_train.in_dims)
    return PurificationCertificate(l_train, osr, residual)


# ---------------------------------------------------------------------------
# quantum square-root rank


def q_sqrt_rank(
    rho: PsdOperator,
    sign_budget: int = OPERATOR_SIGN_BUDGET,
    rel_tol: float = DEFAULT_RANK_TOL,
    spectrum=None,
    diagonal: bool | None = None,
    osr: int | None = None,
):
    """Minimal Schmidt rank over sign choices of the Hermitian square roots.

    Enumerates the spectral sign vectors (lexicographic, +1 first; first
    minimizer wins) in chunks of bounded memory, ranking one vector per
    orbit of a group of sign flips that preserve every Schmidt rank (see
    :func:`~mpdo_kit.tensor_core.min_rank_sign_pattern`), cuts largest
    Schmidt cap first.  A diagonal operator keeps the computational basis
    as its eigenbasis, so the result is exact there, and its walk is that
    of ``sqrt_rank`` on the diagonal, one axis per site
    (``tensor_core._root_sign_walk``): the per-site flips pin p of the r
    signs, 1 <= p <= 1 + sum(d_s - 1).  In general the group is the global
    flip (p = 1), and the result upper-bounds the true minimum over all
    Hermitian roots.  Refuses (``SignBudgetError``) when the 2^(r-p)
    vectors to rank exceed ``sign_budget``, before any root is formed.
    ``spectrum`` is :func:`clipped_spectrum` of rho at the same
    tolerance, for a caller that already has it; only the non-diagonal
    path reads it.  ``diagonal`` is :func:`is_diagonal` of rho, for a
    caller that already tested it; by default it is tested here.  Returns
    ``(rank, SignVector)``.

    A Hermitian root tau of rho has ``rank_c(tau)^2 >= rank_c(rho)`` at
    every cut c, since ``rho = tau tau`` and the Schmidt rank of a product
    is at most the product of the ranks.  So no candidate ranks below
    ``ceil(sqrt(osr(rho)))``, the largest of these per-cut floors, and the
    non-diagonal walk stops at the first pattern that reaches it (the
    engine's ``floor``).  ``osr`` is :func:`operator_schmidt_rank` of rho
    at the same tolerance, for a caller that already has it; by default it
    is computed here once the budget check has passed.  The bound is exact
    in exact arithmetic.  Under the nonzero rule it can fail only at the
    margin: ``osr`` is rho's own while the candidates square to its kept
    part, and a root whose smallest kept singular values sit near
    ``rel_tol`` may square to a matrix of numerical rank above its own
    squared, so the walk may then stop before a later pattern of lower rank.
    """
    dims = rho.sites.dims
    if is_diagonal(rho) if diagonal is None else diagonal:
        values = clip_psd_spectrum(np.diagonal(rho.data).real).reshape(dims)
        rank, signs = _root_sign_walk(values, sign_budget, rel_tol)
        return rank, SignVector(tuple(signs[signs != 0].tolist()))

    lam, vec = spectrum if spectrum is not None else clipped_spectrum(rho, rel_tol)
    r = lam.size
    require_sign_budget(r, 1, sign_budget, "nonzero eigenvalues")
    if osr is None:
        osr = operator_schmidt_rank(rho, rel_tol=rel_tol)
    roots = np.sqrt(lam)
    cuts = _cuts_widest_first(dims)

    def build(signs):
        taus = (vec * (signs * roots)[:, None, :]) @ vec.conj().T
        # one matricized copy per cut, made only when the engine asks for it
        for cut in cuts:
            yield matricize(taus, cut, dims)

    floor = max(ceil(sqrt(osr)), 1)
    rank, signs = min_rank_sign_pattern(r, build, rho.sites.total_dim**2, rel_tol, floor=floor)
    return rank, SignVector(signs)


# ---------------------------------------------------------------------------
# translation-invariant forms


def make_translation_invariant(train: MpoTrain) -> TiSiteTensor:
    """Fold an open train for a shift-invariant operator into one cyclic tensor.

    Writes core l, zero-padded to the largest bond D, straight into cyclic
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
    if defect > SHIFT_TOL:
        raise UsageError(
            f"operator is not translation invariant (shift defect {defect:.3e})"
        )
    bond = max(max(c.shape[0], c.shape[3]) for c in train.cores)
    big = np.zeros((n * bond, out_dims[0], in_dims[0], n * bond), dtype=complex)
    for k, core in enumerate(train.cores):
        row, col = k * bond, (k + 1) % n * bond
        big[row : row + core.shape[0], :, :, col : col + core.shape[3]] = core
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


def periodicity_lower_bound(site: TiSiteTensor, n: int, tol: float = PERIODICITY_TOL):
    """Check the n-periodic signature in the transfer spectrum of ``site``.

    The spectrum is rescaled to unit spectral radius (the signature is scale
    covariant) and tested for containing every n-th root of unity within
    ``tol``.  When it does, ``(True, ceil(sqrt(n)))`` is returned, else
    ``(False, 1)``; the zero tensor gives ``(False, 1)``.

    The value is a property of the given tensor, not a bound on the state
    it represents: the block-cyclic fold of :func:`make_translation_invariant`
    (the W-state tensor of :func:`w_state_generators` among them) has this
    spectrum for every input, while a product state such as sigma^(x)n has
    the bond-1 cyclic tensor sigma.  The spectrum is taken block by block
    (:func:`block_eigvals`), since the folds split into many small blocks.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    eigs = block_eigvals(transfer_matrix(site))
    radius = np.abs(eigs).max(initial=0.0)
    if radius == 0.0:
        return False, 1
    scaled = eigs / radius
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    holds = all(np.abs(scaled - root).min() <= tol for root in roots)
    return bool(holds), (ceil(sqrt(n)) if holds else 1)


# ---------------------------------------------------------------------------
# W-state family and its mixed diagonal variant


#: The site matrices A^0 = I and A^1 of the W word, stacked ``(i, bond,
#: bond)``: the bond reads 1 once the word's one flip is placed.
_W_SITE = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])


def _w_word(n: int, norm: float) -> tuple[np.ndarray, ...]:
    """The n ``(left, i, 1, right)`` sites of the open word ``tr(B A^{i_1}
    ... A^{i_n}) / norm``: B's two entries pick the first site's bond row 0
    and the last site's bond column 1."""
    first = _W_SITE[None, :, 0, None, :] / norm
    mid = _W_SITE.transpose(1, 0, 2)[:, :, None, :]
    last = _W_SITE[:, :, 1].T[:, :, None, None]
    return (first,) + (mid,) * (n - 2) + (last,)


def _w_vector(n: int) -> np.ndarray:
    v = np.zeros(2**n)
    for j in range(n):
        v[1 << (n - 1 - j)] = 1.0
    return v / np.sqrt(n)


def w_state_generators(n: int) -> WStateFamily:
    """W state on n sites with its bond-2 open train and bond-2n cyclic tensor.

    The open train realizes the coefficients ``n**(-1/2) tr(B A^{i_1} ...
    A^{i_n})``; the cyclic tensor is its block-cyclic fold by
    :func:`make_translation_invariant`.
    """
    if n < 2:
        raise UsageError(f"W state needs n >= 2, got {n}")
    open_train = MpoTrain(_w_word(n, np.sqrt(n)))
    return WStateFamily(
        n=n,
        vector=_w_vector(n),
        open_train=open_train,
        cyclic_site=make_translation_invariant(open_train),
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
    weights = np.zeros(2**n)
    weights[1 << np.arange(n)] = 1.0 / n
    data = np.diag(weights)
    rho = PsdOperator(SiteSpec((2,) * n), data)
    # the W word at norm n on the diagonal: the W state's squared amplitudes
    train = _diagonal_train(_w_word(n, n))
    return rho, SeparableCertificate(train, 2, relative_residual(contract_train(train), data))

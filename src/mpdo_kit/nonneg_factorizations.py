"""The six factorizations of nonnegative matrices, searches and exact routes.

Exact routes: the minimal (SVD) factorization, the symmetric (Takagi)
factorization by one eigendecomposition, square-root rank by sign
enumeration, and the constructive psd and cpsdt factorizations through a
Hadamard root.  Heuristic searches with independently checkable output, for
the nonnegative, psd and cp factorizations: each states its unknowns, start
draw, residuals and certificate, and one restart protocol
(:func:`_restart_search`) runs them on one batched numpy
Levenberg-Marquardt solver (:func:`least_squares`), projected onto x >= 0
for the nonnegative and cp factors.  Every psd and cpsdt certificate here
pairs the Gram matrices of two factor sides (:func:`_gram_pairs`).  A
failed search never certifies a lower bound; the only certified lower
bounds here are rank-based or necessary-condition rejections.

The protocol uses the rank bound to return early.  A search at inner
dimension r can only produce a matrix X of rank <= k, with k = r for the
nonnegative and cp searches and k = r^2 for the psd search (the trace
pairing of r x r Hermitian matrices is a bilinear form of rank <= r^2).
By Eckart-Young, ||M - X||_F is at least the singular-value tail
t_k = sqrt(sum_{i>k} s_i(M)^2), and max|M - X| >= ||M - X||_F / sqrt(pq).
So when t_k > RANK_SCREEN_MARGIN * sqrt(pq) * SEARCH_RESIDUAL_TOL * max|M|
(margin 2, for round-off), no restart can meet the acceptance bar and the
search returns None at once: the answer its restarts would have given.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .certificates import (
    CLIP_TOL,
    FactorCertificate,
    NecessaryConditionError,
    NonnegMatrix,
    as_nonneg,
    pair_traces,
    require_finite,
)
from .tensor_core import (
    DEFAULT_RANK_TOL,
    SignBudgetError,
    UsageError,
    _root_sign_walk,
    is_psd_spectrum,
    is_symmetric,
    max_abs,
    min_rank_sign_pattern,
    nonzero_mask,
    numerical_rank,
    require_sign_budget,
    root_rank_floor,
)

#: Acceptance bar for search residuals, relative to max|M|.
SEARCH_RESIDUAL_TOL = 1e-6

#: Default sign budget of :func:`sqrt_rank` and :func:`cpsdt_construct`:
#: the most patterns they rank, counted after their pins.
DEFAULT_SIGN_BUDGET = 2**20

#: Round-off margin of the rank screen: a search returns None up front only
#: when the singular-value tail exceeds this multiple of the Frobenius mass
#: a residual at the acceptance bar can carry.
RANK_SCREEN_MARGIN = 2.0

#: Levenberg-Marquardt damping, relative to max diag(J^T J): the start
#: value (Madsen, Nielsen and Tingleff's tau), the floor that keeps each
#: system positive definite, and the ceiling past which a restart has
#: stalled.
LM_TAU = 1e-3
LM_LAMBDA_MIN = 1e-15
LM_LAMBDA_MAX = 1e16

#: Stand-in for max diag(J^T J) when the Jacobian vanishes.
LM_CURVATURE_FLOOR = 1e-300

#: A restart has converged once max|r| <= LM_CONVERGED * tol, and has gone
#: flat once a step lowers ||r||^2 by less than LM_FTOL of its value.
LM_CONVERGED = 1e-6
LM_FTOL = 1e-15

#: Levenberg-Marquardt steps per restart, and restarts per search, of the
#: three searches.
SEARCH_ITERS = 200
SEARCH_RESTARTS = 20


def least_squares(fun, x, iters: int, tol: float, nonneg: bool = False):
    """Batched Levenberg-Marquardt over the restarts stacked as the rows of ``x``.

    ``fun`` maps a ``(B, n)`` stack to its residuals ``(B, m)`` and their
    Jacobian ``(B, m, n)``.  Each row takes the damped Gauss-Newton step
    d = -(J^T J + lam I)^{-1} J^T r, solved as -J^T (J J^T + lam I)^{-1} r
    when m < n (the same step from the smaller system).  ``nonneg`` keeps
    x >= 0: entries at 0 whose gradient points outward are held for the
    step, and the trial point is projected onto x >= 0 (projected LM:
    Kanzow, Yamashita and Fukushima 2004).  The damping follows Nielsen's
    rule per row (Madsen, Nielsen and Tingleff 2004, sec. 3.2): lam starts
    at ``LM_TAU * max diag(J^T J)``; a trial point that lowers ||r|| is
    taken and lam shrinks by max(1/3, 1 - (2 rho - 1)^3), rho being the
    actual over the predicted decrease of ||r||^2; a rejected one leaves x
    where it was and multiplies lam by nu, which doubles with each
    rejection in a row.  lam never drops below
    ``LM_LAMBDA_MIN * max diag(J^T J)``, which keeps every system positive
    definite.

    A row ends when it has converged (max|r| <= ``LM_CONVERGED * tol``),
    gone flat (``LM_FTOL``), stalled (lam above ``LM_LAMBDA_MAX *
    max diag(J^T J)``: no step that short moves x) or taken ``iters``
    steps; it succeeds when max|r| <= ``tol`` then.  Each row gets the
    BLAS and LAPACK calls a lone row would, so it follows its one-row path
    bit for bit.  A row that succeeds is frozen there, and it and every
    higher row leave the batch, since none of them can be the lowest-index
    success; the loop ends when no lower row is left running.  Returns
    ``(k, x_k)`` for the lowest row k that succeeds, or None.
    """
    x = np.asarray(x, dtype=float)
    rows = np.arange(len(x))
    res, jac = fun(x)
    lam = LM_TAU * _curvature(jac)
    nu = np.full(len(x), 2.0)
    flat = np.zeros(len(x), dtype=bool)
    won = None
    for it in range(iters + 1):
        worst = np.abs(res).max(axis=1, initial=0.0)
        curvature = _curvature(jac)
        live = ~flat & (worst > LM_CONVERGED * tol) & (lam <= LM_LAMBDA_MAX * curvature) & (it < iters)
        hit = np.flatnonzero(~live & (worst <= tol))
        if hit.size:
            won = (int(rows[hit[0]]), x[hit[0]].copy())
            live[hit[0] :] = False
        if not live.all():
            x, rows, res, jac = x[live], rows[live], res[live], jac[live]
            lam, nu, curvature = lam[live], nu[live], curvature[live]
        if not len(x):
            break
        lam = np.maximum(lam, LM_LAMBDA_MIN * curvature)
        free = jac
        if nonneg:
            # entries at the bound whose gradient points out stay there
            grad = (res[:, None, :] @ jac)[:, 0, :]
            free = np.where(((x <= 0.0) & (grad > 0.0))[:, None, :], 0.0, jac)
        jt = free.transpose(0, 2, 1)
        m, n = jac.shape[1:]
        if m < n:
            system = free @ jt + lam[:, None, None] * np.eye(m)
            step = -(jt @ np.linalg.solve(system, res[:, :, None]))[:, :, 0]
        else:
            system = jt @ free + lam[:, None, None] * np.eye(n)
            step = -np.linalg.solve(system, jt @ res[:, :, None])[:, :, 0]
        trial = x + step
        if nonneg:
            trial = np.maximum(trial, 0.0)
            step = trial - x
        res_t, jac_t = fun(trial)
        # decrease of ||r||^2 / 2 that the linear model r + J d predicts
        jd = (jac @ step[:, :, None])[:, :, 0]
        predicted = -_dots(jd, res + 0.5 * jd)
        cost = 0.5 * _dots(res, res)
        actual = cost - 0.5 * _dots(res_t, res_t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho = np.where(predicted > 0, actual / predicted, -1.0)
            shrink = np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3)
        take = rho > 0
        flat = take & (actual <= LM_FTOL * cost)
        x = np.where(take[:, None], trial, x)
        res = np.where(take[:, None], res_t, res)
        jac = np.where(take[:, None, None], jac_t, jac)
        lam = np.where(take, lam * shrink, lam * nu)
        nu = np.where(take, 2.0, 2 * nu)
    return won


def _dots(u, v) -> np.ndarray:
    """Row-wise dot products of two ``(B, m)`` stacks, one BLAS dot per row."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _curvature(jac) -> np.ndarray:
    """max diag(J^T J) of each slice of a ``(B, m, n)`` Jacobian stack, floored above 0."""
    return np.maximum((jac * jac).sum(axis=1).max(axis=1, initial=0.0), LM_CURVATURE_FLOOR)


def _rank_floor_exceeds(m, k: int, target: float) -> bool:
    """True when no matrix of rank <= k is within ``target`` of M entrywise.

    Eckart-Young: every X of rank <= k has ||M - X||_F >= the tail
    sqrt(sum_{i>k} s_i(M)^2), and max|M - X| >= ||M - X||_F / sqrt(pq).
    The test fires only when the tail exceeds ``RANK_SCREEN_MARGIN`` times
    sqrt(pq) * target, so round-off in the SVD or in a candidate's
    residual cannot turn it against a certificate.  Never fires for
    k >= min(p, q) or for the zero matrix.
    """
    p, q = m.shape
    if k >= min(p, q):
        return False
    s = np.linalg.svd(m, compute_uv=False)
    return bool(np.linalg.norm(s[k:]) > RANK_SCREEN_MARGIN * sqrt(p * q) * target)


def _entries(matrix, dtype=float) -> np.ndarray:
    """The array of a NonnegMatrix or raw matrix, negative entries kept.

    Non-finite entries raise :func:`~mpdo_kit.certificates.require_finite`'s
    ``ValueError``, as :class:`NonnegMatrix` does: NaN fails every
    comparison, so a later symmetry test or SVD would misreport it.
    """
    return require_finite(np.asarray(matrix.entries if isinstance(matrix, NonnegMatrix) else matrix, dtype=dtype))


def _gram_pairs(g, h, target):
    """The psd tuples of two Gram factor sides and their residual against ``target``.

    A ``(count, r, s)`` stack of Gram factors gives E_i = G_i G_i^dag; a
    ``(count, r)`` array of Gram vectors gives the rank-one
    E_i = g_i g_i^dag.  ``h is g`` mirrors the factor: F = E.  Returns
    ``(E, F, max|tr(E_i F_j^T) - target_ij|)`` with E and F as lists.
    """

    def gram(x):
        x = np.asarray(x)
        if x.ndim == 2:
            # np.outer's entrywise products; a matmul over an inner
            # dimension of 1 would round them differently
            return list(x[:, :, None] * x.conj()[:, None, :])
        return list(x @ x.conj().transpose(0, 2, 1))

    e = gram(g)
    f = e if h is g else gram(h)
    return e, f, float(np.abs(pair_traces(e, f) - target).max())


# ---------------------------------------------------------------------------
# exact routes


def minimal_factorization(matrix, rel_tol: float = DEFAULT_RANK_TOL) -> FactorCertificate:
    """Rank factorization M = left @ right via the real SVD, r = rank(M)."""
    m = _entries(matrix)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = int(np.count_nonzero(nonzero_mask(s, rel_tol)))
    left = u[:, :r] * s[:r]
    right = vh[:r]
    residual = float(np.abs(left @ right - m).max())
    return FactorCertificate("minimal", r, {"left": left, "right": right}, residual)


def symmetric_factorization(matrix, rel_tol: float = DEFAULT_RANK_TOL) -> FactorCertificate:
    """Complex factor A with M = A A^T and rank(M) columns (Takagi factorization).

    For M = X + iY (X, Y real symmetric) the real symmetric
    K = [[X, Y], [Y, -X]] has eigenvalues +-sigma_i, the singular values of
    M.  An eigenvector (u, v) of an eigenvalue sigma > 0 gives q = u + iv
    with M conj(q) = sigma q, and these q are orthonormal, so
    M = sum_k sigma_k q_k q_k^T.  A keeps the columns sqrt(sigma_k) q_k of
    the r = rank(M) largest eigenvalues: one ``eigh`` covers real
    indefinite and complex symmetric input alike.
    """
    m = _entries(matrix, dtype=None)
    if not is_symmetric(m):
        raise UsageError("symmetric factorization needs a square symmetric matrix")
    m = 0.5 * (m + m.T)
    d = m.shape[0]
    r = numerical_rank(m, rel_tol)
    x, y = m.real, m.imag
    w, v = np.linalg.eigh(np.block([[x, y], [y, -x]]))
    top = slice(2 * d - 1, 2 * d - 1 - r, -1)  # the r largest eigenvalues, largest first
    a = (v[:d, top] + 1j * v[d:, top]) * np.sqrt(w[top])
    residual = float(np.abs(a @ a.T - m).max())
    return FactorCertificate("symmetric", r, {"factor": a}, residual)


def sqrt_rank(matrix, sign_budget: int = DEFAULT_SIGN_BUDGET, rel_tol: float = DEFAULT_RANK_TOL):
    """Exact minimum rank over entrywise square roots, by sign enumeration.

    The signs run over the k entries above ``rel_tol * max|M|`` (the nonzero
    rule); the root is 0 elsewhere.  One pattern is ranked per orbit of the
    row and column flips, which pin p + q - c signs of a p x q matrix whose
    support has c components as a bipartite graph of rows and columns.
    The walk is the diagonal ``q_sqrt_rank``'s on ``diag_embed(M)``
    (``tensor_core._root_sign_walk``), which refuses (``SignBudgetError``)
    when its 2^(k - (p + q - c)) patterns exceed ``sign_budget``.  Returns
    ``(rank, signs)`` with signs in {-1, 0, +1} marking the first
    minimizing pattern in lexicographic order (row-major), +1 before -1.
    """
    return _root_sign_walk(as_nonneg(matrix), sign_budget, rel_tol)


def hadamard_root_certificate(
    matrix,
    sign_budget: int = DEFAULT_SIGN_BUDGET,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> FactorCertificate:
    """Certificate wrapping the minimizing entrywise square root of M (see :func:`sqrt_rank`)."""
    m = as_nonneg(matrix)
    rank, signs = sqrt_rank(m, sign_budget, rel_tol)
    root = signs * np.sqrt(m)
    residual = float(np.abs(root * root - m).max())
    return FactorCertificate("hadamard-root", rank, {"root": root, "signs": signs}, residual)


def psd_construct(matrix, rel_tol: float = DEFAULT_RANK_TOL) -> FactorCertificate:
    """Constructive psd factorization M_ij = tr(E_i F_j^T) from the entrywise root.

    N is the all-positive root of M on the entries the nonzero rule keeps
    (the support of :func:`sqrt_rank`) and 0 elsewhere.  A rank
    factorization N = A B (:func:`minimal_factorization` at ``rel_tol``)
    gives E_i = a_i a_i^dag and F_j = b_j b_j^dag from the rows of A and
    the columns of B, and tr(E_i F_j^T) = (a_i . b_j)^2 = M_ij (Fawzi,
    Gouveia, Parrilo, Robinson, Thomas, "Positive semidefinite rank", 2015).
    The inner dimension is rank(N), the Schmidt rank of the psd square root
    of ``diag_embed(M)``.
    """
    m = as_nonneg(matrix)
    root = np.where(nonzero_mask(m.ravel(), rel_tol).reshape(m.shape), np.sqrt(m), 0.0)
    factors = minimal_factorization(root, rel_tol)
    e, f, residual = _gram_pairs(factors.payload["left"], factors.payload["right"].T, m)
    return FactorCertificate("psd", factors.inner_dim, {"E": e, "F": f}, residual)


def cpsdt_construct(
    matrix,
    sign_budget: int = DEFAULT_SIGN_BUDGET,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> FactorCertificate:
    """Constructive cpsdt factorization M_ij = tr(E_i E_j^T), always possible.

    Picks a symmetric entrywise square root N of M minimizing rank(N) over
    symmetric sign patterns of the k upper-triangle nonzeros (the nonzero
    rule of :func:`sqrt_rank`; N is 0 on the other entries), factors
    N = A A^T, and forms the rank-one psd matrices E_i from the rows of A;
    then tr(E_i E_j^T) = |N_ij|^2 = M_ij.  The enumeration pins the first
    sign (a global flip preserves rank), walks the other 2^(k-1) patterns
    in chunks of bounded memory, and keeps the first minimizer in
    lexicographic order with +1 before -1.  It stops at the first root
    whose rank reaches ``root_rank_floor`` of the rank of M's kept part,
    which N o N equals, so no root ranks lower (exact in exact arithmetic;
    ``tensor_core._root_sign_walk`` states the margin).  The candidates
    are built exactly symmetric, so they are ranked from ``eigvalsh``
    (:func:`~mpdo_kit.tensor_core.stacked_numerical_rank`).  When the
    2^(k-1) patterns exceed ``sign_budget`` (the count every sign walk
    checks) only the all-positive pattern is used.  The reported inner
    dimension is the rank of the chosen root -- minimal over the
    enumerated roots, with no optimality claim beyond them.
    """
    m = as_nonneg(matrix)
    if not is_symmetric(m):
        raise UsageError("cpsdt factorization needs a symmetric matrix")
    m = 0.5 * (m + m.T)
    d = m.shape[0]
    mask = nonzero_mask(m.ravel(), rel_tol).reshape(d, d)
    rows, cols = np.nonzero(np.triu(mask))
    k = rows.size
    roots = np.sqrt(m[rows, cols])

    def build(signs):
        stack = np.zeros((len(signs), d, d))
        signed = signs * roots
        stack[:, rows, cols] = signed
        stack[:, cols, rows] = signed
        return (stack,)

    try:
        require_sign_budget(k, 1, sign_budget, "upper-triangle nonzero entries")
    except SignBudgetError:  # over budget: the all-positive root
        signs = (1,) * k
    else:
        floor = root_rank_floor(numerical_rank(np.where(mask, m, 0.0), rel_tol))
        signs = min_rank_sign_pattern(k, build, d * d, rel_tol, floor=floor)[1]
    root = build(np.array([signs], dtype=int))[0][0]

    sym = symmetric_factorization(root, rel_tol)
    a = sym.payload["factor"]
    e_list, _, residual = _gram_pairs(a, a, m)
    return FactorCertificate("cpsdt", sym.inner_dim, {"E": e_list, "root": root}, residual)


def slack_matrix_tgon(t: int) -> NonnegMatrix:
    """Facet-vertex slack matrix of the regular t-gon (t x t, rank 3).

    Row i holds b_i - a_i . v_j over vertices v_j = (cos 2 pi j/t,
    sin 2 pi j/t) with facet normal a_i at angle (2i+1) pi/t and offset
    b_i = cos(pi/t); the two vertices on facet i give the row's two zeros.
    Trigonometric round-off below zero is clipped on ingestion.
    """
    if t < 3:
        raise UsageError(f"polygon needs t >= 3, got {t}")
    j = np.arange(t)
    vertices = np.stack([np.cos(2 * np.pi * j / t), np.sin(2 * np.pi * j / t)], axis=1)
    normals = np.stack(
        [np.cos((2 * j + 1) * np.pi / t), np.sin((2 * j + 1) * np.pi / t)], axis=1
    )
    slack = np.cos(np.pi / t) - normals @ vertices.T
    return NonnegMatrix(slack)


# ---------------------------------------------------------------------------
# heuristic searches


def _restart_search(
    m, rank_cap: int, n: int, draw, fun, certify, restarts: int, iters: int, seed: int, nonneg: bool = False
):
    """The restart protocol of the three searches: a certificate, or None (which proves nothing).

    The zero matrix gets ``certify(np.zeros(n))``, its exact zero factors.
    Otherwise the bar is ``SEARCH_RESIDUAL_TOL * max|M|``, and the rank
    screen (module docstring) answers None up front when no candidate of
    rank <= ``rank_cap`` can meet it.  Restart ``idx`` starts from
    ``draw(default_rng([seed, idx]), n)``; all run in lockstep through
    :func:`least_squares` on ``fun``, and the lowest-index success is
    certified and must meet the bar again by its certificate's residual.
    """
    if not m.any():
        return certify(np.zeros(n))
    target = SEARCH_RESIDUAL_TOL * max_abs(m)
    if _rank_floor_exceeds(m, rank_cap, target):
        return None
    x0 = np.empty((max(restarts, 0), n))
    for idx in range(len(x0)):
        x0[idx] = draw(np.random.default_rng([seed, idx]), n)
    won = least_squares(fun, x0, iters, target, nonneg)
    if won is None:
        return None
    cert = certify(won[1])
    return cert if cert.residual <= target else None


def nonneg_factorization_search(
    matrix,
    r: int,
    restarts: int = SEARCH_RESTARTS,
    iters: int = SEARCH_ITERS,
    seed: int = 0,
):
    """Search for M = left @ right with nonnegative factors at inner dimension r.

    The unknowns are the packed factors [vec W, vec H] (see
    :func:`_nonneg_residuals`), kept >= 0; :func:`_restart_search` runs the
    restarts.
    """
    m = as_nonneg(matrix)
    if r < 1:
        raise UsageError(f"inner dimension must be >= 1, got {r}")
    p, q = m.shape
    scale = sqrt(m.mean() / r)

    def certify(x):
        w, h = _nonneg_factors(x[None], p, q, r)
        residual = float(np.abs(w[0] @ h[0] - m).max())
        return FactorCertificate("nonnegative", r, {"left": w[0], "right": h[0]}, residual)

    return _restart_search(
        m, r, (p + q) * r, lambda rng, n: rng.uniform(0.1, 1.0, n) * scale,
        _nonneg_residuals(m, r), certify, restarts, iters, seed, nonneg=True,
    )


def _nonneg_factors(x, p: int, q: int, r: int):
    """Factors W ``(B, p, r)`` and H ``(B, r, q)`` packed in the rows of ``x`` as [vec W, vec H]."""
    return x[:, : p * r].reshape(-1, p, r), x[:, p * r :].reshape(-1, r, q)


def _nonneg_residuals(m, r: int):
    """Residuals (W H - M)_ij of the nonnegative search and their Jacobian.

    d(W H)_ij / dW_kc = delta_ik H_cj and d(W H)_ij / dH_cl = W_ic delta_jl.
    """
    p, q = m.shape
    eye_p = np.eye(p)[:, None, :, None]
    eye_q = np.eye(q)[None, :, None, :]

    def fun(x):
        b = len(x)
        w, h = _nonneg_factors(x, p, q, r)
        res = (w @ h - m).reshape(b, p * q)
        jac_w = (eye_p * h.transpose(0, 2, 1)[:, None, :, None, :]).reshape(b, p * q, p * r)
        jac_h = (w[:, :, None, :, None] * eye_q).reshape(b, p * q, r * q)
        return res, np.concatenate([jac_w, jac_h], axis=2)

    return fun


def trivial_nonneg_certificate(matrix) -> FactorCertificate:
    """The exact factorization M = M @ I at inner dimension min(p, q)."""
    m = as_nonneg(matrix)
    p, q = m.shape
    if p <= q:
        return FactorCertificate("nonnegative", p, {"left": np.eye(p), "right": m}, 0.0)
    return FactorCertificate("nonnegative", q, {"left": m, "right": np.eye(q)}, 0.0)


def scan_nonneg_certificate(
    matrix, restarts: int = SEARCH_RESTARTS, seed: int = 0, rel_tol: float = DEFAULT_RANK_TOL
) -> FactorCertificate:
    """Smallest-inner-dimension nonnegative certificate the search can find.

    Scans r upward from rank(M) at ``rel_tol``; the trivial M = M . I
    factorization closes the scan at min(p, q), so a certificate always
    comes back.  The zero matrix, of rank 0, gets the empty factorization.
    """
    m = as_nonneg(matrix)
    p, q = m.shape
    lower = numerical_rank(m, rel_tol)
    if lower == 0:
        return FactorCertificate("nonnegative", 0, {"left": np.zeros((p, 0)), "right": np.zeros((0, q))}, 0.0)
    for r in range(lower, min(p, q)):
        cert = nonneg_factorization_search(m, r, restarts, seed=seed)
        if cert is not None:
            return cert
    return trivial_nonneg_certificate(m)


def psd_factorization_search(
    matrix,
    r: int,
    restarts: int = SEARCH_RESTARTS,
    iters: int = SEARCH_ITERS,
    seed: int = 0,
):
    """Search for complex psd tuples with M_ij = tr(E_i F_j^T) at inner dimension r.

    E_i = G_i G_i^dag and F_j = H_j H_j^dag are psd by construction; the
    unknowns are the Gram factors (see :func:`_psd_residuals`), and
    :func:`_restart_search` runs the restarts, screening at rank r^2.
    """
    m = as_nonneg(matrix)
    if r < 1:
        raise UsageError(f"inner dimension must be >= 1, got {r}")
    p, q = m.shape
    scale = (m.mean() / r) ** 0.25 + 1e-3

    def certify(x):
        g, h = _psd_gram_factors(x[None], p, q, r)
        # the certificate's residual, from E and F, rounds apart from the solver's
        e_list, f_list, residual = _gram_pairs(g[0], h[0], m)
        return FactorCertificate("psd", r, {"E": e_list, "F": f_list}, residual)

    return _restart_search(
        m, r * r, 2 * (p + q) * r * r, lambda rng, n: rng.normal(size=n) * scale,
        _psd_residuals(m, r), certify, restarts, iters, seed,
    )


def _psd_gram_factors(x, p: int, q: int, r: int):
    """Gram factors G ``(B, p, r, r)`` and H ``(B, q, r, r)`` packed in the rows
    of ``x`` as [Re G, Im G, Re H, Im H]."""
    n_g, n_h = p * r * r, q * r * r
    g = (x[:, :n_g] + 1j * x[:, n_g : 2 * n_g]).reshape(-1, p, r, r)
    h = (x[:, 2 * n_g : 2 * n_g + n_h] + 1j * x[:, 2 * n_g + n_h :]).reshape(-1, q, r, r)
    return g, h


def _psd_residuals(m, r: int):
    """Residuals tr(E_i F_j^T) - M_ij of the psd search and their Jacobian.

    With K_ij = G_i^T H_j, tr(E_i F_j^T) = ||K_ij||_F^2.  Its derivative is
    2 Re W by Re G_i and -2 Im W by Im G_i, with W = H_j K_ij^dag; by H_j it
    is the same with V = G_i conj(K_ij).  Row (i, j) of the Jacobian is
    nonzero only in the blocks of G_i and H_j.  Every K_ij of a restart
    comes from one product, of the stacked G_i^T with the side-by-side H_j,
    and every W (V) of a given j (i) from one more.
    """
    p, q = m.shape
    rr = r * r
    eye_g = np.eye(p)[:, None, None, :, None]
    eye_h = np.eye(q)[None, :, None, :, None]

    def fun(x):
        b = len(x)
        g, h = _psd_gram_factors(x, p, q, r)
        # k[:, i, c, j, d] = (G_i^T H_j)_cd
        k = g.transpose(0, 1, 3, 2).reshape(b, p * r, r) @ h.transpose(0, 2, 1, 3).reshape(b, r, q * r)
        k = k.reshape(b, p, r, q, r)
        sq = (k.real**2 + k.imag**2).transpose(0, 1, 3, 2, 4).reshape(b, p, q, rr)
        kc = k.conj()
        # w[:, j, a, i, c] = (H_j K_ij^dag)_ac and v[:, i, a, j, d] = (G_i conj(K_ij))_ad
        w = (h @ kc.transpose(0, 3, 4, 1, 2).reshape(b, q, r, p * r)).reshape(b, q, r, p, r)
        v = (g @ kc.reshape(b, p, r, q * r)).reshape(b, p, r, q, r)

        def block(d, eye):
            parts = 2 * np.stack([d.real, -d.imag], axis=3).reshape(b, p, q, 2, 1, rr)
            return (parts * eye).reshape(b, p * q, 2 * eye.shape[3] * rr)

        jac = np.concatenate(
            [block(w.transpose(0, 3, 1, 2, 4), eye_g), block(v.transpose(0, 1, 3, 2, 4), eye_h)], axis=2
        )
        return (sq.sum(axis=3) - m).reshape(b, p * q), jac

    return fun


def psd_certificate_from_nonneg(cert: FactorCertificate) -> FactorCertificate:
    """Diagonal psd tuples from a nonnegative factorization, same inner dim.

    With E_i = diag(row i of the left factor) and F_j = diag(column j of
    the right factor), tr(E_i F_j^T) recovers the product, so every
    nonnegative upper bound is also a psd upper bound.  The Gram factors
    are diag(sqrt(row i)) and diag(sqrt(column j)); round-off below zero
    in a factor is clipped first.
    """
    if cert.kind != "nonnegative":
        raise UsageError(f"expected a nonnegative certificate, got {cert.kind!r}")
    left = np.asarray(cert.payload["left"])
    right = np.asarray(cert.payload["right"])
    eye = np.eye(cert.inner_dim)
    g = np.sqrt(np.clip(left, 0.0, None))[:, :, None] * eye
    h = np.sqrt(np.clip(right.T, 0.0, None))[:, :, None] * eye
    e_list, f_list, residual = _gram_pairs(g, h, left @ right)
    return FactorCertificate("psd", cert.inner_dim, {"E": e_list, "F": f_list}, max(residual, cert.residual))


def cp_factorization_search(
    matrix,
    r: int,
    restarts: int = SEARCH_RESTARTS,
    iters: int = SEARCH_ITERS,
    seed: int = 0,
):
    """Search for nonnegative A with M = A A^T after screening necessary conditions.

    Rejections (not symmetric, not entrywise nonnegative, not psd) raise
    NecessaryConditionError -- those are impossibility certificates, unlike
    a search that merely comes up empty.  The unknown is A (see
    :func:`_cp_residuals`), kept >= 0; :func:`_restart_search` runs the
    restarts.
    """
    raw = _entries(matrix)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise NecessaryConditionError("not symmetric", f"shape {raw.shape}")
    if not is_symmetric(raw):
        raise NecessaryConditionError("not symmetric")
    if raw.min(initial=0.0) < -CLIP_TOL:
        raise NecessaryConditionError("not entrywise nonnegative", f"min entry {raw.min():.3e}")
    m = 0.5 * (raw + raw.T)
    m = np.clip(m, 0.0, None)
    w = np.linalg.eigvalsh(m)
    if not is_psd_spectrum(w):
        raise NecessaryConditionError("not psd", f"min eigenvalue {w.min():.3e}")
    if r < 1:
        raise UsageError(f"inner dimension must be >= 1, got {r}")
    p = m.shape[0]
    scale = (m.mean() / r) ** 0.25

    def certify(x):
        factor = x.reshape(p, r)
        return FactorCertificate("cp", r, {"factor": factor}, float(np.abs(factor @ factor.T - m).max()))

    return _restart_search(
        m, r, p * r, lambda rng, n: rng.uniform(0.1, 1.0, n) * scale,
        _cp_residuals(m, r), certify, restarts, iters, seed, nonneg=True,
    )


def _cp_residuals(m, r: int):
    """Residuals (A A^T - M)_kl of the cp search and their Jacobian.

    d(A A^T)_kl / dA_ic = delta_ki A_lc + delta_li A_kc.
    """
    p = m.shape[0]
    eye_k = np.eye(p)[:, None, :, None]
    eye_l = np.eye(p)[None, :, :, None]

    def fun(x):
        a = x.reshape(len(x), p, r)
        res = (a @ a.transpose(0, 2, 1) - m).reshape(len(x), p * p)
        jac = eye_k * a[:, None, :, None, :] + eye_l * a[:, :, None, None, :]
        return res, jac.reshape(len(x), p * p, p * r)

    return fun


def scan_cp_certificate(
    matrix, restarts: int = SEARCH_RESTARTS, seed: int = 0, rel_tol: float = DEFAULT_RANK_TOL
):
    """Smallest-inner-dimension cp certificate the search can find, or None.

    Scans r upward from rank(M) at ``rel_tol`` to the side of M.  A
    violated necessary condition raises ``NecessaryConditionError`` from
    the first search; None means every search came up empty, which proves
    nothing.  The square zero matrix, of rank 0, gets the empty factor.
    """
    m = _entries(matrix)
    lower = numerical_rank(m, rel_tol)
    if lower == 0 and is_symmetric(m):
        return FactorCertificate("cp", 0, {"factor": np.zeros((m.shape[0], 0))}, 0.0)
    for r in range(max(lower, 1), m.shape[0] + 1):
        cert = cp_factorization_search(m, r, restarts=restarts, seed=seed)
        if cert is not None:
            return cert
    return None

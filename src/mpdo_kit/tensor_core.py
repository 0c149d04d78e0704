"""Dense multi-site operators, matricization, numerical rank, and train/cyclic contraction.

Operators live on an ordered chain of sites.  Site ``l`` carries a physical
dimension ``d_l``; a dense operator is a square matrix of side ``prod(d_l)``
whose row (column) index is the row-major flattening of the per-site out
(in) indices.  Rectangular operators with per-site out/in dimensions
``d_l x d_l'`` are supported wherever it matters (matricization, trains).

Everything here is dense and targets desk-scale systems (n <= ~10, d = 2);
there is no sparse or lazy backend.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce
from math import prod

import numpy as np

#: The nonzero rule (:func:`nonzero_mask`): a singular value, eigenvalue or
#: entry is nonzero above this multiple of the largest; ranks and supports use it.
DEFAULT_RANK_TOL = 1e-10

#: Relative Hermiticity defect tolerated on ingestion of a PsdOperator.
HERM_TOL = 1e-10

#: Eigenvalues above ``-PSD_TOL * lambda_max`` count as nonnegative.
PSD_TOL = 1e-10

#: Largest max|M - M^T| / max|M| of a matrix that counts as symmetric.
SYMMETRY_TOL = 1e-10

#: Relative off-diagonal mass below which an operator counts as diagonal.
DIAG_TOL = 1e-12

#: Relative shift defect below which an operator counts as translation invariant.
SHIFT_TOL = 1e-10

#: Floor on the scale of a relative quantity, so the zero matrix gets 0.
SCALE_FLOOR = 1e-300


class UsageError(ValueError):
    """Malformed call: empty input, shape mismatch, out-of-range cut."""


@dataclass(frozen=True)
class SiteSpec:
    """Ordered list of per-site physical dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) < 1:
            raise UsageError("need at least one site")
        if any(d < 1 for d in self.dims):
            raise UsageError(f"site dimensions must be >= 1, got {self.dims}")

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        """Side length of a dense operator on these sites."""
        return prod(self.dims)


@dataclass(frozen=True)
class PsdOperator:
    """Dense Hermitian operator on an ordered tensor product of sites.

    The matrix is symmetrized to ``(X + X^dag)/2`` on construction; a defect
    larger than ``HERM_TOL`` (relative) triggers a warning, since it usually
    means the caller handed over something that was never meant to be
    Hermitian.  Positivity is *not* asserted on construction -- call
    :meth:`is_psd` / :meth:`assert_psd` where the algorithm needs it.
    """

    sites: SiteSpec
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise UsageError(f"operator must be a square matrix, got shape {data.shape}")
        if data.shape[0] != self.sites.total_dim:
            raise UsageError(
                f"matrix side {data.shape[0]} does not match site dims {self.sites.dims}"
            )
        scale = max_abs(data)
        defect = np.abs(data - data.conj().T).max()
        if defect > HERM_TOL * scale:
            warnings.warn(
                f"input has Hermiticity defect {defect / scale:.2e} (relative); symmetrizing",
                stacklevel=3,
            )
        sym = 0.5 * (data + data.conj().T)
        sym.setflags(write=False)
        object.__setattr__(self, "data", sym)

    @property
    def n(self) -> int:
        return self.sites.n

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.data)

    def is_psd(self) -> bool:
        return is_psd_spectrum(self.eigenvalues())

    def assert_psd(self) -> None:
        clip_psd_spectrum(self.eigenvalues())


@dataclass(frozen=True)
class MpoTrain:
    """Open-boundary train of 4-leg cores ``(left bond, out, in, right bond)``.

    Rectangular per-site legs are allowed (``out_dims[l] x in_dims[l]``), so
    the same type houses operator decompositions and purification factors.
    Boundary bonds must have dimension exactly 1.
    """

    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=complex) for c in self.cores)
        if not cores:
            raise UsageError("train needs at least one core")
        for c in cores:
            if c.ndim != 4:
                raise UsageError(f"cores must have 4 legs, got shape {c.shape}")
        if cores[0].shape[0] != 1 or cores[-1].shape[3] != 1:
            raise UsageError("boundary bond dimensions must be exactly 1")
        for left, right in zip(cores, cores[1:]):
            if left.shape[3] != right.shape[0]:
                raise UsageError(
                    f"bond mismatch between adjacent cores: {left.shape[3]} vs {right.shape[0]}"
                )
        object.__setattr__(self, "cores", cores)

    @property
    def n(self) -> int:
        return len(self.cores)

    @property
    def out_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def in_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Dimensions of the n-1 internal bonds."""
        return tuple(c.shape[3] for c in self.cores[:-1])

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims, default=1)


@dataclass(frozen=True)
class TiSiteTensor:
    """Single 4-leg tensor ``(bond, out, in, bond)`` of a cyclic network."""

    tensor: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=complex)
        if t.ndim != 4:
            raise UsageError(f"site tensor must have 4 legs, got shape {t.shape}")
        if t.shape[0] != t.shape[3]:
            raise UsageError(f"bond legs must match, got {t.shape[0]} vs {t.shape[3]}")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @property
    def bond_dim(self) -> int:
        return self.tensor.shape[0]


# ---------------------------------------------------------------------------
# shared numerical predicates: the producer modules decide "zero",
# "symmetric", "diagonal" and "psd" only here (the checker keeps its own)


def max_abs(m) -> float:
    """max|M|, floored at ``SCALE_FLOOR``: the scale of the relative entrywise tests."""
    return float(max(np.abs(m).max(initial=0.0), SCALE_FLOOR))


def relative_residual(approx, exact) -> float:
    """Relative Frobenius residual ``|approx - exact| / |exact|`` (0 when both are zero)."""
    return float(np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), SCALE_FLOOR))


def is_symmetric(m) -> bool:
    """True for a square matrix with max|M - M^T| <= ``SYMMETRY_TOL`` * max|M|."""
    m = np.asarray(m)
    square = m.ndim == 2 and m.shape[0] == m.shape[1]
    return square and bool(np.abs(m - m.T).max(initial=0.0) <= SYMMETRY_TOL * max_abs(m))


def is_diagonal(rho) -> bool:
    """True when the relative Frobenius mass off the diagonal is <= ``DIAG_TOL``.

    Takes a :class:`PsdOperator` or a square array.  ``q_sqrt_rank`` is
    exact on such operators; ``correspondence`` reads matrices only off them.
    """
    data = rho.data if isinstance(rho, PsdOperator) else np.asarray(rho)
    return relative_residual(np.diag(np.diagonal(data)), data) <= DIAG_TOL


def nonzero_mask(values, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The nonzero rule: values above ``rel_tol`` times the largest, along the last axis.

    A rank counts nonzero singular values; a support is the nonzero part of
    a spectrum or of a raveled matrix.  Nothing is nonzero when the largest
    value is <= 0.
    """
    if not 0.0 < rel_tol < 1.0:
        raise UsageError(f"rel_tol must be in (0, 1), got {rel_tol}")
    values = np.asarray(values)
    return values > rel_tol * values.max(axis=-1, keepdims=True, initial=0.0)


def is_psd_spectrum(w) -> bool:
    """True when no eigenvalue lies below ``-PSD_TOL * lambda_max``."""
    return bool(np.min(w, initial=0.0) >= -PSD_TOL * np.max(w, initial=0.0))


def clip_psd_spectrum(w, what: str = "operator") -> np.ndarray:
    """Eigenvalues with negative round-off clipped to 0; ``UsageError`` naming
    ``what`` when :func:`is_psd_spectrum` fails."""
    if not is_psd_spectrum(w):
        raise UsageError(f"{what} is materially non-psd (min eigenvalue {np.min(w):.3e})")
    return np.clip(w, 0.0, None)


def psd_gram_factor(mat):
    """Eigenvectors v and Gram vectors h = v sqrt(w) of the Hermitian part X of mat.

    The spectrum is clipped by :func:`clip_psd_spectrum`; ``h h^dag`` is X
    and ``h v^dag`` its psd square root.  Returns ``(h, v)``.
    """
    w, v = np.linalg.eigh(0.5 * (mat + np.conj(mat).T))
    return v * np.sqrt(clip_psd_spectrum(w, what="matrix")), v


# ---------------------------------------------------------------------------
# elementary operations


def kron_chain(factors) -> np.ndarray:
    """Kronecker product of a nonempty list of matrices, in list order."""
    factors = [np.asarray(f) for f in factors]
    if not factors:
        raise UsageError("kron_chain needs at least one factor")
    return reduce(np.kron, factors)


def _resolve_dims(op, dims=None, in_dims=None):
    """``(data, out_dims, in_dims)`` of an operator given as a PsdOperator or raw array.

    ``dims`` (a :class:`SiteSpec` or a sequence) gives the per-site out
    dimensions of a raw array and ``in_dims`` its in dimensions, by default
    equal to ``dims``; a 1-D array is read as a column.  A PsdOperator
    carries its own square dims.
    """
    if isinstance(op, PsdOperator):
        return op.data, op.sites.dims, op.sites.dims
    if dims is None:
        raise UsageError("site dimensions are required for raw arrays")
    out_dims = dims.dims if isinstance(dims, SiteSpec) else tuple(int(d) for d in dims)
    in_dims = out_dims if in_dims is None else tuple(int(d) for d in in_dims)
    data = np.asarray(op)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    if data.shape != (prod(out_dims), prod(in_dims)):
        raise UsageError(
            f"shape {data.shape} does not match dims {out_dims} x {in_dims}"
        )
    return data, out_dims, in_dims


def matricize(op, cut: int, out_dims=None, in_dims=None) -> np.ndarray:
    """Group sites ``1..cut`` against ``cut+1..n`` into a single matrix.

    Rows are indexed by (out, in) indices of the left block, columns by the
    right block, each row-major with out indices before in indices.  The
    reshape is a pure index permutation; :func:`unmatricize` inverts it
    bit-exactly.
    """
    data, out_dims, in_dims = _resolve_dims(op, out_dims, in_dims)
    n = len(out_dims)
    if not 1 <= cut < n:
        raise UsageError(f"cut must be in [1, {n - 1}], got {cut}")
    t = data.reshape(tuple(out_dims) + tuple(in_dims))
    left = list(range(cut)) + [n + k for k in range(cut)]
    right = list(range(cut, n)) + [n + k for k in range(cut, n)]
    rows = prod(out_dims[:cut]) * prod(in_dims[:cut])
    return t.transpose(left + right).reshape(rows, -1)


def unmatricize(matrix, cut: int, out_dims, in_dims=None) -> np.ndarray:
    """Inverse of :func:`matricize`; returns the dense operator."""
    out_dims = tuple(int(d) for d in out_dims)
    in_dims = out_dims if in_dims is None else tuple(int(d) for d in in_dims)
    n = len(out_dims)
    if not 1 <= cut < n:
        raise UsageError(f"cut must be in [1, {n - 1}], got {cut}")
    matrix = np.asarray(matrix)
    shape = out_dims[:cut] + in_dims[:cut] + out_dims[cut:] + in_dims[cut:]
    t = matrix.reshape(shape)
    # forward permutation used by matricize; argsort inverts it
    forward = (
        list(range(cut))
        + [n + k for k in range(cut)]
        + list(range(cut, n))
        + [n + k for k in range(cut, n)]
    )
    inv = np.argsort(forward)
    return t.transpose(inv).reshape(prod(out_dims), prod(in_dims))


def numerical_rank(matrix, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of nonzero singular values (:func:`nonzero_mask`); 0 for the zero matrix."""
    return int(stacked_numerical_rank(matrix, rel_tol))


def stacked_numerical_rank(stack, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """:func:`numerical_rank` of every matrix in a ``(..., rows, cols)`` stack, by one batched SVD."""
    s = np.linalg.svd(np.asarray(stack), compute_uv=False)
    return np.count_nonzero(nonzero_mask(s, rel_tol), axis=-1)


#: Matrix entries per stacked chunk of the sign enumeration (0.5 MB real,
#: 1 MB complex), so its memory is bounded by a few chunks, not by the 2^k
#: patterns.  Larger chunks run no faster at desk-scale sizes.
ENUM_CHUNK_ENTRIES = 2**16


def min_rank_sign_pattern(k: int, build, entries: int, rel_tol: float = DEFAULT_RANK_TOL):
    """First sign pattern minimizing the numerical rank of a signed candidate.

    Patterns s in {+1, -1}^k are walked in lexicographic order, +1 before
    -1, in chunks of at most ``ENUM_CHUNK_ENTRIES // entries`` patterns.
    ``build`` maps a ``(c, k)`` int array of patterns to an iterable of
    stacked candidates, each ``(c, rows, cols)``, consumed one at a time;
    a pattern's rank is the largest :func:`stacked_numerical_rank` across
    them (one stack per cut, say).  ``entries`` is the number of matrix
    entries in one pattern's candidate.  The first minimizer is kept, and
    the walk stops at the first pattern of rank <= 1, which no nonzero
    candidate can beat.  Returns ``(rank, signs)`` with ``signs`` a tuple
    of k ints.

    The first sign is pinned to +1.  The candidate must be linear in the
    signs, so the global flip -s gives the negated candidate, of the same
    rank.  In lexicographic order every pattern starting with +1 precedes
    every pattern starting with -1, so the first minimizer (and the first
    pattern reaching rank <= 1) starts with +1: pinning halves the work and
    returns the same pattern as the full walk.
    """
    total = 2 ** (k - 1) if k > 0 else 1
    chunk = max(1, ENUM_CHUNK_ENTRIES // max(entries, 1))
    shifts = np.arange(k - 1, -1, -1)
    best_rank = None
    best_signs = None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        signs = 1 - 2 * ((idx[:, None] >> shifts) & 1)
        ranks = np.max([stacked_numerical_rank(stack, rel_tol) for stack in build(signs)], axis=0)
        done = np.flatnonzero(ranks <= 1)
        if done.size:
            ranks = ranks[: done[0] + 1]
        j = int(np.argmin(ranks))
        if best_rank is None or ranks[j] < best_rank:
            best_rank, best_signs = int(ranks[j]), signs[j]
        if done.size:
            break
    return best_rank, tuple(best_signs.tolist())


def svd_split(matrix, rel_tol: float = DEFAULT_RANK_TOL):
    """One rank-revealing split ``matrix ~ left @ right``.

    ``left`` holds the kept left singular vectors, so it has orthonormal
    columns, and ``right`` carries the singular values (``S @ Vh``); the
    singular values of ``right`` are those of ``matrix``.  The inner
    dimension equals :func:`numerical_rank`; the zero matrix yields empty
    factors.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[0] < matrix.shape[1]:
        # LAPACK's wide path runs 2-3x slower than its tall path on the
        # transpose (a 256 x 1024 split: 0.17 s against 0.08 s, 2-vCPU Xeon);
        # matrix.T = A S B^dag gives matrix = conj(B) S A^T
        a, s, bh = np.linalg.svd(matrix.T, full_matrices=False)
        u, vh = bh.T, a.T
    else:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    r = int(np.count_nonzero(nonzero_mask(s, rel_tol)))
    return u[:, :r], s[:r, None] * vh[:r], r


def _absorb_core(block, core):
    """Contract the right bond of a ``(left, rows, cols, bond)`` block with a core.

    For each out index of the core, one batched matrix product over the
    bond writes straight into the result's interleaved ``(rows, out) x
    (cols, in)`` layout, so no transposed copy of the result is made.
    """
    left, rows, cols, bond = block.shape
    _, do, di, right = core.shape
    out = np.empty((left, rows, do, cols, di, right), dtype=np.result_type(block, core))
    lhs = block.reshape(left * rows, cols, bond)
    dest = out.reshape(left * rows, do, cols, di * right)
    for k in range(do):
        np.matmul(lhs, core[:, k].reshape(bond, di * right), out=dest[:, k])
    return out.reshape(left, rows * do, cols * di, right)


def contract_train(train: MpoTrain) -> np.ndarray:
    """Evaluate the open-boundary sum of a train into a dense operator.

    The contraction sweeps left to right carrying a ``(1, rows, cols, bond)``
    block, so the cost never involves materializing the full bond sum.
    """
    cur = train.cores[0]
    for core in train.cores[1:]:
        cur = _absorb_core(cur, core)
    return np.ascontiguousarray(cur[0, :, :, 0])


def contract_cyclic(site: TiSiteTensor, n: int) -> np.ndarray:
    """Evaluate the trace-closed cyclic network of ``n`` copies of one tensor.

    Same sweep as :func:`contract_train`; the ``(bond, rows, cols, bond)``
    block is closed by a trace over its two bonds.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    cur = site.tensor
    for _ in range(n - 1):
        cur = _absorb_core(cur, site.tensor)
    return np.ascontiguousarray(np.trace(cur, axis1=0, axis2=3))


def cyclic_shift_defect(op, out_dims=None, in_dims=None) -> float:
    """Relative Frobenius defect ``|T rho T^dag - rho| / |rho|`` under one site shift.

    Requires equal out dims across sites (and equal in dims); vectors are
    handled through in dims of 1.
    """
    data, out_dims, in_dims = _resolve_dims(op, out_dims, in_dims)
    n = len(out_dims)
    if len(set(out_dims)) != 1 or len(set(in_dims)) != 1:
        raise UsageError("shift defect requires equal dimensions on every site")
    t = data.reshape(tuple(out_dims) + tuple(in_dims))
    roll = list(range(1, n)) + [0]
    shifted = t.transpose(roll + [n + k for k in roll]).reshape(data.shape)
    return relative_residual(shifted, data)

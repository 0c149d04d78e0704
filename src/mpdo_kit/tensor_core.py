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
from math import isqrt, prod

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

#: The one transient block size (1 MiB complex): the blockwise reductions
#: copy at most this many entries of an operator at a time, and a chunk of
#: the sign walk stacks at most this many candidate entries, however many
#: the 2^k patterns.  Larger blocks run no faster at desk-scale sizes.
BLOCK_ENTRIES = 2**16


class UsageError(ValueError):
    """Malformed call: empty input, shape mismatch, out-of-range cut."""


class SignBudgetError(UsageError):
    """A sign walk that would rank more patterns than its budget (:func:`require_sign_budget`)."""


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
        # one C-ordered buffer holds X^dag, then X - X^dag, then (X^dag + X) / 2
        sym = np.empty_like(data, order="C")
        np.subtract(data, np.conjugate(data.T, out=sym), out=sym)
        defect = np.abs(sym).max()
        if defect > HERM_TOL * scale:
            warnings.warn(
                f"input has Hermiticity defect {defect / scale:.2e} (relative); symmetrizing",
                stacklevel=3,
            )
        np.conjugate(data.T, out=sym)
        sym += data
        sym *= 0.5
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
    Boundary bonds must have dimension exactly 1.  ``screened`` is set by
    the sweep that built the train (``decompositions.mpo_train_form``): one
    flag per cut, True where :func:`svd_split` passed the cut through the
    full-rank screen; None for a train built otherwise.
    """

    cores: tuple[np.ndarray, ...]
    screened: tuple[bool, ...] | None = None

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


def relative_residual(approx, exact, overwrite_approx: bool = False) -> float:
    """Relative Frobenius residual ``|approx - exact| / |exact|`` (0 when both are zero).

    With ``overwrite_approx`` the difference is taken in place into
    ``approx``, an array the caller no longer needs, instead of a new one
    of the same size (when ``approx`` is writable and of the result dtype).
    """
    if overwrite_approx and approx.flags.writeable and np.result_type(approx, exact) == approx.dtype:
        diff = np.subtract(approx, exact, out=approx)
    else:
        diff = approx - exact
    return float(np.linalg.norm(diff) / max(np.linalg.norm(exact), SCALE_FLOOR))


def _gram_residual(factor, exact) -> float:
    """The purification check: :func:`relative_residual` of ``factor @ factor^dag`` against ``exact``.

    The product is formed ``BLOCK_ENTRIES // cols`` rows at a time (cols
    of ``exact``), each block as ``conj(rows) @ factor^T`` conjugated in
    place, then subtracted and summed in place, so neither the product nor
    a conjugate copy of ``factor`` is held whole.  ``factor`` is complex.
    """
    step = max(1, BLOCK_ENTRIES // max(exact.shape[1], 1))
    squares = scale = 0.0
    for lo in range(0, factor.shape[0], step):
        rows = exact[lo : lo + step]
        block = np.conjugate(factor[lo : lo + step]) @ factor.T
        np.conjugate(block, out=block)
        block -= rows
        squares += np.vdot(block, block).real
        scale += np.vdot(rows, rows).real
        del block  # not held while the next one is formed
    return float(np.sqrt(squares) / max(np.sqrt(scale), SCALE_FLOOR))


def is_symmetric(m) -> bool:
    """True for a square matrix with max|M - M^T| <= ``SYMMETRY_TOL`` * max|M|."""
    m = np.asarray(m)
    square = m.ndim == 2 and m.shape[0] == m.shape[1]
    return square and bool(np.abs(m - m.T).max(initial=0.0) <= SYMMETRY_TOL * max_abs(m))


def is_diagonal(rho) -> bool:
    """True when the relative Frobenius mass off the diagonal is <= ``DIAG_TOL``.

    Takes a :class:`PsdOperator` or a square array.  ``q_sqrt_rank`` is
    exact on such operators; ``correspondence`` reads matrices only off them.
    The off-diagonal mass is summed over copies of ``BLOCK_ENTRIES`` worth
    of rows with their diagonal entries zeroed, never a copy of the whole
    operator, and the test stops at the first block that takes it over.
    """
    data = rho.data if isinstance(rho, PsdOperator) else np.asarray(rho)
    # np.linalg.norm would copy the real and imaginary parts apart
    scale = max(float(np.sqrt(np.vdot(data, data).real)), SCALE_FLOOR)
    step = max(1, BLOCK_ENTRIES // max(data.shape[1], 1))
    squares = 0.0
    for lo in range(0, data.shape[0], step):
        block = data[lo : lo + step].copy()
        diag = np.arange(lo, min(lo + block.shape[0], data.shape[1]))
        block[diag - lo, diag] = 0
        squares += np.vdot(block, block).real
        del block  # not held while the next one is copied
        if not float(np.sqrt(squares) / scale) <= DIAG_TOL:  # the sum only grows; NaN fails
            return False
    return True


def _check_rel_tol(rel_tol: float) -> None:
    if not 0.0 < rel_tol < 1.0:
        raise UsageError(f"rel_tol must be in (0, 1), got {rel_tol}")


def nonzero_mask(values, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The nonzero rule: values above ``rel_tol`` times the largest, along the last axis.

    A rank counts nonzero singular values; a support is the nonzero part of
    a spectrum or of a raveled matrix.  Nothing is nonzero when the largest
    value is <= 0.
    """
    _check_rel_tol(rel_tol)
    values = np.asarray(values)
    return values > rel_tol * values.max(axis=-1, keepdims=True, initial=0.0)


def is_psd_spectrum(w) -> bool:
    """True when no eigenvalue lies below ``-PSD_TOL * lambda_max``; a
    ``(..., r)`` stack of spectra passes when each of them does."""
    w = np.asarray(w)
    return bool((w.min(axis=-1, initial=0.0) >= -PSD_TOL * w.max(axis=-1, initial=0.0)).all())


def clip_psd_spectrum(w, what: str = "operator") -> np.ndarray:
    """Eigenvalues with negative round-off clipped to 0; ``UsageError`` naming
    ``what`` when :func:`is_psd_spectrum` fails."""
    if not is_psd_spectrum(w):
        raise UsageError(f"{what} is materially non-psd (min eigenvalue {np.min(w):.3e})")
    return np.clip(w, 0.0, None)


def psd_gram_factor(mat):
    """Eigenvectors v and Gram vectors h = v sqrt(w) of the Hermitian part X of mat.

    ``mat`` is one matrix or a ``(..., r, r)`` stack, taken by one batched
    ``eigh``.  The spectrum is clipped by :func:`clip_psd_spectrum`;
    ``h h^dag`` is X and ``h v^dag`` its psd square root.  Returns ``(h, v)``.
    """
    w, v = np.linalg.eigh(0.5 * (mat + np.conj(mat).swapaxes(-1, -2)))
    return v * np.sqrt(clip_psd_spectrum(w, what="matrix"))[..., None, :], v


# ---------------------------------------------------------------------------
# elementary operations


def kron_chain(factors) -> np.ndarray:
    """Kronecker product of a nonempty list of matrices, in list order."""
    factors = [np.asarray(f) for f in factors]
    if not factors:
        raise UsageError("kron_chain needs at least one factor")
    return reduce(np.kron, factors)


def _resolve_dims(op, dims=None, in_dims=None, stacked=False):
    """``(data, out_dims, in_dims)`` of an operator given as a PsdOperator or raw array.

    ``dims`` (a :class:`SiteSpec` or a sequence) gives the per-site out
    dimensions of a raw array and ``in_dims`` its in dimensions, by default
    equal to ``dims``; a 1-D array is read as a column, and with
    ``stacked`` an array of more axes as a ``(..., rows, cols)`` stack of
    operators.  A PsdOperator carries its own square dims.
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
    lead = data.shape[:-2] if stacked else ()
    if data.shape != lead + (prod(out_dims), prod(in_dims)):
        raise UsageError(
            f"shape {data.shape} does not match dims {out_dims} x {in_dims}"
        )
    return data, out_dims, in_dims


def matricize(op, cut: int, out_dims=None, in_dims=None) -> np.ndarray:
    """Group sites ``1..cut`` against ``cut+1..n`` into a single matrix.

    Rows are indexed by (out, in) indices of the left block, columns by the
    right block, each row-major with out indices before in indices.  The
    reshape is a pure index permutation of the operator's entries.  Cut 0
    groups no site against all of them, one row (the cut
    :func:`_cuts_widest_first` gives a single site).  A raw ``(..., rows,
    cols)`` stack is matricized operator by operator, its leading axes kept.
    """
    data, out_dims, in_dims = _resolve_dims(op, out_dims, in_dims, stacked=True)
    n = len(out_dims)
    if not 0 <= cut < n:
        raise UsageError(f"cut must be in [0, {n - 1}], got {cut}")
    t = data.reshape((prod(data.shape[:-2]),) + tuple(out_dims) + tuple(in_dims))
    left = [1 + k for k in range(cut)] + [1 + n + k for k in range(cut)]
    right = [1 + k for k in range(cut, n)] + [1 + n + k for k in range(cut, n)]
    shape = (prod(out_dims[:cut]) * prod(in_dims[:cut]), prod(out_dims[cut:]) * prod(in_dims[cut:]))
    return t.transpose([0] + left + right).reshape(data.shape[:-2] + shape)


def numerical_rank(matrix, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of nonzero singular values (:func:`nonzero_mask`); 0 for the zero matrix."""
    return int(stacked_numerical_rank(matrix, rel_tol))


def stacked_numerical_rank(stack, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """:func:`numerical_rank` of every matrix in a ``(..., rows, cols)`` stack.

    A square stack that equals its conjugate transpose exactly is ranked
    from ``abs(eigvalsh)``, the singular values of a Hermitian matrix:
    ~0.55x the SVD's time on a sign walk's 6 x 6 stacks (2-vCPU Xeon VM).
    The equality must be exact, since ``eigvalsh`` reads only one
    triangle.  Any other stack of at least ``SCREEN_MIN_ENTRIES`` entries
    in all is first put to :func:`_full_rank_screen`.  When it proves every
    matrix full rank, each is ranked ``min(rows, cols)`` with no SVD: the
    screen's rounding argument holds matrix by matrix, and its pass means
    the nonzero rule would keep every singular value.  Every other stack
    takes one batched SVD.  A stack with a non-finite entry has no rank
    (:class:`UsageError`), read off the few values LAPACK returns.
    """
    _check_rel_tol(rel_tol)
    a = np.asarray(stack)
    hermitian = a.ndim >= 2 and a.shape[-1] == a.shape[-2] and np.array_equal(a, np.swapaxes(a, -1, -2).conj())
    if not hermitian and a.size >= SCREEN_MIN_ENTRIES and _full_rank_screen(a, rel_tol):
        return np.full(a.shape[:-2], min(a.shape[-2:]), dtype=np.intp)
    try:
        s = np.abs(np.linalg.eigvalsh(a)) if hermitian else np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as err:  # a NaN entry stops LAPACK's iteration
        raise UsageError(f"cannot rank a stack of shape {a.shape}: {err}") from err
    return np.count_nonzero(nonzero_mask(_finite(s), rel_tol), axis=-1)


def _finite(values) -> np.ndarray:
    """``values``, singular values or eigenvalues, when all are finite, and
    :class:`UsageError` otherwise: LAPACK returns NaN for a matrix with an
    infinite entry.  A NaN entry never takes the ``eigvalsh`` route, which
    can return finite values for it, since NaN differs from itself."""
    if not np.isfinite(values).all():
        raise UsageError("a matrix with a non-finite entry has no numerical rank")
    return values


def root_rank_floor(rank: int) -> int:
    """The least r with r(r + 1)/2 >= ``rank``: no matrix N of rank below it
    has an entrywise square N o N of rank ``rank``.

    A rank-r N = sum_i a_i b_i^T squares to sum_{i <= j} of the r(r + 1)/2
    terms (a_i o a_j)(b_i o b_j)^T, the (i, j) and (j, i) terms being equal.
    """
    r = isqrt(2 * rank)
    while r * (r + 1) // 2 < rank:
        r += 1
    return r


def _component_labels(mask, offset: int) -> np.ndarray:
    """Component labels of the graph in which a True ``mask[i, j]`` joins
    node i to node ``offset + j`` (offset 0: a square mask's own indices;
    offset p: the rows and columns of a p x q mask).  A node's label is the
    least node of its component, so a component is a node labelled by itself.

    Min-label propagation with pointer jumping, the neighbours' least
    labels read by masked reductions over the mask, with no edge list.
    """
    p, q = mask.shape
    size = max(p, offset + q)
    label = np.arange(size)
    while True:
        new = label.copy()
        rows, cols = new[:p], new[offset : offset + q]
        across = np.broadcast_to(label[offset : offset + q], mask.shape)  # views
        down = np.broadcast_to(label[:p, None], mask.shape)
        np.minimum(rows, across.min(axis=1, where=mask, initial=size), out=rows)
        np.minimum(cols, down.min(axis=0, where=mask, initial=size), out=cols)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def block_eigvals(matrix) -> np.ndarray:
    """The eigenvalues of a square matrix, taken block by block.

    The blocks are the connected components of the exact-zero pattern read
    as an undirected graph (i ~ j when ``A_ij != 0`` or ``A_ji != 0``).  A
    symmetric permutation makes the matrix block diagonal, so the multiset
    is that of ``np.linalg.eigvals(matrix)``, in another order and always
    complex.  Components are labeled by :func:`_component_labels`; one
    ``eigvals`` call per distinct block size takes a stack of the blocks.
    """
    a = np.asarray(matrix)
    label = _component_labels(a != 0, 0)
    # grouped by counts, not by np.unique, whose first call alone added ~1.9 MB
    # of resident memory to the peak of a process that goes on to analyze n = 9
    count = np.bincount(label, minlength=label.size)
    start = np.cumsum(count) - count
    order = np.argsort(label, kind="stable")
    parts = [np.zeros(0, dtype=complex)]
    for size in sorted(set(count[count > 0].tolist())):
        idx = order[start[np.flatnonzero(count == size), None] + np.arange(size)]
        parts.append(np.linalg.eigvals(a[idx[:, :, None], idx[:, None, :]]).ravel())
    return np.concatenate(parts)


def _flip_pivots(k: int, flips) -> np.ndarray:
    """Boolean mask of the pivot columns of the reduced row echelon form,
    over GF(2), of the all-ones vector and the 0/1 vectors ``flips``, each
    of length k.

    Plain masks and row operations only: a first ``np.isin`` or
    ``np.setdiff1d`` call (both sort through ``np.unique``) pages in ~1 MB
    of resident memory.
    """
    rows = [np.ones(k, dtype=bool)]
    for flip in flips:
        flip = np.asarray(flip)
        if flip.shape != (k,) or not ((flip == 0) | (flip == 1)).all():
            raise UsageError(f"a flip must be a 0/1 vector of length {k}, got {flip.tolist()}")
        rows.append(flip.astype(bool))
    gens = np.array(rows)
    pivots = np.zeros(k, dtype=bool)
    r = 0
    for col in range(k):
        hit = r + np.flatnonzero(gens[r:, col])
        if hit.size == 0:
            continue
        gens[[r, hit[0]]] = gens[[hit[0], r]]
        clear = gens[:, col].copy()
        clear[r] = False
        gens[clear] ^= gens[r]
        pivots[col] = True
        r += 1
    return pivots


def require_sign_budget(k: int, pinned: int, sign_budget: int, what: str = "nonzero entries") -> None:
    """The budget rule of every sign walk, checked before it builds a stack:
    :class:`SignBudgetError` naming the 2^(k - pinned) patterns a walk over
    k signs would rank when they exceed ``sign_budget`` (never when k = 0)."""
    free = k - pinned
    if k and 2**free > sign_budget:
        raise SignBudgetError(f"{k} {what} leave 2^{free} sign patterns to rank, over the sign budget {sign_budget}")


def _cuts_widest_first(dims) -> list[int]:
    """Cuts 1..n-1 of sites ``dims``, largest Schmidt cap first, ties in cut
    order; one site has the cut 0, which makes it one row."""
    n = len(dims)
    return sorted(range(1, n), key=lambda cut: -min(prod(dims[:cut]), prod(dims[cut:]))) if n > 1 else [0]


def _components(mask) -> int:
    """Components of the bipartite graph whose nodes are the rows and the
    columns of the boolean matrix ``mask`` and whose edges are its True
    entries; a row or column with no True entry is a component of its own."""
    label = _component_labels(mask, mask.shape[0])
    return int(np.count_nonzero(label == np.arange(label.size)))


def _forest_pins(shape, rows, cols) -> np.ndarray:
    """The signs the row and column flips pin, as a boolean mask over the
    support entries ``(rows, cols)`` in walk order.

    These are the pivot columns of the GF(2) echelon form of the flips,
    the all-ones vector being their sum.  A column lies in the span of the
    earlier ones exactly when its entry closes a cycle of the bipartite
    support graph with earlier entries, so the pivots are the entries that
    join two components of the graph of the entries before them, found by
    union-find in O(k), with no p + q flip vectors of length k.
    """
    parent = list(range(shape[0] + shape[1]))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pinned = np.zeros(rows.size, dtype=bool)
    for e, (i, j) in enumerate(zip(rows.tolist(), (cols + shape[0]).tolist())):
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            pinned[e] = True
    return pinned


def _chunk_ranks(stacks, count: int, bound, rel_tol: float) -> np.ndarray:
    """Largest :func:`stacked_numerical_rank` over ``stacks`` for each of
    ``count`` patterns, except that a pattern stops being ranked once its
    running maximum reaches ``bound`` (None: no bound).

    A function of its own, so that no stack outlives the chunk: a loop
    variable left bound to the last one would keep it alive while the next
    chunk's stacks are built.
    """
    ranks = np.zeros(count, dtype=np.intp)
    alive = np.arange(count)
    for stack in stacks:
        ranked = stacked_numerical_rank(stack if alive.size == count else stack[alive], rel_tol)
        ranks[alive] = np.maximum(ranks[alive], ranked)
        if bound is not None:
            alive = alive[ranks[alive] < bound]
            if alive.size == 0:
                break
    return ranks


def min_rank_sign_pattern(
    k: int, build, entries: int, rel_tol: float = DEFAULT_RANK_TOL, pinned=None, floor: int = 1
):
    """First sign pattern minimizing the numerical rank of a signed candidate.

    Patterns s in {+1, -1}^k are walked in lexicographic order, +1 before
    -1, in chunks of at most ``BLOCK_ENTRIES // entries`` patterns.
    ``build`` maps a ``(c, k)`` int array of patterns to an iterable of
    stacked candidates, each ``(c, rows, cols)``, consumed one at a time;
    a pattern's rank is the largest :func:`stacked_numerical_rank` across
    them (one stack per cut, say).  ``entries`` is the number of matrix
    entries in one pattern's candidate.  The first minimizer is kept, and
    the walk stops at the first pattern of rank <= ``floor``, a rank the
    caller knows no candidate goes below (by default 1, which no nonzero
    candidate can beat), so that pattern is the first minimizer.  Returns
    ``(rank, signs)`` with ``signs`` a tuple of k ints.

    Once a best rank b is known (after the first chunk), a pattern whose
    running maximum over the stacks ranked so far reaches b cannot become
    the new first minimizer, so each later stack of a chunk is ranked only
    on the patterns still below b, and ``build`` is left unconsumed once
    none are.  Such a pattern keeps a rank >= b in place of its exact rank;
    it is above ``floor``, as the walk stopped otherwise, so neither the
    minimizer nor the stop moves.  Putting the stack most likely to reach b
    first (the cut of largest Schmidt cap, say) drops patterns soonest.

    Only one pattern per orbit of a flip group is ranked, the group of 0/1
    vectors of length k whose flips (negating the signs where one is 1)
    keep the candidate's rank, the all-ones vector (the global flip -s,
    which negates a candidate linear in the signs) among them.  ``pinned``,
    a boolean mask of length k, marks the pivot columns of their span's
    reduced row echelon form over GF(2) (:func:`_flip_pivots`); those signs
    are +1, and the free ones are walked in binary order, most significant
    first: 2^(k - pivots) patterns.  Each orbit holds exactly one pinned pattern,
    since row i alone has a 1 at pivot i, and it is the orbit's
    lexicographic minimum, because adding a set S of rows sets the smallest
    pivot in S to -1 and leaves every earlier sign alone.  An orbit shares
    one rank, so the full walk's first minimizer and its first pattern of
    rank <= ``floor`` are pinned, and the pinned walk returns the same pattern.
    Without ``pinned`` only the global flip pins, the first sign.
    """
    if pinned is None:
        pinned = np.arange(k) == 0
    elif np.shape(pinned) != (k,):
        raise UsageError(f"pinned must be a boolean mask of length {k}")
    free = np.flatnonzero(~np.asarray(pinned, dtype=bool))
    total = 2**free.size
    chunk = max(1, BLOCK_ENTRIES // max(entries, 1))
    shifts = np.arange(free.size - 1, -1, -1)
    best_rank = None
    best_signs = None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        signs = np.ones((idx.size, k), dtype=int)
        signs[:, free] = 1 - 2 * ((idx[:, None] >> shifts) & 1)
        ranks = _chunk_ranks(build(signs), idx.size, best_rank, rel_tol)
        done = np.flatnonzero(ranks <= floor)
        if done.size:
            ranks = ranks[: done[0] + 1]
        j = int(np.argmin(ranks))
        if best_rank is None or ranks[j] < best_rank:
            best_rank, best_signs = int(ranks[j]), signs[j]
        if done.size:
            break
    return best_rank, tuple(best_signs.tolist())


def _root_sign_walk(values, sign_budget: int, rel_tol: float = DEFAULT_RANK_TOL):
    """First least-rank sign pattern of the entrywise square root of a
    nonnegative n-way array: the walk of ``sqrt_rank`` (a matrix) and of the
    diagonal ``q_sqrt_rank`` (the diagonal, one axis per site).

    The signs run over the k entries the nonzero rule keeps; a root's rank
    is its largest over the cuts between the axes.  Negating the root where
    one axis is at one index keeps every such rank, so one pattern per
    orbit of these flips is ranked.  At n = 2 they pin p + q - c signs of a
    p x q matrix whose support has c components (:func:`_components`),
    counted before any pin is built; the pins are the first spanning
    forest's entries (:func:`_forest_pins`).  Otherwise the 1 + sum(d_s)
    flips are eliminated (:func:`_flip_pivots`).  Returns ``(rank, signs)``,
    signs in {-1, 0, +1} of the shape of ``values``.

    At each cut every root squares entrywise to the kept part of ``values``,
    so no root ranks below the largest :func:`root_rank_floor` of that
    part's ranks, and the walk stops at the first pattern that reaches it
    (the engine's ``floor``).  The bound is exact in exact arithmetic.
    Under the nonzero rule it can fail only at the margin: a root whose
    smallest kept singular value sits near ``rel_tol`` may square to a
    matrix of numerical rank above r(r + 1)/2, and the walk may then stop
    before a later pattern of lower rank.
    """
    dims = values.shape
    mask = nonzero_mask(values.ravel(), rel_tol).reshape(dims)
    k = int(np.count_nonzero(mask))
    if len(dims) == 2:
        require_sign_budget(k, sum(dims) - _components(mask), sign_budget)
        support = np.nonzero(mask)
        pinned = _forest_pins(dims, *support)
    else:
        support = np.nonzero(mask)
        pinned = _flip_pivots(k, [pos == a for pos, d in zip(support, dims) for a in range(d)])
        require_sign_budget(k, int(np.count_nonzero(pinned)), sign_budget)
    roots = np.sqrt(values[support])
    cuts = _cuts_widest_first(dims)
    square = np.where(mask, values, 0.0)
    floor = max(root_rank_floor(numerical_rank(square.reshape(prod(dims[:cut]), -1), rel_tol)) for cut in cuts)

    def build(patterns):
        stack = np.zeros((len(patterns),) + dims)
        stack[(slice(None),) + support] = patterns * roots
        return [stack.reshape(len(patterns), prod(dims[:cut]), -1) for cut in cuts]

    rank, best = min_rank_sign_pattern(k, build, values.size, rel_tol, pinned=pinned, floor=floor)
    signs = np.zeros(dims, dtype=int)
    signs[support] = best
    return rank, signs


#: Stacks of fewer matrix entries than this, counted over the whole stack,
#: go straight to the SVD in :func:`svd_split` and
#: :func:`stacked_numerical_rank`, without the full-rank screen.  The
#: threshold rests on cost alone: on a 2-vCPU Xeon VM a screen that fails
#: (a rank-deficient matrix) adds 65-80% to the SVD split of 64 or fewer
#: entries and 12-31% at 4096, and one that passes saves 28-85% of the
#: split at 4096 entries and more above.
SCREEN_MIN_ENTRIES = 4096

#: Multiple of ``(k + m + 2) * eps * tr(G)`` in the shift of the full-rank
#: screen: it covers the rounding of the Gram product and of its Cholesky
#: factorization with room to spare (:func:`_full_rank_screen`).
SCREEN_ROUNDOFF = 8


def _full_rank_screen(stack, rel_tol: float) -> bool:
    """True only when, in every matrix of a ``(..., rows, cols)`` stack (a
    2-D matrix is a stack of one), every singular value is at least
    ``2 * rel_tol`` times that matrix's largest, in exact arithmetic.

    Each matrix A has its small Gram matrix G, ``A A^dag`` (m x m, inner
    length k = cols) for wide matrices and ``A^dag A`` (m = cols, k = rows)
    for tall ones; its eigenvalues are A's squared singular values.  The
    Gram matrices are summed over blocks along the long side, columns of
    wide matrices and rows of tall ones, each block holding at most
    ``BLOCK_ENTRIES`` entries of the whole stack, so only one block's
    conjugate is ever copied, never the stack.  The screen asks for a
    Cholesky factorization of every ``G - tau I``, all in one batched call,
    with the matrix's own shift

        tau = (4 rel_tol^2 + SCREEN_ROUNDOFF (k + m + 2) eps) tr(G),

    tr(G) read off the computed Gram matrix.  The error bound, matrix by
    matrix: each entry of the computed Gram matrix is still one complex
    inner product of length k, only summed in another order, block partial
    sums first, and the bound holds for any order of the sum: the entry is
    within about ``2 sqrt(2) (k + 1) eps/2`` of its exact value relative to
    ``|a_i| |a_j|`` (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sections 3.1 and 3.6), which puts the whole Gram matrix within
    that multiple of tr(G) in norm.  A Cholesky factorization
    that runs to completion on an m x m matrix H factors H + dH exactly,
    with ``|dH| <= gamma |R^dag| |R|`` entrywise (Higham, theorem 10.3), so
    ``||dH|| <= 2 sqrt(2) (m + 1) eps/2 tr(H)`` in norm for complex entries.
    The shift of the diagonal and the computed trace round by at most
    ``(k + m) eps/2`` relative.  SCREEN_ROUNDOFF = 8 covers the sum of these
    terms with fivefold room.  Asking ``tr(G) >= tiny / eps`` keeps the
    absolute rounding of subnormal products below ``eps tr(G)``, and an
    overflow or a NaN fails that trace test; one matrix that fails it, or
    whose factorization stops, fails the stack.

    So success gives ``lambda_min(G) >= 4 rel_tol^2 tr(G) >= 4 rel_tol^2
    sigma_max^2``, i.e. ``sigma_min >= 2 rel_tol sigma_max``, for each
    matrix.  The SVD's own singular values are within a small multiple of
    ``eps sigma_max`` of the exact ones, far less than ``rel_tol
    sigma_max`` here (tau alone asks for ``sigma_min / sigma_max`` above
    about ``sqrt(8 (k + m) eps)``), so the nonzero rule on them would keep
    every one: each rank is ``min(rows, cols)``.  Cholesky stops at the
    first pivot that is not positive, so a rank-deficient matrix fails
    after about its rank's worth of columns.
    """
    *lead, rows, cols = stack.shape
    wide = rows <= cols
    size, length = (rows, cols) if wide else (cols, rows)
    step = max(1, BLOCK_ENTRIES // max(prod(lead) * size, 1))
    gram = np.zeros((*lead, size, size), dtype=np.result_type(stack, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):  # fails the trace test below
        for lo in range(0, length, step):
            if wide:
                block = stack[..., lo : lo + step]
                gram += block @ np.swapaxes(block.conj(), -1, -2)
            else:
                block = stack[..., lo : lo + step, :]
                gram += np.swapaxes(block.conj(), -1, -2) @ block
    trace = np.trace(gram, axis1=-2, axis2=-1).real
    eps = np.finfo(float).eps
    if not np.all((np.finfo(float).tiny / eps <= trace) & (trace < np.inf)):
        return False
    tau = (4.0 * rel_tol**2 + SCREEN_ROUNDOFF * (length + size + 2) * eps) * trace
    diag = np.arange(size)
    gram[..., diag, diag] -= tau[..., None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def svd_split(matrix, rel_tol: float = DEFAULT_RANK_TOL):
    """One rank-revealing split ``matrix ~ left @ right``.

    ``left`` has orthonormal columns, and ``right`` has the singular values
    of ``matrix``; the inner dimension equals :func:`numerical_rank`, and
    the zero matrix yields empty factors.

    A wide split (rows <= cols) of at least ``SCREEN_MIN_ENTRIES`` entries
    that :func:`_full_rank_screen` proves full rank needs no SVD: it splits
    as ``(I, matrix, rows)``, with ``right`` the complex matrix itself, not
    a copy.  So a caller that passes a complex array can tell a screened
    split by ``right is matrix``, and multiplying the identity back
    reproduces the matrix bit for bit.  Every other matrix, a tall one of
    full rank included, is split by the SVD: ``left`` holds the kept left
    singular vectors and ``right`` is ``S @ Vh``.
    :func:`~mpdo_kit.decompositions.mpo_train_form` hands every full-rank
    cut over from its wide side.  A matrix with a non-finite entry, which
    the screen refuses, raises :class:`UsageError`.
    """
    matrix = np.asarray(matrix, dtype=complex)
    _check_rel_tol(rel_tol)
    rows, cols = matrix.shape
    if rows <= cols and rows * cols >= SCREEN_MIN_ENTRIES and _full_rank_screen(matrix, rel_tol):
        return np.eye(rows, dtype=complex), matrix, rows
    try:
        if rows < cols:
            # LAPACK's wide path runs 2-3x slower than its tall path on the
            # transpose (a 256 x 1024 split: 0.17 s against 0.08 s, 2-vCPU Xeon);
            # matrix.T = A S B^dag gives matrix = conj(B) S A^T
            a, s, bh = np.linalg.svd(matrix.T, full_matrices=False)
            u, vh = bh.T, a.T
        else:
            u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as err:  # a NaN entry stops LAPACK's iteration
        raise UsageError(f"cannot split a {rows} x {cols} matrix: {err}") from err
    r = int(np.count_nonzero(nonzero_mask(_finite(s), rel_tol)))
    return u[:, :r], s[:r, None] * vh[:r], r


def _diagonal_train(factors) -> MpoTrain:
    """Train whose cores sit on the diagonal of their physical legs.

    Site l's factor is a ``(left, d, aux, right)`` array and its core the
    ``(left, d, d * aux, right)`` array with ``core[a, i, i*aux:(i+1)*aux, b]
    = factor[a, i, :, b]``, zero elsewhere.  With aux = 1 the cores are
    diagonal matrices (the trains of a product factorization, the mixed W
    state); with aux = s index i carries its s Gram columns (a purification).
    """
    cores = []
    for factor in factors:
        left, d, aux, right = factor.shape
        core = np.zeros((left, d, d, aux, right), dtype=complex)
        core[:, np.arange(d), np.arange(d)] = factor
        cores.append(core.reshape(left, d, d * aux, right))
    return MpoTrain(tuple(cores))


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

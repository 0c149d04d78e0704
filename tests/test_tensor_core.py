import ast
from contextlib import nullcontext
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mpdo_kit import tensor_core
from mpdo_kit.decompositions import mixed_w_generator, mpo_train_form, transfer_matrix
from mpdo_kit.tensor_core import (
    MpoTrain,
    PsdOperator,
    SiteSpec,
    TiSiteTensor,
    UsageError,
    clip_psd_spectrum,
    contract_cyclic,
    contract_train,
    cyclic_shift_defect,
    is_diagonal,
    is_psd_spectrum,
    is_symmetric,
    kron_chain,
    matricize,
    nonzero_mask,
    numerical_rank,
    psd_gram_factor,
    relative_residual,
    stacked_numerical_rank,
    svd_split,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def rand_psd(dim, rng, rank=None):
    x = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    return x @ x.conj().T


def rand_unitary(dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return q


# ---------------------------------------------------------------------------
# kron_chain


def test_kron_identity():
    assert np.array_equal(kron_chain([np.eye(2), np.eye(2)]), np.eye(4))


def test_kron_basis_projectors():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert np.array_equal(kron_chain([p0, p1]), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_flip_pair():
    # oracle: direct 4x4 hand expansion of the two-site spin flip
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert np.array_equal(kron_chain([SX, SX]), expected)


def test_kron_empty_rejected():
    with pytest.raises(UsageError):
        kron_chain([])


# ---------------------------------------------------------------------------
# matricize


def test_matricize_diag_embed_rank_equals_matrix_rank():
    rng = np.random.default_rng(0)
    m = rng.uniform(0, 1, (3, 2)) @ rng.uniform(0, 1, (2, 4))
    sigma = np.diag(m.ravel())
    cut = matricize(sigma, 1, out_dims=(3, 4))
    assert numerical_rank(cut) == np.linalg.matrix_rank(m)


def test_matricize_product_operator_rank_one():
    rng = np.random.default_rng(1)
    a, b, c = (rand_psd(2, rng) for _ in range(3))
    op = kron_chain([a, b, c])
    for cut in (1, 2):
        assert numerical_rank(matricize(op, cut, out_dims=(2, 2, 2))) == 1


def unmatricize(matrix, cut, out_dims, in_dims):
    # oracle: undo matricize's permutation (left out, left in, right out,
    # right in) by its inverse, argsort
    n = len(out_dims)
    matrix = np.asarray(matrix).reshape(out_dims[:cut] + in_dims[:cut] + out_dims[cut:] + in_dims[cut:])
    forward = list(range(cut)) + [n + k for k in range(cut)] + list(range(cut, n)) + [n + k for k in range(cut, n)]
    return matrix.transpose(np.argsort(forward)).reshape(prod(out_dims), prod(in_dims))


def test_matricize_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    rho = rand_psd(8, rng)
    for cut in (1, 2):
        m = matricize(rho, cut, out_dims=(2, 2, 2))
        assert np.array_equal(unmatricize(m, cut, (2, 2, 2), (2, 2, 2)), rho)


def test_matricize_rectangular_roundtrip():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(2 * 3, 4 * 5))
    m = matricize(data, 1, out_dims=(2, 3), in_dims=(4, 5))
    assert m.shape == (2 * 4, 3 * 5)
    assert np.array_equal(unmatricize(m, 1, (2, 3), (4, 5)), data)


def test_matricize_cut_out_of_range():
    with pytest.raises(UsageError):
        matricize(np.eye(4), 2, out_dims=(2, 2))


@pytest.mark.parametrize("out_dims, in_dims", [((2, 2, 2), None), ((2, 3), (4, 1)), ((3,), None)])
def test_matricize_a_stack_matrix_by_matrix(out_dims, in_dims):
    # a (..., rows, cols) stack against matricize applied to each matrix;
    # cut 0 (the one cut of a single site) is the matrix as one row
    in_dims = in_dims or out_dims
    rng = np.random.default_rng(4)
    shape = (2, 3, prod(out_dims), prod(in_dims))
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for cut in range(len(out_dims)):
        got = matricize(stack, cut, out_dims, in_dims)
        want = np.array([[matricize(m, cut, out_dims, in_dims) for m in row] for row in stack])
        assert np.array_equal(got, want)
    assert np.array_equal(matricize(stack[0, 0], 0, out_dims, in_dims), stack[0, 0].reshape(1, -1))
    with pytest.raises(UsageError):
        matricize(stack[..., :-1], 0, out_dims, in_dims)


# ---------------------------------------------------------------------------
# the purification check


@pytest.mark.parametrize("side, cols", [(256, 256), (512, 512), (300, 1), (6, 0), (64, 7)])
def test_gram_residual_is_the_residual_of_the_product(side, cols):
    # blocks of BLOCK_ENTRIES // side rows: one block at side 256, four at 512
    rng = np.random.default_rng(side + cols)
    factor = rng.normal(size=(side, cols)) + 1j * rng.normal(size=(side, cols))
    exact = factor @ factor.conj().T + 1e-9 * rand_psd(side, rng)
    got = tensor_core._gram_residual(factor, exact)
    assert abs(got - relative_residual(factor @ factor.conj().T, exact)) <= 1e-15


# ---------------------------------------------------------------------------
# numerical_rank / svd_split


def test_rank_threshold():
    assert numerical_rank(np.diag([1.0, 1e-15]), 1e-10) == 1


def test_rank_planted_outer_product():
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=5), rng.normal(size=5)
    assert numerical_rank(np.outer(u, v)) == 1


def test_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 4))) == 0


def test_rank_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.normal(size=(6, 6)) @ np.diag([3, 1, 0.5, 1e-14, 0, 0]) @ rng.normal(size=(6, 6))
        r = numerical_rank(m)
        u, v = rand_unitary(6, rng), rand_unitary(6, rng)
        assert numerical_rank(u @ m @ v) == r


def test_svd_split_planted_rank_one():
    rng = np.random.default_rng(6)
    m = np.outer(rng.normal(size=4), rng.normal(size=6))
    left, right, r = svd_split(m)
    assert r == 1
    assert np.linalg.norm(left @ right - m) <= 1e-10 * np.linalg.norm(m)


def test_svd_split_identity_full_rank():
    left, right, r = svd_split(np.eye(4))
    assert r == 4
    assert np.allclose(left @ right, np.eye(4))


def test_svd_split_zero():
    left, right, r = svd_split(np.zeros((3, 5)))
    assert r == 0 and left.shape == (3, 0) and right.shape == (0, 5)


def test_svd_split_rejects_a_bad_rel_tol_before_the_screen():
    # a well-conditioned split the screen would certify at any rel_tol
    with pytest.raises(UsageError):
        svd_split(np.eye(64, 128), rel_tol=0.0)


NON_FINITE = {
    # inf on the diagonal of an exactly Hermitian matrix: the eigvalsh route
    "inf-hermitian": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "inf": np.array([[np.inf, 1.0], [0.0, 1.0]]),
    "minus-inf": np.array([[1.0, 0.0], [-np.inf, 1.0]]),
    # LAPACK's SVD does not converge on a NaN entry
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "complex-nan": np.array([[1.0, 2.0], [complex(0.0, np.nan), 1.0]]),
}


@pytest.mark.parametrize("a", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_a_non_finite_matrix_has_no_rank(a):
    # numerical_rank returned 0 for inf, and NaN raised numpy's LinAlgError
    with pytest.raises(UsageError):
        numerical_rank(a)
    with pytest.raises(UsageError):
        svd_split(a)
    for wide_or_tall in (np.hstack([a, a]), np.vstack([a, a])):
        with pytest.raises(UsageError):
            svd_split(wide_or_tall)
    stack = np.stack([np.eye(2), a, np.eye(2)])
    with pytest.raises(UsageError):
        stacked_numerical_rank(stack)


def test_a_non_finite_member_fails_the_screen_and_the_stack_has_no_rank():
    # above SCREEN_MIN_ENTRIES, so the screen sees the stack first
    rng = np.random.default_rng(43)
    for bad in (np.nan, np.inf):
        stack = rng.standard_normal((8, 16, 64))
        stack[5, 3, 7] = bad
        assert stack.size >= tensor_core.SCREEN_MIN_ENTRIES
        assert not tensor_core._full_rank_screen(stack, 1e-10)
        with pytest.raises(UsageError):
            stacked_numerical_rank(stack)
        with pytest.raises(UsageError):
            svd_split(stack[5].T @ stack[5])


# ---------------------------------------------------------------------------
# the full-rank screen of svd_split


@st.composite
def planted_spectrum(draw):
    """A matrix of planted singular values, up to 64 x 256 either way round,
    with its rel_tol: a smallest singular value at 0.1x to 10x rel_tol of
    the largest, exact zeros, or zero rows, real or complex."""
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 256))
    rel_tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    kind = draw(st.sampled_from(["generic", "edge", "zeros", "zero_rows"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    is_complex = draw(st.booleans())

    def isometry(dim, k):
        x = rng.standard_normal((dim, k)) + (1j * rng.standard_normal((dim, k)) if is_complex else 0)
        return np.linalg.qr(x)[0]

    k = min(rows, cols)
    s = rng.uniform(0.1, 1.0, k)
    s[0] = 1.0
    if kind == "edge" and k > 1:
        s[-1] = rel_tol * draw(st.floats(-1.0, 1.0).map(lambda e: 10.0**e))
    elif kind == "zeros" and k > 1:
        s[k - draw(st.integers(1, k - 1)):] = 0.0
    a = (isometry(rows, k) * s) @ isometry(cols, k).conj().T
    if kind == "zero_rows":
        a[rng.choice(rows, draw(st.integers(1, rows)), replace=False)] = 0.0
    return (a.T if draw(st.booleans()) else a), rel_tol


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(planted_spectrum())
@example((np.ones((1, 1)), 1e-10))
@example((np.diag([1.0, 2e-10]), 1e-10))
def test_full_rank_screen_is_sound(monkeypatch, case):
    a, rel_tol = case
    monkeypatch.setattr(tensor_core, "SCREEN_MIN_ENTRIES", 0)
    if not tensor_core._full_rank_screen(np.asarray(a, dtype=complex), rel_tol):
        return
    k = min(a.shape)
    assert numerical_rank(a, rel_tol) == k
    left, right, r = svd_split(a, rel_tol)
    assert r == k
    assert np.linalg.norm(left.conj().T @ left - np.eye(k)) <= 1e-12
    assert np.linalg.norm(left @ right - a) <= 1e-12 * np.linalg.norm(a)
    s = np.linalg.svd(a, compute_uv=False)
    assert np.abs(np.linalg.svd(right, compute_uv=False) - s).max() <= 1e-12 * s[0]


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6, 1e-3])
@pytest.mark.parametrize("shape", [(1, 1), (4, 256), (64, 64), (256, 16)])
def test_full_rank_screen_certifies_a_well_conditioned_matrix(rel_tol, shape):
    rng = np.random.default_rng(shape)
    q = np.linalg.qr(rng.standard_normal((max(shape), min(shape))))[0]
    a = q * np.linspace(1.0, 0.5, min(shape))
    a = a if shape[0] >= shape[1] else a.T
    assert tensor_core._full_rank_screen(np.asarray(a, dtype=complex), rel_tol)


def test_full_rank_screen_refuses_the_zero_and_non_finite_matrices():
    for a in (np.zeros((64, 64)), np.full((64, 64), np.nan), np.full((64, 64), 1e300)):
        assert not tensor_core._full_rank_screen(np.asarray(a, dtype=complex), 1e-10)


def test_full_rank_sweep_takes_no_svd_and_no_qr(monkeypatch):
    # a random 7-qubit operator has full rank at every cut, and the sweep
    # hands every cut over from its wide side with the whole remainder, so
    # every split, the end ones included, is 4^c x 4^(7-c) (c <= 3): 16384
    # entries, above the screen's floor, and each passes the screen
    rng = np.random.default_rng(7)
    op = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    calls = []
    svd, qr = np.linalg.svd, np.linalg.qr

    def counting_svd(a, *args, **kwargs):
        calls.append(("svd", np.shape(a)))
        return svd(a, *args, **kwargs)

    def counting_qr(a, *args, **kwargs):
        calls.append(("qr", np.shape(a)))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    assert tensor_core.SCREEN_MIN_ENTRIES == 4096
    train, osr = mpo_train_form(op, (2,) * 7)
    assert train.bond_dims == tuple(min(4**cut, 4 ** (7 - cut)) for cut in range(1, 7))
    assert osr == 64
    assert calls == []
    assert relative_residual(contract_train(train), op) <= 1e-12


def test_rank_deficient_sweep_keeps_the_svd_ranks():
    # every cut of the mixed W operator is rank-deficient, so the screen fails
    rho, _ = mixed_w_generator(8)
    train, _ = mpo_train_form(rho)
    oracle = []
    for cut in range(1, 8):
        s = np.linalg.svd(matricize(rho, cut), compute_uv=False)
        oracle.append(int(np.count_nonzero(s > 1e-10 * s[0])))
    assert train.bond_dims == tuple(oracle)
    assert all(r < min(4**cut, 4 ** (8 - cut)) for cut, r in enumerate(oracle, 1))


def planted_singular_values(shape, s, rng, is_complex=True):
    """A matrix of ``shape`` with singular values ``s`` (min(shape) of them)."""
    rows, cols = shape
    k = min(shape)

    def isometry(dim):
        x = rng.standard_normal((dim, k)) + (1j * rng.standard_normal((dim, k)) if is_complex else 0)
        return np.linalg.qr(x)[0]

    return (isometry(rows) * s) @ isometry(cols).conj().T


def screen_margin_case(shape, factor, rel_tol, rng, is_complex=True):
    """A matrix whose smallest squared singular value is ``factor`` times the
    screen's shift tau: the screen passes it for factor > 1 and fails it for
    factor < 1, far from the rounding of either Gram sum when rel_tol is large."""
    size, length = min(shape), max(shape)
    eps = np.finfo(float).eps
    c = 4 * rel_tol**2 + tensor_core.SCREEN_ROUNDOFF * (length + size + 2) * eps
    s = rng.uniform(0.5, 1.0, size)
    rest = float(np.sum(s[:-1] ** 2))
    s[-1] = np.sqrt(factor * c * rest / (1 - factor * c))  # s_min^2 = factor * c * tr(G)
    return planted_singular_values(shape, s, rng, is_complex)


@pytest.mark.parametrize("shape", [(8, 4096), (4096, 8), (64, 2048), (3, 50000)])
@pytest.mark.parametrize("is_complex", [True, False])
def test_blocked_and_unblocked_screens_decide_alike(monkeypatch, shape, is_complex):
    # G summed over column (row) blocks against one product of the whole
    # matrix: the same decision on full-rank, rank-deficient and near-margin
    # matrices, the margin cases at 1e-4 of the shift either way
    rng = np.random.default_rng(shape)
    k = min(shape)
    s_deficient = rng.uniform(0.5, 1.0, k)
    s_deficient[k // 2 :] = 0.0
    cases = [
        (planted_singular_values(shape, rng.uniform(0.5, 1.0, k), rng, is_complex), 1e-10, True),
        (planted_singular_values(shape, s_deficient, rng, is_complex), 1e-10, False),
        (screen_margin_case(shape, 1 + 1e-4, 1e-3, rng, is_complex), 1e-3, True),
        (screen_margin_case(shape, 1 - 1e-4, 1e-3, rng, is_complex), 1e-3, False),
    ]
    for a, rel_tol, expected in cases:
        decisions = []
        for block in (2**40, tensor_core.BLOCK_ENTRIES, 2**10):
            monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", block)
            decisions.append(tensor_core._full_rank_screen(a, rel_tol))
        assert decisions == [expected] * 3


@pytest.mark.parametrize("shape", [(4, 2**16), (16, 4, 4096), (16, 4096, 4)])
def test_full_rank_screen_copies_one_block_not_the_matrix(traced_memory, shape):
    # the conjugate of a 4 x 65536 split was a copy as large as the split;
    # a stack's blocks count the entries of all its matrices
    rng = np.random.default_rng(40)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    with traced_memory() as mem:
        assert tensor_core._full_rank_screen(a, 1e-10)
    assert a.size >= 4 * tensor_core.BLOCK_ENTRIES
    assert mem.peak - mem.base < 0.3 * a.nbytes


#: Members of a stack for the stacked screen, with whether each passes it on
#: its own: singular values in [0.5, 1]; some of them zero; the zero matrix;
#: one NaN or infinite entry; a smallest squared singular value at 1 +- 1e-4
#: of the shift (rel_tol = 1e-3 and two singular values or more only, far
#: from the rounding of the Gram sums).
MEMBER_PASSES = {"full": True, "deficient": False, "zero": False, "nan": False, "inf": False,
                 "above": True, "below": False}


def stack_member(kind, shape, rel_tol, rng, is_complex):
    k = min(shape)
    if kind in ("above", "below"):
        return screen_margin_case(shape, 1 + 1e-4 if kind == "above" else 1 - 1e-4, rel_tol, rng, is_complex)
    s = rng.uniform(0.5, 1.0, k)
    if kind == "zero":
        s[:] = 0.0
    elif kind == "deficient":
        s[rng.integers(k) :] = 0.0  # at least the smallest
    a = planted_singular_values(shape, s, rng, is_complex)
    if kind in ("nan", "inf"):
        a[tuple(rng.integers(shape))] = np.nan if kind == "nan" else -np.inf
    return a


@st.composite
def planted_stack(draw):
    """A ``(count, rows, cols)`` stack of :func:`stack_member` kinds, mostly
    full rank, with its rel_tol and the kinds."""
    shape = draw(st.integers(1, 24)), draw(st.integers(1, 48))
    shape = shape if draw(st.booleans()) else shape[::-1]
    rel_tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    margins = rel_tol == 1e-3 and min(shape) > 1  # a 1 x 1 matrix has no margin below its largest
    kinds = ["full", "deficient", "zero", "nan", "inf"] + (["above", "below"] if margins else [])
    mostly_full = st.sampled_from(["full"] * len(kinds) + kinds)
    members = draw(st.lists(mostly_full, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    is_complex = draw(st.booleans())
    stack = np.stack([stack_member(kind, shape, rel_tol, rng, is_complex) for kind in members])
    return stack, rel_tol, members


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(planted_stack())
def test_stacked_screen_is_sound_against_the_svd(monkeypatch, case):
    stack, rel_tol, members = case
    passed = tensor_core._full_rank_screen(stack, rel_tol)
    # a full-rank member passes on its own, and the stack passes only when every member does
    assert passed == all(MEMBER_PASSES[kind] for kind in members)
    if not passed:
        return
    k = min(stack.shape[1:])
    for member in stack:
        s = np.linalg.svd(member, compute_uv=False)
        assert np.count_nonzero(s > rel_tol * s[0]) == k
    monkeypatch.setattr(tensor_core, "SCREEN_MIN_ENTRIES", 0)
    assert stacked_numerical_rank(stack, rel_tol).tolist() == [k] * len(members)


@pytest.mark.parametrize("shape", [(6, 8, 512), (6, 512, 8), (3, 64, 256), (40, 3, 50), (1, 8, 4096)])
@pytest.mark.parametrize("is_complex", [True, False])
def test_blocked_and_unblocked_stacked_screens_decide_alike(monkeypatch, shape, is_complex):
    # Gram matrices summed over long-side blocks of the whole stack against
    # one product per matrix, down to one column (row) per block: the same
    # decision on full-rank stacks, stacks with one deficient member and
    # stacks whose members sit at 1e-4 of the shift either way
    rng = np.random.default_rng(shape)
    count, size = shape[0], shape[1:]

    def stack_of(kinds, rel_tol):
        return np.stack([stack_member(kind, size, rel_tol, rng, is_complex) for kind in kinds])

    one = count // 2
    cases = [
        (stack_of(["full"] * count, 1e-10), 1e-10, True),
        (stack_of(["full"] * one + ["deficient"] + ["full"] * (count - one - 1), 1e-10), 1e-10, False),
        (stack_of(["above"] * count, 1e-3), 1e-3, True),
        (stack_of(["above"] * one + ["below"] + ["above"] * (count - one - 1), 1e-3), 1e-3, False),
    ]
    for stack, rel_tol, expected in cases:
        decisions = []
        for block in (2**40, tensor_core.BLOCK_ENTRIES, 2**10, 1):
            monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", block)
            decisions.append(tensor_core._full_rank_screen(stack, rel_tol))
        assert decisions == [expected] * 4
        assert [tensor_core._full_rank_screen(member, rel_tol) for member in stack].count(False) == (not expected)


def test_a_screened_stack_is_ranked_with_no_svd(monkeypatch):
    rng = np.random.default_rng(45)
    stack = rng.standard_normal((64, 16, 64)) + 1j * rng.standard_normal((64, 16, 64))
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert stacked_numerical_rank(stack).tolist() == [16] * 64
    assert stacked_numerical_rank(np.swapaxes(stack, 1, 2)).tolist() == [16] * 64
    assert calls == []
    # one rank-deficient member sends the whole stack to one batched SVD
    stack[9, 15] = stack[9, 14]
    assert stacked_numerical_rank(stack).tolist() == [16] * 9 + [15] + [16] * 54
    assert calls == [stack.shape]
    # below SCREEN_MIN_ENTRIES in all, no screen is tried
    monkeypatch.setattr(tensor_core, "_full_rank_screen", None)
    assert stacked_numerical_rank(stack[:3, :8, :8]).tolist() == [8, 8, 8]
    assert stack[:3, :8, :8].size < tensor_core.SCREEN_MIN_ENTRIES


# tooling guard: one Cholesky, in the one screen, behind the two rankers

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdo_kit"

#: Callee -> the only ``(module, function)`` places allowed to call it.
SCREEN_CALLERS = {
    "cholesky": {("tensor_core", "_full_rank_screen")},
    "_full_rank_screen": {("tensor_core", "svd_split"), ("tensor_core", "stacked_numerical_rank")},
}


def screen_calls(source: str, module: str):
    """``(module, enclosing function path, callee)`` of every call to a name of ``SCREEN_CALLERS``."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SCREEN_CALLERS:
                    found.append((module, ".".join(path) or "<module>", name))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_only_the_screen_factors_and_only_the_rankers_screen():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(screen_calls(path.read_text(encoding="utf-8"), path.stem))
    # no call elsewhere, and each allowed caller does call
    assert found == {(module, function, name) for name, places in SCREEN_CALLERS.items() for module, function in places}


def test_screen_guard_flags_calls_outside_their_places():
    source = (
        "def _full_rank_screen(a):\n"
        "    return np.linalg.cholesky(a)\n"
        "def svd_split(a):\n"
        "    return _full_rank_screen(a)\n"
        "def numerical_rank(a):\n"
        "    def inner():\n"
        "        return cholesky(a)\n"
        "    return tensor_core._full_rank_screen(a)\n"
        "cholesky_like(a)\n"
    )
    found = screen_calls(source, "tensor_core")
    assert [(function, name) for module, function, name in found if (module, function) not in SCREEN_CALLERS[name]] == [
        ("numerical_rank.inner", "cholesky"),
        ("numerical_rank", "_full_rank_screen"),
    ]


def test_full_rank_sweep_records_every_cut_screened_and_reproduces_its_input():
    rng = np.random.default_rng(41)
    op = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    train, _ = mpo_train_form(op, (2,) * 7)
    assert train.screened == (True,) * 6
    assert np.array_equal(contract_train(train), op)
    # one site has no cut and is its own core
    train, _ = mpo_train_form(op, (128,))
    assert train.screened == () and np.array_equal(contract_train(train), op)


def test_rank_deficient_and_small_sweeps_record_their_svd_cuts():
    rho, _ = mixed_w_generator(8)
    assert mpo_train_form(rho)[0].screened == (False,) * 7
    # a 4-qubit operator's splits are below SCREEN_MIN_ENTRIES
    op = rand_psd(16, np.random.default_rng(42))
    assert mpo_train_form(op, (2,) * 4)[0].screened == (False,) * 3
    assert MpoTrain((np.ones((1, 1, 1, 1)),)).screened is None


# ---------------------------------------------------------------------------
# contraction


def test_contract_identity_train():
    cores = tuple(np.eye(2).reshape(1, 2, 2, 1) for _ in range(3))
    assert np.allclose(contract_train(MpoTrain(cores)), np.eye(8))


def test_contract_two_site_bond2_separable_form():
    # bond-2 train of projectors onto |+> and |->: reproduces the
    # two-site flip-symmetric operator at a positive scale
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    c1 = np.zeros((1, 2, 2, 2))
    c1[0, :, :, 0] = np.outer(plus, plus)
    c1[0, :, :, 1] = np.outer(minus, minus)
    c2 = np.zeros((2, 2, 2, 1))
    c2[0, :, :, 0] = np.outer(plus, plus)
    c2[1, :, :, 0] = np.outer(minus, minus)
    got = contract_train(MpoTrain((c1, c2)))
    target = (np.eye(4) + kron_chain([SX, SX])) / 2.0
    # scale-free comparison: positive multiple
    scale = np.trace(got.conj().T @ target).real / np.linalg.norm(target) ** 2
    assert scale > 0
    assert np.linalg.norm(got - scale * target) <= 1e-12 * np.linalg.norm(target)


def test_contract_bond_mismatch_rejected():
    c1 = np.zeros((1, 2, 2, 2))
    c2 = np.zeros((3, 2, 2, 1))
    with pytest.raises(UsageError):
        MpoTrain((c1, c2))


def test_boundary_bond_must_be_one():
    with pytest.raises(UsageError):
        MpoTrain((np.zeros((2, 2, 2, 1)),))


def test_contract_cyclic_product_case():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    site = TiSiteTensor(a.reshape(1, 2, 2, 1))
    for n in (1, 2, 3):
        assert np.allclose(contract_cyclic(site, n), kron_chain([a] * n))


def rand_cores(rng, out_dims, in_dims, bonds):
    """Random complex cores with the given legs and internal bonds, boundary bonds 1."""
    edges = (1,) + tuple(bonds) + (1,)
    return tuple(
        rng.normal(size=(edges[k], do, di, edges[k + 1]))
        + 1j * rng.normal(size=(edges[k], do, di, edges[k + 1]))
        for k, (do, di) in enumerate(zip(out_dims, in_dims))
    )


def einsum_contract_train(cores):
    """Reference open-train contraction by np.einsum, one bond at a time."""
    cur = cores[0][0]
    for core in cores[1:]:
        cur = np.einsum("ijb,bklc->ikjlc", cur, core)
        cur = cur.reshape(cur.shape[0] * cur.shape[1], cur.shape[2] * cur.shape[3], cur.shape[4])
    return cur[:, :, 0]


def einsum_contract_cyclic(t, n):
    """Reference cyclic contraction by np.einsum, closed by an einsum trace."""
    cur = t
    for _ in range(n - 1):
        cur = np.einsum("aijb,bklc->aikjlc", cur, t)
        s = cur.shape
        cur = cur.reshape(s[0], s[1] * s[2], s[3] * s[4], s[5])
    return np.einsum("aija->ij", cur)


@pytest.mark.parametrize(
    "out_dims, in_dims, bonds",
    [
        ((3,), (2,), ()),
        ((2,), (1,), ()),
        ((2, 3), (3, 1), (4,)),
        ((2, 3, 2), (1, 2, 3), (3, 5)),
        ((3, 2, 2, 2), (2, 2, 1, 3), (2, 4, 3)),
        ((2, 2, 2), (2, 2, 2), (1, 1)),
    ],
)
def test_contract_train_matches_einsum_oracle(out_dims, in_dims, bonds):
    rng = np.random.default_rng(sum(bonds) + len(out_dims))
    cores = rand_cores(rng, out_dims, in_dims, bonds)
    want = einsum_contract_train(cores)
    got = contract_train(MpoTrain(cores))
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("shape", [(1, 2, 3, 1), (3, 2, 1, 3), (2, 3, 2, 2), (4, 1, 2, 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contract_cyclic_matches_einsum_oracle(shape, n):
    rng = np.random.default_rng(n)
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = einsum_contract_cyclic(t, n)
    got = contract_cyclic(TiSiteTensor(t), n)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("shape", [(1, 2, 3, 1), (3, 2, 1, 3), (2, 3, 2, 2), (5, 1, 1, 5)])
def test_transfer_matrix_matches_einsum_oracle(shape):
    rng = np.random.default_rng(shape[0])
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    d = shape[0]
    want = np.einsum("aijb,cijd->acbd", t, t.conj()).reshape(d * d, d * d)
    got = transfer_matrix(TiSiteTensor(t))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_cyclic_shift_defect():
    rng = np.random.default_rng(8)
    a = rand_psd(2, rng)
    sym = kron_chain([a, a, a])
    assert cyclic_shift_defect(sym, (2, 2, 2)) < 1e-15
    asym = kron_chain([a, rand_psd(2, rng), a])
    assert cyclic_shift_defect(asym, (2, 2, 2)) > 1e-3


# ---------------------------------------------------------------------------
# PsdOperator ingestion


def test_operator_symmetrization_warning():
    data = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.warns(UserWarning):
        op = PsdOperator(SiteSpec((2,)), data)
    assert np.allclose(op.data, 0.5 * (data + data.T))


def test_operator_shape_validation():
    with pytest.raises(UsageError):
        PsdOperator(SiteSpec((2, 2)), np.eye(3))


#: 8 qubits: one complex operator is 256 * 256 * 16 bytes = 1 MiB.
EIGHT_QUBITS = SiteSpec((2,) * 8)


def test_operator_ingestion_takes_one_buffer_beside_its_result(traced_memory):
    # the symmetrized copy (1 MiB) plus one transient real |X - X^dag| (0.5
    # MiB); a conjugate, a difference and a sum apiece peaked at ~2.1 MiB
    x = rand_psd(256, np.random.default_rng(30))
    x[3, 7] += 1e-13  # a defect below HERM_TOL, so no warning
    with traced_memory() as mem:
        op = PsdOperator(EIGHT_QUBITS, x)
    assert mem.peak < 1.6 * x.nbytes
    assert op.data.flags.c_contiguous and not op.data.flags.writeable
    assert np.array_equal(op.data, 0.5 * (x + x.conj().T))


def test_operator_ingestion_is_bit_identical_to_the_symmetrized_sum():
    rng = np.random.default_rng(31)
    for x in (
        rng.normal(size=(6, 6)),
        np.asfortranarray(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))),
        rand_psd(6, rng)[:, ::-1][::-1],
    ):
        with pytest.warns(UserWarning) if not np.allclose(x, x.conj().T) else nullcontext():
            op = PsdOperator(SiteSpec((6,)), x)
        assert op.data.flags.c_contiguous
        assert op.data.tobytes() == (0.5 * (x + x.conj().T)).astype(complex).tobytes()


def test_is_diagonal_copies_the_operator_once(traced_memory):
    rng = np.random.default_rng(32)
    op = PsdOperator(EIGHT_QUBITS, np.diag(rng.uniform(0.5, 2.0, 256)))
    with traced_memory() as mem:
        diagonal = is_diagonal(op)
    assert diagonal
    assert mem.peak < 1.25 * op.data.nbytes


def copied_is_diagonal(data) -> bool:
    """The predicate on a whole copy of the operator with its diagonal zeroed."""
    off = np.array(data, dtype=complex)
    np.fill_diagonal(off, 0)
    return float(np.linalg.norm(off) / max(np.linalg.norm(data), 1e-300)) <= tensor_core.DIAG_TOL


@pytest.mark.parametrize("side", [3, 64, 512])
@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6, 0.5, 2.0])
def test_is_diagonal_matches_the_copied_predicate_at_the_margin(side, factor):
    # the off-diagonal mass at DIAG_TOL x factor of the norm, all of it in
    # the last row, where the block-wise sum reaches it last
    rng = np.random.default_rng(side)
    d = np.diag(rng.uniform(0.5, 2.0, side)).astype(complex)
    t = factor * tensor_core.DIAG_TOL
    off = t * np.linalg.norm(d) / np.sqrt(1 - t**2)  # of the norm of d plus the entry
    x = d.copy()
    x[-1, 0] = off
    assert is_diagonal(x) == copied_is_diagonal(x) == (factor < 1)
    spread = d + off / side * np.exp(2j * np.pi * rng.uniform(size=(side, side))) * (1 - np.eye(side))
    assert is_diagonal(spread) == copied_is_diagonal(spread)


def test_is_diagonal_copies_a_block_of_a_nine_qubit_operator(traced_memory):
    rng = np.random.default_rng(33)
    op = PsdOperator(SiteSpec((2,) * 9), np.diag(rng.uniform(0.5, 2.0, 512)))
    with traced_memory() as mem:
        assert is_diagonal(op)
    assert mem.peak - mem.base < 0.3 * op.data.nbytes


def test_is_diagonal_is_the_relative_off_diagonal_mass():
    d = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert is_diagonal(d) and is_diagonal(np.zeros((3, 3)))
    for off, expected in ((1e-13, True), (1e-11, False)):
        x = d.copy()
        x[0, 2] = x[2, 0] = off * np.linalg.norm(d)
        # off-diagonal mass sqrt(2) * off of the norm, against DIAG_TOL = 1e-12
        assert is_diagonal(x) == expected
        assert np.array_equal(x[[0, 2], [2, 0]], [off * np.linalg.norm(d)] * 2)


def test_psd_assertion():
    op = PsdOperator(SiteSpec((2,)), np.diag([1.0, -0.5]))
    assert not op.is_psd()
    with pytest.raises(UsageError):
        op.assert_psd()


# ---------------------------------------------------------------------------
# shared predicates


def test_nonzero_mask_is_relative_to_the_largest_value():
    # 2e-10 sits exactly at the cutoff 1e-10 * 2 and does not count
    assert nonzero_mask([2.0, 2e-10, 4e-10, 0.0]).tolist() == [True, False, True, False]
    assert not nonzero_mask(np.zeros(3)).any()
    assert not nonzero_mask([-1.0, -2.0]).any()
    # a stack is judged row by row
    assert nonzero_mask([[1.0, 1e-11], [1e-11, 1e-22]]).tolist() == [[True, False], [True, False]]
    with pytest.raises(UsageError):
        nonzero_mask([1.0], rel_tol=1.0)


def test_is_symmetric_is_relative_and_needs_a_square():
    assert is_symmetric(np.array([[1.0, 2.0], [2.0 + 1e-11, 1.0]]))
    assert not is_symmetric(np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]))
    assert not is_symmetric(np.ones((2, 3)))
    assert is_symmetric(np.zeros((2, 2)))


def test_psd_spectrum_guard_and_clip():
    assert is_psd_spectrum([1.0, -1e-11])
    assert not is_psd_spectrum([1.0, -1e-9])
    assert not is_psd_spectrum([-1.0, 0.0])
    assert is_psd_spectrum(np.zeros(2))
    assert clip_psd_spectrum(np.array([1.0, -1e-11])).tolist() == [1.0, 0.0]
    with pytest.raises(UsageError, match="core is materially non-psd"):
        clip_psd_spectrum(np.array([1.0, -1e-9]), what="core")


def test_psd_gram_factor_gives_gram_vectors_and_the_psd_root():
    x = rand_psd(3, np.random.default_rng(21), rank=2)
    h, v = psd_gram_factor(x)
    assert np.allclose(h @ h.conj().T, x)
    root = h @ v.conj().T
    assert np.allclose(root, root.conj().T)
    assert np.allclose(root @ root, x)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("stack", [(1,), (5,), (2, 3)], ids=str)
def test_psd_gram_factor_of_a_stack_is_its_per_matrix_results(stack, dtype):
    rng = np.random.default_rng(22)
    g = rng.normal(size=stack + (4, 2))
    if dtype is complex:
        g = g + 1j * rng.normal(size=g.shape)
    x = g @ np.conj(g).swapaxes(-1, -2)  # rank 2: the clip meets round-off below 0
    x[(0,) * len(stack)] += 0.5 * np.eye(4)
    h, v = psd_gram_factor(x)
    assert h.shape == v.shape == x.shape
    for idx in np.ndindex(stack):
        hi, vi = psd_gram_factor(x[idx])
        assert h[idx].dtype == hi.dtype and np.array_equal(h[idx], hi) and np.array_equal(v[idx], vi)


def test_psd_gram_factor_tests_each_matrix_of_a_stack_on_its_own_scale():
    # -1 is material against the 1 of its own matrix, not against the 1e12 of the other
    x = np.stack([np.diag([1e12, 0.0]), np.diag([1.0, -1.0])])
    with pytest.raises(UsageError, match="matrix is materially non-psd"):
        psd_gram_factor(x)
    assert not is_psd_spectrum(np.array([[1e12, 0.0], [1.0, -1.0]]))
    assert is_psd_spectrum(np.array([[1e12, 0.0], [1.0, -1e-11]]))


def test_relative_residual_overwrites_only_a_writable_approx_of_the_result_dtype():
    rng = np.random.default_rng(33)
    exact = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    approx = exact + 1e-3 * rng.normal(size=(5, 5))
    expected = relative_residual(approx, exact)
    owned = approx.copy()
    assert relative_residual(owned, exact, overwrite_approx=True) == expected
    assert np.array_equal(owned, approx - exact)
    frozen = approx.copy()
    frozen.setflags(write=False)
    assert relative_residual(frozen, exact, overwrite_approx=True) == expected
    assert np.array_equal(frozen, approx)
    real = approx.real.copy()
    assert relative_residual(real, exact, overwrite_approx=True) == relative_residual(approx.real, exact)
    assert np.array_equal(real, approx.real)


def test_relative_residual_of_the_zero_matrix_is_zero():
    assert relative_residual(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert relative_residual(np.array([3.0, 4.0]), np.array([0.0, 0.0])) > 1.0

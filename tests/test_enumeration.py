"""Exhaustive cross-check of the chunked sign-enumeration engine.

The reference below is the plain per-pattern loop: every pattern of
{+1, -1}^k in ``itertools.product`` order, no pinned sign, one
``numerical_rank`` per candidate, first minimizer kept, stop at rank <= 1.
The engine ranks stacked chunks and only one pattern per orbit of a flip
group: the global flip everywhere, the row and column flips in
``sqrt_rank`` and the per-site flips on the diagonal path of
``q_sqrt_rank``.  Past the first chunk it ranks a pattern's later stacks
only while the pattern is still below the best rank.  Rank and pattern
must still match exactly.
"""

import functools
import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdo_kit import tensor_core
from mpdo_kit.certificates import check_factor_certificate
from mpdo_kit.correspondence import diag_embed
from mpdo_kit.decompositions import operator_schmidt_rank, q_sqrt_rank
from mpdo_kit.nonneg_factorizations import cpsdt_construct, sqrt_rank
from mpdo_kit.tensor_core import (
    PsdOperator,
    SignBudgetError,
    SiteSpec,
    UsageError,
    min_rank_sign_pattern,
    numerical_rank,
    stacked_numerical_rank,
)


def reference_min(k, rank_of):
    best = None
    for signs in itertools.product((1, -1), repeat=k):
        rank = rank_of(np.array(signs, dtype=int))
        if best is None or rank < best[0]:
            best = (rank, signs)
            if rank <= 1:
                break
    return best


def reference_sqrt(m):
    # the nonzero rule: entries above 1e-10 of the largest
    nz = np.argwhere(m > 1e-10 * m.max(initial=0.0))

    def root(signs):
        out = np.zeros(m.shape)
        for (i, j), s in zip(nz, signs):
            out[i, j] = s * np.sqrt(m[i, j])
        return out

    rank, signs = reference_min(len(nz), lambda s: numerical_rank(root(s)))
    pattern = np.zeros(m.shape, dtype=int)
    for (i, j), s in zip(nz, signs):
        pattern[i, j] = s
    return rank, pattern


def reference_cpsdt_root(m):
    cut = 1e-10 * m.max(initial=0.0)
    upper = [(i, j) for i in range(m.shape[0]) for j in range(i, m.shape[0]) if m[i, j] > cut]

    def root(signs):
        out = np.zeros(m.shape)
        for (i, j), s in zip(upper, signs):
            out[i, j] = out[j, i] = s * np.sqrt(m[i, j])
        return out

    _, signs = reference_min(len(upper), lambda s: numerical_rank(root(s)))
    return root(signs)


def reference_q_sqrt_diagonal(values, dims):
    top = values.max(initial=0.0)
    keep = np.flatnonzero(values > 1e-10 * top) if top > 0 else np.array([], int)
    roots = np.sqrt(values[keep])

    def rank_of(signs):
        full = np.zeros(values.size)
        full[keep] = signs * roots
        if len(dims) == 1:
            return 1 if np.any(full) else 0
        return max(numerical_rank(full.reshape(prod(dims[:cut]), -1)) for cut in range(1, len(dims)))

    return reference_min(keep.size, rank_of)


def reference_q_sqrt_dense(rho, dims):
    w, v = np.linalg.eigh(rho)
    top = w.max(initial=0.0)
    w = np.clip(w, 0.0, None)
    keep = w > 1e-10 * top
    roots, vec = np.sqrt(w[keep]), v[:, keep]
    return reference_min(
        roots.size, lambda s: operator_schmidt_rank((vec * (s * roots)) @ vec.conj().T, dims)
    )


def sparse_matrix(rng, shape, k):
    m = np.zeros(shape)
    m.flat[rng.choice(m.size, k, replace=False)] = rng.uniform(0.25, 4.0, k)
    return m


#: Entrywise square of a rank-2 matrix with mixed signs: the all-positive
#: root has rank 3, and the first rank-2 root is pinned pattern 18 of 256.
LATE = np.array([[1.0, 2.0, 1.0], [2.0, -1.0, 3.0], [1.0, 3.0, -2.0]]) ** 2

#: Symmetric counterpart: rank 3 for the positive root, 2 with one minus sign.
LATE_SYMMETRIC = np.array([[1.0, 1.0, 2.0], [1.0, -1.0, 0.0], [2.0, 0.0, 2.0]]) ** 2


@pytest.fixture(params=[1, 40, None], ids=["chunk1", "chunk40", "default"])
def chunk_entries(request, monkeypatch):
    """Shrink the chunk so instances span several chunks, the last one partial."""
    if request.param is not None:
        monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", request.param)


# ---------------------------------------------------------------------------
# the engine on its own


def test_stacked_rank_matches_numerical_rank():
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(12, 5, 4)) + 1j * rng.normal(size=(12, 5, 4))
    stack[3] = 0.0
    stack[4] = np.outer(stack[4][:, 0], stack[4][0])
    stack[5, :, 2:] = 0.0
    got = stacked_numerical_rank(stack)
    assert got.tolist() == [numerical_rank(x) for x in stack]
    assert stacked_numerical_rank(np.zeros((3, 0, 4))).tolist() == [0, 0, 0]
    with pytest.raises(UsageError):
        stacked_numerical_rank(stack, rel_tol=1.0)


def svd_ranks(stack, rel_tol=1e-10):
    """The oracle: one SVD per member, ranked by the nonzero rule."""
    out = []
    for member in stack:
        s = np.linalg.svd(member, compute_uv=False)
        out.append(int(np.count_nonzero(s > rel_tol * s.max(initial=0.0))))
    return out


@pytest.fixture
def linalg_calls(monkeypatch):
    """Record ``(name, ndim)`` of every ``np.linalg.svd`` and ``eigvalsh`` call."""
    calls = []
    for name in ("svd", "eigvalsh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.ndim(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


#: Eigenvalues of the Hermitian stacks below relative to a member's largest,
#: +-1: kept ones down to 1.5x the nonzero rule's 1e-10, dropped ones up to
#: half of it, and zeros.
SPECTRUM_VALUES = (1.0, -1.0, 0.3, -2e-3, 1.5e-10, -4e-10, 5e-11, -3e-11, 0.0)


@settings(max_examples=200, deadline=None, database=None)
@given(
    size=st.integers(1, 6),
    count=st.integers(1, 4),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_hermitian_stack_ranks_match_the_svd(size, count, complex_, seed, data):
    # real-symmetric and complex-Hermitian members of random rank, the zero
    # matrix, 1 x 1, and kept eigenvalues near rel_tol, all on eigvalsh
    rng = np.random.default_rng(seed)
    stack = np.zeros((count, size, size), dtype=complex if complex_ else float)
    for member in stack:
        top = data.draw(st.sampled_from((0.0, 1.0, 1e-3, 1e6)))
        rest = data.draw(st.lists(st.sampled_from(SPECTRUM_VALUES), min_size=size - 1, max_size=size - 1))
        w = top * np.array([data.draw(st.sampled_from((1.0, -1.0)))] + rest)
        x = rng.normal(size=(size, size)) + (1j * rng.normal(size=(size, size)) if complex_ else 0)
        q, _ = np.linalg.qr(x)
        h = (q * w) @ q.conj().T
        member[...] = (h + h.conj().T) / 2  # exactly Hermitian
    expected = svd_ranks(stack)
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        real = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return real(a, *args, **kwargs)

        mp.setattr(np.linalg, "svd", spy)
        got = stacked_numerical_rank(stack).tolist()
    assert calls == []
    assert got == expected


def test_non_hermitian_stacks_stay_on_the_svd(linalg_calls):
    rng = np.random.default_rng(15)
    square = rng.normal(size=(5, 4, 4))
    sym = square + np.swapaxes(square, 1, 2)
    # one member off in one entry of one triangle, which eigvalsh would not read
    one_off = sym.copy()
    one_off[2, 0, 3] += 1.0
    # complex symmetric, not Hermitian
    csym = sym + 1j * sym
    hermitian = sym + 1j * (square - np.swapaxes(square, 1, 2))
    for stack, route in [(square, "svd"), (one_off, "svd"), (csym, "svd"), (sym, "eigvalsh"), (hermitian, "eigvalsh")]:
        expected = svd_ranks(stack)
        linalg_calls.clear()
        assert stacked_numerical_rank(stack).tolist() == expected
        assert linalg_calls == [(route, 3)]


def table_build(table, seen):
    """Candidates whose rank is read off ``table`` by pattern index."""
    k = int(np.log2(len(table))) + 1

    def build(signs):
        seen.append(len(signs))
        bits = (1 - signs) // 2
        idx = bits @ (1 << np.arange(k - 1, -1, -1))
        stack = np.zeros((len(signs), 4, 4))
        for c, i in enumerate(idx):
            stack[c, np.arange(table[i]), np.arange(table[i])] = 1.0
        return (stack,)

    return build, k


@pytest.mark.parametrize("chunk", [1, 3, 4, 5, 16, 64])
def test_engine_first_minimizer_across_chunks(monkeypatch, chunk):
    # 16 pinned patterns; the minimum 2 first appears at index 9 and again at 12
    table = [4, 3, 4, 3, 3, 4, 3, 3, 4, 2, 3, 4, 2, 3, 2, 4]
    monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", chunk * 16)
    seen = []
    build, k = table_build(table, seen)
    rank, signs = min_rank_sign_pattern(k, build, entries=16)
    assert rank == 2
    assert signs == (1, -1, 1, 1, -1)
    assert max(seen) <= chunk
    assert sum(seen) == 16


@pytest.mark.parametrize("chunk", [1, 3, 4, 7])
def test_engine_stops_after_the_chunk_reaching_rank_one(monkeypatch, chunk):
    table = [3, 2, 3, 2, 2, 1, 3, 1]
    monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", chunk * 16)
    seen = []
    build, k = table_build(table, seen)
    rank, signs = min_rank_sign_pattern(k, build, entries=16)
    assert (rank, signs) == (1, (1, -1, 1, -1))
    assert sum(seen) == min(-(-6 // chunk) * chunk, 8)


def test_engine_k0_ranks_the_single_empty_pattern():
    for pinned in (None, tensor_core._flip_pivots(0, [np.zeros(0, dtype=int)])):
        rank, signs = min_rank_sign_pattern(0, lambda s: (np.zeros((len(s), 2, 2)),), entries=4, pinned=pinned)
        assert (rank, signs) == (0, ())


# ---------------------------------------------------------------------------
# the engine's bound across stacks


def unbounded_reference(table, floor=1):
    """The global-flip walk over ``table[pattern][stack]`` ranks: every stack
    ranked, the first minimizer of the largest kept, stop at rank <= floor."""
    k = int(np.log2(len(table))) + 1
    best = None
    for index, row in enumerate(table):
        rank = max(row)
        if best is None or rank < best[0]:
            best = (rank, (1,) + tuple(1 - 2 * ((index >> np.arange(k - 2, -1, -1)) & 1)))
            if rank <= floor:
                break
    return best


def stacked_table_build(table, built):
    """A lazy build yielding one stack per column of ``table``; ``built``
    collects the index of each stack as it is built."""
    k = int(np.log2(len(table))) + 1
    table = np.array(table)

    def build(signs):
        idx = ((1 - signs[:, 1:]) // 2) @ (1 << np.arange(k - 2, -1, -1))
        for t in range(table.shape[1]):
            stack = np.zeros((len(signs), 4, 4))
            for c, i in enumerate(idx):
                stack[c, np.arange(table[i, t]), np.arange(table[i, t])] = 1.0
            built.append(t)
            yield stack

    return build, k


@pytest.fixture
def counted_ranks(monkeypatch):
    """Record the number of candidates each stacked rank call takes; a
    2-D matrix is no stack of candidates but a rank the walk's floor reads."""
    calls = []

    def counting(stack, rel_tol):
        if np.ndim(stack) == 3:
            calls.append(len(stack))
        return stacked_numerical_rank(stack, rel_tol)

    monkeypatch.setattr(tensor_core, "stacked_numerical_rank", counting)
    return calls


@settings(max_examples=300, deadline=None, database=None)
@given(
    k=st.integers(1, 6),
    stacks=st.integers(1, 4),
    chunk=st.integers(1, 4),
    floor=st.integers(1, 4),
    data=st.data(),
)
def test_bounded_walk_matches_the_unbounded_reference(k, stacks, chunk, floor, data):
    # ranks 0..4 over few values: ties, and stops at rank <= floor anywhere
    table = data.draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=stacks, max_size=stacks),
            min_size=2 ** (k - 1),
            max_size=2 ** (k - 1),
        )
    )
    # the same ranks raised to the floor: one no pattern ranks below, which
    # must leave the answer of the walk that stops only at rank <= 1
    certified = [[max(rank, floor) for rank in row] for row in table]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_core, "BLOCK_ENTRIES", chunk * 16)
        got = min_rank_sign_pattern(k, stacked_table_build(table, [])[0], entries=16, floor=floor)
        got_certified = min_rank_sign_pattern(k, stacked_table_build(certified, [])[0], entries=16, floor=floor)
    assert got == unbounded_reference(table, floor)
    assert got_certified == unbounded_reference(certified)


def test_later_stacks_of_a_chunk_are_ranked_only_below_the_best(counted_ranks, monkeypatch):
    # 16 patterns in chunks of 4; stack 0 reaches the best rank, 3, on every
    # pattern, so past the first chunk stacks 1 and 2 are not even built
    monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", 4 * 16)
    table = [[3, 2, 1]] * 16
    built = []
    build, k = stacked_table_build(table, built)
    assert min_rank_sign_pattern(k, build, entries=16) == (3, (1, 1, 1, 1, 1))
    assert built == [0, 1, 2] + [0] * 3
    assert counted_ranks == [4, 4, 4] + [4] * 3


def test_later_stacks_rank_the_patterns_still_below_the_best(counted_ranks, monkeypatch):
    # stack 1 lifts every pattern to 3; past the first chunk, stack 0 leaves
    # the odd patterns at 2, and only those reach stack 1
    monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", 4 * 16)
    table = [[3 if i % 2 == 0 else 2, 3] for i in range(16)]
    build, k = stacked_table_build(table, [])
    assert min_rank_sign_pattern(k, build, entries=16) == (3, (1, 1, 1, 1, 1))
    assert counted_ranks == [4, 4] + [4, 2] * 3


# ---------------------------------------------------------------------------
# orbit pinning


def walked_patterns(k, flips=None):
    """Every pattern the engine ranks, in order, pinned by the pivots of
    ``flips`` (None: the engine's default): all candidates have rank 2, so
    the walk never stops early."""
    seen = []

    def build(signs):
        seen.extend(map(tuple, signs.tolist()))
        return (np.tile(np.eye(2), (len(signs), 1, 1)),)

    pinned = None if flips is None else tensor_core._flip_pivots(k, flips)
    assert min_rank_sign_pattern(k, build, entries=4, pinned=pinned)[0] == 2
    return seen


def as_bits(k, patterns):
    """Patterns as ints, first sign most significant, -1 a set bit: int order is the walk order."""
    signs = np.array(patterns, dtype=int).reshape(len(patterns), k)
    return [int(b) for b in ((1 - signs) // 2) @ (1 << np.arange(k - 1, -1, -1))]


@pytest.mark.parametrize("seed", range(40))
def test_pinned_walk_meets_each_coset_once_at_its_lex_minimum(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 9))
    gens = rng.integers(0, 2, size=(int(rng.integers(0, 6)), k))
    span = {0}
    for g in as_bits(k, 1 - 2 * np.vstack([np.ones((1, k), dtype=int), gens])):
        span |= {s ^ g for s in span}
    minima = {min(v ^ s for s in span) for v in range(2**k)}
    walked = as_bits(k, walked_patterns(k, gens))
    assert walked == sorted(set(walked))
    assert set(walked) == minima
    assert len(walked) == 2**k // len(span)


@pytest.mark.parametrize("k", range(1, 6))
def test_no_flips_walks_the_global_flip_half(k):
    assert walked_patterns(k) == [(1,) + p for p in itertools.product((1, -1), repeat=k - 1)]


def test_redundant_and_zero_flips_change_nothing():
    rng = np.random.default_rng(7)
    gens = rng.integers(0, 2, size=(3, 8))
    extra = [np.zeros(8, dtype=int), gens[0] ^ gens[1], np.ones(8, dtype=int), gens[2]]
    assert walked_patterns(8, list(gens) + extra) == walked_patterns(8, gens)
    assert walked_patterns(8, [np.zeros(8, dtype=int), np.ones(8, dtype=int)]) == walked_patterns(8)


@pytest.mark.parametrize("flip", [[1, 0], [1, 0, 1, 1], [[1, 0, 1]], [0, 2, 1], [1, -1, 0]])
def test_malformed_flips_are_refused(flip):
    with pytest.raises(UsageError):
        tensor_core._flip_pivots(3, [flip])


def test_pinned_pivots_walk_as_their_flips():
    rng = np.random.default_rng(9)
    gens = list(rng.integers(0, 2, size=(3, 7)))
    pivots = tensor_core._flip_pivots(7, gens)
    # every pattern that is +1 at each pivot, in lexicographic order
    expected = [p for p in itertools.product((1, -1), repeat=7) if all(np.array(p)[pivots] == 1)]
    assert walked_patterns(7, gens) == expected
    with pytest.raises(UsageError, match="pinned must be a boolean mask of length 7"):
        min_rank_sign_pattern(7, lambda s: (np.zeros((len(s), 2, 2)),), entries=4, pinned=pivots[:6])


# ---------------------------------------------------------------------------
# the three callers against the plain loop


#: Three entries below the nonzero rule's cutoff: the root rank is 1, where
#: signs on all four entries would leave rank 2.
SUB_CUTOFF = np.array([[1.0, 1e-12], [1e-12, 1e-12]])


def sqrt_cases():
    rng = np.random.default_rng(1)
    cases = {
        "zero": np.zeros((3, 3)),
        "k1": np.array([[0.0, 2.0], [0.0, 0.0]]),
        "all-ones": np.ones((3, 3)),
        "tied-flip": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "tied-triangle": np.array([[1.0, 1.0], [1.0, 0.0]]),
        "late-minimizer": LATE,
        "sub-cutoff": SUB_CUTOFF,
    }
    for t in range(8):
        shape = tuple(rng.integers(2, 5, size=2))
        cases[f"random{t}"] = sparse_matrix(rng, shape, int(rng.integers(2, min(9, prod(shape)) + 1)))
    # supports whose bipartite graph has several components, zero rows or
    # columns, or a single row or column: the row and column flips pin
    # p + q - c signs (c components, a zero row or column being one)
    blocks = np.zeros((5, 5))
    blocks[:2, :3] = rng.uniform(0.25, 4.0, (2, 3))
    blocks[2:4, 3:] = rng.uniform(0.25, 4.0, (2, 2))
    blocks[4, 4] = 1.5
    cases["three-blocks"] = blocks
    late_blocks = np.zeros((5, 5))
    late_blocks[:3, :3] = LATE
    late_blocks[3:, 3:] = rng.uniform(0.25, 4.0, (2, 2))
    cases["late-minimizer-beside-a-block"] = late_blocks
    cases["zero-row"] = sparse_matrix(rng, (4, 3), 8) * (np.arange(4) != 2)[:, None]
    cases["zero-column"] = sparse_matrix(rng, (3, 4), 8) * (np.arange(4) != 0)
    zero_both = np.zeros((4, 4))
    zero_both[1:, :3] = rng.uniform(0.25, 4.0, (3, 3))
    cases["zero-row-and-column"] = zero_both
    cases["1x6"] = np.array([[1.0, 0.0, 2.0, 3.0, 0.5, 4.0]])
    cases["6x1"] = np.array([[0.0], [2.0], [1.0], [0.0], [3.0], [0.25]])
    cases["1x1"] = np.array([[2.0]])
    return cases


def support_components(mask):
    """Components of the bipartite graph of rows and columns joined by the support."""
    p, q = mask.shape
    parent = list(range(p + q))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(mask)):
        parent[find(i)] = find(p + j)
    return len({find(x) for x in range(p + q)})


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 5), (8, 13), (30, 20)])
@pytest.mark.parametrize("density", [0.0, 0.05, 0.2, 0.6, 1.0])
def test_component_count_matches_union_find(shape, density):
    # the labeller against the union-find oracle, empty rows and columns and
    # the zero mask included; a component is a node labelled by itself
    rng = np.random.default_rng(shape + (int(100 * density),))
    for _ in range(5):
        mask = rng.random(shape) < density
        mask[rng.integers(shape[0])] = False
        assert tensor_core._components(mask) == support_components(mask)
        label = tensor_core._component_labels(mask, shape[0])
        assert np.array_equal(label[label], label) and (label <= np.arange(label.size)).all()


@pytest.mark.parametrize("name,m", list(sqrt_cases().items()), ids=list(sqrt_cases()))
def test_sqrt_rank_matches_reference(chunk_entries, name, m):
    rank, signs = sqrt_rank(m)
    ref_rank, ref_signs = reference_sqrt(m)
    assert rank == ref_rank
    assert np.array_equal(signs, ref_signs)


@pytest.mark.parametrize(
    "name", ["random0", "random3", "three-blocks", "late-minimizer-beside-a-block", "zero-row",
             "zero-column", "zero-row-and-column", "late-minimizer", "dense-4x5"]
)
def test_sqrt_rank_walks_one_pattern_per_row_and_column_flip_orbit(counted_ranks, monkeypatch, name):
    # with the floor stop off, the stop is rank <= 1, and no root of these
    # is rank <= 1 (M is not rank 1), so the walk never stops early
    monkeypatch.setattr(tensor_core, "root_rank_floor", lambda rank: 1)
    m = sqrt_cases()[name] if name != "dense-4x5" else np.random.default_rng(8).uniform(0.25, 4.0, (4, 5))
    mask = m > 0
    k = int(mask.sum())
    pins = sum(m.shape) - support_components(mask)
    assert np.linalg.matrix_rank(m) > 1
    sqrt_rank(m)
    assert sum(counted_ranks) == 2 ** (k - pins)


def squared_distances(n):
    """(i - j)^2, n x n: rank 3, and the root i - j of sign (i - j) has rank 2."""
    i = np.arange(n, dtype=float)
    return (i[:, None] - i[None, :]) ** 2


@pytest.mark.parametrize("n,chunk,ranked", [(5, 1, 312), (6, None, 20 * 1820)])
def test_sqrt_rank_stops_at_the_certified_floor(counted_ranks, monkeypatch, n, chunk, ranked):
    # rank 3 has the floor 2 (2 * 3 / 2 >= 3), which the first rank-2 root
    # reaches: pattern 312 of 2^11 at n = 5 (chunks of one pattern), pattern
    # 36,080 of 2^19 at n = 6, in the 20th chunk of 1820
    m = squared_distances(n)
    if chunk is not None:
        monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", chunk * m.size)
    assert tensor_core.root_rank_floor(numerical_rank(m)) == 2
    rank, signs = sqrt_rank(m)
    assert rank == 2 and sum(counted_ranks) == ranked
    assert numerical_rank(signs * np.sqrt(m)) == 2
    if n == 5:
        # without the floor no root is of rank <= 1, so all 2^11 are ranked
        counted_ranks.clear()
        monkeypatch.setattr(tensor_core, "root_rank_floor", lambda rank: 1)
        full_rank, full_signs = sqrt_rank(m)
        assert full_rank == rank and np.array_equal(full_signs, signs)
        assert sum(counted_ranks) == 2**11


@pytest.mark.parametrize("rank", range(0, 30))
def test_root_rank_floor_is_the_least_r_whose_square_can_reach_the_rank(rank):
    r = tensor_core.root_rank_floor(rank)
    assert r * (r + 1) // 2 >= rank
    assert r == 0 or (r - 1) * r // 2 < rank


def margin_roots():
    """Roots of rank 2 or 3 whose smallest kept singular value sits near the
    nonzero rule's 1e-10, or whose next one lies just below it."""
    cases = {}
    for shape in ((3, 3), (3, 4), (4, 4)):
        for smallest in (1.5e-10, 3e-10, 1e-9, 8e-11, 5e-11):
            for seed in range(3):
                rng = np.random.default_rng([seed, *shape])
                u, _ = np.linalg.qr(rng.normal(size=(shape[0], shape[0])))
                v, _ = np.linalg.qr(rng.normal(size=(shape[1], shape[1])))
                spectrum = np.zeros(shape[0])
                spectrum[:3] = [1.0, 0.6, smallest]
                cases[f"{shape[0]}x{shape[1]}-{smallest:g}-{seed}"] = (u * spectrum) @ v[:, : shape[0]].T
    return cases


@pytest.mark.parametrize("name,root", list(margin_roots().items()), ids=list(margin_roots()))
def test_floor_stop_at_the_margin(monkeypatch, name, root):
    # the entrywise square of these roots has numerical rank within
    # r(r + 1)/2 of the least root's, so the floor stop keeps the walk's
    # answer, sign for sign
    m = root * root
    rank, signs = sqrt_rank(m)
    assert tensor_core.root_rank_floor(numerical_rank(m)) <= rank
    monkeypatch.setattr(tensor_core, "root_rank_floor", lambda rank: 1)
    full_rank, full_signs = sqrt_rank(m)
    assert rank == full_rank and np.array_equal(signs, full_signs)


def test_late_minimizer_lies_in_a_later_chunk(monkeypatch):
    rank, signs = sqrt_rank(LATE)
    bits = (1 - signs[LATE > 0]) // 2
    index = int(bits @ (1 << np.arange(bits.size - 1, -1, -1)))
    # 9 entries per pattern and 40 entries per chunk make chunks of 4 patterns
    assert (rank, index) == (2, 18)
    monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", 40)
    later_rank, later_signs = sqrt_rank(LATE)
    assert later_rank == 2
    assert np.array_equal(later_signs, signs)


def symmetric_cases():
    rng = np.random.default_rng(2)
    cases = {
        "zero": np.zeros((2, 2)),
        "k1": np.diag([0.0, 3.0, 0.0]),
        "all-ones": np.ones((3, 3)),
        "tied-flip": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "late-minimizer": LATE_SYMMETRIC,
        "sub-cutoff": SUB_CUTOFF,
    }
    for t in range(6):
        d = int(rng.integers(2, 5))
        x = sparse_matrix(rng, (d, d), int(rng.integers(1, d + 2)))
        cases[f"random{t}"] = x + x.T
    return cases


@pytest.mark.parametrize("name,m", list(symmetric_cases().items()), ids=list(symmetric_cases()))
def test_cpsdt_root_matches_reference(chunk_entries, name, m):
    cert = cpsdt_construct(m)
    ref = reference_cpsdt_root(m)
    assert np.array_equal(cert.payload["root"], ref)
    assert cert.inner_dim == numerical_rank(ref)


def test_cpsdt_falls_back_to_the_positive_root_above_budget():
    m = np.ones((3, 3))
    m[0, 1] = m[1, 0] = 4.0
    cert = cpsdt_construct(m, sign_budget=2)
    assert np.array_equal(cert.payload["root"], np.sqrt(m))


def svd_only_rank(stack, rel_tol=1e-10):
    """``stacked_numerical_rank`` as it was before the eigvalsh route: one batched SVD."""
    sv = np.linalg.svd(np.asarray(stack), compute_uv=False)
    return np.count_nonzero(tensor_core.nonzero_mask(sv, rel_tol), axis=-1)


def random_symmetric_supports():
    rng = np.random.default_rng(16)
    cases = []
    for t in range(12):
        d = int(rng.integers(2, 7))
        rows, cols = np.triu_indices(d)
        pick = rng.choice(rows.size, int(rng.integers(1, min(rows.size, 11) + 1)), replace=False)
        m = np.zeros((d, d))
        m[rows[pick], cols[pick]] = m[cols[pick], rows[pick]] = rng.uniform(0.25, 4.0, pick.size)
        cases.append(m)
    return cases


@pytest.mark.parametrize("m", random_symmetric_supports())
def test_cpsdt_is_bit_identical_to_the_svd_only_route(monkeypatch, m):
    cert = cpsdt_construct(m)
    monkeypatch.setattr(tensor_core, "stacked_numerical_rank", svd_only_rank)
    ref = cpsdt_construct(m)
    assert cert.inner_dim == ref.inner_dim
    assert cert.residual == ref.residual
    assert np.array_equal(cert.payload["root"], ref.payload["root"])
    assert all(np.array_equal(a, b) for a, b in zip(cert.payload["E"], ref.payload["E"], strict=True))


def test_cpsdt_walk_takes_no_batched_svd(linalg_calls):
    # the walk's candidates are built exactly symmetric, so every chunk is
    # ranked by eigvalsh; a build that loses the symmetry fails here
    m = random_symmetric_supports()[3]
    assert np.count_nonzero(np.triu(m)) == 10
    cpsdt_construct(m)
    assert ("eigvalsh", 3) in linalg_calls
    assert not [call for call in linalg_calls if call[0] == "svd" and call[1] >= 3]


def diagonal_cases():
    rng = np.random.default_rng(3)
    cases = {
        "zero-n2": (np.zeros(4), (2, 2)),
        "k1-n3": (np.eye(8)[5] * 2.0, (2, 2, 2)),
        "single-site": (np.array([1.0, 0.0, 2.0, 3.0]), (4,)),
        "all-ones-n2": (np.ones(4), (2, 2)),
        "late-minimizer": (LATE.ravel(), (3, 3)),
    }
    for t in range(5):
        dims = ((2, 2, 2), (2, 3), (3, 2, 2))[t % 3]
        values = np.zeros(prod(dims))
        k = int(rng.integers(2, 9))
        values[rng.choice(values.size, k, replace=False)] = rng.uniform(0.25, 4.0, k)
        cases[f"random{t}"] = (values, dims)
    # supports where the per-site flips pin several signs
    rng = np.random.default_rng(5)
    for dims, k in [((2,) * 6, 10), ((2,) * 7, 11), ((2,) * 8, 12), ((3, 2, 3), 9), ((4, 4), 8)]:
        values = np.zeros(prod(dims))
        values[rng.choice(values.size, k, replace=False)] = rng.uniform(0.25, 4.0, k)
        cases[f"k{k}-{'x'.join(map(str, dims))}"] = (values, dims)
    # site 1 sits at level 0 on the whole support: its flip is the global flip
    one_level = np.zeros((2, 2, 2, 2))
    one_level[:, 0] = rng.uniform(0.25, 4.0, (2, 2, 2))
    cases["one-level"] = (one_level.ravel(), (2, 2, 2, 2))
    # sites (0, 1) and (2, 3) each in {00, 01} or each in {10, 11}: two blocks at the middle cut
    two_blocks = np.zeros((4, 4))
    two_blocks[:2, :2] = rng.uniform(0.25, 4.0, (2, 2))
    two_blocks[2:, 2:] = rng.uniform(0.25, 4.0, (2, 2))
    cases["two-blocks"] = (two_blocks.ravel(), (2, 2, 2, 2))
    tied = np.zeros(64)
    tied[rng.choice(64, 10, replace=False)] = 1.0
    cases["tied-k10"] = (tied, (2,) * 6)
    return cases


@functools.cache
def diagonal_reference(name):
    values, dims = diagonal_cases()[name]
    return reference_q_sqrt_diagonal(values, dims)


@pytest.mark.parametrize(
    "name,case", list(diagonal_cases().items()), ids=list(diagonal_cases())
)
def test_q_sqrt_diagonal_matches_reference(chunk_entries, name, case):
    values, dims = case
    rank, signs = q_sqrt_rank(PsdOperator(SiteSpec(dims), np.diag(values)))
    assert (rank, signs.signs) == diagonal_reference(name)


def walk_cases():
    """Nonnegative arrays on 1-4 axes of length <= 3 with at most 9 nonzero
    entries; every third has a zero slice (one axis at one index), every
    fourth has ties (equal entries)."""
    rng = np.random.default_rng(21)
    cases = {}
    for t in range(48):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 5))))
        k = int(rng.integers(0, min(prod(dims), 9) + 1))
        values = np.zeros(prod(dims))
        values[rng.choice(values.size, k, replace=False)] = 1.0 if t % 4 == 1 else rng.uniform(0.25, 4.0, k)
        values = values.reshape(dims)
        if t % 3 == 0:
            axis = int(rng.integers(len(dims)))
            values[(slice(None),) * axis + (int(rng.integers(dims[axis])),)] = 0.0
        cases[f"{'x'.join(map(str, dims))}-{t}"] = values
    return cases


@functools.cache
def walk_reference(name):
    values = walk_cases()[name]
    return reference_q_sqrt_diagonal(values.ravel(), values.shape)


@pytest.mark.parametrize("name,values", list(walk_cases().items()), ids=list(walk_cases()))
def test_root_sign_walk_matches_the_full_walk(chunk_entries, name, values):
    # every pattern of itertools.product, no pin, one rank per cut
    rank, signs = tensor_core._root_sign_walk(values, 2**20)
    assert np.array_equal(signs != 0, values > 0)
    assert (rank, tuple(signs[signs != 0].tolist())) == walk_reference(name)


@pytest.mark.parametrize("name,m", list(sqrt_cases().items()), ids=list(sqrt_cases()))
def test_q_sqrt_rank_of_the_embedding_is_sqrt_rank_sign_for_sign(name, m):
    rank, signs = sqrt_rank(m)
    q_rank, q_signs = q_sqrt_rank(diag_embed(m))
    assert (q_rank, q_signs.signs) == (rank, tuple(signs[signs != 0].tolist()))


def test_q_sqrt_diagonal_walks_one_pattern_per_site_flip_orbit(monkeypatch):
    # the full 16-entry support of 4 qubits: the global and the 4 site flips
    # pin 5 signs, so 2^11 of the 2^16 patterns are ranked (3 cuts each)
    ranked = []

    def counting(stack, rel_tol):
        if np.ndim(stack) == 3:  # candidates, not the floor's ranks of the diagonal
            ranked.append(len(stack))
        return stacked_numerical_rank(stack, rel_tol)

    monkeypatch.setattr(tensor_core, "stacked_numerical_rank", counting)
    values = np.random.default_rng(6).uniform(0.25, 4.0, 16)
    rank, _ = q_sqrt_rank(PsdOperator(SiteSpec((2, 2, 2, 2)), np.diag(values)))
    assert rank == 4
    assert sum(ranked) == 3 * 2**11


def test_q_sqrt_rank_ranks_the_cut_of_largest_schmidt_cap_first(monkeypatch):
    shapes = []

    def recording(stack, rel_tol):
        if np.ndim(stack) == 3:  # candidates, not the floor's ranks of the diagonal
            shapes.append(stack.shape[1:])
        return stacked_numerical_rank(stack, rel_tol)

    monkeypatch.setattr(tensor_core, "stacked_numerical_rank", recording)
    values = np.zeros(32)
    values[::3] = np.random.default_rng(9).uniform(0.25, 4.0, 11)
    q_sqrt_rank(PsdOperator(SiteSpec((2,) * 5), np.diag(values)))
    # caps 2, 4, 4, 2 at cuts 1-4: cuts 2 and 3 first, ties in cut order
    assert shapes[:4] == [(4, 8), (8, 4), (2, 16), (16, 2)]
    x = np.random.default_rng(10).normal(size=(12, 3))
    shapes.clear()
    q_sqrt_rank(PsdOperator(SiteSpec((2, 3, 2)), x @ x.T))
    # caps min(4, 36) = 4 and min(36, 4) = 4: a tie, kept in cut order
    assert shapes[:2] == [(4, 36), (36, 4)]


def dense_cases():
    rng = np.random.default_rng(4)
    cases = {}
    for t, (dims, r) in enumerate([((2, 2), 1), ((2, 2), 3), ((2, 2, 2), 4), ((3, 2), 5), ((4,), 3), ((2, 3), 6)]):
        d = prod(dims)
        x = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        cases[f"dims{'x'.join(map(str, dims))}-r{r}"] = (x @ x.conj().T, dims)
    # a product of two rank-2 states: not diagonal, tied minima among the sign vectors
    a = np.diag([1.0, 2.0]) + 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    cases["product"] = (np.kron(a, a), (2, 2))
    return cases


@pytest.mark.parametrize("name,case", list(dense_cases().items()), ids=list(dense_cases()))
def test_q_sqrt_dense_matches_reference(chunk_entries, name, case):
    rho, dims = case
    rank, signs = q_sqrt_rank(PsdOperator(SiteSpec(dims), rho))
    assert (rank, signs.signs) == reference_q_sqrt_dense(rho, dims)


def hermitian_sum_of_products(rng, dims, terms):
    """A Hermitian operator of operator Schmidt rank <= ``terms`` at every
    cut: a sum of ``terms`` Kronecker products of Hermitian factors."""
    total = 0
    for _ in range(terms):
        factors = [x + x.conj().T for x in (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims)]
        total = total + functools.reduce(np.kron, factors)
    return total


def spectral_floor_cases():
    rng = np.random.default_rng(46)
    cases = {}
    for t, dims in enumerate([(2, 2), (2, 2, 2), (2, 3), (3, 2, 2), (2, 2, 2), (2, 2)]):
        d = prod(dims)
        r = int(rng.integers(2, min(d, 7) + 1))
        x = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        cases[f"random{t}-{'x'.join(map(str, dims))}-r{r}"] = (x @ x.conj().T, dims)
    # rho = tau^2 for a Hermitian tau of osr 2: some root reaches the floor
    for t, dims in enumerate([(2, 2, 2), (2, 3), (2, 2, 2)]):
        tau = hermitian_sum_of_products(rng, dims, 2)
        cases[f"planted{t}-{'x'.join(map(str, dims))}"] = (tau @ tau, dims)
    return cases


@pytest.mark.parametrize("name,case", list(spectral_floor_cases().items()), ids=list(spectral_floor_cases()))
def test_spectral_floor_walk_equals_the_floor_one_walk(chunk_entries, name, case):
    # osr = 1 gives the floor ceil(sqrt(1)) = 1, the walk before the floor
    rho, dims = case
    op = PsdOperator(SiteSpec(dims), rho)
    rank, signs = q_sqrt_rank(op)
    assert (rank, signs) == q_sqrt_rank(op, osr=1)
    assert rank >= np.ceil(np.sqrt(operator_schmidt_rank(op)))


def test_a_planted_low_osr_root_stops_the_spectral_walk_early(monkeypatch):
    # rho = tau^2 with osr(tau) = 2 and osr(rho) = 4: the floor is 2, so the
    # walk stops at the first root of rank 2; the floor-1 walk ranks all 2^7
    rng = np.random.default_rng(47)
    tau = hermitian_sum_of_products(rng, (2, 2, 2), 2)
    op = PsdOperator(SiteSpec((2, 2, 2)), tau @ tau)
    assert (numerical_rank(tau), operator_schmidt_rank(tau, (2, 2, 2)), operator_schmidt_rank(op)) == (8, 2, 4)
    monkeypatch.setattr(tensor_core, "BLOCK_ENTRIES", 4 * 64)  # chunks of 4 patterns
    ranked = []

    def counting(stack, rel_tol):
        ranked.append(len(stack))
        return stacked_numerical_rank(stack, rel_tol)

    monkeypatch.setattr(tensor_core, "stacked_numerical_rank", counting)
    floored = q_sqrt_rank(op)
    floored_count = sum(ranked)
    ranked.clear()
    assert q_sqrt_rank(op, osr=1) == floored
    assert floored[0] == 2
    assert floored_count < sum(ranked)
    assert sum(ranked) >= 2**7


def test_the_walks_are_identical_with_the_screen_off(monkeypatch):
    rng = np.random.default_rng(48)
    x = rng.normal(size=(32, 10)) + 1j * rng.normal(size=(32, 10))
    op = PsdOperator(SiteSpec((2,) * 5), x @ x.conj().T)
    m = rng.uniform(0.25, 4.0, (5, 5))  # 2^16 patterns, in stacks above SCREEN_MIN_ENTRIES
    sym = random_symmetric_supports()[3]
    decisions = []
    screen = tensor_core._full_rank_screen

    def recording(stack, rel_tol):
        decisions.append(screen(stack, rel_tol))
        return decisions[-1]

    def walks():
        (q_rank, q_signs), (rank, signs), cert = q_sqrt_rank(op), sqrt_rank(m), cpsdt_construct(sym)
        return (q_rank, q_signs.signs, rank, signs.tolist(), cert.inner_dim, cert.residual,
                cert.payload["root"].tolist(), [e.tolist() for e in cert.payload["E"]])

    monkeypatch.setattr(tensor_core, "_full_rank_screen", recording)
    on = walks()
    # the screen proved q_sqrt_rank's rank-10 stacks and sqrt_rank's full-rank ones
    assert decisions.count(True) >= 8
    monkeypatch.setattr(tensor_core, "_full_rank_screen", lambda stack, rel_tol: False)
    assert walks() == on


def test_q_sqrt_zero_operator():
    rank, signs = q_sqrt_rank(PsdOperator(SiteSpec((2, 2)), np.zeros((4, 4))))
    assert (rank, signs.signs) == (0, ())


def test_rel_tol_range_is_checked():
    with pytest.raises(UsageError):
        sqrt_rank(np.ones((2, 2)), rel_tol=0.0)
    with pytest.raises(UsageError):
        cpsdt_construct(np.ones((2, 2)), rel_tol=1.5)
    with pytest.raises(UsageError):
        q_sqrt_rank(PsdOperator(SiteSpec((2, 2)), np.eye(4)), rel_tol=-1.0)


def test_sign_budget_counts_the_nonzero_support():
    # the 1e-14 entry is below the cutoff: 4 signs fit a 2^4 budget, and
    # the root is 0 there, within the checker's residual bar
    m = np.array([[1.0, 1.0, 1e-14], [1.0, 1.0, 0.0]])
    rank, signs = sqrt_rank(m, sign_budget=2**4)
    assert rank == 1
    assert signs[0, 2] == 0
    sym = np.array([[1.0, 1.0, 1e-14], [1.0, 1.0, 0.0], [1e-14, 0.0, 1.0]])
    cert = cpsdt_construct(sym, sign_budget=2**4)
    assert cert.inner_dim == 2
    assert cert.payload["root"][0, 2] == cert.payload["root"][2, 0] == 0.0
    check_factor_certificate(sym, cert)


def test_sign_budget_counts_the_patterns_sqrt_rank_ranks():
    # a dense 4 x 6 input has k = 24 signs, but its row and column flips pin
    # 4 + 6 - 1 of them, so 2^15 patterns are ranked: within the default
    # 2^20, although 2^24 is not
    rng = np.random.default_rng(0)
    root = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
    m = root * root
    assert np.count_nonzero(m) == 24
    rank, signs = sqrt_rank(m)
    assert rank == 2
    assert numerical_rank(signs * np.sqrt(m)) == 2
    with pytest.raises(UsageError, match=r"24 nonzero entries leave 2\^15 sign patterns"):
        sqrt_rank(m, sign_budget=2**15 - 1)
    # the ones matrix: 9 signs, 3 + 3 - 1 pinned, 2^4 patterns at the boundary
    assert sqrt_rank(np.ones((3, 3)), sign_budget=2**4)[0] == 1
    with pytest.raises(UsageError, match=r"2\^4 sign patterns"):
        sqrt_rank(np.ones((3, 3)), sign_budget=2**4 - 1)


def budget_masks():
    rng = np.random.default_rng(11)
    masks = {name: m > 0 for name, m in sqrt_cases().items()}
    for t in range(40):
        shape = tuple(rng.integers(1, 7, size=2))
        masks[f"random{t}"] = rng.random(shape) < rng.uniform(0.1, 0.9)
    masks["diagonal"] = np.eye(6, dtype=bool)
    masks["path"] = np.eye(6, dtype=bool) | np.eye(6, k=1, dtype=bool)
    return masks


@pytest.mark.parametrize("name,mask", list(budget_masks().items()), ids=list(budget_masks()))
def test_sign_budget_count_is_the_walk_of_the_row_and_column_flips(name, mask, monkeypatch):
    # the count the budget is checked against, from the support's
    # components, is the number of patterns the flip span leaves free, and
    # the signs sqrt_rank pins are the span's pivots
    k = int(mask.sum())
    rows, cols = np.nonzero(mask)
    flips = [rows == i for i in range(mask.shape[0])] + [cols == j for j in range(mask.shape[1])]
    pivots = tensor_core._flip_pivots(k, flips)
    # the union-find forest pins exactly the elimination's pivots
    assert np.array_equal(tensor_core._forest_pins(mask.shape, rows, cols), pivots)
    free = k - int(np.count_nonzero(pivots))
    assert free == k - (sum(mask.shape) - support_components(mask))
    # the walk hands the engine those pins, within a budget of exactly 2^free
    handed = []

    def engine(k, build, entries, rel_tol, pinned=None, floor=1):
        handed.append(pinned)
        return 0, (1,) * k

    monkeypatch.setattr(tensor_core, "min_rank_sign_pattern", engine)
    m = mask.astype(float)
    sqrt_rank(m, 2**free)
    if k:
        assert np.array_equal(handed[0], pivots)
        with pytest.raises(SignBudgetError, match=rf"{k} nonzero entries leave 2\^{free} sign patterns"):
            sqrt_rank(m, 2**free - 1)


def test_large_dense_input_is_refused_before_any_flip_is_built(monkeypatch, traced_memory):
    # 14400 signs, 2^14161 patterns: the refusal reads the support only, and
    # builds neither the 240 flip vectors nor their elimination
    m = np.random.default_rng(12).uniform(0.25, 4.0, (120, 120))

    def refuse(*args, **kwargs):
        raise AssertionError("the walk was prepared for an input over budget")

    for name in ("_flip_pivots", "_forest_pins", "min_rank_sign_pattern"):
        monkeypatch.setattr(tensor_core, name, refuse)
    with traced_memory() as mem:
        with pytest.raises(UsageError, match=r"14400 nonzero entries leave 2\^14161 sign patterns"):
            sqrt_rank(m)
    assert mem.peak - mem.base < 2 * m.nbytes


def test_sqrt_rank_pins_a_long_row_without_the_elimination(monkeypatch, traced_memory):
    # a 1 x 4000 row: every sign is pinned, one pattern is ranked; the
    # elimination would hold 4001 flip vectors of length 4000
    m = np.random.default_rng(13).uniform(0.25, 4.0, (1, 4000))

    def refuse(*args, **kwargs):
        raise AssertionError("the flips were eliminated")

    monkeypatch.setattr(tensor_core, "_flip_pivots", refuse)
    with traced_memory() as mem:
        rank, signs = sqrt_rank(m)
    assert rank == 1 and (signs == 1).all()
    assert mem.peak - mem.base < 1_000_000

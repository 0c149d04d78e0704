"""Hypothesis properties of the square-root correspondence and the train sweep.

Nonzero entries of the sparse matrices are drawn from [1e-3, 1e3]; fixed
``max_examples`` keep the runtime bounded and no example database is written.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdo_kit.correspondence import diag_embed
from mpdo_kit.decompositions import mpo_train_form, operator_schmidt_rank, q_sqrt_rank
from mpdo_kit.nonneg_factorizations import cpsdt_construct, sqrt_rank
from mpdo_kit.tensor_core import MpoTrain, contract_train, matricize, numerical_rank

MAX_NONZEROS = 10

entry = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def sparse_nonneg(draw):
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    cells = draw(st.sets(st.integers(0, p * q - 1), max_size=MAX_NONZEROS))
    m = np.zeros(p * q)
    for c in cells:
        m[c] = draw(entry)
    return m.reshape(p, q)


@st.composite
def sparse_symmetric(draw):
    d = draw(st.integers(1, 4))
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    cells = draw(st.sets(st.sampled_from(upper), max_size=MAX_NONZEROS))
    m = np.zeros((d, d))
    for i, j in cells:
        m[i, j] = m[j, i] = draw(entry)
    return m


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_nonneg())
def test_sqrt_rank_equals_q_sqrt_rank_of_embedding(m):
    rank, _ = sqrt_rank(m)
    q_rank, _ = q_sqrt_rank(diag_embed(m))
    assert rank == q_rank


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_symmetric())
def test_cpsdt_inner_dim_is_root_rank_and_rebuilds_m(m):
    cert = cpsdt_construct(m)
    assert cert.inner_dim == numerical_rank(cert.payload["root"])
    assert cert.residual <= 1e-8 * max(np.abs(m).max(), 1e-300)


@st.composite
def low_rank_operator(draw):
    """Dense operator (or column vector, in dims all 1) of a random small-bond train.

    The entries are Gaussian from a drawn seed, so the cut ranks are
    generic: every singular value is either far above the rank threshold
    or at rounding level.
    """
    n = draw(st.integers(1, 4))
    out_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        in_dims = (1,) * n
    else:
        in_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    edges = (1,) + tuple(draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))) + (1,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cores = tuple(
        rng.normal(size=(edges[k], do, di, edges[k + 1]))
        + 1j * rng.normal(size=(edges[k], do, di, edges[k + 1]))
        for k, (do, di) in enumerate(zip(out_dims, in_dims))
    )
    return contract_train(MpoTrain(cores)), out_dims, in_dims


@settings(max_examples=80, deadline=None, database=None)
@given(low_rank_operator())
def test_sweep_bonds_are_the_per_cut_rank_profile(case):
    op, out_dims, in_dims = case
    n = len(out_dims)
    train, osr = mpo_train_form(op, out_dims, in_dims=in_dims)
    oracle = [
        numerical_rank(matricize(op, cut, out_dims=out_dims, in_dims=in_dims))
        for cut in range(1, n)
    ]
    assert list(train.bond_dims) == oracle
    assert osr == max(oracle, default=1)
    assert operator_schmidt_rank(op, out_dims, in_dims=in_dims) == osr
    back = contract_train(train)
    assert np.linalg.norm(back - op) <= 1e-10 * np.linalg.norm(op)

"""Hypothesis properties of the square-root correspondence on small matrices.

Nonzero entries are drawn from [1e-3, 1e3]; fixed ``max_examples`` keep the
runtime bounded and no example database is written.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdo_kit.correspondence import diag_embed
from mpdo_kit.decompositions import q_sqrt_rank
from mpdo_kit.nonneg_factorizations import cpsdt_construct, sqrt_rank
from mpdo_kit.tensor_core import numerical_rank

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

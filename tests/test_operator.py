# Property tests of Dataset.xop, the covariate operator that every pass of the
# solvers over X goes through. Each method is compared with the full-width
# formula it replaces, over the (n, p*p) flattened X, to a relative 1e-12:
# the error bound is 1e-12 times the same formula on absolute values.

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import Dataset
from symreg.tensor_ops import khatri_rao

TOL = 1e-12


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    a = rng.standard_normal((n, p, p)) * scale
    data = Dataset(rng.standard_normal(n), np.zeros((n, 0)), (a + a.transpose(0, 2, 1)) / 2)
    return data, rng


def full_rows(data):
    return data.X.reshape(data.n, -1)


def assert_close(got, want, bound):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= TOL * bound)


def _matrix(rng, p, symmetric):
    m = rng.standard_normal((p, p))
    return (m + m.T) / 2 if symmetric else m


@settings(max_examples=60, deadline=None)
@given(datasets(), st.booleans())
def test_inner_of_one_matrix(case, symmetric):
    data, rng = case
    m = _matrix(rng, data.p, symmetric)
    rows = full_rows(data)
    assert_close(data.xop.inner(m), rows @ m.ravel(), np.abs(rows) @ np.abs(m).ravel())


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_weighted_sum(case):
    data, rng = case
    w = rng.standard_normal(data.n)
    got = data.xop.weighted_sum(w)
    assert np.array_equal(got, got.T)
    assert_close(
        got,
        np.tensordot(w, data.X, axes=1),
        np.tensordot(np.abs(w), np.abs(data.X), axes=1),
    )


@settings(max_examples=60, deadline=None)
@given(datasets(), st.integers(1, 4))
def test_quad_forms(case, rank):
    data, rng = case
    b = rng.standard_normal((data.p, rank))
    rows, kr = full_rows(data), khatri_rao(b, b)
    assert_close(data.xop.quad_forms(b), rows @ kr, np.abs(rows) @ np.abs(kr))


@settings(max_examples=60, deadline=None)
@given(datasets(), st.integers(1, 4))
def test_block_design(case, rank):
    data, rng = case
    b = rng.standard_normal((data.p, rank))
    n, p = data.n, data.p
    want = np.einsum("ipq,qr->ipr", data.X, b).reshape(n, p * rank)
    bound = np.einsum("ipq,qr->ipr", np.abs(data.X), np.abs(b)).reshape(n, p * rank)
    assert_close(data.xop.block_design(b), want, bound)


@settings(max_examples=60, deadline=None)
@given(datasets(), st.data())
def test_take_rows_are_the_parents_rows(case, draw):
    data, _ = case
    idx = draw.draw(st.lists(st.integers(0, data.n - 1), min_size=1, max_size=2 * data.n))
    part = data.take(idx)
    assert np.array_equal(part.xop.rows, data.xop.rows[idx])

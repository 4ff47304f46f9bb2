import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symreg import tensor_ops as T

from conftest import random_symmetric

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def small_matrix(rows, cols):
    return arrays(np.float64, (rows, cols), elements=finite)


# ---------------------------------------------------------------- oracles
# Reference forms the package's primitives are checked against; nothing in
# the package calls them.

def _matrix(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise T.DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def vec(m):
    """Stack entries column-major: 1-based entry (i, j) lands at i + (j-1)*rows."""
    return _matrix(m).reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of vec: reshape a length rows*cols vector column-major."""
    v = np.asarray(v, dtype=float)
    if v.size != rows * cols:
        raise T.DimensionError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def inner(x, b):
    """Frobenius inner product sum_ij x_ij * b_ij == <vec x, vec b>."""
    x = _matrix(x, "x")
    b = _matrix(b, "b")
    if x.shape != b.shape:
        raise T.DimensionError(f"shape mismatch {x.shape} vs {b.shape}")
    return float(np.sum(x * b))


def design_sym(x, b):
    """Per-rank quadratic forms: component r is b_r^T X b_r.

    Equals (vec X)^T (B kr B) for symmetric X; that identity is kept as a test.
    """
    x = _matrix(x, "x")
    b = _matrix(b, "b")
    if x.shape[0] != x.shape[1] or x.shape[0] != b.shape[0]:
        raise T.DimensionError(f"incompatible shapes {x.shape} and {b.shape}")
    return np.einsum("pq,pr,qr->r", x, b, b)


def grad_eta_b(x, lam, b):
    """Gradient of eta = <X, symcp_to_full(lam, B)> with respect to B: 2 X B diag(lam)."""
    lam = np.asarray(lam, dtype=float).ravel()
    x = _matrix(x, "x")
    b = _matrix(b, "b")
    if x.shape[0] != x.shape[1] or x.shape[0] != b.shape[0] or lam.size != b.shape[1]:
        raise T.DimensionError("incompatible shapes for grad_eta_b")
    return 2.0 * (x @ b) * lam


def grad_eta_b_kron(x, lam, b):
    """Kronecker-form gradient [(B Lam)^T kron I_p](vec X_(1) + vec X_(2)).

    Cross-check oracle for grad_eta_b.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    x = _matrix(x, "x")
    b = _matrix(b, "b")
    p = x.shape[0]
    sum_vecs = vec(x) + vec(x.T)
    k = np.kron((b * lam).T, np.eye(p))
    return unvec(k @ sum_vecs, p, b.shape[1])


# ---------------------------------------------------------------- vec / unvec

def test_vec_column_major():
    assert np.array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])


def test_vec_scalar_case():
    assert np.array_equal(vec([[5]]), [5])


def test_vec_rectangular():
    m = [[1, 2, 3], [4, 5, 6]]
    assert np.array_equal(vec(m), [1, 4, 2, 5, 3, 6])


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_vec_round_trip(rows, cols, data):
    m = data.draw(small_matrix(rows, cols))
    assert np.array_equal(unvec(vec(m), rows, cols), m)


# ---------------------------------------------------------------- khatri_rao

def test_khatri_rao_hand_example():
    out = T.khatri_rao([[1, 2], [3, 4]], [[0, 1], [1, 0]])
    assert np.array_equal(out, [[0, 2], [1, 0], [0, 4], [3, 0]])


def test_khatri_rao_row_of_ones():
    a = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(T.khatri_rao(a, np.ones((1, 2))), a)


def test_khatri_rao_identity_columns():
    eye = np.eye(2)
    assert np.array_equal(
        T.khatri_rao(eye, eye), [[1, 0], [0, 0], [0, 0], [0, 1]]
    )


def test_khatri_rao_column_mismatch():
    with pytest.raises(T.DimensionError):
        T.khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


# ---------------------------------------------------------------- inner

@pytest.mark.parametrize(
    "x, b, expected",
    [
        (np.eye(2), [[0, 1], [1, 0]], 0.0),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]], 2.0),
        ([[1, 1], [1, 0]], [[0, 1], [1, 0]], 2.0),
    ],
)
def test_inner_examples(x, b, expected):
    assert inner(x, b) == expected


def test_inner_size_mismatch():
    with pytest.raises(T.DimensionError):
        inner(np.eye(2), np.eye(3))


# ---------------------------------------------------------------- reconstructions

def test_symcp_rank2_exchange_matrix():
    # lam (1, -1) with the +-45 degree unit directions rebuilds [[0,1],[1,0]]
    b = np.array([[0.707, -0.707], [0.707, 0.707]])
    full = T.symcp_to_full([1.0, -1.0], b)
    assert np.allclose(full, [[0, 1], [1, 0]], atol=1e-3)


def test_symcp_zero_lambda():
    assert np.array_equal(
        T.symcp_to_full([0.0, 0.0], np.ones((3, 2))), np.zeros((3, 3))
    )


def test_symcp_golden_ratio_decomposition():
    # eigen oracle of [[1,1],[1,0]]: lam = ((1+sqrt5)/2, (1-sqrt5)/2)
    b = np.array([[0.851, -0.526], [0.526, 0.851]])
    full = T.symcp_to_full([1.618, -0.618], b)
    assert np.allclose(full, [[1, 1], [1, 0]], atol=2e-3)


@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_symcp_output_exactly_symmetric(p, r, data):
    b = data.draw(small_matrix(p, r))
    lam = data.draw(arrays(np.float64, r, elements=finite))
    full = T.symcp_to_full(lam, b)
    assert np.array_equal(full, full.T)


def test_symcp_stack_equals_slices(rng):
    for p, r in [(1, 1), (5, 2), (32, 3)]:
        lam = rng.standard_normal(r)
        stack = rng.standard_normal((6, p, r))
        full = T.symcp_to_full(lam, stack)
        assert full.shape == (6, p, p)
        for k in range(6):
            assert np.array_equal(full[k], T.symcp_to_full(lam, stack[k]))
    with pytest.raises(T.DimensionError):
        T.symcp_to_full([1.0], np.ones((2, 2, 2, 1)))
    with pytest.raises(T.DimensionError):
        T.symcp_to_full([1.0, 2.0], np.ones((3, 4, 3)))


def test_cp_rank1_outer_products():
    assert np.array_equal(T.cp_to_full([[1], [0]], [[1], [0]]), [[1, 0], [0, 0]])
    assert np.array_equal(T.cp_to_full([[1], [0]], [[0], [1]]), [[0, 1], [0, 0]])


def test_cp_rank2_additivity():
    b1 = np.array([[1, 1], [0, 0]], dtype=float)
    b2 = np.array([[1, 0], [0, 1]], dtype=float)
    assert np.array_equal(T.cp_to_full(b1, b2), [[1, 1], [0, 0]])


# ---------------------------------------------------------------- symmetrize

def test_symmetrize_examples():
    assert np.array_equal(T.symmetrize([[1, 2], [0, 1]]), [[1, 1], [1, 1]])
    assert np.array_equal(T.symmetrize([[0, 1], [1, 0]]), [[0, 1], [1, 0]])
    assert np.array_equal(T.symmetrize([[0, 4], [0, 0]]), [[0, 2], [2, 0]])


def test_symmetrize_rejects_non_square():
    with pytest.raises(T.DimensionError):
        T.symmetrize(np.ones((2, 3)))


@given(st.integers(1, 6), st.data())
def test_symmetrize_idempotent(p, data):
    m = data.draw(small_matrix(p, p))
    once = T.symmetrize(m)
    assert np.array_equal(T.symmetrize(once), once)


# ---------------------------------------------------------------- design_sym

def test_design_sym_identity_covariate():
    out = design_sym(np.eye(2), np.array([[0.707], [0.707]]))
    assert out.shape == (1,)
    assert abs(out[0] - 0.999698) < 1e-6


def test_design_sym_zero_covariate():
    assert np.array_equal(
        design_sym(np.zeros((3, 3)), np.ones((3, 2))), np.zeros(2)
    )


def test_design_sym_exchange_covariate():
    b = np.array([[0.707, -0.707], [0.707, 0.707]])
    out = design_sym(np.array([[0.0, 1.0], [1.0, 0.0]]), b)
    assert np.allclose(out, [1.0, -1.0], atol=1e-3)


def test_design_sym_agrees_with_khatri_rao_form(rng):
    for _ in range(20):
        p, r = rng.integers(2, 7), rng.integers(1, 4)
        x = random_symmetric(rng, p)
        b = rng.standard_normal((p, r))
        quad = design_sym(x, b)
        kr = vec(x) @ T.khatri_rao(b, b)
        assert np.allclose(quad, kr, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- gradients

def test_grad_eta_zero_lambda():
    x = random_symmetric(np.random.default_rng(0), 3)
    assert np.array_equal(
        grad_eta_b(x, np.zeros(2), np.ones((3, 2))), np.zeros((3, 2))
    )


def test_grad_eta_hand_examples():
    assert np.array_equal(
        grad_eta_b(np.eye(2), [1.0], [[1.0], [0.0]]), [[2.0], [0.0]]
    )
    assert np.array_equal(
        grad_eta_b([[0, 1], [1, 0]], [1.0], [[1.0], [0.0]]), [[0.0], [2.0]]
    )


def test_grad_eta_matches_kron_form(rng):
    for _ in range(20):
        p, r = rng.integers(2, 7), rng.integers(1, 4)
        x = random_symmetric(rng, p)
        lam = rng.standard_normal(r)
        b = rng.standard_normal((p, r))
        g = grad_eta_b(x, lam, b)
        k = grad_eta_b_kron(x, lam, b)
        assert np.allclose(g, k, rtol=1e-12, atol=1e-12)


def test_grad_eta_finite_differences(rng):
    h = 1e-5
    for _ in range(10):
        p, r = rng.integers(2, 6), rng.integers(1, 4)
        x = random_symmetric(rng, p)
        lam = rng.standard_normal(r)
        b = rng.standard_normal((p, r))
        g = grad_eta_b(x, lam, b)
        fd = np.zeros_like(b)
        for i in range(p):
            for j in range(r):
                bp, bm = b.copy(), b.copy()
                bp[i, j] += h
                bm[i, j] -= h
                fd[i, j] = (
                    inner(x, T.symcp_to_full(lam, bp))
                    - inner(x, T.symcp_to_full(lam, bm))
                ) / (2 * h)
        scale = np.maximum(np.abs(g), 1.0)
        assert np.all(np.abs(g - fd) / scale <= 1e-6)


# ---------------------------------------------------------------- identities

@settings(max_examples=60)
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_khatri_rao_reconstruction_identity(p, r, data):
    x = T.symmetrize(data.draw(small_matrix(p, p)))
    b = data.draw(small_matrix(p, r))
    lam = data.draw(arrays(np.float64, r, elements=finite))
    lhs = float(vec(x) @ T.khatri_rao(b, b) @ lam)
    rhs = inner(x, T.symcp_to_full(lam, b))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=60)
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_symmetrization_preserves_inner_product(p, r, data):
    x = T.symmetrize(data.draw(small_matrix(p, p)))
    b1 = data.draw(small_matrix(p, r))
    b2 = data.draw(small_matrix(p, r))
    full = T.cp_to_full(b1, b2)
    lhs = inner(x, full)
    rhs = inner(x, T.symmetrize(full))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

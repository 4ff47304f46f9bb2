# Dense matrix primitives shared by all estimators: the exact-symmetry
# check, Khatri-Rao products, rank-R reconstructions and symmetrization.
# Everything here is a pure function of ndarray inputs; D is fixed at 2
# (matrix covariates). The oracles the tests check these against (vec, the
# Frobenius inner product, the gradient in B in direct and Kronecker form)
# live in tests/test_tensor_ops.py.

import numpy as np


class DimensionError(ValueError):
    pass


def _as_matrix(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def check_symmetric(m, name="matrix"):
    m = _as_matrix(m, name)
    if m.shape[0] != m.shape[1] or not np.array_equal(m, m.T):
        raise DimensionError(f"{name} must be exactly symmetric")
    return m


def khatri_rao(a, c):
    """Columnwise Kronecker product: column r is kron(a[:, r], c[:, r])."""
    a = _as_matrix(a, "a")
    c = _as_matrix(c, "c")
    if a.shape[1] != c.shape[1]:
        raise DimensionError(
            f"column counts must match, got {a.shape[1]} and {c.shape[1]}"
        )
    return (a[:, None, :] * c[None, :, :]).reshape(a.shape[0] * c.shape[0], a.shape[1])


def symcp_to_full(lam, b):
    """Reconstruct sum_r lam_r * b_r b_r^T = B diag(lam) B^T, exactly symmetric."""
    lam = np.asarray(lam, dtype=float).ravel()
    b = _as_matrix(b, "b")
    if lam.size != b.shape[1]:
        raise DimensionError(f"lambda length {lam.size} != {b.shape[1]} columns")
    full = (b * lam) @ b.T
    # (M + M.T)/2 restores bitwise symmetry lost to BLAS summation order
    return (full + full.T) / 2.0


def cp_to_full(b1, b2):
    """Reconstruct sum_r b1_r b2_r^T = B1 B2^T (not symmetric in general)."""
    b1 = _as_matrix(b1, "b1")
    b2 = _as_matrix(b2, "b2")
    if b1.shape != b2.shape:
        raise DimensionError(f"factor shapes differ: {b1.shape} vs {b2.shape}")
    return b1 @ b2.T


def symmetrize(m):
    """(M + M^T)/2; idempotent, fixed point on symmetric input."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    return (m + m.T) / 2.0

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import (
    BERNOULLI,
    GAUSSIAN,
    Family,
    GlmProblem,
    fit_glm,
    fit_glm_lasso,
    soft_threshold,
)
from symreg import glm
from symreg.glm import LASSO_WINDOW


# ---------------------------------------------------------------- negloglik

def test_gaussian_perfect_fit():
    y = np.array([1.0, -2.0, 0.5])
    assert GAUSSIAN.negloglik(y, y) == 0.0


def test_gaussian_half_sum_of_squares():
    assert GAUSSIAN.negloglik(np.array([1.0, 0.0]), np.zeros(2)) == 0.5


def test_bernoulli_log_two():
    val = BERNOULLI.negloglik(np.array([1.0]), np.array([0.0]))
    assert abs(val - np.log(2.0)) < 1e-12


def test_bernoulli_overflow_safe():
    y = np.array([1.0, 0.0])
    val = BERNOULLI.negloglik(y, np.array([1000.0, -1000.0]))
    assert np.isfinite(val) and abs(val) < 1e-8


def test_negloglik_rejects_non_finite():
    with pytest.raises(ValueError):
        GAUSSIAN.negloglik(np.array([np.nan]), np.array([0.0]))
    with pytest.raises(ValueError):
        BERNOULLI.negloglik(np.array([1.0]), np.array([np.inf]))


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_negloglik_gradient_finite_differences(family, rng):
    h = 1e-6
    for _ in range(10):
        n = rng.integers(3, 10)
        eta = rng.standard_normal(n)
        if family is BERNOULLI:
            y = (rng.random(n) < 0.5).astype(float)
        else:
            y = rng.standard_normal(n)
        g = family.dnll_deta(y, eta)
        fd = np.zeros(n)
        for i in range(n):
            ep, em = eta.copy(), eta.copy()
            ep[i] += h
            em[i] -= h
            fd[i] = (family.negloglik(y, ep) - family.negloglik(y, em)) / (2 * h)
        assert np.all(np.abs(g - fd) <= 1e-6 * np.maximum(np.abs(g), 1.0))


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_negloglik_batch_equals_rows(family, rng):
    n = 40
    y = (rng.random(n) < 0.5).astype(float)
    etas = rng.standard_normal((3, 5, n)) * 3.0
    batch = family.negloglik(y, etas)
    assert batch.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        assert batch[idx] == family.negloglik(y, etas[idx])
    assert isinstance(family.negloglik(y, etas[0, 0]), float)


def test_negloglik_batch_rejects_mismatch_and_non_finite():
    y = np.zeros(4)
    with pytest.raises(ValueError, match="length mismatch"):
        GAUSSIAN.negloglik(y, np.zeros((2, 5)))
    eta = np.zeros((2, 4))
    eta[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GAUSSIAN.negloglik(y, eta)


# ---------------------------------------------------------------- fit_glm

def test_fit_glm_exact_slope(rng):
    z = rng.standard_normal(30)
    coef = fit_glm(GlmProblem(2.0 * z, z))
    assert abs(coef[0] - 2.0) < 1e-12


def test_fit_glm_offset_absorbs_response(rng):
    Z = rng.standard_normal((25, 3))
    offset = rng.standard_normal(25)
    coef = fit_glm(GlmProblem(offset, Z, offset))
    assert np.max(np.abs(coef)) < 1e-10


def test_fit_glm_balanced_bernoulli_intercept():
    y = np.array([0.0, 1.0] * 10)
    coef = fit_glm(GlmProblem(y, np.ones((20, 1)), family=BERNOULLI))
    assert abs(coef[0]) < 1e-8


def test_fit_glm_residual_orthogonality(rng):
    Z = rng.standard_normal((40, 4))
    y = rng.standard_normal(40)
    offset = rng.standard_normal(40)
    coef = fit_glm(GlmProblem(y, Z, offset))
    resid = y - offset - Z @ coef
    assert np.max(np.abs(Z.T @ resid)) <= 1e-8 * np.max(np.abs(y))


def test_fit_glm_rank_deficiency_uses_ridge(rng):
    z = rng.standard_normal(20)
    Z = np.column_stack([z, np.zeros(20)])
    info = {}
    coef = fit_glm(GlmProblem(2.0 * z, Z), info=info)
    assert info.get("ridged") is True
    assert coef[1] == 0.0
    assert abs(coef[0] - 2.0) < 1e-6


@pytest.mark.parametrize(
    "where, value",
    [("design", math.nan), ("design", math.inf), ("response", math.inf)],
    ids=["nan-design", "inf-design", "inf-response"],
)
@pytest.mark.parametrize("solve", ["fit_glm", "ridged"])
def test_least_squares_rejects_non_finite_input(rng, solve, where, value):
    # handed to LAPACK, a nan design prints a DLASCL error to the terminal, an
    # inf design does not return, and an inf response gives nan coefficients
    Z = rng.standard_normal((12, 3))
    r = rng.standard_normal(12)
    (Z if where == "design" else r)[4] = value
    with pytest.raises(ValueError, match="finite design and response"):
        if solve == "fit_glm":
            fit_glm(GlmProblem(r, Z))
        else:
            glm._solve_ridged(Z, r, {})


def test_fit_glm_bernoulli_recovers_coefficients(rng):
    Z = rng.standard_normal((4000, 2))
    truth = np.array([1.0, -0.5])
    y = (rng.random(4000) < BERNOULLI.mean(Z @ truth)).astype(float)
    coef = fit_glm(GlmProblem(y, Z, family=BERNOULLI))
    assert np.all(np.abs(coef - truth) < 0.15)


# ---------------------------------------------------------------- soft_threshold

def test_soft_threshold_values():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
    assert soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0
    x = np.array([0.3, -4.0, 0.0])
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_rejects_negative_t():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(2), -0.1)


def test_soft_threshold_array_threshold_matches_scalar(rng):
    v = rng.standard_normal((4, 3, 2))
    t = np.array([0.0, 0.1, 0.5, 2.0])
    out = soft_threshold(v, t[:, None, None])
    for k in range(4):
        assert np.array_equal(out[k], soft_threshold(v[k], float(t[k])))
    with pytest.raises(ValueError):
        soft_threshold(v, np.array([0.1, -0.1, 0.0, 0.0])[:, None, None])


@settings(max_examples=40)
@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(0, 2, allow_nan=False),
)
def test_soft_threshold_is_prox_of_l1(x, t):
    grid = np.arange(-5.0, 5.0, 1e-4)
    objective = 0.5 * (grid - x) ** 2 + t * np.abs(grid)
    brute = grid[np.argmin(objective)]
    assert abs(soft_threshold(np.array([x]), t)[0] - brute) <= 2e-4


# ---------------------------------------------------------------- fit_glm_lasso

def test_lasso_unpenalized_matches_glm(rng):
    Z = rng.standard_normal((60, 4)) @ np.diag([1.0, 2.0, 0.5, 1.0])
    y = rng.standard_normal(60)
    ls = fit_glm(GlmProblem(y, Z))
    l0 = fit_glm_lasso(GlmProblem(y, Z), 0.0)
    assert np.max(np.abs(ls - l0)) <= 1e-8


def test_lasso_null_threshold(rng):
    Z = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    offset = rng.standard_normal(50)
    bound = np.max(np.abs(Z.T @ (y - offset)))
    coef = fit_glm_lasso(GlmProblem(y, Z, offset), bound * 1.0001)
    assert np.array_equal(coef, np.zeros(3))


def test_lasso_orthonormal_closed_form(rng):
    Z, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    y = rng.standard_normal(40)
    for rho in (0.05, 0.3, 1.0):
        coef = fit_glm_lasso(GlmProblem(y, Z), rho)
        closed = soft_threshold(Z.T @ y, rho)
        assert np.max(np.abs(coef - closed)) <= 1e-8


def test_lasso_orthonormal_brute_force_q2(rng):
    # independent oracle at q=2: grid minimization of the lasso objective
    Z, _ = np.linalg.qr(rng.standard_normal((25, 2)))
    y = rng.standard_normal(25)
    rho = 0.4
    grid = np.arange(-3.0, 3.0, 5e-3)
    z1_sq = float(Z[:, 1] @ Z[:, 1])
    best, best_val = None, np.inf
    for c0 in grid:
        r0 = y - Z[:, 0] * c0
        # quadratic in the second coordinate, expanded over the whole grid
        vals = (
            0.5 * float(r0 @ r0)
            - grid * float(Z[:, 1] @ r0)
            + 0.5 * grid**2 * z1_sq
            + rho * (abs(c0) + np.abs(grid))
        )
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best, best_val = (c0, grid[j]), vals[j]
    coef = fit_glm_lasso(GlmProblem(y, Z), rho)
    assert np.max(np.abs(coef - np.asarray(best))) <= 1e-2


def test_lasso_objective_monotone(rng):
    Z = rng.standard_normal((50, 6))
    y = rng.standard_normal(50)
    info = {}
    fit_glm_lasso(GlmProblem(y, Z), 0.5, info=info)
    trace = info["objective_trace"]
    assert np.all(np.diff(trace) <= 1e-10 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_lasso_kkt_conditions(rng):
    for family in (GAUSSIAN, BERNOULLI):
        Z = rng.standard_normal((80, 5))
        if family is BERNOULLI:
            y = (rng.random(80) < 0.4).astype(float)
        else:
            y = rng.standard_normal(80)
        rho = 2.0
        problem = GlmProblem(y, Z, family=family)
        coef = fit_glm_lasso(problem, rho)
        grad = Z.T @ family.dnll_deta(y, Z @ coef)
        for j in range(5):
            if coef[j] != 0.0:
                assert abs(grad[j] + rho * np.sign(coef[j])) <= 1e-6 * max(1.0, rho)
            else:
                assert abs(grad[j]) <= rho + 1e-6


def test_lasso_reports_convergence(rng):
    Z, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    y = rng.standard_normal(40)
    info = {}
    fit_glm_lasso(GlmProblem(y, Z), 0.3, info=info)
    assert info["converged"] is True
    for family in (GAUSSIAN, BERNOULLI):
        Z = rng.standard_normal((60, 6))
        y = (rng.random(60) < 0.5).astype(float)
        info = {}
        fit_glm_lasso(GlmProblem(y, Z, family=family), 0.1, max_iter=2, info=info)
        assert info["iterations"] == 2
        assert info["converged"] is False


def test_lasso_rejects_non_positive_max_iter(rng):
    problem = GlmProblem(rng.standard_normal(10), rng.standard_normal((10, 3)))
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            fit_glm_lasso(problem, 0.1, max_iter=max_iter)


def test_lasso_rejects_non_finite_inputs(rng):
    Z = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    bad = y.copy()
    bad[4] = np.nan
    with pytest.raises(ValueError):
        fit_glm_lasso(GlmProblem(y, Z, offset=bad), 0.1)
    with pytest.raises(ValueError):
        fit_glm_lasso(GlmProblem(bad, Z), 0.1)
    # the warm start is checked before any arithmetic touches it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coef0"):
            fit_glm_lasso(GlmProblem(y, Z), 0.1, coef0=[0.0, np.inf, 0.0])



class _OverflowingBernoulli(Family):
    """Bernoulli whose negloglik reads inf once any |eta| exceeds 4."""

    def __init__(self):
        super().__init__("bernoulli")

    def negloglik(self, y, eta):
        value = super().negloglik(y, eta)
        return math.inf if np.abs(eta).max() > 4.0 else value


def test_lasso_design_rejects_overflowed_negloglik():
    # separable data drive eta up without bound. Past |eta| = 4 a candidate's
    # negloglik is inf, and so is the slack; such a step must be rejected
    Z = np.array([[1.0], [2.0], [-1.0], [-0.5]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    problem = GlmProblem(y, Z, family=_OverflowingBernoulli())
    info = {}
    coef = fit_glm_lasso(problem, 0.0, max_iter=200, info=info)
    assert np.all(np.isfinite(info["objective_trace"]))
    assert np.abs(Z @ coef).max() <= 4.0


# The Gaussian proximal-gradient loop as it ran on the n-row design before the
# solver moved to cached inner products; the reference for the Gram path.
def reference_gaussian_lasso(problem, rho, coef0=None, max_iter=2000, kkt_tol=None):
    Z, y, offset, fam = problem.Z, problem.y, problem.offset, GAUSSIAN
    q = problem.q
    if kkt_tol is None:
        kkt_tol = 1e-9 * max(1.0, rho)
    coef = np.zeros(q) if coef0 is None else np.asarray(coef0, dtype=float).copy()

    sigma_max = np.linalg.norm(Z, 2) if Z.size else 0.0
    lip = fam.lipschitz_factor() * sigma_max**2
    delta0 = 1.0 / lip if lip > 0 else 1.0

    nll = fam.negloglik(y, Z @ coef + offset)
    trace = [nll + rho * np.abs(coef).sum()]
    for it in range(max_iter):
        eta = Z @ coef + offset
        grad = Z.T @ fam.dnll_deta(y, eta)

        active = coef != 0.0
        kkt = np.where(
            active,
            np.abs(grad + rho * np.sign(coef)),
            np.maximum(np.abs(grad) - rho, 0.0),
        )
        if np.max(kkt, initial=0.0) <= kkt_tol:
            break

        delta, accepted = delta0, False
        for _ in range(60):
            cand = soft_threshold(coef - delta * grad, rho * delta)
            diff = cand - coef
            cand_nll = fam.negloglik(y, Z @ cand + offset)
            slack = 1e-14 * (1.0 + abs(nll) + abs(cand_nll))
            if cand_nll <= nll + grad @ diff + (diff @ diff) / (2.0 * delta) + slack:
                accepted = True
                break
            delta /= 2.0
        if not accepted or not np.any(diff):
            break
        coef, nll = cand, cand_nll
        trace.append(nll + rho * np.abs(coef).sum())
    return coef, it + 1, np.asarray(trace)


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    n, q = (30, 8) if seed % 2 else (80, 12)
    Z = rng.standard_normal((n, q)) * rng.uniform(0.2, 3.0, q)
    y = rng.standard_normal(n) * 2.0
    return GlmProblem(y, Z, offset=rng.standard_normal(n)), None


def _cp_block_problem(seed):
    # a CP factor block on symmetric X: rank-deficient by R(R-1)/2 = 3
    rng = np.random.default_rng(seed)
    n, p, r = 120, 8, 3
    X = rng.standard_normal((n, p, p))
    X = (X + X.transpose(0, 2, 1)) / 2.0
    b_other = rng.standard_normal((p, r))
    design = np.einsum("ipq,qr->ipr", X, b_other).reshape(n, p * r)
    y = design @ rng.standard_normal(p * r) * 0.3 + rng.standard_normal(n)
    problem = GlmProblem(y, design, offset=0.1 * rng.standard_normal(n))
    return problem, rng.standard_normal(p * r)


@pytest.mark.parametrize(
    "make, seed, rho, max_iter",
    [
        (_random_problem, 1, 0.5, 2000),
        (_random_problem, 2, 3.0, 2000),
        (_random_problem, 3, 0.0, 2000),
        (_cp_block_problem, 4, 0.5, 500),
        (_cp_block_problem, 5, 5.0, 500),
    ],
)
def test_lasso_gram_path_matches_reference(make, seed, rho, max_iter):
    problem, coef0 = make(seed)
    if make is _cp_block_problem:
        assert np.linalg.matrix_rank(problem.Z) == problem.q - 3
    ref, ref_iters, ref_trace = reference_gaussian_lasso(
        problem, rho, coef0=coef0, max_iter=max_iter
    )
    info = {}
    coef = fit_glm_lasso(problem, rho, coef0=coef0, max_iter=max_iter, info=info)
    assert np.linalg.norm(coef - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)
    assert info["iterations"] == ref_iters
    trace = info["objective_trace"]
    assert trace.shape == ref_trace.shape
    assert np.all(np.abs(trace - ref_trace) <= 1e-10 * np.abs(ref_trace))


# The Gaussian loop on cached inner products as it ran before its KKT test was
# batched over windows: each iterate is tested before the next step is taken.
# The reference for the windowed loop, which must match it exactly. With
# fail_at=k the k-th negloglik evaluation (1-based) counts as non-finite;
# `residuals`, when given, receives each tested iterate's KKT residual.
def reference_gram_lasso(
    problem, rho, coef0=None, max_iter=2000, kkt_tol=None, fail_at=None, residuals=None
):
    Z, y, offset = problem.Z, problem.y, problem.offset
    q = problem.q
    if kkt_tol is None:
        kkt_tol = 1e-9 * max(1.0, rho)
    coef = np.zeros(q) if coef0 is None else np.asarray(coef0, dtype=float).copy()
    r = y - offset
    G, c, half_rr = Z.T @ Z, Z.T @ r, 0.5 * float(r @ r)
    evaluations = 0

    def gram_nll(x, gx):
        nonlocal evaluations
        evaluations += 1
        value = 0.5 * float(x @ gx) - float(c @ x) + half_rr
        if not math.isfinite(value) or evaluations == fail_at:
            raise ValueError("negloglik requires finite y and eta")
        return value

    lip = float(np.linalg.eigvalsh(G)[-1])
    gx = G @ coef
    nll = gram_nll(coef, gx)
    delta0 = 1.0 / lip if lip > 0 else 1.0

    trace = [nll + rho * np.abs(coef).sum()]
    converged = False
    for it in range(max_iter):
        grad = gx - c
        sign = np.sign(coef)
        kkt = np.maximum(np.abs(grad + rho * sign) - rho * (sign == 0.0), 0.0)
        if residuals is not None:
            residuals.append(kkt.max())
        if kkt.max() <= kkt_tol:
            converged = True
            break

        delta, accepted = delta0, False
        for _ in range(60):
            cand = soft_threshold(coef - delta * grad, rho * delta)
            diff = cand - coef
            g_diff = G @ diff
            cand_gx = gx + g_diff
            cand_nll = gram_nll(cand, cand_gx)
            lhs, rhs = 0.5 * float(diff @ g_diff), 0.0
            slack = 1e-14 * (1.0 + abs(nll) + abs(cand_nll))
            if lhs <= rhs + (diff @ diff) / (2.0 * delta) + slack:
                accepted = True
                break
            delta /= 2.0
        if not accepted or not diff.any():
            break
        coef, nll = cand, cand_nll
        gx = cand_gx
        trace.append(nll + rho * np.abs(coef).sum())
    return coef, it + 1, np.asarray(trace), converged


def _assert_matches_gram_reference(problem, rho, coef0=None, fail_at=None, **kw):
    ref, ref_iters, ref_trace, ref_converged = reference_gram_lasso(
        problem, rho, coef0=coef0, fail_at=fail_at, **kw
    )
    info = {}
    coef = fit_glm_lasso(problem, rho, coef0=coef0, info=info, **kw)
    assert np.array_equal(coef, ref)
    assert info["iterations"] == ref_iters
    assert info["converged"] is ref_converged
    assert np.array_equal(info["objective_trace"], ref_trace)
    return info


@pytest.mark.parametrize(
    "make, seed, rho, max_iter",
    [
        (_random_problem, 1, 0.5, 2000),
        (_random_problem, 2, 3.0, 2000),
        (_random_problem, 3, 0.0, 2000),
        (_random_problem, 6, 0.5, 2000),
        (_cp_block_problem, 4, 0.5, 500),
        (_cp_block_problem, 5, 5.0, 500),
        (_cp_block_problem, 7, 0.5, 500),
    ],
)
def test_lasso_windows_match_gram_reference(make, seed, rho, max_iter):
    problem, coef0 = make(seed)
    _assert_matches_gram_reference(problem, rho, coef0, max_iter=max_iter)


def test_lasso_windows_converge_at_iterate_zero(rng):
    # zero is optimal once rho >= max|Z'r|: the start passes the KKT test
    Z = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    problem = GlmProblem(y, Z)
    info = _assert_matches_gram_reference(problem, 2.0 * np.abs(Z.T @ y).max())
    assert info["iterations"] == 1 and info["converged"] is True
    assert info["objective_trace"].shape == (1,)


def test_lasso_windows_converge_inside_first_window(rng):
    Z, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    problem = GlmProblem(rng.standard_normal(40), Z)
    info = _assert_matches_gram_reference(problem, 0.3)
    assert 1 < info["iterations"] < LASSO_WINDOW and info["converged"] is True
    assert type(info["iterations"]) is int


@pytest.mark.parametrize("passing", [LASSO_WINDOW - 1, LASSO_WINDOW, LASSO_WINDOW + 1])
def test_lasso_windows_converge_at_window_boundary(passing):
    # the tolerance is the residual of iterate `passing`, lower than every
    # earlier one, so that iterate is the first to pass: the last row of the
    # first window, the first row of the second, or the one after it
    problem, coef0 = _cp_block_problem(7)
    residuals = []
    reference_gram_lasso(problem, 0.5, coef0, max_iter=2 * LASSO_WINDOW,
                         kkt_tol=0.0, residuals=residuals)
    assert residuals[passing] < min(residuals[:passing])
    info = _assert_matches_gram_reference(
        problem, 0.5, coef0, max_iter=500, kkt_tol=residuals[passing]
    )
    assert info["iterations"] == passing + 1 and info["converged"] is True
    # reached at max_iter, the same iterate joins the trace untested
    info = _assert_matches_gram_reference(
        problem, 0.5, coef0, max_iter=passing, kkt_tol=residuals[passing]
    )
    assert info["iterations"] == passing and info["converged"] is False


@pytest.mark.parametrize(
    "max_iter", [1, 2, LASSO_WINDOW - 1, LASSO_WINDOW, LASSO_WINDOW + 1, 2 * LASSO_WINDOW + 5]
)
def test_lasso_windows_stop_at_max_iter(max_iter):
    problem, coef0 = _cp_block_problem(4)
    info = _assert_matches_gram_reference(problem, 0.5, coef0, max_iter=max_iter)
    assert info["iterations"] == max_iter and info["converged"] is False
    assert info["objective_trace"].shape == (max_iter + 1,)


def test_lasso_windows_stop_at_a_stall():
    # G = I. Coordinate 0 sits at 1e20 with zero gradient: its KKT residual
    # is rho, but a step of rho*delta = 1 is below its ulp, so it never moves.
    # Coordinate 1 reaches its optimum in one step; the step after moves
    # nothing, and the search stops there, unconverged.
    problem = GlmProblem([1e20, 2.5], np.eye(2))
    info = _assert_matches_gram_reference(problem, 1.0, coef0=[1e20, 3.0])
    assert info["iterations"] == 2 and info["converged"] is False


class _FailingMath:
    """Stands in for glm's `math`: the k-th isfinite call reports non-finite."""

    def __init__(self, fail_at):
        self.fail_at, self.calls = fail_at, 0

    def isfinite(self, value):
        self.calls += 1
        return self.calls != self.fail_at and math.isfinite(value)


def _run_with_failure(monkeypatch, problem, rho, coef0, fail_at, **kw):
    """Run fit_glm_lasso with its fail_at-th negloglik non-finite: it must
    raise exactly when the reference does, and match it otherwise."""
    monkeypatch.setattr(glm, "math", _FailingMath(fail_at))
    try:
        reference_gram_lasso(problem, rho, coef0=coef0, fail_at=fail_at, **kw)
    except ValueError:
        with pytest.raises(ValueError):
            fit_glm_lasso(problem, rho, coef0=coef0, **kw)
        return None
    return _assert_matches_gram_reference(problem, rho, coef0, fail_at=fail_at, **kw)


def test_lasso_windows_raise_non_finite_after_an_unconverged_window(monkeypatch):
    # every step accepts its first rung, so evaluation k + 1 is iterate k's step
    problem, coef0 = _cp_block_problem(4)
    for fail_at in (LASSO_WINDOW + 1, LASSO_WINDOW + 2, LASSO_WINDOW + 10):
        assert _run_with_failure(monkeypatch, problem, 0.5, coef0, fail_at,
                                 max_iter=500) is None


def test_lasso_windows_ignore_non_finite_past_convergence(monkeypatch, rng):
    # the windowed loop steps past the converged iterate; a failure there is
    # not raised, and one the reference reaches still is
    Z, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    problem = GlmProblem(rng.standard_normal(40), Z)
    _, ref_iters, _, converged = reference_gram_lasso(problem, 0.3)
    assert converged
    evaluations = ref_iters  # the start, then one per step taken
    for fail_at in (evaluations + 1, evaluations + 5):
        info = _run_with_failure(monkeypatch, problem, 0.3, None, fail_at)
        assert info is not None and info["iterations"] == ref_iters
    assert _run_with_failure(monkeypatch, problem, 0.3, None, evaluations) is None

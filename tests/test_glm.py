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
from symreg.simulate import random_correlations


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


def test_negloglik_batch_rejects_mismatch_and_non_finite():
    y = np.zeros(4)
    with pytest.raises(ValueError, match="length mismatch"):
        GAUSSIAN.negloglik(y, np.zeros(5))
    # a 2-D eta is no batch of predictors, even when its rows match y
    with pytest.raises(ValueError, match="length mismatch"):
        GAUSSIAN.negloglik(y, np.zeros((2, 4)))
    eta = np.zeros(4)
    eta[2] = np.nan
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


def _logistic_problem(rng, n=400):
    Z = rng.standard_normal((n, 3))
    offset = 0.3 * rng.standard_normal(n)
    eta = Z @ np.array([1.0, -0.5, 0.2]) + offset
    y = (rng.random(n) < BERNOULLI.mean(eta)).astype(float)
    return GlmProblem(y, Z, offset, BERNOULLI)


def test_fit_glm_stops_on_the_newton_decrement(rng):
    problem = _logistic_problem(rng)
    info = {}
    coef = fit_glm(problem, info=info)
    assert info["converged"] is True
    eta = problem.Z @ coef + problem.offset
    mu = BERNOULLI.mean(eta)
    grad = problem.Z.T @ (mu - problem.y)
    H = problem.Z.T @ ((mu * (1.0 - mu))[:, None] * problem.Z)
    half_decrement = -0.5 * float(grad @ np.linalg.solve(H, -grad))
    nll = BERNOULLI.negloglik(problem.y, eta)
    assert half_decrement <= glm.NEWTON_TOL * max(1.0, nll)


def test_fit_glm_warm_start_at_its_result_stops_at_once(rng):
    problem = _logistic_problem(rng)
    coef = fit_glm(problem)
    info = {}
    again = fit_glm(problem, coef0=coef, info=info)
    assert np.array_equal(again, coef)
    assert info["iterations"] == 1 and info["converged"] is True


def test_fit_glm_exhausted_step_search_raises_at_once(rng, monkeypatch):
    # every candidate scores above the starting nll: with the decrement far
    # above the floor, the first search that runs out is ascent
    problem = _logistic_problem(rng)
    real = Family.negloglik
    calls = []

    def rising(self, y, eta):
        calls.append(None)
        return real(self, y, eta) + (1e6 if len(calls) > 1 else 0.0)

    monkeypatch.setattr(Family, "negloglik", rising)
    with pytest.raises(glm.GlmConvergenceError, match="step halving exhausted"):
        fit_glm(problem)
    assert len(calls) == 1 + 30  # the start, then one search of 30 halvings


def test_fit_glm_reports_the_iteration_cap(rng, monkeypatch):
    monkeypatch.setattr(glm, "IRLS_MAX_ITER", 1)
    info = {}
    fit_glm(_logistic_problem(rng), info=info)
    assert info["iterations"] == 1 and info["converged"] is False


# ---------------------------------------------------------------- soft_threshold

def test_soft_threshold_values():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == 2.0
    assert soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0
    x = np.array([0.3, -4.0, 0.0])
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_rejects_negative_t():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(2), -0.1)


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
    # a non-finite design reaches eigvalsh, whose LinAlgError reports it;
    # the metric's power iteration must not warn on it first
    for value in (np.nan, np.inf):
        bad_Z = Z.copy()
        bad_Z[4, 1] = value
        with pytest.raises(np.linalg.LinAlgError):
            fit_glm_lasso(GlmProblem(y, bad_Z), 0.1)



class _OverflowingBernoulli(Family):
    """Bernoulli whose negloglik reads inf once any |eta| exceeds 4."""

    def __init__(self):
        super().__init__("bernoulli")

    def negloglik(self, y, eta):
        value = super().negloglik(y, eta)
        return math.inf if np.abs(eta).max() > 4.0 else value


def test_lasso_design_rejects_overflowed_negloglik():
    # separable data drive eta up without bound. Past |eta| = 4 a candidate's
    # negloglik is inf; the step search must never accept such a point
    Z = np.array([[1.0], [2.0], [-1.0], [-0.5]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    problem = GlmProblem(y, Z, family=_OverflowingBernoulli())
    info = {}
    coef = fit_glm_lasso(problem, 0.0, max_iter=200, info=info)
    assert np.all(np.isfinite(info["objective_trace"]))
    assert np.abs(Z @ coef).max() <= 4.0


# The proximal step of the quadratic model at y in the metric
# H = a*I + b*u u' of glm._lasso_metric, found without running sums: phi is
# evaluated directly at every breakpoint, and the signs of the segment that
# holds its root give alpha in the same arithmetic as glm._metric_prox.
def reference_metric_step(a, b, u, rho):
    delta = 1.0 / a

    def step(y, g):
        if b == 0.0:
            return soft_threshold(y - delta * g, rho * delta)
        t = (y - delta * g) * (a / u)
        lo, hi = t - rho / np.abs(u), t + rho / np.abs(u)
        points = np.sort(np.concatenate((lo, hi)))
        moved = soft_threshold(y - delta * (g + points[:, None] * u), rho * delta) - y
        phi = points - b * (moved @ u)
        k = int(np.argmax(phi > 0.0)) if phi[-1] > 0.0 else points.size
        left = points[k - 1] if k > 0 else points[0] - 1.0
        right = points[k] if k < points.size else points[-1] + 1.0
        mid = 0.5 * (left + right)
        sign = np.sign(u) * ((mid < lo) * 1.0 - (mid > hi))
        active = np.abs(sign)
        bdu = (b * delta) * u
        ug, buy = bdu * g, (b * u) * y
        alpha = -(float(active @ (ug - buy)) + float(sign @ (rho * bdu))
                  + float(buy.sum())) / (1.0 + float(active @ (bdu * u)))
        return soft_threshold(y - delta * (g + alpha * u), rho * delta)

    return step


def _metric_restart(a, b, u, y, x1, x):
    # (y - x1)'H(x1 - x) > 0: the step from y points against the last move
    move = x1 - x
    return float((y - x1) @ (a * move + b * u * float(u @ move))) > 0.0


# FISTA with gradient restart and a monotone safeguard, written out on the
# n-row design: gradients Z'(Z x - r) and objectives from residuals, no
# cached inner products, and the metric step above. The reference for the
# Gram path's algebra.
def reference_fista_design(problem, rho, coef0=None, max_iter=2000, kkt_tol=1e-9):
    Z, r = problem.Z, problem.y - problem.offset
    scale = max(np.abs(Z.T @ r).max(), rho) or 1.0
    a, b, u = glm._lasso_metric(Z.T @ Z)
    metric_step = reference_metric_step(a, b, u, rho)

    def objective(x):
        return 0.5 * np.sum((r - Z @ x) ** 2) + rho * np.abs(x).sum()

    def prox(x):
        return metric_step(x, Z.T @ (Z @ x - r))

    def kkt(x):
        grad = Z.T @ (Z @ x - r)
        return float(np.where(
            x != 0.0, np.abs(grad + rho * np.sign(x)), np.maximum(np.abs(grad) - rho, 0.0)
        ).max()) / scale

    x = np.zeros(problem.q) if coef0 is None else np.asarray(coef0, dtype=float)
    y, t, beta = x, 1.0, 0.0
    trace = [objective(x)]
    for it in range(max_iter + 1):
        if kkt(x) <= kkt_tol or it == max_iter:
            break
        x1 = prox(y)
        restart = beta > 0 and objective(x1) > trace[-1]
        if restart:
            x1 = prox(x)
        if (beta == 0 or restart) and np.array_equal(x1, x):
            break
        if beta > 0 and not restart:
            restart = _metric_restart(a, b, u, y, x1, x)
        if restart:
            t, beta = 1.0, 0.0
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            t, beta = t_next, (t - 1.0) / t_next
        y, x = x1 + beta * (x1 - x), x1
        trace.append(objective(x))
    return x, min(it + 1, max_iter), np.asarray(trace), bool(kkt(x) <= kkt_tol)


# The same loop on cached inner products, in the Gram path's arithmetic: it
# must match bit for bit. The objective is evaluated once at the start; each
# step adds F(x1) - F(x) = (x1 - x)'(G(x1 + x)/2 - c) + rho*(|x1|_1 - |x|_1).
# With fail_at=k the k-th objective evaluation (1-based) counts as
# non-finite. `counts`, when given, receives how often the momentum
# restarted on the gradient test and on the monotone safeguard, and
# `residuals` the scaled KKT residual of every iterate tested.
def reference_fista_gram(problem, rho, coef0=None, max_iter=2000, kkt_tol=1e-9,
                         fail_at=None, counts=None, residuals=None):
    Z, r = problem.Z, problem.y - problem.offset
    G, c, half_rr = Z.T @ Z, Z.T @ r, 0.5 * float(r @ r)
    scale = max(float(np.abs(c).max()), rho) or 1.0
    a, b, u = glm._lasso_metric(G)
    metric_step = reference_metric_step(a, b, u, rho)
    evaluations = 0

    def checked(value):
        nonlocal evaluations
        evaluations += 1
        if not math.isfinite(value) or evaluations == fail_at:
            raise ValueError("negloglik requires finite y and eta")
        return value

    def prox(y, gy, x, gx):
        x1 = metric_step(y, gy - c)
        gx1 = G @ x1
        change = float((x1 - x) @ (0.5 * (gx1 + gx) - c))
        change += rho * (float(np.abs(x1).sum()) - float(np.abs(x).sum()))
        return x1, gx1, checked(change)

    def kkt(x, gx):
        grad = gx - c
        return float(np.where(
            x != 0.0, np.abs(grad + rho * np.sign(x)), np.maximum(np.abs(grad) - rho, 0.0)
        ).max()) / scale

    x = np.zeros(problem.q) if coef0 is None else np.asarray(coef0, dtype=float)
    gx = G @ x
    f = 0.5 * float(x @ gx) - float(c @ x) + half_rr
    f = checked(f + rho * float(np.abs(x).sum()))
    y, gy, t, beta = x, gx, 1.0, 0.0
    trace = [f]
    for it in range(max_iter + 1):
        res = kkt(x, gx)
        if residuals is not None:
            residuals.append(res)
        if res <= kkt_tol or it == max_iter:
            break
        x1, gx1, change = prox(y, gy, x, gx)
        safeguard = beta > 0 and change > 0
        if safeguard:
            x1, gx1, change = prox(x, gx, x, gx)
        if (beta == 0 or safeguard) and np.array_equal(x1, x):
            break
        restart = beta > 0 and not safeguard and _metric_restart(a, b, u, y, x1, x)
        if counts is not None:
            counts["safeguard"] += safeguard
            counts["restart"] += restart
        if safeguard or restart:
            t, beta = 1.0, 0.0
            y, gy = x1, gx1
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            t, beta = t_next, (t - 1.0) / t_next
            y, gy = x1 + beta * (x1 - x), gx1 + beta * (gx1 - gx)
        x, gx, f = x1, gx1, f + change
        trace.append(f)
    res = kkt(x, gx)
    return x, min(it + 1, max_iter), np.asarray(trace), bool(res <= kkt_tol), res


def _assert_matches_gram_reference(problem, rho, coef0=None, counts=None, fail_at=None,
                                   **kw):
    ref, ref_iters, ref_trace, ref_converged, ref_kkt = reference_fista_gram(
        problem, rho, coef0=coef0, counts=counts, fail_at=fail_at, **kw
    )
    info = {}
    coef = fit_glm_lasso(problem, rho, coef0=coef0, info=info, **kw)
    assert np.array_equal(coef, ref)
    assert info["iterations"] == ref_iters
    assert info["converged"] is ref_converged
    assert info["kkt"] == ref_kkt
    assert np.array_equal(info["objective_trace"], ref_trace)
    return info


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    n, q = (30, 8) if seed % 2 else (80, 12)
    Z = rng.standard_normal((n, q)) * rng.uniform(0.2, 3.0, q)
    y = rng.standard_normal(n) * 2.0
    return GlmProblem(y, Z, offset=rng.standard_normal(n)), None


def _cp_block_problem(seed, n=120, p=8, r=3, correlations=False):
    # a CP factor block on symmetric X: rank-deficient by R(R-1)/2
    rng = np.random.default_rng(seed)
    if correlations:
        X = random_correlations(n, p, rng)
    else:
        X = rng.standard_normal((n, p, p))
        X = (X + X.transpose(0, 2, 1)) / 2.0
    b_other = rng.standard_normal((p, r))
    design = np.einsum("ipq,qr->ipr", X, b_other).reshape(n, p * r)
    y = design @ rng.standard_normal(p * r) * 0.3 + rng.standard_normal(n)
    problem = GlmProblem(y, design, offset=0.1 * rng.standard_normal(n))
    return problem, rng.standard_normal(p * r)


def _correlation_block_problem(seed, n=120, p=8, r=3):
    # X drawn as the simulations draw them, correlation matrices: the unit
    # diagonal that every record shares gives G one dominant eigenvalue, so
    # the lasso steps in a rank-one metric
    return _cp_block_problem(seed, n, p, r, correlations=True)


def _scaled(problem, root):
    # Z, y and offset times root: G and c scale by root**2, and so must rho for
    # the optimum to stay where it is
    return GlmProblem(problem.y * root, problem.Z * root, problem.offset * root)


def _small_gram_block(seed):
    problem, coef0 = _cp_block_problem(seed)
    return _scaled(problem, 1e-3), coef0


def _large_gram_block(seed):
    problem, coef0 = _cp_block_problem(seed)
    return _scaled(problem, 1e3), coef0


def _top_eigvec_start(seed):
    # the warm start lies on G's top eigenvector, where d'Gd = L||d||^2 makes
    # the majorization of the first step tight
    problem, _ = _cp_block_problem(seed)
    top = np.linalg.eigh(problem.Z.T @ problem.Z)[1][:, -1]
    return problem, 10.0 * top


@pytest.mark.parametrize(
    "make, seed, rho, max_iter",
    [
        (_random_problem, 1, 0.5, 2000),
        (_random_problem, 2, 3.0, 2000),
        (_random_problem, 3, 0.0, 2000),
        (_cp_block_problem, 4, 0.5, 500),
        (_cp_block_problem, 5, 5.0, 500),
        (_correlation_block_problem, 9, 0.5, 500),
        (_correlation_block_problem, 10, 0.0, 500),
    ],
)
def test_lasso_gram_path_matches_reference(make, seed, rho, max_iter):
    problem, coef0 = make(seed)
    if make is _cp_block_problem:
        assert np.linalg.matrix_rank(problem.Z) == problem.q - 3
    # at the CP fits' tolerance the two arithmetics take the same steps
    ref, ref_iters, ref_trace, ref_converged = reference_fista_design(
        problem, rho, coef0=coef0, max_iter=max_iter, kkt_tol=1e-4
    )
    info = {}
    coef = fit_glm_lasso(problem, rho, coef0=coef0, max_iter=max_iter,
                         kkt_tol=1e-4, info=info)
    assert np.linalg.norm(coef - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)
    assert info["iterations"] == ref_iters
    assert info["converged"] is ref_converged
    trace = info["objective_trace"]
    assert trace.shape == ref_trace.shape
    assert np.all(np.abs(trace - ref_trace) <= 1e-10 * np.abs(ref_trace))
    # near 1e-9 the monotone and restart tests compare objectives that differ
    # by rounding, so the paths part; both reach the same optimum
    ref, _, ref_trace, ref_converged = reference_fista_design(
        problem, rho, coef0=coef0, max_iter=max_iter, kkt_tol=1e-9
    )
    info = {}
    coef = fit_glm_lasso(problem, rho, coef0=coef0, max_iter=max_iter, info=info)
    assert info["converged"] is ref_converged
    assert abs(info["objective_trace"][-1] - ref_trace[-1]) <= 1e-13 * ref_trace[-1]
    fitted = problem.Z @ ref
    assert np.linalg.norm(problem.Z @ coef - fitted) <= 1e-7 * np.linalg.norm(fitted)


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
        (_cp_block_problem, 8, 0.0, 500),
        (_cp_block_problem, 8, 1e-3, 500),
        (_cp_block_problem, 4, 1000.0, 500),  # above max|c| = 372.8: coef -> 0
        (_small_gram_block, 4, 0.5e-6, 500),
        (_large_gram_block, 4, 0.5e6, 500),
        (_small_gram_block, 5, 0.0, 500),
        (_large_gram_block, 5, 0.0, 500),
        (_top_eigvec_start, 7, 0.0, 500),
        (_top_eigvec_start, 7, 0.5, 500),
        (_correlation_block_problem, 9, 0.5, 500),
        (_correlation_block_problem, 10, 0.0, 500),
        (_correlation_block_problem, 11, 5.0, 500),
    ],
)
def test_lasso_windows_match_gram_reference(make, seed, rho, max_iter):
    problem, coef0 = make(seed)
    for kkt_tol in (1e-4, 1e-9):
        info = _assert_matches_gram_reference(problem, rho, coef0, max_iter=max_iter,
                                              kkt_tol=kkt_tol)
        # non-increasing up to the rounding of the summed objective changes
        trace = info["objective_trace"]
        assert np.all(np.diff(trace) <= 1e-13 * np.maximum(np.abs(trace[:-1]), 1.0))
        if rho > np.abs(problem.Z.T @ (problem.y - problem.offset)).max():
            assert info["converged"] is True
            assert not fit_glm_lasso(problem, rho, coef0, max_iter=max_iter).any()


def test_lasso_gram_restarts_and_safeguards_are_exercised():
    # the reference comparisons above would not notice a wrong branch that
    # never runs: both ways of dropping the momentum occur on CP blocks
    counts = {"restart": 0, "safeguard": 0}
    for seed in (4, 7):
        problem, coef0 = _cp_block_problem(seed)
        _assert_matches_gram_reference(problem, 0.5, coef0, counts=counts,
                                       max_iter=500, kkt_tol=1e-9)
    assert counts["restart"] > 0 and counts["safeguard"] > 0


@st.composite
def _metric_grams(draw):
    """A PSD G: a CP block on correlation covariates, random low-rank, zero,
    1 x 1, the identity, or block diagonal with the top eigenvector inside
    its first block, so that power iteration leaves exact zeros in u."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(
        ["correlation_block", "low_rank", "zero", "one_by_one", "identity", "zeros_in_u"]
    ))
    q = draw(st.integers(2, 24))
    if kind == "correlation_block":
        p, r = draw(st.integers(2, 6)), draw(st.integers(1, 3))
        problem, _ = _correlation_block_problem(seed, n=draw(st.integers(5, 60)), p=p, r=r)
        G = problem.Z.T @ problem.Z
    elif kind == "low_rank":
        A = rng.standard_normal((q, draw(st.integers(1, q))))
        G = A @ A.T
    elif kind == "zero":
        G = np.zeros((q, q))
    elif kind == "one_by_one":
        G = np.array([[rng.uniform(1e-3, 1e3)]])
    elif kind == "identity":
        G = np.eye(q)
    else:
        A = rng.standard_normal((q, q))
        G = np.zeros((q + 3, q + 3))
        G[:q, :q] = 10.0 * (A @ A.T)
        G[q:, q:] = np.eye(3)
    G = G * draw(st.sampled_from([1.0, 1e-4, 1e4]))
    return kind, G, seed


@settings(max_examples=150, deadline=None)
@given(_metric_grams(), st.sampled_from([0.0, 1e-3, 0.3, 3.0]))
def test_lasso_metric_majorizes_and_its_step_is_the_prox(case, rho_scale):
    kind, G, seed = case
    a, b, u = glm._lasso_metric(G)
    L = a + b
    H = a * np.eye(G.shape[0]) + b * np.outer(u, u)
    assert a > 0.0 and b >= 0.0
    assert np.linalg.eigvalsh(H - G).min() >= -1e-10 * L
    if b > 0.0:
        assert np.all(u) and abs(np.linalg.norm(u) - 1.0) <= 1e-12
    if kind in ("zero", "identity", "zeros_in_u"):
        assert b == 0.0
    # the step solves its own subproblem: 0 is in g + H(x1 - y) + rho*d|x1|
    rng = np.random.default_rng(seed + 1)
    y = rng.standard_normal(G.shape[0]) * rng.choice([0.0, 1.0, 100.0], G.shape[0])
    g = G @ y - G @ rng.standard_normal(G.shape[0]) + rng.standard_normal(G.shape[0])
    rho = rho_scale * (float(np.abs(g).max()) or 1.0)
    x1 = glm._metric_prox(a, b, u, rho)(y, g)
    residual = g + H @ (x1 - y)
    slack = 1e-11 * (float(np.abs(g).max()) + L * float(np.abs(y).max()) + rho)
    active = x1 != 0.0
    assert np.all(np.abs(residual[active] + rho * np.sign(x1[active])) <= slack)
    assert np.all(np.abs(residual[~active]) <= rho + slack)


def test_lasso_metric_takes_the_rank_one_path_on_correlation_blocks(monkeypatch):
    # the fast path must not be lost silently: a CP block on correlation
    # covariates steps in a rank-one metric (b > 0), while G = I, whose top
    # eigenvector is a coordinate axis, keeps the scalar step 1/eigmax(G)
    metrics, build = [], glm._lasso_metric

    def spy(G):
        metrics.append(build(G))
        return metrics[-1]

    monkeypatch.setattr(glm, "_lasso_metric", spy)
    problem, coef0 = _correlation_block_problem(9)
    fit_glm_lasso(problem, 0.5, coef0=coef0, max_iter=500, kkt_tol=1e-4)
    (a, b, u), = metrics
    assert b > 0.0 and a < 0.2 * (a + b)
    metrics.clear()
    fit_glm_lasso(GlmProblem([1.0, -2.0, 0.5], np.eye(3)), 0.1)
    (a, b, u), = metrics
    assert (a, b) == (1.0, 0.0)


# The test_lasso_windows_* tests are named after the loop's earlier form,
# which ran the KKT test once per window of 64 iterates; their cases still
# stop on either side of iterate 64 and compare every path with the
# reference above.
def test_lasso_windows_converge_at_iterate_zero(rng):
    # zero is optimal once rho >= max|Z'r|: the start passes the KKT test
    Z = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    problem = GlmProblem(y, Z)
    info = _assert_matches_gram_reference(problem, 2.0 * np.abs(Z.T @ y).max())
    assert info["iterations"] == 1 and info["converged"] is True
    assert info["objective_trace"].shape == (1,) and info["kkt"] == 0.0
    assert type(info["iterations"]) is int


def test_lasso_windows_converge_inside_first_window(rng):
    Z, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    problem = GlmProblem(rng.standard_normal(40), Z)
    info = _assert_matches_gram_reference(problem, 0.3)
    assert 1 < info["iterations"] < 64 and info["converged"] is True
    assert type(info["iterations"]) is int


@pytest.mark.parametrize("passing", [63, 64, 65])
def test_lasso_windows_converge_at_window_boundary(passing):
    # the tolerance is the residual of iterate `passing`, lower than every
    # earlier one, so that iterate is the first to pass and the call ends
    # there; reached at max_iter, the same iterate is tested and passes
    problem, coef0 = _cp_block_problem(7)
    residuals = []
    reference_fista_gram(problem, 0.0, coef0, max_iter=2 * 64, kkt_tol=0.0,
                         residuals=residuals)
    assert residuals[passing] < min(residuals[:passing])
    info = _assert_matches_gram_reference(
        problem, 0.0, coef0, max_iter=500, kkt_tol=residuals[passing]
    )
    assert info["iterations"] == passing + 1 and info["converged"] is True
    assert info["kkt"] == residuals[passing]
    info = _assert_matches_gram_reference(
        problem, 0.0, coef0, max_iter=passing, kkt_tol=residuals[passing]
    )
    assert info["iterations"] == passing and info["converged"] is True


@pytest.mark.parametrize("max_iter", [1, 2, 63, 64, 65, 133])
def test_lasso_windows_stop_at_max_iter(max_iter):
    problem, coef0 = _cp_block_problem(4)
    info = _assert_matches_gram_reference(problem, 0.5, coef0, max_iter=max_iter)
    assert info["iterations"] == max_iter and info["converged"] is False
    assert info["objective_trace"].shape == (max_iter + 1,)
    assert info["kkt"] > 1e-9


def test_lasso_windows_stop_at_a_stall():
    # G = I. Coordinate 0 sits at 1e20 with zero gradient: its KKT residual
    # is rho, but a step of rho*delta = 1 is below its ulp, so it never moves.
    # Coordinate 1 reaches its optimum in one plain step; the next plain step
    # moves nothing, and the search stops there, unconverged at kkt_tol = 0
    problem = GlmProblem([1e20, 2.5], np.eye(2))
    info = _assert_matches_gram_reference(problem, 1.0, coef0=[1e20, 3.0], kkt_tol=0.0)
    assert info["iterations"] == 2 and info["converged"] is False


def test_lasso_kkt_tolerance_is_relative_to_the_block():
    # scaling Z, y and offset by root scales c and the KKT residual by
    # root**2; with rho scaled alike the relative test stops at the same
    # iterate whatever the scale
    problem, coef0 = _cp_block_problem(5)
    infos = []
    for root in (1e-3, 1.0, 1e3):
        info = {}
        fit_glm_lasso(_scaled(problem, root), 0.5 * root**2, coef0, max_iter=500,
                      kkt_tol=1e-4, info=info)
        infos.append(info)
    assert all(info["converged"] for info in infos)
    assert len({info["iterations"] for info in infos}) == 1


class _FailingMath:
    """Stands in for glm's `math`: the k-th isfinite call reports non-finite."""

    def __init__(self, fail_at):
        self.fail_at, self.calls = fail_at, 0

    def isfinite(self, value):
        self.calls += 1
        return self.calls != self.fail_at and math.isfinite(value)

    def sqrt(self, value):
        return math.sqrt(value)


def _run_with_failure(monkeypatch, problem, rho, coef0, fail_at, **kw):
    """Run fit_glm_lasso with its fail_at-th objective evaluation non-finite:
    it must raise exactly when the reference does, and match it otherwise."""
    monkeypatch.setattr(glm, "math", _FailingMath(fail_at))
    try:
        reference_fista_gram(problem, rho, coef0=coef0, fail_at=fail_at, **kw)
    except ValueError:
        with pytest.raises(ValueError, match="finite"):
            fit_glm_lasso(problem, rho, coef0=coef0, **kw)
        return None
    return _assert_matches_gram_reference(problem, rho, coef0, fail_at=fail_at, **kw)


def test_lasso_windows_raise_non_finite_after_an_unconverged_window(monkeypatch):
    # a non-finite objective at any step raises, as in the reference: at the
    # start, in the first steps, and past iterate 64 of an unconverged call
    problem, coef0 = _cp_block_problem(4)
    for fail_at in (1, 2, 40, 65, 66, 74):
        assert _run_with_failure(monkeypatch, problem, 0.5, coef0, fail_at,
                                 max_iter=500) is None


def test_lasso_windows_ignore_non_finite_past_convergence(monkeypatch, rng):
    # the loop stops at the converged iterate: a failure at an evaluation
    # after it is never reached, and the last one it makes still raises
    Z, _ = np.linalg.qr(rng.standard_normal((40, 5)))
    problem = GlmProblem(rng.standard_normal(40), Z)
    counts = {"restart": 0, "safeguard": 0}
    _, ref_iters, _, converged, _ = reference_fista_gram(problem, 0.3, counts=counts)
    assert converged
    # the start, one per step, one more per safeguarded step
    evaluations = ref_iters + counts["safeguard"]
    for fail_at in (evaluations + 1, evaluations + 5):
        info = _run_with_failure(monkeypatch, problem, 0.3, None, fail_at)
        assert info is not None and info["iterations"] == ref_iters
    assert _run_with_failure(monkeypatch, problem, 0.3, None, evaluations) is None


def _objective(problem, rho, x):
    r = problem.y - problem.offset
    return 0.5 * float(np.sum((r - problem.Z @ x) ** 2)) + rho * float(np.abs(x).sum())


@st.composite
def _lasso_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # a CP-style block: rank q - R(R-1)/2
        p, r = draw(st.integers(2, 6)), draw(st.integers(1, 3))
        problem, _ = _cp_block_problem(seed, n=draw(st.integers(5, 60)), p=p, r=r)
        rank = problem.q - r * (r - 1) // 2
    else:
        n, q = draw(st.integers(3, 40)), draw(st.integers(1, 12))
        Z = rng.standard_normal((n, q)) * rng.uniform(0.1, 3.0, q)
        problem = GlmProblem(rng.standard_normal(n), Z, 0.3 * rng.standard_normal(n))
        rank = None
    c_max = float(np.abs(problem.Z.T @ (problem.y - problem.offset)).max())
    rho = draw(st.sampled_from([0.0, 1e-3 * c_max, 0.1 * c_max, 1.5 * c_max]))
    coef0 = None if draw(st.booleans()) else 3.0 * rng.standard_normal(problem.q)
    kkt_tol = draw(st.sampled_from([1e-4, 1e-8]))
    return problem, rank, rho, coef0, kkt_tol, c_max


@settings(max_examples=100, deadline=None)
@given(_lasso_cases())
def test_lasso_gram_properties(case):
    problem, rank, rho, coef0, kkt_tol, c_max = case
    if rank is not None:
        assert np.linalg.matrix_rank(problem.Z) <= rank
    info = {}
    coef = fit_glm_lasso(problem, rho, coef0=coef0, max_iter=3000, kkt_tol=kkt_tol,
                         info=info)
    trace = info["objective_trace"]
    assert np.all(np.diff(trace) <= 1e-13 * np.maximum(np.abs(trace[:-1]), 1.0))
    start = np.zeros(problem.q) if coef0 is None else coef0
    before, after = _objective(problem, rho, start), _objective(problem, rho, coef)
    assert after <= before + 1e-13 * max(abs(before), 1.0)
    if info["converged"]:
        # the residual recomputed on the n-row design, within rounding
        Z, r = problem.Z, problem.y - problem.offset
        grad = Z.T @ (Z @ coef - r)
        residual = np.where(
            coef != 0.0, np.abs(grad + rho * np.sign(coef)), np.maximum(np.abs(grad) - rho, 0.0)
        ).max()
        scale = max(c_max, rho) or 1.0
        slack = 1e-12 * (np.linalg.norm(Z, 2) ** 2 * np.abs(coef).max() + c_max)
        assert info["kkt"] <= kkt_tol
        assert residual <= kkt_tol * scale + slack
    if rho > c_max:
        assert info["converged"] is True
        assert not coef.any()


@st.composite
def _bernoulli_inputs(draw):
    """An adversarial logistic input: (Z, offset, y, truth, response kind).

    Z is a CP factor block, a random design, or a random design whose last
    column is a multiple of its first, scaled by 1e-3, 1 or 1e3; the offset
    gains up to 500 in size. y is drawn at the truth; drawn at 100 times the
    truth (near-separable: most weights mu(1 - mu) there sit at their 1e-10
    floor); 1 where Z @ truth > 0 (separated); or all zero or all one.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    design = draw(st.sampled_from(["cp_block", "random", "collinear"]))
    if design == "cp_block":
        p, r = draw(st.integers(2, 6)), draw(st.integers(1, 3))
        block, _ = _cp_block_problem(seed, n=draw(st.integers(5, 60)), p=p, r=r)
        Z, offset = block.Z, block.offset
    else:
        n, q = draw(st.integers(3, 40)), draw(st.integers(1, 12))
        Z = rng.standard_normal((n, q)) * rng.uniform(0.1, 3.0, q)
        if design == "collinear":
            Z = np.column_stack([Z, rng.uniform(-2.0, 2.0) * Z[:, 0]])
        offset = 0.3 * rng.standard_normal(n)
    n, q = Z.shape
    Z = Z * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    offset = offset + draw(st.sampled_from([0.0, 5.0, 500.0])) * rng.uniform(-1.0, 1.0, n)
    response = draw(st.sampled_from(["drawn", "near_separable", "separated", "zeros", "ones"]))
    truth = rng.standard_normal(q) / np.sqrt(q) * (100.0 if response == "near_separable" else 1.0)
    eta = Z @ truth + offset
    if response in ("drawn", "near_separable"):
        y = (rng.random(n) < BERNOULLI.mean(eta)).astype(float)
    elif response == "separated":
        y = (Z @ truth > 0).astype(float)
    else:
        y = np.full(n, float(response == "ones"))
    return Z, offset, y, truth, response


@settings(max_examples=100, deadline=None)
@given(_bernoulli_inputs(), st.booleans())
def test_fit_glm_bernoulli_properties(inputs, warm):
    # IRLS ends in finite coefficients no worse than the start, or in a
    # NumericalError; a RuntimeWarning fails the test (pyproject.toml)
    Z, offset, y, truth, _ = inputs
    coef0 = truth if warm else None
    info = {}
    try:
        coef = fit_glm(GlmProblem(y, Z, offset, family=BERNOULLI), coef0=coef0, info=info)
    except glm.NumericalError:
        return
    start = np.zeros(Z.shape[1]) if coef0 is None else coef0
    assert np.all(np.isfinite(coef))
    assert isinstance(info["converged"], bool)
    nll_start = BERNOULLI.negloglik(y, Z @ start + offset)
    assert BERNOULLI.negloglik(y, Z @ coef + offset) <= nll_start


@st.composite
def _bernoulli_lasso_cases(draw):
    Z, offset, y, truth, response = draw(_bernoulli_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = GlmProblem(y, Z, offset, family=BERNOULLI)
    c_max = float(np.abs(Z.T @ BERNOULLI.dnll_deta(y, offset)).max())
    rho = draw(st.sampled_from([0.0, 1e-3 * c_max, 0.1 * c_max, 1.5 * c_max]))
    # a warm start at a separating truth lies where the weights are floored
    separable = response in ("near_separable", "separated")
    coef0 = (None if draw(st.booleans()) else truth if separable
             else rng.standard_normal(problem.q))
    kkt_tol = draw(st.sampled_from([1e-4, 1e-8]))
    return problem, rho, coef0, kkt_tol, c_max


@settings(max_examples=100, deadline=None)
@given(_bernoulli_lasso_cases())
def test_lasso_bernoulli_properties(case):
    problem, rho, coef0, kkt_tol, c_max = case
    Z, y, offset = problem.Z, problem.y, problem.offset

    def objective(x):
        return BERNOULLI.negloglik(y, Z @ x + offset) + rho * float(np.abs(x).sum())

    info = {}
    coef = fit_glm_lasso(problem, rho, coef0=coef0, max_iter=3000, kkt_tol=kkt_tol,
                         info=info)
    # a step is taken only if its computed change is <= 0
    assert np.all(np.diff(info["objective_trace"]) <= 0.0)
    # each change is a difference of two rounded losses, so the recomputed
    # objective may exceed the warm start's by a few ulps per step
    start = np.zeros(problem.q) if coef0 is None else coef0
    before, after = objective(start), objective(coef)
    assert after <= before + 4e-16 * info["iterations"] * max(abs(before), 1.0)
    if info["converged"]:
        # the residual recomputed on the n-row design, within rounding
        grad = Z.T @ BERNOULLI.dnll_deta(y, Z @ coef + offset)
        residual = np.where(
            coef != 0.0, np.abs(grad + rho * np.sign(coef)), np.maximum(np.abs(grad) - rho, 0.0)
        ).max()
        slack = 1e-12 * (np.linalg.norm(Z, 2) ** 2 * np.abs(coef).max() + c_max)
        assert info["kkt"] <= kkt_tol
        assert residual <= kkt_tol * (max(c_max, rho) or 1.0) + slack
    if rho > c_max:
        assert info["converged"] is True
        assert not coef.any()

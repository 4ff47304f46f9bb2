# Exponential-family plumbing: losses, (weighted) GLM fits with offsets via
# least squares / IRLS (stopped on the Newton decrement), the soft-threshold
# operator, and an l1-penalized GLM. Its one l1 solver is a FISTA loop with
# restart on a quadratic, x'Gx/2 - c'x + rho*|x|_1, whose proximal steps are
# taken in a metric a*I + b*u u' that a Cholesky factorization certifies to
# majorize G (the scalar step 1/eigmax(G) where it cannot): the gaussian
# loss is that quadratic, and bernoulli runs it inside proximal Newton on
# the loss's weighted quadratic model. IRLS and proximal Newton take each
# step from one logistic model (_logistic_model) and the one step-halving
# search (_damped_step), which the gaussian symmetric B block shares. The
# matrix solvers build all of their block updates from these.

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

RIDGE = 1e-8  # fallback perturbation for rank-deficient designs
NEWTON_TOL = 1e-12  # IRLS stops once the full step predicts less, relative to nll
IRLS_MAX_ITER = 100


class NumericalError(RuntimeError):
    """A fit failed numerically; the CLI exits 5 on it and on every subclass."""


class GlmConvergenceError(NumericalError):
    pass


def _sigmoid(eta):
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    z = np.exp(eta[~pos])
    out[~pos] = z / (1.0 + z)
    return out


@dataclass(frozen=True)
class Family:
    """Closed forms for one exponential family under its canonical link.

    gaussian: identity link, mu = eta, variance fixed at 1 during optimization
    (sigma^2 only rescales the loss, so the penalty grid absorbs it).
    bernoulli: logit link, mu = 1/(1+exp(-eta)).
    """

    name: str

    def __post_init__(self):
        if self.name not in ("gaussian", "bernoulli"):
            raise ValueError(f"unknown family {self.name!r}")

    def mean(self, eta):
        eta = np.asarray(eta, dtype=float)
        if self.name == "gaussian":
            return eta
        return _sigmoid(eta)

    def negloglik(self, y, eta):
        """Negative log-likelihood of responses y at linear predictor eta.

        eta of y's shape gives a float. A 2-D or higher eta whose last axis
        matches a 1-D y is a batch of predictors: the result is an array with
        one value per leading index, each equal to the unbatched value.
        """
        y = np.asarray(y, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if eta.shape == y.shape:
            axis = None
        elif y.ndim == 1 and eta.ndim > 1 and eta.shape[-1] == y.size:
            axis = -1
        else:
            raise ValueError(f"length mismatch: y {y.shape}, eta {eta.shape}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(eta))):
            raise ValueError("negloglik requires finite y and eta")
        if self.name == "gaussian":
            value = 0.5 * np.sum((y - eta) ** 2, axis=axis)
        else:
            # log(1 + e^eta) - y*eta, overflow-safe for large |eta|; cheaper
            # than np.logaddexp(0, eta), and within an ulp of it
            softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
            value = np.sum(softplus - y * eta, axis=axis)
        return float(value) if axis is None else value

    def dnll_deta(self, y, eta):
        """Gradient of negloglik in eta; mu - y for both canonical links."""
        return self.mean(eta) - np.asarray(y, dtype=float)


GAUSSIAN = Family("gaussian")
BERNOULLI = Family("bernoulli")


class GlmProblem:
    """Immutable bundle (y, Z, offset, family) for one GLM solve."""

    def __init__(self, y, Z, offset=None, family=GAUSSIAN):
        self.y = np.asarray(y, dtype=float).ravel()
        self.Z = np.asarray(Z, dtype=float)
        if self.Z.ndim == 1:
            self.Z = self.Z[:, None]
        n = self.y.size
        if self.Z.shape[0] != n:
            raise ValueError(f"Z has {self.Z.shape[0]} rows for {n} responses")
        self.offset = (
            np.zeros(n) if offset is None else np.asarray(offset, dtype=float).ravel()
        )
        if self.offset.size != n:
            raise ValueError("offset length mismatch")
        self.family = family
        if family.name == "bernoulli" and not np.all(np.isin(self.y, (0.0, 1.0))):
            raise ValueError("bernoulli responses must be 0/1")

    @property
    def q(self):
        return self.Z.shape[1]

    def objective(self, coef, rho=0.0):
        """(eta, negloglik + rho*||coef||_1) at coef."""
        eta = self.Z @ coef + self.offset
        return eta, self.family.negloglik(self.y, eta) + rho * float(np.abs(coef).sum())


def _check_finite_ls(Z, r):
    # LAPACK given a non-finite input prints to the terminal, spins or returns nan
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(r))):
        raise ValueError("least squares requires a finite design and response")


def _solve_ridged(Z, r, info):
    """solve(Z'Z + RIDGE*I, Z'r), flagged in info["ridged"].

    The fallback of _solve_ls for rank-deficient designs, and the direct solve
    of designs known to be rank-deficient (the CP factor blocks at R >= 2).
    """
    _check_finite_ls(Z, r)
    G = Z.T @ Z + RIDGE * np.eye(Z.shape[1])
    coef = np.linalg.solve(G, Z.T @ r)
    if info is not None:
        info["ridged"] = True
    return coef


def _solve_ls(Z, r, info):
    _check_finite_ls(Z, r)
    coef, _, rank, _ = np.linalg.lstsq(Z, r, rcond=None)
    if rank < Z.shape[1]:
        # collinear columns appear routinely when ranks void; perturb instead of failing
        return _solve_ridged(Z, r, info)
    return coef


def _logistic_model(problem, eta):
    """The logistic loss's second-order model at eta, which IRLS and proximal
    Newton both step on: its gradient Z'(mu - y), and a function that forms
    its Hessian Z'WZ, W = diag(mu(1 - mu)) floored at 1e-10. The Hessian is
    most of the cost, and a proximal Newton call that stops at eta skips it.
    """
    Z = problem.Z
    mu = _sigmoid(eta)
    w = np.maximum(mu * (1.0 - mu), 1e-10)
    return Z.T @ (mu - problem.y), lambda: Z.T @ (w[:, None] * Z)


def _damped_step(x, step, evaluate, f):
    """The one step-halving search, of IRLS, proximal Newton and the gaussian
    symmetric B block (solvers._prox_linear_B).

    evaluate maps a candidate to (its predictor, its objective); a GLM's is
    GlmProblem.objective. Returns (candidate, predictor, objective) for the
    first candidate x + 2^-j step, j = 0 .. 29, whose objective is at most
    f; None if none is.
    """
    for halvings in range(30):
        cand = x + 0.5**halvings * step
        pred, obj = evaluate(cand)
        if obj <= f:
            return cand, pred, obj
    return None


def fit_glm(problem, coef0=None, info=None):
    """Minimize problem.family negloglik of y given Z @ coef + offset.

    gaussian reduces to least squares of (y - offset) on Z, solved by lstsq;
    a non-finite Z or y - offset raises ValueError before LAPACK runs.
    bernoulli runs IRLS (Newton, _logistic_model) with step halving by the
    one search of IRLS, proximal Newton and the gaussian symmetric B block
    (_damped_step) until lambda^2/2 = -grad.step/2, the decrease the full
    step predicts (Boyd & Vandenberghe 2004, 9.5), is <= NEWTON_TOL *
    max(1, |nll|): far above nll's rounding, far below the outer tol, so the
    float floor stops the loop. Above it, a step search that runs out is
    real ascent: GlmConvergenceError. `info` (a caller-supplied dict) gets
    "iterations", "converged" (the test passed within IRLS_MAX_ITER) and
    "ridged": rank-deficient designs are solved with a 1e-8 ridge.
    """
    q = problem.q
    if q == 0:
        return np.zeros(0)
    if problem.family.name == "gaussian":
        return _solve_ls(problem.Z, problem.y - problem.offset, info)

    coef = np.zeros(q) if coef0 is None else np.asarray(coef0, dtype=float).copy()
    eta = problem.Z @ coef + problem.offset
    nll = problem.family.negloglik(problem.y, eta)
    converged = False
    for it in range(IRLS_MAX_ITER):
        grad, hessian = _logistic_model(problem, eta)
        H = hessian()
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + RIDGE * np.eye(q), -grad)
            if info is not None:
                info["ridged"] = True
        if -0.5 * float(grad @ step) <= NEWTON_TOL * max(1.0, abs(nll)):
            converged = True
            break
        accepted = _damped_step(coef, step, problem.objective, nll)
        if accepted is None:
            raise GlmConvergenceError(
                "IRLS objective increases with step halving exhausted"
            )
        coef, eta, nll = accepted
    if info is not None:
        info["iterations"] = it + 1
        info["converged"] = converged
    return coef


def soft_threshold(v, t):
    """Elementwise sign(x) * max(|x| - t, 0); the prox operator of t*||.||_1.

    t may be an array that broadcasts against v, one threshold per slice.
    """
    if np.any(np.less(t, 0)):
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit_glm_lasso(problem, rho, coef0=None, max_iter=2000, kkt_tol=1e-9, info=None):
    """Minimize negloglik + rho*||coef||_1.

    The penalized objective is non-increasing across iterations, so no call
    ends above its warm start. Convergence is declared on the KKT residual,
    |grad_j + rho*sign(coef_j)| for active j and max(|grad_j|-rho, 0) for
    zero j, relative to the block: a call converges once the residual's max
    is at most kkt_tol * max(||grad at coef = 0||_inf, rho), the scale of the
    smallest rho that zeroes every coefficient. `info` (a caller-supplied
    dict) receives "iterations", "objective_trace", "converged" (whether the
    KKT test passed) and "kkt" (the returned iterate's residual over that
    scale).

    One FISTA loop on a quadratic, _lasso_quadratic, does the l1 work. Its
    proximal steps are taken in a metric H = a*I + b*u u', u G's top
    eigenvector, that a Cholesky factorization of H - G certifies to
    majorize G; where the certificate fails, or u has an exact zero, H is
    eigmax(G)*I, the fixed step 1/eigmax(G). The gaussian loss is that
    quadratic, on G = Z'Z and c = Z'(y - offset). The bernoulli loss runs
    proximal Newton on it (_lasso_newton): the loop solves the loss's
    second-order model on G = Z'WZ, and the step to that solution is halved
    until the true objective does not rise. Its "iterations" are the loop's,
    summed over the Newton steps and capped at max_iter in total; its trace
    holds the objective at each Newton iterate.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    coef = np.zeros(problem.q) if coef0 is None else np.asarray(coef0, dtype=float).copy()
    if not np.all(np.isfinite(coef)):
        raise ValueError("coef0 must be finite")
    if problem.q == 0:
        return np.zeros(0)

    if problem.family == GAUSSIAN:
        # a non-finite y - offset shows as a non-finite starting objective,
        # which _lasso_quadratic rejects
        Z, r = problem.Z, problem.y - problem.offset
        c = Z.T @ r
        coef, report = _lasso_quadratic(Z.T @ Z, c, 0.5 * float(r @ r), rho, coef,
                                        max_iter, kkt_tol, _kkt_scale(c, rho))
    else:
        coef, report = _lasso_newton(problem, rho, coef, max_iter, kkt_tol)
    if info is not None:
        info.update(report)
    return coef


def _kkt_residual(grad, coef, rho):
    """max over j of |grad_j + rho*sign_j| on active j, |grad_j| - rho on zero j,
    floored at 0."""
    sign = np.sign(coef)
    return float(np.maximum(np.abs(grad + rho * sign) - rho * (sign == 0.0), 0.0).max())


def _kkt_scale(grad0, rho):
    """max(||grad0||_inf, rho), or 1 where both are 0; grad0 is the loss
    gradient at coef = 0, so coef = 0 is optimal for rho >= ||grad0||_inf."""
    return max(float(np.abs(grad0).max()), rho) or 1.0


# The metric of _lasso_quadratic (_rank_one_metric): u is G's top eigenvector
# by power iteration and L = (1 + METRIC_MARGIN) times its Rayleigh quotient;
# a is first tried at METRIC_SLACK times an estimate of G's second
# eigenvalue, and never below METRIC_FLOOR * L.
METRIC_MARGIN = 1e-8
METRIC_SLACK = 1.2
METRIC_FLOOR = 1e-3
POWER_TOL = 1e-10  # power iteration on G stops once no entry of u moves more
POWER_MAX_ITER = 50
DEFLATED_POWER_STEPS = 4  # power steps on G - theta*u u'


def _lasso_metric(G):
    """(a, b, u) such that H = a*I + b*u u' majorizes G: H - G >= 0.

    The rank-one metric of _rank_one_metric where its certificate holds;
    otherwise the scalar a = eigmax(G) (1 where that is 0) with b = 0, the
    fixed step 1/eigmax(G) of plain FISTA. A non-finite G goes straight to
    eigvalsh, whose LinAlgError reports it.
    """
    if np.isfinite(G).all():
        metric = _rank_one_metric(G)
        if metric is not None:
            return metric
    return float(np.linalg.eigvalsh(G)[-1]) or 1.0, 0.0, np.zeros(G.shape[0])


def _rank_one_metric(G):
    """(a, b, u) with b > 0 and a Cholesky certificate that H - G >= 0, or None.

    Power iteration, started from G's column of largest diagonal, gives the
    unit vector u and L = theta*(1 + METRIC_MARGIN), theta = u'Gu. A few
    power steps on G - theta*u u' estimate G's second eigenvalue. a starts
    at max(METRIC_SLACK * that estimate, METRIC_FLOOR * L) and doubles until
    np.linalg.cholesky(a*I + (L - a)*u u' - G) succeeds: that certifies
    H - G >= 0 with b = L - a. None where a reaches L, or u has an exact
    zero (the step's breakpoints divide by u).
    """
    v = G[:, int(np.argmax(np.diagonal(G)))]
    u = np.zeros_like(v)
    for _ in range(POWER_MAX_ITER):
        norm = float(np.linalg.norm(v))
        if not norm:
            break
        v = v / norm
        moved = float(np.abs(v - u).max())
        u = v
        if moved <= POWER_TOL:
            break
        v = G.dot(u)
    if not np.all(u):
        return None
    theta = float(u.dot(G.dot(u)))
    L = theta * (1.0 + METRIC_MARGIN)
    uu = np.outer(u, u)
    rest = G - theta * uu
    r, second = rest[:, int(np.argmax(np.diagonal(rest)))], 0.0
    for _ in range(DEFLATED_POWER_STEPS):
        norm = float(np.linalg.norm(r))
        if not norm:
            break
        r = rest.dot(r / norm)
        second = float(np.linalg.norm(r))
    a = max(METRIC_SLACK * second, METRIC_FLOOR * L)
    while a < L:
        gap = (L - a) * uu - G
        gap.flat[:: gap.shape[0] + 1] += a
        try:
            np.linalg.cholesky(gap)
            return a, L - a, u
        except np.linalg.LinAlgError:
            a *= 2.0
    return None


def _metric_prox(a, b, u, rho):
    """The proximal step in the metric H = a*I + b*u u', as a function of
    (y, g): argmin over x of g'(x - y) + (x - y)'H(x - y)/2 + rho*||x||_1.

    It is x(alpha) = soft(y - (g + alpha*u)/a, rho/a) at the root of
    phi(alpha) = alpha - b*u'(x(alpha) - y), which is piecewise linear and
    increasing (its slope is at least 1), so the root is unique (Becker &
    Fadili 2012). Coordinate j is zero for alpha between its breakpoints
    (a*w_j -+ rho)/u_j, w = y - g/a; phi's slope and intercept change at
    each. Their cumulative sums over the sorted breakpoints give phi at
    every breakpoint, hence the segment that holds the root, and the root
    is solved exactly on that segment's signs. u must have no zero entry
    where b > 0; at b = 0 the step is the scalar one, soft(y - g/a, rho/a).
    """
    delta = 1.0 / a
    shrink = rho * delta
    if not b:
        def prox(y, g):
            v = y - delta * g
            return np.sign(v) * np.maximum(np.abs(v) - shrink, 0.0)
        return prox
    q = u.size
    a_u, width, sign_u = a / u, rho / np.abs(u), np.sign(u)
    bu, bdu = b * u, (b * delta) * u
    slope = bdu * u
    bdr = rho * np.abs(bdu)
    bdru = rho * bdu
    dslope = np.concatenate((-slope, slope))
    slope0 = 1.0 + float(slope.sum())
    intercept_rho = float(bdr.sum())

    def prox(y, g):
        t = (y - delta * g) * a_u
        bp = np.concatenate((t - width, t + width))
        order = bp.argsort(kind="stable")
        # phi = slope*alpha + intercept on each segment. Below every
        # breakpoint, x_j has the sign of u_j for all j; past (a*w_j - rho)/u_j
        # coordinate j is zero, and past (a*w_j + rho)/u_j it has the other sign
        ug, buy = bdu * g, bu * y
        e = buy - ug
        dintercept = np.concatenate((e - bdr, -e - bdr))
        phi = ((slope0 + np.cumsum(dslope[order])) * bp[order]
               + (float(ug.sum()) + intercept_rho + np.cumsum(dintercept[order])))
        above = phi > 0.0
        k = int(above.argmax()) if above[-1] else 2 * q
        passed = np.zeros(2 * q, dtype=bool)
        passed[order[:k]] = True
        sign = sign_u * (1.0 - passed[:q] - passed[q:])
        active = np.abs(sign)
        alpha = -(float(active.dot(ug - buy)) + float(sign.dot(bdru))
                  + float(buy.sum())) / (1.0 + float(active.dot(slope)))
        v = y - delta * (g + alpha * u)
        return np.sign(v) * np.maximum(np.abs(v) - shrink, 0.0)
    return prox


def _lasso_quadratic(G, c, const, rho, x, max_iter, kkt_tol, scale):
    """Minimize x'Gx/2 - c'x + const + rho*||x||_1 from x by FISTA (Beck &
    Teboulle 2009) in the metric H = a*I + b*u u' of _lasso_metric.

    Each step is the proximal step of the quadratic model at y in H
    (_metric_prox): H majorizes G, so a plain step from x cannot raise the
    objective. H is built once per call; where the certificate fails it is
    the scalar eigmax(G)*I, the fixed step 1/eigmax(G). Momentum restarts
    (O'Donoghue & Candes 2015) when the step from the extrapolated point y
    to x+ points against the last move in H, (y - x+)'H(x+ - x) > 0. A
    candidate that raises the objective is replaced by a plain proximal step
    from x, and the momentum restarts. The KKT test (residual of Gx - c
    over scale), the trace and the result follow the monotone iterate x;
    each iterate carries its product G x, and y's is the same linear
    combination of them as y. A plain step that moves nothing ends the call
    unconverged. Returns x and fit_glm_lasso's info.
    """
    a, b, u = _lasso_metric(G)
    prox, ratio = _metric_prox(a, b, u, rho), b / a

    # Call overhead is most of a step's cost, so .dot and count_nonzero stand
    # in for @ and .any() (rho >= 0 was checked on entry).
    def step(y, gy, x, gx, l1):
        x1 = prox(y, gy - c)
        gx1, l1_1, move = G.dot(x1), float(np.abs(x1).sum()), x1 - x
        # F(x1) - F(x), as (x1 - x)'(G(x1 + x)/2 - c) by the symmetry of G:
        # no cancellation against const, so the monotone test stays exact
        # where F itself is only known to rounding
        change = float(move.dot(0.5 * (gx1 + gx) - c)) + rho * (l1_1 - l1)
        if not math.isfinite(change):
            raise ValueError("negloglik requires finite y and eta")
        return x1, gx1, l1_1, move, change

    gx, l1 = G.dot(x), float(np.abs(x).sum())
    f = 0.5 * float(x.dot(gx)) - float(c.dot(x)) + const + rho * l1
    if not math.isfinite(f):
        raise ValueError("negloglik requires finite y and eta")
    trace = [f]
    y, gy, t, beta = x, gx, 1.0, 0.0
    for it in range(max_iter + 1):
        kkt = _kkt_residual(gx - c, x, rho) / scale
        if kkt <= kkt_tol or it == max_iter:
            break
        x1, gx1, l1_1, move, change = step(y, gy, x, gx, l1)
        restart = change > 0.0 and beta > 0.0
        if restart:  # the monotone safeguard
            x1, gx1, l1_1, move, change = step(x, gx, x, gx, l1)
        if beta == 0.0 or restart:  # a plain step: stop if it stalls
            if not np.count_nonzero(move):
                break
        else:  # the gradient restart test, (y - x1)'H(x1 - x) / a > 0
            back = y - x1
            restart = (float(back.dot(move))
                       + ratio * float(u.dot(back)) * float(u.dot(move))) > 0.0
        if restart:
            t, beta, y, gy = 1.0, 0.0, x1, gx1
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            t, y, gy = t_next, x1 + beta * move, gx1 + beta * (gx1 - gx)
        x, gx, l1, f = x1, gx1, l1_1, f + change
        trace.append(f)
    return x, {"iterations": min(it + 1, max_iter), "objective_trace": np.asarray(trace),
               "converged": bool(kkt <= kkt_tol), "kkt": float(kkt)}


def _lasso_newton(problem, rho, x, max_iter, kkt_tol):
    """fit_glm_lasso for bernoulli: proximal Newton (Lee, Sun & Saunders
    2014), the scheme of glmnet (Friedman, Hastie & Tibshirani 2010).

    At x the loss's second-order model (_logistic_model, as in fit_glm's
    IRLS) has G = Z'WZ and c = G x - grad. _lasso_quadratic solves it
    inexactly, to max(kkt_tol, 0.1 * x's scaled residual), from the
    iterations left of max_iter. The step to its solution goes through the
    one step-halving search, _damped_step (fit_glm's and
    solvers._prox_linear_B's), on the objective at this rho; a search that
    runs out, or a step that moves nothing, ends the call.
    """
    evaluate = partial(problem.objective, rho=rho)
    grad0 = problem.Z.T.dot(problem.family.dnll_deta(problem.y, problem.offset))
    scale = _kkt_scale(grad0, rho)
    eta, f = evaluate(x)
    trace, used = [f], 0
    # rho >= ||grad0||_inf makes 0 optimal, so try it first: where every
    # weight is far below its floor the Newton model is too stiff to get there
    if rho >= np.abs(grad0).max() and np.count_nonzero(x):
        accepted = _damped_step(x, -x, evaluate, f)
        if accepted is not None:
            x, eta, f = accepted
            trace.append(f)
    while True:
        grad, hessian = _logistic_model(problem, eta)
        kkt = _kkt_residual(grad, x, rho) / scale
        if kkt <= kkt_tol or used >= max_iter:
            break
        G = hessian()
        x1, inner = _lasso_quadratic(G, G.dot(x) - grad, 0.0, rho, x, max_iter - used,
                                     max(kkt_tol, 0.1 * kkt), scale)
        used += inner["iterations"]
        accepted = _damped_step(x, x1 - x, evaluate, f)
        if accepted is None or not np.count_nonzero(accepted[0] - x):
            break
        x, eta, f = accepted
        trace.append(f)
    return x, {"iterations": used, "objective_trace": np.asarray(trace),
               "converged": bool(kkt <= kkt_tol), "kkt": float(kkt)}

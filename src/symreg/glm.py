# Exponential-family plumbing: losses, (weighted) GLM fits with offsets via
# least squares / IRLS, the soft-threshold operator, and an l1-penalized GLM
# solved by proximal gradient (a fixed 1/L step if gaussian, backtracking if
# bernoulli). The matrix solvers build all of their block updates from these.

import math

import numpy as np

RIDGE = 1e-8  # fallback perturbation for rank-deficient designs
IRLS_GRAD_TOL = 1e-8
IRLS_MAX_ITER = 100
# Gaussian lasso iterates computed ahead of each batched KKT test. A window
# costs one array pass of (LASSO_WINDOW, q) instead of one test per iterate;
# a call that converges early wastes at most one window of steps.
LASSO_WINDOW = 64


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


class Family:
    """Closed forms for one exponential family under its canonical link.

    gaussian: identity link, mu = eta, variance fixed at 1 during optimization
    (sigma^2 only rescales the loss, so the penalty grid absorbs it).
    bernoulli: logit link, mu = 1/(1+exp(-eta)).
    """

    def __init__(self, name):
        if name not in ("gaussian", "bernoulli"):
            raise ValueError(f"unknown family {name!r}")
        self.name = name

    def __repr__(self):
        return f"Family({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Family) and other.name == self.name

    def __hash__(self):
        return hash(("Family", self.name))

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
            # log(1 + e^eta) - y*eta, overflow-safe for large |eta|
            value = np.sum(np.logaddexp(0.0, eta) - y * eta, axis=axis)
        return float(value) if axis is None else value

    def dnll_deta(self, y, eta):
        """Gradient of negloglik in eta; mu - y for both canonical links."""
        return self.mean(eta) - np.asarray(y, dtype=float)

    def lipschitz_factor(self):
        """Upper bound on mu'(eta), used to size proximal steps."""
        return 1.0 if self.name == "gaussian" else 0.25


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
    def n(self):
        return self.y.size

    @property
    def q(self):
        return self.Z.shape[1]


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


def fit_glm(problem, coef0=None, info=None):
    """Minimize problem.family negloglik of y given Z @ coef + offset.

    gaussian reduces to least squares of (y - offset) on Z, solved by lstsq;
    a non-finite Z or y - offset raises ValueError before LAPACK runs.
    bernoulli runs IRLS with step halving until the gradient inf-norm is
    <= 1e-8 or 100 iterations. Rank-deficient designs are solved with a 1e-8
    ridge and flagged in `info` (a caller-supplied dict). fit_cp sends its
    unpenalized gaussian blocks at R >= 2, which are always rank-deficient,
    straight to that ridge solve (_solve_ridged) instead of through here.
    """
    q = problem.q
    if q == 0:
        return np.zeros(0)
    if problem.family.name == "gaussian":
        return _solve_ls(problem.Z, problem.y - problem.offset, info)

    Z, y, offset = problem.Z, problem.y, problem.offset
    coef = np.zeros(q) if coef0 is None else np.asarray(coef0, dtype=float).copy()
    nll = problem.family.negloglik(y, Z @ coef + offset)
    fails = 0
    for it in range(IRLS_MAX_ITER):
        eta = Z @ coef + offset
        mu = _sigmoid(eta)
        grad = Z.T @ (mu - y)
        if np.max(np.abs(grad), initial=0.0) <= IRLS_GRAD_TOL:
            break
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        H = Z.T @ (w[:, None] * Z)
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + RIDGE * np.eye(q), -grad)
            if info is not None:
                info["ridged"] = True
        t, accepted = 1.0, False
        for _ in range(30):
            cand = coef + t * step
            cand_nll = problem.family.negloglik(y, Z @ cand + offset)
            if cand_nll <= nll:
                coef, nll, accepted = cand, cand_nll, True
                break
            t /= 2.0
        if not accepted:
            fails += 1
            if fails >= 2:
                raise GlmConvergenceError(
                    "IRLS objective increases with step halving exhausted"
                )
        else:
            fails = 0
    if info is not None:
        info["iterations"] = it + 1
    return coef


def soft_threshold(v, t):
    """Elementwise sign(x) * max(|x| - t, 0); the prox operator of t*||.||_1.

    t may be an array that broadcasts against v, one threshold per slice.
    """
    if np.any(np.less(t, 0)):
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit_glm_lasso(problem, rho, coef0=None, max_iter=2000, kkt_tol=None, info=None):
    """Minimize negloglik + rho*||coef||_1 by proximal gradient.

    The penalized objective is non-increasing across iterations. Convergence
    is declared on the KKT residual: |grad_j + rho*sign(coef_j)| for active j,
    max(|grad_j|-rho, 0) for zero j. `info` (a caller-supplied dict) receives
    "iterations", "objective_trace" and "converged" (whether the KKT test
    passed).

    The gaussian loss is quadratic, so it runs on inner products cached once
    per call (G = Z'Z, c = Z'(y - offset)) instead of the n-row design, steps
    at exactly 1/L with L = eigmax(G), which needs no search, and carries
    G @ coef between iterations: one q x q matvec per step. Its iterates run
    ahead of the KKT test in windows of LASSO_WINDOW (see _lasso_gram); the
    result is that of testing every iterate in turn. The bernoulli step starts
    at 1/L (L a spectral-norm bound) and halves until the quadratic
    majorization holds.
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
    if kkt_tol is None:
        kkt_tol = 1e-9 * max(1.0, rho)

    solve = _lasso_gram if problem.family == GAUSSIAN else _lasso_design
    coef, iterations, trace, converged = solve(problem, rho, coef, max_iter, kkt_tol)
    if info is not None:
        info["iterations"] = iterations
        info["objective_trace"] = trace
        info["converged"] = converged
    return coef


def _kkt_residual(grad, coef, rho):
    """|grad_j + rho*sign_j| on active j, |grad_j| - rho on zero j, floored at 0.

    Elementwise, so rows of stacked (grad, coef) give each row's residual.
    """
    sign = np.sign(coef)
    return np.maximum(np.abs(grad + rho * sign) - rho * (sign == 0.0), 0.0)


def _lasso_design(problem, rho, coef, max_iter, kkt_tol):
    """fit_glm_lasso on the n-row design: one pass over Z per candidate."""
    Z, y, offset, fam = problem.Z, problem.y, problem.offset, problem.family
    sigma_max = np.linalg.norm(Z, 2) if Z.size else 0.0
    lip = fam.lipschitz_factor() * sigma_max**2
    delta0 = 1.0 / lip if lip > 0 else 1.0
    nll = fam.negloglik(y, Z @ coef + offset)

    trace = [nll + rho * np.abs(coef).sum()]
    converged = False
    for it in range(max_iter):
        grad = Z.T @ fam.dnll_deta(y, Z @ coef + offset)
        if _kkt_residual(grad, coef, rho).max() <= kkt_tol:
            converged = True
            break

        delta, accepted = delta0, False
        for _ in range(60):
            cand = soft_threshold(coef - delta * grad, rho * delta)
            diff = cand - coef
            cand_nll = fam.negloglik(y, Z @ cand + offset)
            # slack covers float cancellation once the true decrease is ~eps*|nll|;
            # an overflowed cand_nll would make it inf and pass any test
            slack = 1e-14 * (1.0 + abs(nll) + abs(cand_nll))
            bound = nll + grad @ diff + (diff @ diff) / (2.0 * delta) + slack
            if math.isfinite(cand_nll) and cand_nll <= bound:
                accepted = True
                break
            delta /= 2.0
        if not accepted or not diff.any():
            break
        coef, nll = cand, cand_nll
        trace.append(nll + rho * np.abs(coef).sum())
    return coef, it + 1, np.asarray(trace), converged


def _lasso_gram(problem, rho, coef, max_iter, kkt_tol):
    """fit_glm_lasso for the gaussian family, on cached inner products.

    The KKT test feeds no iterate, so the proximal steps run ahead of it:
    a window stores up to LASSO_WINDOW iterates and their gradients, then
    one array pass tests them all, and the search ends at the first that
    passes. The residual is elementwise arithmetic and a max, so each row's
    verdict, and hence coef, "iterations", "converged" and the trace, equal
    those of testing each iterate before stepping from it. A step that
    raises or stalls ends the window early; its error is raised only if
    neither the iterate it stepped from nor an earlier one in the window
    passes. The iterate reached at max_iter is not tested.
    """
    Z, q = problem.Z, problem.q
    r = problem.y - problem.offset
    if not np.all(np.isfinite(r)):
        raise ValueError("negloglik requires finite y and eta")
    G, c, half_rr = Z.T @ Z, Z.T @ r, 0.5 * float(r @ r)

    # Each iterate makes ~15 numpy calls on q-vectors, so call overhead is
    # most of the cost: .dot and count_nonzero compute the same products and
    # test as @ and .any() (bit for bit, as the tests check) with less of it.
    def gram_nll(x, gx):
        # 1/2 ||r - Z x||^2 expanded on the cached inner products
        value = 0.5 * float(x.dot(gx)) - float(c.dot(x)) + half_rr
        if not math.isfinite(value):
            raise ValueError("negloglik requires finite y and eta")
        return value

    # a quadratic's majorization gap at step 1/L, d'Gd/2 - L||d||^2/2, is
    # never positive for L = eigmax(G): no step search (Beck & Teboulle 2009)
    lip = float(np.linalg.eigvalsh(G)[-1])
    delta = 1.0 / lip if lip > 0 else 1.0

    gx = G @ coef
    nll = gram_nll(coef, gx)
    rows = min(LASSO_WINDOW, max_iter + 1)
    coefs, grads, nlls = np.empty((rows, q)), np.empty((rows, q)), np.empty(rows)
    traces = []
    start = 0  # iteration index of the window's first row
    while True:
        ended, error, tested = False, None, 0
        for m in range(rows):
            coefs[m], nlls[m] = coef, nll
            if start + m == max_iter:
                ended = True
                break
            tested = m + 1
            grad = np.subtract(gx, c, out=grads[m])
            # soft_threshold inlined; rho >= 0 was checked on entry
            v = coef - delta * grad
            cand = np.sign(v) * np.maximum(np.abs(v) - rho * delta, 0.0)
            diff = cand - coef
            cand_gx = gx + G.dot(diff)
            try:
                cand_nll = gram_nll(cand, cand_gx)
            except ValueError as exc:
                error = exc
                break
            if not np.count_nonzero(diff):
                ended = True
                break
            coef, gx, nll = cand, cand_gx, cand_nll
        passed = np.flatnonzero(
            _kkt_residual(grads[:tested], coefs[:tested], rho).max(axis=1) <= kkt_tol
        )
        if passed.size == 0 and error is not None:
            raise error
        last = int(passed[0]) if passed.size else m
        traces.append(nlls[: last + 1] + rho * np.abs(coefs[: last + 1]).sum(axis=1))
        if passed.size or ended:
            trace = np.concatenate(traces)
            iterations = min(start + last + 1, max_iter)
            return coefs[last].copy(), iterations, trace, bool(passed.size)
        start += rows

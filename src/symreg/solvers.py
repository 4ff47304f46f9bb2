# The three estimators for scalar-on-symmetric-matrix regression:
#   * fit_cp        - standard rank-R CP regression, block lasso-GLM updates,
#                     each outer iteration extrapolated along its successive
#                     plain updates where that lowers the objective
#   * fit_sym_cp    - the CP fit with its coefficient matrix symmetrized
#   * fit_sym_tensor- the symmetric rank-R model B diag(lam) B^T estimated by
#                     block updates (gamma, lam via GLM) and a B block that
#                     depends on the family: gaussian B is one prox-linear
#                     (Gauss-Newton) step solved like a CP factor block,
#                     bernoulli B takes proximal-gradient steps with
#                     soft-thresholding (prox_update_B)
# plus the eigen-decomposition initializer and the full pipeline
# (sym-CP fit -> eigen init -> symmetric fit). fit_cp and fit_sym_tensor share
# one outer loop, _block_descent, and one factor-block solver, _FactorBlocks.

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .glm import (
    BERNOULLI,
    GAUSSIAN,
    Family,
    GlmProblem,
    NumericalError,
    _damped_step,
    _solve_ls,
    _solve_ridged,
    fit_glm,
    fit_glm_lasso,
    soft_threshold,
)
from .tensor_ops import check_symmetric, cp_to_full, khatri_rao, symcp_to_full, symmetrize


# Line-search candidates tested per pass over X in prox_update_B. On the
# benchmark fits a step accepts after 1-19 halvings, so one batch of 24
# almost always holds the accepted step. Over the half-width rows (p = 32,
# n = 500, one thread) a 24-column gemm takes 0.45 ms, about as much as 6
# single-candidate gemvs of 0.08 ms.
PROX_BATCH = 24
# stopping rule of the l1-GLM factor blocks (rho > 0, or bernoulli CP); the
# KKT tolerance is relative to the block's scale (see fit_glm_lasso)
CP_LASSO_MAX_ITER = 500
CP_LASSO_KKT_TOL = 1e-4
# fit_cp's extrapolation weight w (see fit_cp): it starts at CP_EXTRAPOLATE_START,
# grows by CP_EXTRAPOLATE_GROW on acceptance up to CP_EXTRAPOLATE_MAX and
# halves on rejection down to CP_EXTRAPOLATE_MIN (Ang & Gillis 2019)
CP_EXTRAPOLATE_START = 1.0
CP_EXTRAPOLATE_GROW = 1.5
CP_EXTRAPOLATE_MAX = 8.0
CP_EXTRAPOLATE_MIN = 0.25


class CovariateOperator:
    """Every pass of the solvers over the covariates X of a Dataset.

    Dataset enforces exact symmetry, so <X_i, M> needs only the upper
    triangle of X_i: rows holds the p(p+1)/2 entries X_i[j, k], j <= k, of
    each record, and the matrix side carries the weights, (M + M')_jk above
    the diagonal and M_jj on it. So M need not be symmetric (CP's coef_full
    is not). Only block_design reads the full-width X, one small product
    per record, because X_i b needs whole rows: fit_cp makes no other pass,
    and reads its predictors off the designs it builds.
    """

    def __init__(self, X):
        self.X = X
        self._iu, self._ju = np.triu_indices(X.shape[1])
        self._half = np.where(self._iu == self._ju, 0.5, 1.0)
        self.rows = X[:, self._iu, self._ju]

    def _coefs(self, M):
        """The weights c of M (or of each slice of a stack): rows @ c = <X_i, M>."""
        return (M[..., self._iu, self._ju] + M[..., self._ju, self._iu]) * self._half

    def inner(self, M):
        """<X_i, M> for one p x p matrix, (n,); for a (k, p, p) stack, (k, n)."""
        c = self._coefs(np.asarray(M))
        return self.rows @ c if c.ndim == 1 else c @ self.rows.T

    def weighted_sum(self, w):
        """sum_i w_i X_i, an exactly symmetric p x p matrix."""
        v = w @ self.rows
        p = self.X.shape[1]
        out = np.empty((p, p))
        out[self._iu, self._ju] = v
        out[self._ju, self._iu] = v
        return out

    def quad_forms(self, B):
        """(n, R) design of the lam-GLM: entry (i, r) is b_r' X_i b_r."""
        p, R = B.shape
        outer = khatri_rao(B, B).T.reshape(R, p, p)  # slice r is b_r b_r'
        return self.rows @ self._coefs(outer).T

    def block_design(self, b):
        """(n, p*R) design of one factor block: row i is vec(X_i @ b).

        Serves both CP blocks: the B2 block's covariates vec(X_i' B1) equal
        vec(X_i B1) because Dataset enforces exact symmetry. Twice the design
        at b = B diag(lam) is the Jacobian in B of the symmetric predictor
        <X_i, B diag(lam) B'>: the design of the gaussian symmetric B block
        (the bernoulli B block does not use it). X_i b needs whole rows, so
        this is the one pass over the full-width X. It is one (p, p) @ (p, R)
        product per record, which lands in rows vec(X_i b) without a copy: at
        p = 32, R = 3, n = 500 on one OpenBLAS thread (2-core Haswell) it takes
        0.25-0.30 ms, where one (n*p, p) @ (p, R) gemm took 0.40-0.47 ms. The
        design is linear in b, and vec(X_i b) . vec(c) = <X_i, b c'>.
        """
        n, p, _ = self.X.shape
        return np.matmul(self.X, b).reshape(n, b.size)


@dataclass
class Dataset:
    """n records of (y, z, X) with every X an exactly symmetric p x p matrix
    and, in the bernoulli family, every y 0 or 1.

    The solvers read X only through xop, a CovariateOperator over the upper
    triangles, built on first use and cached (2.1 MB at p = 32, n = 500,
    3 ms to build). Each of its passes but block_design reads p(p+1)/2 of
    the p^2 entries per record: at p = 32, n = 500 on one thread a predictor
    gemv takes 0.08 ms instead of 0.17 ms, sum_i w_i X_i 0.08 ms instead of
    0.21 ms. A block design (R = 3) reads all of X in 0.25-0.30 ms.
    """

    y: np.ndarray          # (n,)
    Z: np.ndarray          # (n, p0); p0 may be 0
    X: np.ndarray          # (n, p, p)
    family: Family = GAUSSIAN
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.Z = np.asarray(self.Z, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.Z.ndim == 1:
            self.Z = self.Z[:, None]
        n = self.y.size
        if n < 1:
            raise ValueError("dataset needs at least one record")
        if self.Z.shape[0] != n or self.X.shape[0] != n:
            raise ValueError("y, Z, X record counts disagree")
        if self.X.ndim != 3 or self.X.shape[1] != self.X.shape[2]:
            raise ValueError(f"X must be (n, p, p), got {self.X.shape}")
        if not np.array_equal(self.X, self.X.transpose(0, 2, 1)):
            raise ValueError("covariate matrices must be exactly symmetric")
        if self.family == BERNOULLI and not np.all(np.isin(self.y, (0.0, 1.0))):
            raise ValueError("bernoulli responses must be 0 or 1")
        self._xop = None

    @property
    def n(self):
        return self.y.size

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def p0(self):
        return self.Z.shape[1]

    @property
    def xop(self):
        """The CovariateOperator over X, built on first use and cached."""
        if self._xop is None:
            self._xop = CovariateOperator(self.X)
        return self._xop

    @property
    def x_rows(self):
        """(n, p*p) flattened covariates, full width; the solvers use xop."""
        return self.X.reshape(self.n, -1)

    def take(self, idx):
        """Row-subset view used by CV folds; meta is shared."""
        idx = np.asarray(idx)
        return Dataset(self.y[idx], self.Z[idx], self.X[idx], self.family, self.meta)


@dataclass(frozen=True)
class FitConfig:
    rank: int = 3
    rho: float = 0.0
    max_outer_iters: int = 200
    tol: float = 1e-4
    seed: int = 0
    # prox_update_B's (the bernoulli B block's) steps per outer iteration and
    # its step ladder, delta0 * 2^-j for j = 0 .. line_search_max_halvings;
    # no caller sets them, so they are constants of the class, not fields
    prox_steps: ClassVar[int] = 5
    delta0: ClassVar[float] = 1.0
    line_search_max_halvings: ClassVar[int] = 50

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError("rho must be finite and nonnegative")
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")


@dataclass
class SymCPFactors:
    """Weights lam (length R) and shared factor matrix B (p x R).

    lam=None means lam = 0, so a symmetric fit from it starts at the zero
    coefficient matrix and its first lam-GLM sets lam. Individual lam_r may be
    exactly 0 (a voided rank); voided ranks are kept in place, never pruned.
    """

    lam: np.ndarray | None  # an ndarray after construction
    B: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim != 2:
            raise ValueError("B must be p x R")
        if not np.all(np.isfinite(self.B)):
            raise ValueError("B must be finite")
        if self.lam is None:
            self.lam = np.zeros(self.B.shape[1])
        self.lam = np.asarray(self.lam, dtype=float).ravel()
        if self.lam.size != self.B.shape[1]:
            raise ValueError("lam length must match B columns")
        if not np.all(np.isfinite(self.lam)):
            raise ValueError("lam must be finite")

    @property
    def matrices(self):
        return [self.B]

    @property
    def weights(self):
        return self.lam

    def to_full(self):
        return symcp_to_full(self.lam, self.B)


@dataclass
class CPFactors:
    B1: np.ndarray
    B2: np.ndarray

    def __post_init__(self):
        self.B1 = np.asarray(self.B1, dtype=float)
        self.B2 = np.asarray(self.B2, dtype=float)
        if self.B1.shape != self.B2.shape:
            raise ValueError("B1, B2 must have equal shapes")
        if not (np.all(np.isfinite(self.B1)) and np.all(np.isfinite(self.B2))):
            raise ValueError("factors must be finite")

    @property
    def rank(self):
        return self.B1.shape[1]

    @property
    def matrices(self):
        return [self.B1, self.B2]

    @property
    def weights(self):
        return np.ones(self.rank)

    def to_full(self):
        return cp_to_full(self.B1, self.B2)


@dataclass
class FitResult:
    gamma: np.ndarray
    factors: object                 # SymCPFactors or CPFactors
    coef_full: np.ndarray
    objective_trace: np.ndarray
    converged: bool
    iterations: int
    meta: dict = field(default_factory=dict)

    def predict_eta(self, Z, X):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        X = np.asarray(X, dtype=float)
        return Z @ self.gamma + X.reshape(X.shape[0], -1) @ self.coef_full.ravel()


def _loss(data, eta, matrices, rho):
    """The one penalized objective of the fits: negloglik at eta plus rho
    times the l1 norm of every factor matrix in matrices."""
    pen = sum(float(np.abs(m).sum()) for m in matrices)
    return data.family.negloglik(data.y, eta) + rho * pen


def objective(data, gamma, factors, rho):
    """Penalized loss: negloglik at eta_i = gamma'z_i + <B_full, X_i>, plus rho
    times the l1 norm of every factor matrix (B, or B1 and B2).

    The l1 penalty applies to the factor matrices only, never to lam or gamma.
    So for the symmetric model (lam, B) -> (lam/c^2, c*B) keeps every
    prediction and scales the penalty by c: at rho > 0 the objective has no
    minimizer (its infimum, the unpenalized loss, is approached as c -> 0),
    and rho acts through the descent path from the init. CP's penalty is
    smallest at the balance of (c*B1, B2/c), so it has no such direction.
    """
    eta = data.Z @ gamma + data.xop.inner(factors.to_full())
    return _loss(data, eta, factors.matrices, rho)


def _grad_B(data, B, lam, w):
    """sum_i w_i * 2 X_i B diag(lam): the negloglik gradient in B, w = dnll/deta."""
    return 2.0 * (data.xop.weighted_sum(w) @ B) * lam


def prox_update_B(data, gamma, factors, rho, config, trace=None):
    """config.prox_steps proximal-gradient steps on B with backtracking.

    Each step soft-thresholds S - delta*grad at rho*delta for delta on the
    ladder delta0 * 2^-j, j = 0 .. line_search_max_halvings, and accepts the
    first delta at which nll(S+) is finite and the quadratic majorization
    nll(S+) <= nll(S) + <grad, S+ - S> + ||S+ - S||_F^2/(2 delta)  holds.
    Exhausting the ladder keeps S; non-progress is legal. Returns the final
    B and its predictor part xb_i = <B diag(lam) B', X_i>.

    The ladder is tested PROX_BATCH candidates at a time: one gemm over the
    half-width rows of data.xop forms the batch's linear predictors (one
    pass over X instead of one per candidate). At rho = 0 the candidate is
    B - delta*grad, and on symmetric X its predictor is the quadratic
    eta - 2 delta e1 + delta^2 e2 with e1 = <X_i, B diag(lam) grad'> and
    e2 = <X_i, grad diag(lam) grad'>: one two-column gemm per step then
    serves every batch. Either way the accepted B's eta and nll are
    recomputed as for an unbatched candidate, so B, eta and nll do not
    depend on how the candidates were screened. At p = 32,
    n = 500 on one thread a step costs one weighted_sum for the gradient
    (0.08 ms), one screen (0.45 ms per 24-candidate batch at rho > 0; 0.12 ms
    for the e1, e2 pair at rho = 0) and one gemv for the accepted predictor
    (0.08 ms).
    """
    lam = factors.lam
    B = factors.B.copy()
    zoff = data.Z @ gamma
    y, fam = data.y, data.family
    ladder = config.delta0 * 0.5 ** np.arange(config.line_search_max_halvings + 1)

    moved = True
    for k in range(config.prox_steps + 1):
        xb = data.xop.inner(symcp_to_full(lam, B))
        eta = zoff + xb
        nll = fam.negloglik(y, eta)
        if k == config.prox_steps or not moved:
            break
        grad = _grad_B(data, B, lam, fam.dnll_deta(y, eta))
        if rho == 0:
            glam = grad * lam
            e1, e2 = data.xop.inner(np.stack([B @ glam.T, grad @ glam.T]))
        delta = None
        for lo in range(0, ladder.size, PROX_BATCH):
            deltas = ladder[lo : lo + PROX_BATCH]
            step = deltas[:, None, None]
            cands = soft_threshold(B - step * grad, rho * step)
            diffs = (cands - B).reshape(deltas.size, -1)
            if rho == 0:
                etas = eta - 2.0 * deltas[:, None] * e1 + deltas[:, None] ** 2 * e2
            else:
                etas = zoff + data.xop.inner(symcp_to_full(lam, cands))
            # tried in order, the search would stop at the first non-finite eta
            finite = np.isfinite(etas).all(axis=1)
            reached = deltas.size if finite.all() else int(np.argmin(finite))
            d = diffs[:reached]
            cand_nll = fam.negloglik(y, etas[:reached])
            lin = np.sum(grad.ravel() * d, axis=1)
            sq = np.sum(d * d, axis=1)
            # slack covers float cancellation once the true decrease is ~eps*|nll|;
            # an overflowed cand_nll would make it inf and pass any test
            slack = 1e-14 * (1.0 + abs(nll) + np.abs(cand_nll))
            bound = nll + lin + sq / (2.0 * deltas[:reached]) + slack
            ok = np.isfinite(cand_nll) & (cand_nll <= bound)
            if ok.any():
                j = int(np.argmax(ok))
                delta, cand, diff = float(deltas[j]), cands[j], diffs[j]
                break
            if reached < deltas.size:
                raise ValueError(
                    f"non-finite linear predictor at step size {deltas[reached]!r}"
                )
        if trace is not None:
            trace.append({"delta": delta, "accepted": delta is not None})
        if delta is None:
            break
        B = cand.copy()
        moved = np.any(diff)
    return B, xb


class _FactorBlocks:
    """The one solver of the factor blocks of both estimators.

    A block regresses y on a design whose row i is linear in the p x R
    factor b (CP's vec(X_i b_other); the gaussian symmetric B block's
    Jacobian), with an offset. Unpenalized gaussian blocks (rho = 0) are
    ordinary least squares and are solved exactly; every other block runs
    fit_glm_lasso, warm-started at the current factor.

    Every block design is vec(X_i b_other) up to a constant (for the
    symmetric block b_other = B diag(lam)), and on symmetric X the factor
    b_other A with A antisymmetric adds nothing to its predictor. So at
    R >= 2 every block is rank-deficient, and least-squares blocks there go
    straight to the ridge solve that lstsq would fall back to
    (glm_info["ridged"]); at R = 1 they run lstsq (_solve_ls, the solve of a
    gaussian fit_glm). Lasso blocks stop at a KKT residual of
    CP_LASSO_KKT_TOL relative to the block (see fit_glm_lasso).

    One _FactorBlocks serves one fit, and record() is that fit's
    FitResult.meta, the same five scalars for every estimator and family:
    "ridged" (any GLM call of the fit, the gamma and lam blocks included,
    wrote glm_info["ridged"]), "lasso_calls", their summed
    "lasso_iterations", and "lasso_capped", the calls that stopped at
    CP_LASSO_MAX_ITER without converging. A fit with no lasso block (rho = 0
    gaussian, or the bernoulli symmetric fit, whose B block is
    prox_update_B) reports 0 calls. "extrapolated" counts the outer
    iterations whose extrapolated point fit_cp accepted; symmetric fits
    never extrapolate and report 0.
    """

    def __init__(self, data, rho):
        self.data, self.rho = data, rho
        self.least_squares = rho == 0 and data.family == GAUSSIAN
        self.glm_info = {}
        self._converged, self._iterations = [], []
        self.extrapolated = 0

    def solve(self, design, offset, b):
        data, (p, R) = self.data, b.shape
        if self.least_squares:
            solve = _solve_ridged if R >= 2 else _solve_ls
            return solve(design, data.y - offset, self.glm_info).reshape(p, R)
        info = {}
        coef = fit_glm_lasso(
            GlmProblem(data.y, design, offset, data.family),
            self.rho,
            coef0=b.ravel(),
            max_iter=CP_LASSO_MAX_ITER,
            kkt_tol=CP_LASSO_KKT_TOL,
            info=info,
        )
        self._converged.append(info["converged"])
        self._iterations.append(info["iterations"])
        return coef.reshape(p, R)

    def record(self):
        return {
            "ridged": bool(self.glm_info.get("ridged", False)),
            "lasso_calls": len(self._converged),
            "lasso_iterations": sum(self._iterations),
            "lasso_capped": self._converged.count(False),
            "extrapolated": self.extrapolated,
        }


def _prox_linear_B(data, zoff, factors, rho, blocks):
    """The gaussian B block: one prox-linear step at fixed lam and gamma.

    X_i is symmetric, so the predictor <X_i, B L B'>, L = diag(lam), is
    linearized at B0 as xb0_i + <J_i, B - B0> with J = 2 block_design(B0 L).
    The step solves that linear model's penalized least squares with
    blocks.solve (exact at rho = 0, the lasso warm-started at B0 at
    rho > 0): for the gaussian loss this is Gauss-Newton, and the
    prox-linear method (Lewis & Wright 2016; Drusvyatskiy & Paquette 2019).
    Then the one step-halving search of glm, _damped_step, takes the first
    B0 + 2^-h (B_lin - B0), h = 0 .. 29, whose penalized objective (_loss,
    at offset zoff) is at most B0's; if none is, B0 is kept. A non-finite
    predictor raises ValueError (negloglik's). Returns B and its predictor
    part xb_i = <B L B', X_i>.
    """
    lam, B0 = factors.lam, factors.B

    def evaluate(B):
        xb = data.xop.inner(symcp_to_full(lam, B))
        return xb, _loss(data, zoff + xb, [B], rho)

    xb0, f0 = evaluate(B0)
    J = 2.0 * data.xop.block_design(B0 * lam)
    step = blocks.solve(J, zoff + xb0 - J @ B0.ravel(), B0) - B0
    accepted = _damped_step(B0, step, evaluate, f0)
    return (B0, xb0) if accepted is None else accepted[:2]


def _block_descent(data, config, factors, update_factors, blocks):
    """Block relaxation shared by both estimators.

    From gamma = 0, repeats {gamma-GLM with offset xb_i = <B_full, X_i>;
    factors, xb = update_factors(gamma, factors)} until the relative change
    of the penalized objective drops below config.tol or max_outer_iters is
    hit.
    The recorded trace is non-increasing up to rounding, because no block
    accepts an ascent: IRLS and the l1-GLM blocks test every step,
    least-squares blocks are exact minimizers up to rounding (and the 1e-8
    ridge of rank-deficient ones), the gaussian B step is taken only where
    the penalized objective does not rise, a prox step's majorization
    test allows a rise of at most its 1e-14 relative slack, and fit_cp
    returns its extrapolated point only where its penalized objective is
    finite and strictly below the plain update's. A non-finite
    objective, or a ValueError (LinAlgError is one) from a block update or
    the objective, raises NumericalError; no other code of the fits makes
    one from an error.
    blocks is the fit's _FactorBlocks: the gamma-GLM writes to its glm_info,
    as update_factors' blocks do, and blocks.record() is the fit's meta. The
    predictor part xb is carried: each one serves the objective and the next
    gamma offset.
    """
    gamma = np.zeros(data.p0)
    iterations = 0
    converged = False
    try:
        xb = data.xop.inner(factors.to_full())
        trace = [_loss(data, data.Z @ gamma + xb, factors.matrices, config.rho)]
        while not converged and iterations < config.max_outer_iters:
            iterations += 1
            problem = GlmProblem(data.y, data.Z, xb, data.family)
            gamma = fit_glm(problem, coef0=gamma, info=blocks.glm_info)
            factors, xb = update_factors(gamma, factors)
            obj = _loss(data, data.Z @ gamma + xb, factors.matrices, config.rho)
            if not np.isfinite(obj):
                raise NumericalError(
                    f"non-finite objective at outer iteration {iterations}"
                )
            converged = abs(trace[-1] - obj) / max(abs(trace[-1]), 1e-10) < config.tol
            trace.append(obj)
    except ValueError as exc:
        raise NumericalError(f"at outer iteration {iterations}: {exc}") from exc
    return FitResult(
        gamma=gamma,
        factors=factors,
        coef_full=factors.to_full(),
        objective_trace=np.asarray(trace),
        converged=converged,
        iterations=iterations,
        meta=blocks.record(),
    )


def fit_sym_tensor(data, config, init):
    """Block-update estimation of the sparse symmetric rank-R model.

    The blocks after gamma (see _block_descent) are a lam-GLM on the per-rank
    quadratic forms with offset gamma'z_i, warm-started at the current lam,
    then a B block chosen by the family. Gaussian B is one prox-linear
    (Gauss-Newton) step, _prox_linear_B, solved by _FactorBlocks like a CP
    block. Bernoulli B is prox_steps proximal-gradient steps, prox_update_B:
    the prox-linear step measured slower there, and predicted worse, and it
    runs no lasso, so meta (see _FactorBlocks.record) reports 0 lasso calls.
    An init built without lam starts at lam = 0, so the first outer
    iteration's lam-GLM sets it.
    """
    p, R = data.p, config.rank
    if init.B.shape != (p, R):
        raise ValueError(f"init B must be {(p, R)}, got {init.B.shape}")
    blocks = _FactorBlocks(data, config.rho)

    def update(gamma, factors):
        zoff = data.Z @ gamma
        design = data.xop.quad_forms(factors.B)
        problem = GlmProblem(data.y, design, zoff, data.family)
        lam = fit_glm(problem, coef0=factors.lam, info=blocks.glm_info)
        factors = SymCPFactors(lam, factors.B)
        if data.family == GAUSSIAN:
            B, xb = _prox_linear_B(data, zoff, factors, config.rho, blocks)
        else:
            B, xb = prox_update_B(data, gamma, factors, config.rho, config)
        return SymCPFactors(lam, B), xb

    return _block_descent(data, config, init, update, blocks)


def fit_cp(data, config):
    """Standard rank-R CP regression by block ascent (D = 2).

    The blocks after gamma (see _block_descent) refit B1 by an l1-penalized
    GLM on covariates vec(X_i B2) with offset gamma'z_i, then B2
    symmetrically on vec(X_i' B1), both by _FactorBlocks: least squares,
    exact, for unpenalized Gaussian blocks (ridged at R >= 2,
    meta["ridged"]), fit_glm_lasso for every other block (meta's lasso
    counts; see _FactorBlocks.record). Factors start as seeded standard
    normals.

    Each outer iteration then extrapolates (Xu & Yin 2013): with P the plain
    update (B1, B2) and P_prev the previous outer iteration's (the init at
    the first), it evaluates E = P + w (P - P_prev) at the same gamma. It
    returns E where E's penalized objective is finite and strictly below
    P's, and grows w (meta["extrapolated"] counts these); otherwise it
    returns P and shrinks w (CP_EXTRAPOLATE_*). So no returned point is
    worse than the plain update, and a non-finite E is never raised on. The
    next blocks start from the returned point.

    X is read twice per outer iteration, by the block designs D1 of B1 and
    D2 of B2 (block_design), and twice per fit, by the init's; the update
    makes no predictor pass. D1 is the B2 block's design and D2 the next B1
    block's, and P's predictor <X_i, B1 B2'> is D1 vec(B2). A design is
    linear in its factor, so E's factors have the designs D + w (D - D_prev),
    with D_prev the design of P_prev's factor: E's predictor is
    (D1 + w (D1 - D1_prev)) vec(E's B2), and where E is returned the next B1
    block's design is D2 + w (D2 - D2_prev). At w = 0 E's predictor is P's
    bit for bit.
    """
    p, R = data.p, config.rank
    blocks = _FactorBlocks(data, config.rho)
    rng = np.random.default_rng(config.seed)
    init = CPFactors(rng.standard_normal((p, R)), rng.standard_normal((p, R)))
    prev, w = init.matrices, CP_EXTRAPOLATE_START
    prev_designs = [data.xop.block_design(m) for m in prev]
    design = prev_designs[1]  # the next B1 block's

    def update(gamma, factors):
        nonlocal prev, prev_designs, design, w
        zoff = data.Z @ gamma
        b1 = blocks.solve(design, zoff, factors.B1)
        d1 = data.xop.block_design(b1)
        b2 = blocks.solve(d1, zoff, factors.B2)
        d2 = data.xop.block_design(b2)
        plain = CPFactors(b1, b2)
        xb = d1 @ b2.ravel()
        f = _loss(data, zoff + xb, plain.matrices, config.rho)
        with np.errstate(all="ignore"):
            ext = [m + w * (m - m0) for m, m0 in zip(plain.matrices, prev)]
            xb_ext = (d1 + w * (d1 - prev_designs[0])) @ ext[1].ravel()
            f_ext = math.nan
            if np.all(np.isfinite(zoff + xb_ext)):
                f_ext = _loss(data, zoff + xb_ext, ext, config.rho)
        accept = f_ext < f  # so f_ext is finite; False on a nan f_ext
        design = d2 + w * (d2 - prev_designs[1]) if accept else d2
        w = w * CP_EXTRAPOLATE_GROW if accept else w / 2.0
        w = min(max(w, CP_EXTRAPOLATE_MIN), CP_EXTRAPOLATE_MAX)
        blocks.extrapolated += accept
        prev, prev_designs = plain.matrices, [d1, d2]
        return (CPFactors(*ext), xb_ext) if accept else (plain, xb)

    return _block_descent(data, config, init, update, blocks)


def fit_sym_cp(data, config, cp_result=None):
    """CP regression followed by symmetrization of the coefficient matrix.

    On symmetric covariates the symmetrized matrix produces the same linear
    predictor as the raw CP reconstruction, so predictions are unchanged;
    only the reported coefficient matrix differs.
    """
    base = cp_result if cp_result is not None else fit_cp(data, config)
    return replace(
        base,
        coef_full=symmetrize(base.coef_full),
        meta=dict(base.meta),
    )


def check_rank(rank, p):
    """The symmetric estimator's rank bound: R eigenpairs of a p x p matrix."""
    if not 1 <= rank <= p:
        raise ValueError(f"rank must lie in [1, {p}], got {rank}")


def construct_init(b_sym, rank):
    """Eigen-decomposition initializer: best rank-R symmetric approximation.

    Keeps the R eigenpairs of largest |eigenvalue| (ties: larger signed
    eigenvalue, then lower index); returns the signed eigenvalues as lam and
    the unit-norm eigenvectors as B.
    """
    b_sym = check_symmetric(b_sym, "b_sym")
    p = b_sym.shape[0]
    check_rank(rank, p)
    vals, vecs = np.linalg.eigh(b_sym)
    order = sorted(range(p), key=lambda i: (-abs(vals[i]), -vals[i], i))
    keep = order[:rank]
    return SymCPFactors(vals[keep], vecs[:, keep])


def default_pipeline(data, config, cp_result=None):
    """Symmetrized-CP fit -> eigen init -> symmetric tensor fit.

    Returns the symmetric-tensor FitResult. cp_result, as fit_sym_cp takes
    it, is a CP fit on the same data and config that a caller already has;
    without it the rank is checked and CP is fitted here. A caller that
    passes it checks the rank (check_rank) before its own CP fit.
    """
    if cp_result is None:
        # construct_init's rank check, made before the CP fit instead of after it
        check_rank(config.rank, data.p)
        cp_result = fit_cp(data, config)
    init = construct_init(symmetrize(cp_result.coef_full), config.rank)
    return fit_sym_tensor(data, config, init)

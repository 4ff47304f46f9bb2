import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreg import (
    BERNOULLI,
    GAUSSIAN,
    CPFactors,
    Dataset,
    Family,
    FitConfig,
    GlmProblem,
    SymCPFactors,
    construct_init,
    default_pipeline,
    fit_cp,
    fit_glm,
    fit_sym_cp,
    fit_sym_tensor,
    mse_coef,
    mse_pred,
    objective,
    predict_mean,
    prox_update_B,
)
from symreg import solvers
from symreg.simulate import SignalShape, shape_signal, synth_dataset
from symreg.glm import _solve_ls, _solve_ridged, soft_threshold
from symreg.solvers import PROX_BATCH, NumericalError
from symreg.tensor_ops import symcp_to_full, symmetrize

from conftest import grad_loss_B, overflow_dataset, random_symmetric


def toy_dataset(rng, n=20, p=4, p0=2, family=GAUSSIAN, sigma=0.5):
    Z = rng.standard_normal((n, p0)) if p0 else np.zeros((n, 0))
    X = np.stack([random_symmetric(rng, p) for _ in range(n)])
    eta = Z.sum(axis=1) + 0.3 * X[:, 0, 1]
    if family is BERNOULLI:
        y = (rng.random(n) < BERNOULLI.mean(eta)).astype(float)
    else:
        y = eta + sigma * rng.standard_normal(n)
    return Dataset(y, Z, X, family)


# ---------------------------------------------------------------- FitConfig

@pytest.mark.parametrize(
    "field, value",
    [
        ("rho", float("nan")),
        ("rho", float("inf")),
    ],
)
def test_config_rejects_bad_lasso_controls(field, value):
    with pytest.raises(ValueError, match=field):
        FitConfig(**{field: value})


# ---------------------------------------------------------------- Dataset

def test_dataset_rejects_bernoulli_response_outside_0_1(rng):
    # a usage error at construction, before any fit could report it as numerical
    data = toy_dataset(rng, family=BERNOULLI)
    y = data.y.copy()
    y[0] = 0.5
    with pytest.raises(ValueError, match="bernoulli responses must be 0 or 1"):
        Dataset(y, data.Z, data.X, BERNOULLI)
    assert Dataset(y, data.Z, data.X, GAUSSIAN).y[0] == 0.5


# ---------------------------------------------------------------- objective

def test_objective_zero_at_perfect_fit(rng):
    data = toy_dataset(rng, n=12, p=3)
    factors = SymCPFactors(rng.standard_normal(2), rng.standard_normal((3, 2)))
    gamma = rng.standard_normal(2)
    eta = data.Z @ gamma + data.xop.inner(factors.to_full())
    exact = Dataset(eta, data.Z, data.X, GAUSSIAN)
    assert objective(exact, gamma, factors, 0.0) == 0.0


def test_objective_zero_coef_is_half_sum_squares(rng):
    data = toy_dataset(rng, n=15, p=3, p0=0)
    factors = SymCPFactors(np.array([3.0, -1.0]), np.zeros((3, 2)))
    val = objective(data, np.zeros(0), factors, 0.0)
    assert abs(val - 0.5 * np.sum(data.y**2)) < 1e-12


def test_objective_penalty_term(rng):
    data = toy_dataset(rng, n=10, p=2)
    gamma = np.zeros(2)
    factors = SymCPFactors(np.ones(2), np.array([[1.0, -2.0], [0.0, 3.0]]))
    base = objective(data, gamma, factors, 0.0)
    assert abs(objective(data, gamma, factors, 1.0) - base - 6.0) < 1e-12


# ---------------------------------------------------------------- grad_loss_B

def test_grad_zero_residuals(rng):
    data = toy_dataset(rng, n=10, p=3, p0=0)
    factors = SymCPFactors(rng.standard_normal(2), rng.standard_normal((3, 2)))
    eta = data.xop.inner(factors.to_full())
    exact = Dataset(eta, data.Z, data.X, GAUSSIAN)
    g = grad_loss_B(exact, np.zeros(0), factors)
    assert np.max(np.abs(g)) < 1e-10


def test_grad_zero_lambda(rng):
    data = toy_dataset(rng, n=10, p=3, p0=0)
    factors = SymCPFactors(np.zeros(2), rng.standard_normal((3, 2)))
    assert np.array_equal(grad_loss_B(data, np.zeros(0), factors), np.zeros((3, 2)))


def test_grad_single_sample_hand_value():
    X = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    factors = SymCPFactors(np.array([1.0]), np.array([[1.0], [0.0]]))
    d0 = Dataset(np.array([0.0]), np.zeros((1, 0)), X, GAUSSIAN)
    assert np.array_equal(grad_loss_B(d0, np.zeros(0), factors), np.zeros((2, 1)))
    d1 = Dataset(np.array([-1.0]), np.zeros((1, 0)), X, GAUSSIAN)
    assert np.array_equal(
        grad_loss_B(d1, np.zeros(0), factors), np.array([[0.0], [2.0]])
    )


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_grad_matches_finite_differences(family, rng):
    h = 1e-5
    for _ in range(6):
        p = int(rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        data = toy_dataset(rng, n=12, p=p, family=family)
        gamma = rng.standard_normal(2) * 0.3
        lam = rng.standard_normal(r)
        B = rng.standard_normal((p, r))
        factors = SymCPFactors(lam, B)
        g = grad_loss_B(data, gamma, factors)
        fd = np.zeros_like(B)
        for i in range(p):
            for j in range(r):
                bp, bm = B.copy(), B.copy()
                bp[i, j] += h
                bm[i, j] -= h
                fd[i, j] = (
                    objective(data, gamma, SymCPFactors(lam, bp), 0.0)
                    - objective(data, gamma, SymCPFactors(lam, bm), 0.0)
                ) / (2 * h)
        assert np.all(np.abs(g - fd) <= 1e-5 * np.maximum(np.abs(g), 1.0))


# ---------------------------------------------------------------- prox_update_B

def _prox_config(monkeypatch, rank, rho=0.0, **constants):
    """FitConfig(rank, rho), with prox_update_B's class constants (prox_steps,
    delta0, line_search_max_halvings) set for the test."""
    for name, value in constants.items():
        monkeypatch.setattr(FitConfig, name, value)
    return FitConfig(rank=rank, rho=rho)


def test_prox_huge_rho_zeroes_B(rng, monkeypatch):
    data = toy_dataset(rng, n=15, p=3, p0=0)
    factors = SymCPFactors(np.ones(2), rng.standard_normal((3, 2)))
    cfg = _prox_config(monkeypatch, 2, 1e12, prox_steps=1)
    out, _ = prox_update_B(data, np.zeros(0), factors, 1e12, cfg)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_prox_fixed_point_at_zero_gradient(rng):
    data = toy_dataset(rng, n=10, p=3, p0=0)
    factors = SymCPFactors(rng.standard_normal(2), rng.standard_normal((3, 2)))
    eta = data.xop.inner(factors.to_full())
    exact = Dataset(eta, data.Z, data.X, GAUSSIAN)
    cfg = FitConfig(rank=2, rho=0.0)
    out, _ = prox_update_B(exact, np.zeros(0), factors, 0.0, cfg)
    assert np.array_equal(out, factors.B)


def test_prox_scalar_step_matches_brute_force(monkeypatch):
    # p=1, R=1: loss is 0.5*(y - b^2)^2; one accepted prox step must minimize
    # the quadratic surrogate at the accepted delta (grid oracle over b)
    y, b0_val, rho = 2.0, 0.7, 0.3
    data = Dataset(np.array([y]), np.zeros((1, 0)), np.ones((1, 1, 1)), GAUSSIAN)
    factors = SymCPFactors(np.array([1.0]), np.array([[b0_val]]))
    cfg = _prox_config(monkeypatch, 1, rho, prox_steps=1)
    trace = []
    out, _ = prox_update_B(data, np.zeros(0), factors, rho, cfg, trace=trace)
    assert trace[0]["accepted"]
    delta = trace[0]["delta"]
    grad = (b0_val**2 - y) * 2.0 * b0_val
    grid = np.arange(-3.0, 3.0, 1e-5)
    surrogate = (grid - (b0_val - delta * grad)) ** 2 / (2 * delta) + rho * np.abs(grid)
    brute = grid[np.argmin(surrogate)]
    assert abs(out[0, 0] - brute) <= 1e-3


def reference_prox_update_B(data, gamma, factors, rho, config, trace=None):
    """The unbatched line search: one X pass per candidate, tried in order.

    Every pass goes through the same covariate operator as prox_update_B.
    """
    lam = factors.lam
    B = factors.B.copy()
    zoff = data.Z @ gamma
    y, fam = data.y, data.family

    def nll_of(Bmat):
        eta = zoff + data.xop.inner(symcp_to_full(lam, Bmat))
        return fam.negloglik(y, eta), eta

    nll, eta = nll_of(B)
    for _ in range(config.prox_steps):
        w = fam.dnll_deta(y, eta)
        grad = 2.0 * (data.xop.weighted_sum(w) @ B) * lam
        delta, accepted = config.delta0, False
        for _ in range(config.line_search_max_halvings + 1):
            cand = soft_threshold(B - delta * grad, rho * delta)
            diff = cand - B
            cand_nll, cand_eta = nll_of(cand)
            slack = 1e-14 * (1.0 + abs(nll) + abs(cand_nll))
            if np.isfinite(cand_nll) and cand_nll <= nll + float(
                np.sum(grad * diff)
            ) + float(np.sum(diff * diff)) / (2.0 * delta) + slack:
                accepted = True
                break
            delta /= 2.0
        if trace is not None:
            trace.append({"delta": delta if accepted else None, "accepted": accepted})
        if not accepted:
            break
        B, nll, eta = cand, cand_nll, cand_eta
        if not np.any(diff):
            break
    return B


def _prox_problem(seed, family):
    rng = np.random.default_rng(seed)
    p, r = 7, 3
    data = toy_dataset(rng, n=80, p=p, family=family)
    gamma = rng.standard_normal(2) * 0.3
    return data, gamma, SymCPFactors(rng.standard_normal(r), rng.standard_normal((p, r)))


def _run_both(data, gamma, factors, rho, cfg):
    trace, ref_trace = [], []
    out, xb = prox_update_B(data, gamma, factors, rho, cfg, trace=trace)
    ref = reference_prox_update_B(data, gamma, factors, rho, cfg, trace=ref_trace)
    assert trace == ref_trace
    assert np.array_equal(out, ref)
    # the predictor part handed back is that of the returned B
    assert np.array_equal(xb, data.xop.inner(symcp_to_full(factors.lam, out)))
    return out, trace


def _halvings(trace, cfg):
    return [round(np.log2(cfg.delta0 / s["delta"])) for s in trace if s["accepted"]]


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prox_batched_matches_sequential(family, seed, monkeypatch):
    data, gamma, factors = _prox_problem(seed, family)
    for rho, steps in [(0.0, 1), (0.0, 5), (0.0, 20), (0.3, 5), (0.3, 20)]:
        cfg = _prox_config(monkeypatch, 3, rho, prox_steps=steps)
        _run_both(data, gamma, factors, rho, cfg)
    # a small delta0 is accepted at once, on the ladder's first rung
    cfg = _prox_config(monkeypatch, 3, 0.3, prox_steps=3, delta0=2.0**-12)
    _, trace = _run_both(data, gamma, factors, 0.3, cfg)
    assert 0 in _halvings(trace, cfg)


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_prox_batched_matches_sequential_when_rho_zeroes_entries(family):
    data, gamma, factors = _prox_problem(3, family)
    rho = 4.0 if family is GAUSSIAN else 1.0
    out, _ = _run_both(data, gamma, factors, rho, FitConfig(rank=3, rho=rho))
    assert 0 < np.count_nonzero(out == 0.0) < out.size


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_prox_batched_matches_sequential_across_batches(family, monkeypatch):
    # a large delta0 puts the accepted step past the first batch of candidates
    data, gamma, factors = _prox_problem(4, family)
    for rho in (0.3, 0.0):
        cfg = _prox_config(monkeypatch, 3, rho, prox_steps=4, delta0=2.0**30)
        _, trace = _run_both(data, gamma, factors, rho, cfg)
        assert min(_halvings(trace, cfg)) >= PROX_BATCH


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_prox_exhausted_budget_keeps_B(family, monkeypatch):
    data, gamma, factors = _prox_problem(5, family)
    for rho in (0.3, 0.0):
        for halvings in (3, PROX_BATCH, 2 * PROX_BATCH + 1):
            cfg = _prox_config(monkeypatch, 3, rho, delta0=2.0**80,
                               line_search_max_halvings=halvings)
            out, trace = _run_both(data, gamma, factors, rho, cfg)
            assert trace == [{"delta": None, "accepted": False}]
            assert np.array_equal(out, factors.B)


def test_prox_non_finite_candidate_raises(monkeypatch):
    # the first candidate's predictor overflows, so the search stops there
    data, gamma, factors = _prox_problem(6, GAUSSIAN)
    cfg = _prox_config(monkeypatch, 3, 0.3, delta0=1e300)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            reference_prox_update_B(data, gamma, factors, 0.3, cfg)
        with pytest.raises(ValueError):
            prox_update_B(data, gamma, factors, 0.3, cfg)


def test_prox_rejects_overflowed_negloglik(monkeypatch):
    # B = 1 steps to 1 - 2*delta: at delta0 = 5e99 the predictor 1e200 is
    # finite but its negloglik overflows, and the slack with it; that
    # candidate must not pass as a descent step
    data = Dataset(np.zeros(1), np.zeros((1, 0)), np.ones((1, 1, 1)))
    gamma, factors = np.zeros(0), SymCPFactors(np.ones(1), np.ones((1, 1)))
    with np.errstate(over="ignore"):
        # 50 halvings leave every candidate overflowing: B is kept
        cfg = _prox_config(monkeypatch, 1, prox_steps=1, delta0=5e99)
        out, trace = _run_both(data, gamma, factors, 0.0, cfg)
        assert trace == [{"delta": None, "accepted": False}]
        assert np.array_equal(out, factors.B)
        # a longer ladder reaches a finite descent step
        cfg = _prox_config(monkeypatch, 1, prox_steps=1, delta0=5e99,
                           line_search_max_halvings=400)
        out, trace = _run_both(data, gamma, factors, 0.0, cfg)
    assert trace[0]["accepted"] and trace[0]["delta"] < 1.0
    assert objective(data, gamma, SymCPFactors(np.ones(1), out), 0.0) < 0.5


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_prox_rho0_huge_steps_agree_with_sequential(family, monkeypatch):
    # at rho = 0 the predictors come from a quadratic in delta, not from the
    # reconstructions; both must overflow, or not, at the same steps
    data, gamma, factors = _prox_problem(6, family)
    with np.errstate(all="ignore"):
        # delta^2 overflows: the first candidate's predictor is not finite
        for delta0 in (1e300, 1e200, 1e160):
            cfg = _prox_config(monkeypatch, 3, delta0=delta0)
            with pytest.raises(ValueError):
                reference_prox_update_B(data, gamma, factors, 0.0, cfg)
            with pytest.raises(ValueError):
                prox_update_B(data, gamma, factors, 0.0, cfg)
        # finite predictors whose negloglik is too large for every rung
        cfg = _prox_config(monkeypatch, 3, delta0=1e100)
        out, trace = _run_both(data, gamma, factors, 0.0, cfg)
    assert trace == [{"delta": None, "accepted": False}]
    assert np.array_equal(out, factors.B)


# ---------------------------------------------------------------- fit_sym_tensor

def test_sym_tensor_fixed_point_of_truth(rng):
    p, r, n = 5, 1, 40
    B = rng.standard_normal((p, r))
    lam = np.array([1.3])
    full = symcp_to_full(lam, B)
    data = synth_dataset(full, n, p0=2, sigma=0.0, seed=4)
    cfg = FitConfig(rank=r, rho=0.0)
    res = fit_sym_tensor(data, cfg, SymCPFactors(lam, B))
    assert res.iterations <= 2
    assert res.objective_trace[-1] <= 1e-10
    assert res.converged


def example31_dataset(seed=7):
    b0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    probe = synth_dataset(b0, 4000, p0=0, sigma=0.0, seed=99)
    sigma = np.sqrt(probe.meta["signal_var"] / 10.0)  # 10:1 variance SNR
    return b0, synth_dataset(b0, 1000, p0=0, sigma=sigma, seed=seed)


def test_sym_tensor_bad_init_voids_second_rank():
    _, data = example31_dataset()
    cfg = FitConfig(rank=2, rho=1.0, tol=1e-6, max_outer_iters=300)
    init = SymCPFactors(None, np.array([[1.0, 0.0], [0.0, 0.0]]))
    res = fit_sym_tensor(data, cfg, init)
    assert res.factors.lam[1] == 0.0
    assert np.linalg.matrix_rank(res.coef_full, tol=1e-8) <= 1


def test_sym_tensor_constructed_init_recovers_truth():
    b0, data = example31_dataset()
    cfg = FitConfig(rank=2, rho=1.0, tol=1e-6, max_outer_iters=300)
    sym_cp = fit_sym_cp(data, cfg)
    res = fit_sym_tensor(data, cfg, construct_init(sym_cp.coef_full, 2))
    assert np.max(np.abs(res.coef_full - b0)) <= 0.1


def test_sym_tensor_monotone_trace(rng):
    for seed in range(3):
        data = toy_dataset(np.random.default_rng(seed), n=60, p=6)
        cfg = FitConfig(rank=2, rho=0.1, seed=seed)
        init = SymCPFactors(None, np.random.default_rng(seed).standard_normal((6, 2)))
        res = fit_sym_tensor(data, cfg, init)
        assert np.all(np.diff(res.objective_trace) <= 1e-10)


def test_sym_tensor_result_consistency(rng):
    data = toy_dataset(rng, n=40, p=5)
    cfg = FitConfig(rank=2, rho=0.2, seed=1)
    init = SymCPFactors(None, rng.standard_normal((5, 2)))
    res = fit_sym_tensor(data, cfg, init)
    # coef_full is the factor reconstruction
    assert np.max(np.abs(res.coef_full - res.factors.to_full())) <= 1e-12
    # predicted eta from the result reproduces the recorded final objective
    eta = res.predict_eta(data.Z, data.X)
    pen = cfg.rho * np.abs(res.factors.B).sum()
    assert abs(
        GAUSSIAN.negloglik(data.y, eta) + pen - res.objective_trace[-1]
    ) <= 1e-10 * max(1.0, abs(res.objective_trace[-1]))


def test_sym_tensor_bernoulli_family(rng):
    data = toy_dataset(rng, n=120, p=4, family=BERNOULLI)
    cfg = FitConfig(rank=1, rho=0.05, seed=2)
    init = SymCPFactors(None, rng.standard_normal((4, 1)) * 0.3)
    res = fit_sym_tensor(data, cfg, init)
    assert np.all(np.diff(res.objective_trace) <= 1e-10)
    mu = predict_mean(res, data)
    assert np.all((mu > 0) & (mu < 1))


def test_cp_bernoulli_family(rng):
    data = toy_dataset(rng, n=120, p=4, family=BERNOULLI)
    res = fit_cp(data, FitConfig(rank=1, rho=0.1, seed=3, max_outer_iters=60))
    assert np.all(np.isfinite(res.coef_full))
    assert np.all(np.diff(res.objective_trace) <= 1e-8)


def _fit_sym_tensor_ones(data, config):
    return fit_sym_tensor(data, config, SymCPFactors(None, np.ones((data.p, 1))))


@pytest.mark.parametrize(
    "fit",
    [fit_cp, _fit_sym_tensor_ones, default_pipeline],
    ids=["fit_cp", "fit_sym_tensor", "default_pipeline"],
)
def test_sym_tensor_non_finite_raises(fit):
    # the block updates fail with LinAlgError (CP least squares) or
    # ValueError (prox step); the shared outer loop reports either as numerical
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as info:
            fit(overflow_dataset(), FitConfig(rank=1, rho=0.0))
    assert isinstance(info.value.__cause__, (ValueError, np.linalg.LinAlgError))


def test_sym_tensor_non_finite_lam_init_raises():
    # from this B and lam = 0 the first outer iteration overflows (its prox
    # step meets a non-finite predictor); the shared outer loop reports it
    # like any other block failure
    init = SymCPFactors(None, np.random.default_rng(0).standard_normal((3, 1)))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="at outer iteration 1"):
            fit_sym_tensor(overflow_dataset().take([0, 1]), FitConfig(rank=1), init)


def test_sym_tensor_lam_none_is_lam_zero(rng):
    B = rng.standard_normal((4, 2))
    assert np.array_equal(SymCPFactors(None, B).lam, np.zeros(2))
    for family in (GAUSSIAN, BERNOULLI):
        data = toy_dataset(rng, n=60, family=family)
        cfg = FitConfig(rank=2, rho=0.1, max_outer_iters=10)
        a = fit_sym_tensor(data, cfg, SymCPFactors(None, B))
        b = fit_sym_tensor(data, cfg, SymCPFactors(np.zeros(2), B))
        assert a.objective_trace.tolist() == b.objective_trace.tolist()
        for x, y in [(a.coef_full, b.coef_full), (a.gamma, b.gamma),
                     (a.factors.lam, b.factors.lam), (a.factors.B, b.factors.B)]:
            assert x.tobytes() == y.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.3, 3.0]),
    st.booleans(),
    st.sampled_from([8, 40]),
)
def test_gaussian_B_block_never_raises_objective(seed, rank, rho, voided, n):
    # one prox-linear B step at fixed lam and gamma; a voided rank (lam_r = 0)
    # gives the Jacobian p zero columns, and n = 8 < pR at rank 3 leaves the
    # linearized least squares underdetermined
    rng = np.random.default_rng(seed)
    data = toy_dataset(rng, n=n, p=4)
    gamma = rng.standard_normal(2)
    lam = rng.standard_normal(rank)
    if voided:
        lam[-1] = 0.0
    before = SymCPFactors(lam, rng.standard_normal((4, rank)))
    B, xb = solvers._prox_linear_B(
        data, data.Z @ gamma, before, rho, solvers._FactorBlocks(data, rho)
    )
    after = SymCPFactors(lam, B)
    assert objective(data, gamma, after, rho) <= objective(data, gamma, before, rho)
    assert np.array_equal(xb, data.xop.inner(after.to_full()))


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_gaussian_B_block_exhausted_step_search_keeps_B0(rho, rng, monkeypatch):
    # every candidate scores above B0's objective: the one step-halving
    # search (glm._damped_step) runs out after 30 halvings, and the block
    # keeps B0 and its predictor. Neither the least-squares nor the lasso
    # solve of the linearized block evaluates the loss
    data = toy_dataset(rng, n=40)
    gamma = rng.standard_normal(2)
    before = SymCPFactors(rng.standard_normal(2), rng.standard_normal((4, 2)))
    xb0 = data.xop.inner(before.to_full())
    real = Family.negloglik
    calls = []

    def rising(self, y, eta):
        calls.append(None)
        return real(self, y, eta) + (1e6 if len(calls) > 1 else 0.0)

    monkeypatch.setattr(Family, "negloglik", rising)
    B, xb = solvers._prox_linear_B(
        data, data.Z @ gamma, before, rho, solvers._FactorBlocks(data, rho)
    )
    assert len(calls) == 1 + 30  # B0, then one search of 30 halvings
    assert B.tobytes() == before.B.tobytes()
    assert xb.tobytes() == xb0.tobytes()


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_sym_tensor_B_block_follows_the_family(family, rng, monkeypatch):
    # gaussian B takes the prox-linear step, bernoulli B the prox steps
    calls = []
    real = solvers.prox_update_B

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "prox_update_B", spy)
    data = toy_dataset(rng, n=60, family=family)
    init = SymCPFactors(None, rng.standard_normal((4, 2)))
    res = fit_sym_tensor(data, FitConfig(rank=2, rho=0.1, max_outer_iters=5), init)
    assert len(calls) == (res.iterations if family is BERNOULLI else 0)
    # a gaussian fit runs one B-block lasso per outer iteration, a bernoulli none
    assert res.meta["lasso_calls"] == (res.iterations if family is GAUSSIAN else 0)


META_KEYS = {
    "ridged", "lasso_calls", "lasso_iterations", "lasso_capped", "extrapolated"
}
META_FITS = {
    "cp": fit_cp,
    "sym_cp": fit_sym_cp,
    "sym_tensor": lambda data, cfg: fit_sym_tensor(
        data, cfg, SymCPFactors(None, np.random.default_rng(1).standard_normal((4, 2)))
    ),
    "pipeline": default_pipeline,
}


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
@pytest.mark.parametrize("estimator", sorted(META_FITS))
def test_fit_meta_is_one_flat_record(estimator, family, rng):
    # every estimator and family reports the same five scalars, and nothing
    # else; only the CP fits extrapolate, at most once per outer iteration
    data = toy_dataset(rng, n=60, family=family)
    res = META_FITS[estimator](data, FitConfig(rank=2, rho=0.1, max_outer_iters=5))
    assert set(res.meta) == META_KEYS
    assert type(res.meta["ridged"]) is bool
    assert all(type(res.meta[key]) is int for key in META_KEYS - {"ridged"})
    assert 0 <= res.meta["lasso_capped"] <= res.meta["lasso_calls"]
    assert res.meta["lasso_iterations"] >= res.meta["lasso_calls"]
    assert 0 <= res.meta["extrapolated"] <= res.iterations
    if estimator in ("sym_tensor", "pipeline"):
        assert res.meta["extrapolated"] == 0


def test_sym_tensor_reports_gaussian_B_block_solves(monkeypatch):
    # one B block per outer iteration: a lasso call at rho > 0, a ridged
    # least-squares solve at rho = 0 and R >= 2 (see _FactorBlocks)
    data = synth_dataset(shape_signal(SignalShape("cross", 16)), 120, p0=2, seed=3)
    init = SymCPFactors(None, np.random.default_rng(3).standard_normal((16, 2)))
    res = fit_sym_tensor(data, FitConfig(rank=2, rho=0.5, max_outer_iters=4), init)
    assert res.meta["lasso_calls"] == res.iterations
    assert res.meta["lasso_iterations"] >= res.meta["lasso_calls"]
    assert res.meta["ridged"] is False
    res = fit_sym_tensor(data, FitConfig(rank=2, rho=0.0, max_outer_iters=4), init)
    assert res.meta["ridged"] is True
    assert res.meta["lasso_calls"] == res.meta["lasso_iterations"] == 0
    monkeypatch.setattr(solvers, "CP_LASSO_MAX_ITER", 1)
    res = fit_sym_tensor(data, FitConfig(rank=2, rho=0.5, max_outer_iters=4), init)
    assert res.meta["lasso_capped"] == res.meta["lasso_calls"] == res.iterations


def test_sym_tensor_scale_invariance(rng):
    # (lam, B) -> (c^2 lam, B/c) leaves the reconstruction unchanged
    lam = rng.standard_normal(3)
    B = rng.standard_normal((5, 3))
    c = 2.5
    full_a = symcp_to_full(lam, B)
    full_b = symcp_to_full(c**2 * lam, B / c)
    assert np.allclose(full_a, full_b, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- fit_cp

def test_cp_exact_recovery_rank1(rng):
    p, r = 6, 1
    u = rng.standard_normal(p)
    v = rng.standard_normal(p)
    b0 = np.outer(u, v)
    data = synth_dataset(symmetrize(b0), 4 * p * r * 2, p0=2, sigma=0.0, seed=0)
    cfg = FitConfig(rank=r, rho=0.0, tol=1e-12, max_outer_iters=500, seed=0)
    res = fit_cp(data, cfg)
    eta = res.predict_eta(data.Z, data.X)
    assert np.sqrt(np.mean((eta - data.y) ** 2)) <= 1e-6


def test_cp_rho0_gaussian_block_is_exact_least_squares(rng):
    # one outer iteration: the B2 block must sit on its normal equations,
    # not on an early-stopped iterate of a first-order method
    p, r = 16, 2
    data = synth_dataset(random_symmetric(rng, p, scale=0.3), 200, p0=3, seed=21)
    res = fit_cp(data, FitConfig(rank=r, rho=0.0, seed=21, max_outer_iters=1))
    b1, b2 = res.factors.B1, res.factors.B2
    design = np.einsum("ipq,pr->iqr", data.X, b1).reshape(data.n, p * r)
    resid = data.Z @ res.gamma + design @ b2.ravel() - data.y
    grad = design.T @ resid
    assert np.max(np.abs(grad)) <= 1e-9 * np.max(np.abs(design.T @ data.y))


def test_cp_block_design_null_space(rng):
    # vec(b_other @ A), A antisymmetric, is invisible to every symmetric X_i:
    # tr(b' X_i b A) = 0, so each CP block has R(R-1)/2 null directions
    p, r = 8, 3
    data = toy_dataset(rng, n=40, p=p)
    b_other = rng.standard_normal((p, r))
    design = data.xop.block_design(b_other)
    assert np.allclose(
        design,
        np.einsum("ipq,qr->ipr", data.X, b_other).reshape(data.n, p * r),
        rtol=0,
        atol=1e-12,
    )
    assert np.allclose(
        design,
        np.einsum("ipq,pr->iqr", data.X, b_other).reshape(data.n, p * r),
        rtol=0,
        atol=1e-12,
    )
    a = rng.standard_normal((r, r))
    a = a - a.T
    scale = np.linalg.norm(design) * np.linalg.norm(b_other @ a)
    assert np.max(np.abs(design @ (b_other @ a).ravel())) <= 1e-13 * scale


@functools.lru_cache(maxsize=None)
def _premise_data(shape, p):
    # random-correlation covariates; p = 8 is below the named shapes' minimum
    if shape == "random":
        b0 = random_symmetric(np.random.default_rng(p), p)
    else:
        b0 = shape_signal(SignalShape(shape, p))
    return synth_dataset(b0, 500, p0=2, seed=p)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize(
    "shape, p",
    [("random", 8), ("circle", 16), ("cross", 16), ("circle", 32), ("cross", 32)],
)
def test_cp_rho0_blocks_at_rank_2_up_are_always_ridged(shape, p, rank):
    # the premise of fit_cp's direct ridge solve: at R >= 2 lstsq always finds
    # the block design rank-deficient, so _solve_ls would return the ridge
    # solution; checked from below pR records up to 500
    data = _premise_data(shape, p)
    rng = np.random.default_rng(100 * p + rank)
    q = p * rank
    for n in sorted({q // 2, q - 1, q + 1, 2 * q, 500}):
        part = data.take(np.arange(n))
        design = part.xop.block_design(rng.standard_normal((p, rank)))
        r = part.y - part.Z @ rng.standard_normal(part.p0)
        assert np.linalg.lstsq(design, r, rcond=None)[2] < q
        info = {}
        assert np.array_equal(_solve_ridged(design, r, {}), _solve_ls(design, r, info))
        assert info == {"ridged": True}


def test_cp_rho0_least_squares_blocks_skip_lstsq_from_rank_2(monkeypatch):
    widths = []
    lstsq = np.linalg.lstsq

    def spy(a, b, *args, **kwargs):
        widths.append(np.shape(a)[1])
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    p = 16
    data = synth_dataset(shape_signal(SignalShape("circle", p)), 120, p0=2, seed=5)
    res = fit_cp(data, FitConfig(rank=3, rho=0.0, max_outer_iters=3, seed=5))
    # only the gamma GLM (2 columns) reaches lstsq; the ridged blocks do not
    assert widths == [2] * res.iterations
    assert res.meta["ridged"] is True
    widths.clear()
    res = fit_cp(data, FitConfig(rank=1, rho=0.0, max_outer_iters=3, seed=5))
    assert widths.count(p) == 2 * res.iterations


def test_cp_rho0_rank3_records_ridged_blocks():
    # n = 200 > pR = 48, yet every block is rank-deficient (see above)
    data = synth_dataset(shape_signal(SignalShape("circle", 16)), 200, p0=2, seed=4)
    res = fit_cp(data, FitConfig(rank=3, rho=0.0, max_outer_iters=3, seed=4))
    assert res.meta["ridged"] is True
    assert res.meta["lasso_calls"] == 0


def test_cp_lasso_calls_converge_at_the_default_tolerance():
    data = synth_dataset(shape_signal(SignalShape("cross", 16)), 120, p0=2, seed=3)
    res = fit_cp(data, FitConfig(rank=2, rho=0.5, max_outer_iters=4, seed=3))
    assert res.meta["lasso_calls"] == 2 * res.iterations
    assert res.meta["lasso_capped"] == 0
    assert res.meta["lasso_iterations"] >= res.meta["lasso_calls"]


def test_cp_bernoulli_lasso_calls_converge():
    # the logistic blocks step at 1/L with L = eigmax(Z'Z)/4 and restart like
    # the gaussian ones, so on this input every call reaches the KKT
    # tolerance within CP_LASSO_MAX_ITER
    b0 = 0.3 * shape_signal(SignalShape("two_box", 16))
    data = synth_dataset(b0, 400, p0=2, seed=22, family=BERNOULLI)
    res = fit_cp(data, FitConfig(rank=2, rho=1.0, seed=3, max_outer_iters=10))
    assert res.meta["lasso_calls"] == 2 * res.iterations
    assert res.meta["lasso_capped"] == 0


def test_cp_reports_capped_lasso_calls(monkeypatch):
    monkeypatch.setattr(solvers, "CP_LASSO_MAX_ITER", 1)
    data = synth_dataset(shape_signal(SignalShape("cross", 16)), 120, p0=2, seed=3)
    res = fit_cp(data, FitConfig(rank=2, rho=0.5, max_outer_iters=4, seed=3))
    assert res.meta["lasso_calls"] == 2 * res.iterations
    assert res.meta["lasso_capped"] == res.meta["lasso_calls"]
    assert res.meta["lasso_iterations"] == res.meta["lasso_calls"]


# fit_cp objective trace of the FISTA lasso at its default relative KKT
# tolerance; the iterates must not change. Re-recorded when the lasso moved
# from the scalar step 1/eigmax(G) to the certified rank-one metric
# a*I + b*u u': its 40 calls run 1,181 iterations instead of 4,018, and the
# unconverged 20-iteration trace ends at 41.8284 instead of 41.7204 (+0.26%).
# Re-recorded when fit_cp came to extrapolate along its successive plain
# updates: 13 of the 20 outer iterations accept the extrapolated point (the
# first two do not, so the trace agrees up to index 2), the 40 calls run
# 1,196 iterations, and the still capped trace ends at 40.3996 instead of
# 41.8284 (-3.4%)
PINNED_CP_TRACE = [
    3990.202830783433, 194.40397153738985, 63.35103232335038, 57.57127142885013,
    54.08376975610695, 50.00537943008134, 45.23057736186958, 43.2703579535924,
    42.57780065557348, 42.28019973303011, 42.03960077918513, 41.8371581358297,
    41.704766624013246, 41.55632848140547, 41.31855626908506, 41.11314636562676,
    40.907995393229854, 40.790693316378565, 40.61044562669309, 40.48191089381463,
    40.399587580193206,
]


def test_cp_lasso_trace_pinned():
    data = synth_dataset(shape_signal(SignalShape("cross", 16)), 120, p0=2, seed=3)
    res = fit_cp(data, FitConfig(rank=2, rho=0.5, max_outer_iters=20, seed=3))
    pinned = np.asarray(PINNED_CP_TRACE)
    assert res.objective_trace.shape == pinned.shape
    assert np.all(np.abs(res.objective_trace - pinned) <= 1e-9 * np.abs(pinned))


@functools.lru_cache(maxsize=None)
def _extrapolation_data(family):
    if family is BERNOULLI:
        b0 = 0.3 * shape_signal(SignalShape("two_box", 16))
        return synth_dataset(b0, 160, p0=2, seed=22, family=BERNOULLI)
    return synth_dataset(shape_signal(SignalShape("cross", 16)), 120, p0=2, seed=3)


def _fit_cp_at_weight(monkeypatch, w, data, config):
    # every extrapolation of the fit at the one weight w
    for name in ("START", "MIN", "MAX"):
        monkeypatch.setattr(solvers, f"CP_EXTRAPOLATE_{name}", w)
    return fit_cp(data, config)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_cp_extrapolated_trace_never_rises(family, rho, rank):
    data = _extrapolation_data(family)
    res = fit_cp(data, FitConfig(rank=rank, rho=rho, max_outer_iters=30, seed=rank))
    trace = res.objective_trace
    assert res.meta["extrapolated"] > 0
    assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_cp_rejects_extrapolations_that_raise_the_objective(rho, monkeypatch):
    # at w = 1e3 every extrapolated point lies far past the plain update and
    # raises the objective, so each is rejected and the fit is the one at
    # w = 0, where E = P is never strictly lower: the plain updates alone
    data = _extrapolation_data(GAUSSIAN)
    cfg = FitConfig(rank=2, rho=rho, max_outer_iters=10)
    plain = _fit_cp_at_weight(monkeypatch, 0.0, data, cfg)
    far = _fit_cp_at_weight(monkeypatch, 1e3, data, cfg)
    assert plain.meta["extrapolated"] == far.meta["extrapolated"] == 0
    assert np.array_equal(far.objective_trace, plain.objective_trace)
    assert np.array_equal(far.coef_full, plain.coef_full)
    assert np.all(np.diff(far.objective_trace) <= 0)


def test_cp_non_finite_extrapolation_keeps_the_plain_update(monkeypatch):
    # at w = 1e308 the extrapolated predictor overflows: a non-finite point is
    # rejected (no error, no RuntimeWarning), and the fit is the plain one
    data = toy_dataset(np.random.default_rng(0), n=20, p=4)
    cfg = FitConfig(rank=2, rho=0.5, max_outer_iters=10)
    plain = _fit_cp_at_weight(monkeypatch, 0.0, data, cfg)
    # the length-n arrays fit_cp's update tests for finiteness: the offset
    # extrapolated predictors zoff + xb_ext, before it evaluates their loss
    tested = []

    class NumpySpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def isfinite(self, a):
            if np.shape(a) == (data.n,):
                tested.append(np.array(a))
            return np.isfinite(a)

    monkeypatch.setattr(solvers, "np", NumpySpy())
    huge = _fit_cp_at_weight(monkeypatch, 1e308, data, cfg)
    assert any(not np.all(np.isfinite(xb)) for xb in tested)
    assert huge.meta["extrapolated"] == 0
    assert np.array_equal(huge.objective_trace, plain.objective_trace)
    assert np.array_equal(huge.coef_full, plain.coef_full)


# overflow_dataset with its responses +-scale: each input fails, or fits, as
# the same fit at w = 0 (the plain updates alone) does, with the same message,
# because a point that does not evaluate to a finite objective is rejected,
# never raised on
@pytest.mark.parametrize(
    "scale, rho, rank, error",
    [
        (1e308, 0.0, 1, "at outer iteration 1: least squares requires a finite design"),
        (1e308, 0.5, 1, "at outer iteration 1: negloglik requires finite y and eta"),
        (1e154, 0.0, 1, "non-finite objective at outer iteration 1"),
        (1e154, 0.0, 2, "at outer iteration 1: factors must be finite"),
        (1e153, 0.0, 2, None),
        (1e153, 0.5, 1, None),
        (1e153, 0.5, 2, None),
    ],
)
def test_cp_overflow_fails_as_the_plain_updates_do(scale, rho, rank, error, monkeypatch):
    base = overflow_dataset()
    data = Dataset(np.sign(base.y) * scale, base.Z, base.X)
    cfg = FitConfig(rank=rank, rho=rho, max_outer_iters=20)

    def outcome(fit):
        with np.errstate(all="ignore"):
            try:
                return fit()
            except NumericalError as exc:
                return str(exc)

    res = outcome(lambda: fit_cp(data, cfg))
    plain = outcome(lambda: _fit_cp_at_weight(monkeypatch, 0.0, data, cfg))
    if error is not None:
        assert isinstance(res, str) and re.search(error, res)
        assert res == plain
        return
    assert not isinstance(plain, str) and plain.meta["extrapolated"] == 0
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))
    if rho > 0:
        # the fits that converge at rho = 0.5 still accept extrapolated points
        assert res.meta["extrapolated"] > 0
    else:
        # at rho = 0 every extrapolation is rejected: the plain fit, bit for bit
        assert res.meta["extrapolated"] == 0
        assert np.array_equal(res.objective_trace, plain.objective_trace)
        assert np.array_equal(res.coef_full, plain.coef_full)


def _cp_updates(monkeypatch, counted=()):
    """The list that each later fit_cp appends one record per outer iteration
    to: the returned factors and predictor, whether the extrapolated point was
    returned, and the calls of each CovariateOperator method named in counted
    made by that update."""
    calls, records = dict.fromkeys(counted, 0), []
    for name in counted:
        method = getattr(solvers.CovariateOperator, name)

        def spy(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(solvers.CovariateOperator, name, spy)
    block_descent = solvers._block_descent

    def spy_descent(data, config, factors, update, blocks):
        def recorded(gamma, factors):
            before, extrapolated = dict(calls), blocks.extrapolated
            factors, xb = update(gamma, factors)
            records.append({
                "factors": factors,
                "xb": xb,
                "extrapolated": blocks.extrapolated > extrapolated,
                "calls": {k: calls[k] - before[k] for k in calls},
            })
            return factors, xb

        return block_descent(data, config, factors, recorded, blocks)

    monkeypatch.setattr(solvers, "_block_descent", spy_descent)
    return records, calls


@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_cp_carried_predictor_is_the_fits_predictor(family, rho, monkeypatch):
    # the predictor update returns, read off the block designs, is
    # <X_i, B1 B2'> of the factors it returns, up to rounding: at plain and at
    # accepted extrapolated points alike
    records, _ = _cp_updates(monkeypatch)
    data = _extrapolation_data(family)
    res = fit_cp(data, FitConfig(rank=3, rho=rho, max_outer_iters=30, seed=3))
    assert len(records) == res.iterations
    assert {r["extrapolated"] for r in records} == {False, True}
    rows = data.X.reshape(data.n, -1)
    for r in records:
        b1, b2 = r["factors"].matrices
        want = data.xop.inner(r["factors"].to_full())
        bound = 1e-12 * (np.abs(rows) @ (np.abs(b1) @ np.abs(b2).T).ravel())
        assert np.all(np.abs(r["xb"] - want) <= bound)


@pytest.mark.parametrize("rho", [0.0, 0.5])
@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI])
def test_cp_reads_x_twice_per_outer_iteration(family, rho, monkeypatch):
    # X is read by the two block designs of each outer iteration and the two of
    # the init, and CP's update makes no predictor pass (inner): a change that
    # brings passes back fails here
    records, calls = _cp_updates(monkeypatch, ("block_design", "inner"))
    data = _extrapolation_data(family)
    res = fit_cp(data, FitConfig(rank=2, rho=rho, max_outer_iters=20, seed=1))
    assert len(records) == res.iterations
    assert all(r["calls"] == {"block_design": 2, "inner": 0} for r in records)
    assert calls["block_design"] <= 2 * res.iterations + 2


def test_cp_huge_rho_gives_null_model(rng):
    data = toy_dataset(rng, n=30, p=4)
    cfg = FitConfig(rank=2, rho=1e12, seed=2)
    res = fit_cp(data, cfg)
    assert np.array_equal(res.factors.B1, np.zeros((4, 2)))
    assert np.array_equal(res.factors.B2, np.zeros((4, 2)))
    plain = fit_glm(GlmProblem(data.y, data.Z))
    assert np.max(np.abs(res.gamma - plain)) <= 1e-10


def test_cp_degenerate_scalar_matches_ols(rng):
    n = 50
    Z = rng.standard_normal((n, 2))
    x = rng.standard_normal(n)
    X = x.reshape(n, 1, 1)
    y = Z @ [1.0, -2.0] + 0.7 * x + 0.1 * rng.standard_normal(n)
    data = Dataset(y, Z, X, GAUSSIAN)
    cfg = FitConfig(rank=1, rho=0.0, tol=1e-14, max_outer_iters=2000, seed=1)
    res = fit_cp(data, cfg)
    design = np.column_stack([Z, x])
    ols = np.linalg.lstsq(design, y, rcond=None)[0]
    fitted_b = res.factors.B1[0, 0] * res.factors.B2[0, 0]
    assert abs(fitted_b - ols[2]) <= 1e-8
    assert np.max(np.abs(res.gamma - ols[:2])) <= 1e-8


# ---------------------------------------------------------------- fit_sym_cp

def test_sym_cp_identical_predictions(rng):
    data = toy_dataset(rng, n=50, p=5)
    cfg = FitConfig(rank=2, rho=0.5, seed=4)
    res_cp = fit_cp(data, cfg)
    res_sym = fit_sym_cp(data, cfg)
    mse_a = mse_pred(predict_mean(res_cp, data), data.y)
    mse_b = mse_pred(predict_mean(res_sym, data), data.y)
    assert abs(mse_a - mse_b) <= 1e-10
    eta_a = res_cp.predict_eta(data.Z, data.X)
    eta_b = res_sym.predict_eta(data.Z, data.X)
    assert np.max(np.abs(eta_a - eta_b)) <= 1e-10


def test_sym_cp_symmetric_input_unchanged():
    factors = CPFactors(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))
    full = factors.to_full()
    assert np.array_equal(symmetrize(full), full)


def test_sym_cp_coef_is_symmetric(rng):
    data = toy_dataset(rng, n=30, p=4)
    res = fit_sym_cp(data, FitConfig(rank=2, rho=0.1, seed=9))
    assert np.array_equal(res.coef_full, res.coef_full.T)


# ---------------------------------------------------------------- construct_init

def test_construct_init_exchange_matrix():
    factors = construct_init(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    assert np.allclose(factors.lam, [1.0, -1.0], atol=1e-12)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for col, expected in enumerate(([inv_sqrt2, inv_sqrt2], [-inv_sqrt2, inv_sqrt2])):
        v = factors.B[:, col]
        assert np.allclose(v, expected, atol=1e-4) or np.allclose(
            -v, expected, atol=1e-4
        )


def test_construct_init_rank1_tie_break():
    factors = construct_init(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert np.allclose(factors.lam, [1.0], atol=1e-12)
    v = factors.B[:, 0]
    assert np.allclose(np.abs(v), 1.0 / np.sqrt(2.0), atol=1e-4)
    assert np.sign(v[0]) == np.sign(v[1])


def test_construct_init_fixed_point(rng):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lam = np.array([4.0, -3.0, 1.5])
    b = q[:, :3]
    full = symcp_to_full(lam, b)
    factors = construct_init(full, 3)
    rebuilt = factors.to_full()
    assert np.linalg.norm(rebuilt - full) <= 1e-10


def test_construct_init_beats_random_candidates(rng):
    p, r = 6, 2
    b_sym = random_symmetric(rng, p)
    best = construct_init(b_sym, r)
    err_star = np.linalg.norm(best.to_full() - b_sym)
    for _ in range(1000):
        cand = symcp_to_full(rng.standard_normal(r), rng.standard_normal((p, r)))
        assert err_star <= np.linalg.norm(cand - b_sym) + 1e-12


def test_construct_init_rejects_non_symmetric():
    with pytest.raises(ValueError):
        construct_init(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


# ---------------------------------------------------------------- pipeline

def test_pipeline_noiseless_rank2_exact(rng):
    p = 6
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    b0 = symcp_to_full(np.array([2.0, -1.0]), q[:, :2])
    data = synth_dataset(b0, 150, p0=2, sigma=0.0, seed=3)
    cfg = FitConfig(rank=2, rho=0.0, tol=1e-10, max_outer_iters=800, seed=3)
    cp_res = fit_cp(data, cfg)
    res = default_pipeline(data, cfg, cp_result=cp_res)
    assert res.objective_trace[-1] <= 1e-8
    # a CP fit passed in is the one the pipeline would have fitted itself
    alone = default_pipeline(data, cfg)
    assert np.array_equal(res.objective_trace, alone.objective_trace)
    assert np.array_equal(res.coef_full, alone.coef_full)


def test_pipeline_huge_rho_degenerates_to_glm(rng):
    data = toy_dataset(rng, n=40, p=4)
    cfg = FitConfig(rank=2, rho=1e12, seed=6)
    cp_res = fit_cp(data, cfg)
    res = default_pipeline(data, cfg, cp_result=cp_res)
    assert np.max(np.abs(res.coef_full)) <= 1e-8
    plain = fit_glm(GlmProblem(data.y, data.Z))
    assert np.max(np.abs(res.gamma - plain)) <= 1e-8
    for base in (cp_res, fit_sym_cp(data, cfg, cp_result=cp_res)):
        assert np.max(np.abs(base.coef_full)) <= 1e-8


def test_pipeline_beats_baselines_on_two_box():
    from symreg.simulate import SignalShape, shape_signal

    b0 = shape_signal(SignalShape("two_box", 16))
    data = synth_dataset(b0, 220, p0=5, sigma=1.0, seed=12)
    cfg = FitConfig(rank=3, rho=0.0, seed=12)
    cp_res = fit_cp(data, cfg)
    res = default_pipeline(data, cfg, cp_result=cp_res)
    err_st = mse_coef(res.coef_full, b0)
    err_scp = mse_coef(fit_sym_cp(data, cfg, cp_result=cp_res).coef_full, b0)
    err_cp = mse_coef(cp_res.coef_full, b0)
    assert err_st < err_scp < err_cp


def test_sym_tensor_bernoulli_two_box_fits():
    # the input of the logistic benchmark workload at data seed 8 (bare
    # sym_tensor with the CLI's seeded random init). When that init still
    # got a lam-GLM before the loop and IRLS stopped at |grad| <= 1e-8, the
    # lam-GLM of outer iteration 1 reached the float floor of nll with
    # |grad| ~ 3e-5, found no step that lowered nll and raised
    # GlmConvergenceError; the Newton-decrement stop ends such a call at the
    # floor instead
    b0 = 0.1 * shape_signal(SignalShape("two_box", 32))
    data = synth_dataset(b0, 500, seed=8, family=BERNOULLI)
    cfg = FitConfig(rank=3, rho=0.5, max_outer_iters=120)
    rng = np.random.default_rng(cfg.seed)
    init = SymCPFactors(None, rng.standard_normal((data.p, cfg.rank)))
    res = fit_sym_tensor(data, cfg, init)
    assert np.all(np.isfinite(res.coef_full))

# Golden snapshot of eleven fits across both estimators and both families.
# A refactor of the solvers must leave every recorded value unchanged bit for
# bit; a change that moves the fits on purpose re-records the snapshot and
# says why. To print the current values in the layout of GOLDEN:
#     PYTHONPATH=src python tests/test_golden.py

import dataclasses
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from symreg import (
    BERNOULLI,
    FitConfig,
    SymCPFactors,
    default_pipeline,
    fit_cp,
    fit_sym_cp,
    fit_sym_tensor,
)
from symreg.simulate import SignalShape, shape_signal, synth_dataset


def _gaussian():
    return synth_dataset(shape_signal(SignalShape("cross", 16)), 150, p0=2, seed=21)


def _bernoulli():
    b0 = 0.3 * shape_signal(SignalShape("two_box", 16))
    return synth_dataset(b0, 160, p0=2, seed=22, family=BERNOULLI)


def _random_init(seed, p, rank):
    rng = np.random.default_rng(seed)
    return SymCPFactors(None, rng.standard_normal((p, rank)))


def _small_sym_inputs():
    """b0 (6 x 6) and two random B inits, drawn in turn from one stream."""
    rng = np.random.default_rng(404)
    b0 = rng.standard_normal((6, 6)) * 0.4
    init_gaussian = rng.standard_normal((6, 2))
    return (b0 + b0.T) / 2.0, init_gaussian, rng.standard_normal((6, 2)) * 0.5


def _fit(name):
    cfg = FitConfig(rank=2, max_outer_iters=15)
    if name == "cp_rho0":
        return fit_cp(_gaussian(), replace(cfg, rho=0.0, seed=1))
    if name == "cp_lasso":
        return fit_cp(_gaussian(), replace(cfg, rho=0.5, max_outer_iters=8, seed=2))
    if name == "cp_bernoulli":
        cfg = replace(cfg, rho=0.1, max_outer_iters=6, seed=3)
        return fit_cp(_bernoulli(), cfg)
    if name == "sym_cp":
        return fit_sym_cp(_gaussian(), replace(cfg, rho=0.0, seed=4))
    if name == "sym_tensor":
        cfg = replace(cfg, rho=0.3, max_outer_iters=20, seed=5)
        return fit_sym_tensor(_gaussian(), cfg, _random_init(5, 16, 2))
    if name == "sym_tensor_small":
        b0, init, _ = _small_sym_inputs()
        data = synth_dataset(b0, 80, p0=2, sigma=0.5, seed=11)
        cfg = FitConfig(rank=2, rho=0.3, max_outer_iters=12)
        return fit_sym_tensor(data, cfg, SymCPFactors(None, init))
    if name == "sym_tensor_bernoulli":
        b0, _, init = _small_sym_inputs()
        data = synth_dataset(b0 * 0.5, 150, p0=2, seed=12, family=BERNOULLI)
        cfg = FitConfig(rank=2, rho=0.2, max_outer_iters=12)
        return fit_sym_tensor(data, cfg, SymCPFactors(None, init))
    if name == "pipeline_gaussian":
        cfg = replace(cfg, rho=0.2, max_outer_iters=10, seed=7)
        return default_pipeline(_gaussian(), cfg)
    if name == "pipeline_rho0":
        # rho=0 at R >= 2: ridge-only CP blocks and a ridged symmetric B block
        return default_pipeline(_gaussian(), replace(cfg, rank=3, rho=0.0, seed=9))
    if name == "cp_rank1":
        # rho=0 at R=1: a full-rank CP block, solved by lstsq
        return fit_cp(_gaussian(), replace(cfg, rank=1, rho=0.0, seed=10))
    if name == "pipeline_bernoulli":
        cfg = replace(cfg, rho=0.1, max_outer_iters=6, seed=8)
        return default_pipeline(_bernoulli(), cfg)
    raise ValueError(name)


def _sha(a):
    raw = np.ascontiguousarray(a, dtype=np.float64).tobytes()
    return hashlib.sha256(raw).hexdigest()


def snapshot(res):
    """What the golden test pins of one FitResult."""
    factors = {
        f.name: _sha(getattr(res.factors, f.name))
        for f in dataclasses.fields(res.factors)
    }
    return {
        "objective_trace": [float(v) for v in res.objective_trace],
        "coef_full": _sha(res.coef_full),
        "gamma": _sha(res.gamma),
        "factors": factors,
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "ridged": res.meta.get("ridged"),
        "lasso_calls": res.meta.get("lasso_calls"),
        "lasso_capped": res.meta.get("lasso_capped"),
    }


FIT_NAMES = (
    "cp_rho0",
    "cp_lasso",
    "cp_bernoulli",
    "sym_cp",
    "sym_tensor",
    "sym_tensor_small",
    "sym_tensor_bernoulli",
    "pipeline_gaussian",
    "pipeline_bernoulli",
    "pipeline_rho0",
    "cp_rank1",
)

# All nine fixtures were re-recorded when every pass over X moved to the
# upper-triangle rows of CovariateOperator; each line gives the largest
# relative change of coef_full (and of the final objective where it is not
# rounding). cp_rho0, sym_cp and pipeline_rho0 move most: their rho = 0 CP
# blocks at R = 2, 3 are rank-deficient (antisymmetric null directions) and
# solved with a 1e-8 ridge, so a rounding change is amplified along those
# directions, changes the next block's design and so the unconverged
# 15-iteration path. The old code is as sensitive: a one-ulp change of y
# moved cp_rho0's coef_full by 8e-5 and its objective by 1e-5.
GOLDEN = {
    # re-recorded for upper-triangle X rows: coef 5e-4, objective 5e-5 (ridge; above)
    # re-recorded when fit_cp came to extrapolate each outer iteration along its
    # successive plain updates (accepted 10 of 15 times): the capped 15-iteration path
    # ends at 40.0929 instead of 41.8401 (-4.2%); coef_full moved 42% of its largest
    # entry (an unconverged ridged path, see above)
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (ridge; above): final objective
    # +3.6e-6 relative, coef_full moved 3.9e-4 of its largest entry
    "cp_rho0": {
        "objective_trace": [
            6119.8683347939, 310.30280559701976, 67.88607775455063, 56.75988208777441,
            50.309582252746516, 46.02244015281829, 43.4769848019119, 42.78099428532964,
            42.356682807391145, 41.88767173705821, 41.41968957227333, 41.16823907489699,
            40.85409163360785, 40.38088129524404, 40.241218966444094,
            40.093035215865044,
        ],
        "coef_full": "d37b9867d798923a0122cc57a22c62189117adc572252d758512b01ce804d573",
        "gamma": "dc063e39ec1fdb65a85a696b0dd94562e6bfaf20599328d2896476c925b40d9b",
        "factors": {
            "B1": "3a13120f831e1bb7738f62cb77594984652a4ff6352b15b3d0f64961cd211b94",
            "B2": "d574e83390026de15d5bb574b9cd84c6c2e59d8e2cdf6adbc888f4271ce691fc",
        },
        "iterations": 15,
        "converged": False,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded when the Gaussian CP lasso moved to FISTA with restart, stopping
    # at a KKT residual of 1e-4 relative to its block instead of at its cap
    # re-recorded for upper-triangle X rows: coef 2e-13 (rounding)
    # re-recorded when the l1 loop moved from the scalar step 1/eigmax(G) to
    # the certified rank-one metric a*I + b*u u': the 16 lasso calls run 487
    # iterations instead of 1,802 and stop at the same relative KKT
    # tolerance, at other points; it ends at 68.9873 instead of 68.9985
    # (-0.016%); coef_full moved 0.9% of its largest entry
    # re-recorded for CP extrapolation (accepted 5 of 8 times): the capped 8-iteration
    # path ends at 62.8802 instead of 68.9873 (-8.9%), its 16 lasso calls run 552
    # iterations instead of 487; coef_full moved 30% of its largest entry
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (rounding): final objective
    # +2.8e-14 relative, coef_full moved 8.1e-14 of its largest entry
    "cp_lasso": {
        "objective_trace": [
            6834.734552180622, 160.14903552468206, 86.1338192848107, 75.78710735725272,
            72.97307904165578, 70.74389296028087, 67.96173221186437, 64.59599017713218,
            62.88016187506997,
        ],
        "coef_full": "f05113dfbb42a75ffb616780a44d1b765b78e56145b6f4469da171b80b4e8e94",
        "gamma": "2d11d8c3077adb7e2de628b5d504e18854c51223fda2abd3f0e2c9de7955b550",
        "factors": {
            "B1": "984a40f116047e3b5124d8f3ca6e8f8b65213d4e9b1d65ed1136acb63d4024bf",
            "B2": "33e3d6a756cd41ceb545b267e18a2fa821c1ab780668b022bdd617282be3045c",
        },
        "iterations": 8,
        "converged": False,
        "ridged": False,
        "lasso_calls": 16,
        "lasso_capped": 0,
    },
    # re-recorded when the Bernoulli CP lasso moved from backtracking ISTA to
    # the gaussian path's FISTA loop at the fixed step 1/L, L = eigmax(Z'Z)/4,
    # and again when IRLS (its gamma blocks) moved from the |grad| <= 1e-8 test
    # to the Newton-decrement stop, which ends a call about one iteration sooner
    # re-recorded for upper-triangle X rows: coef 7e-13 (rounding)
    # re-recorded when the Bernoulli lasso moved from that fixed step to
    # proximal Newton on the weighted Gram Z'WZ: no block stops at the cap
    # (2 of 12 did), the lasso runs 2,598 iterations instead of 4,917, and
    # the final objective is 8.6737 instead of 8.8874
    # re-recorded for the rank-one metric step, which proximal Newton runs on
    # each Z'WZ: 939 lasso iterations instead of 2,598, none capped, and the
    # final objective is 8.5298 instead of 8.6737 (-1.7%); coef_full moved
    # 23% of its largest entry
    # re-recorded for CP extrapolation (accepted 3 of 6 times): the capped 6-iteration
    # path ends at 8.2426 instead of 8.5298 (-3.4%), in 927 lasso iterations instead of
    # 939, none capped; coef_full moved 11% of its largest entry
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (rounding): final objective
    # -6.9e-15 relative, coef_full moved 1.2e-13 of its largest entry
    "cp_bernoulli": {
        "objective_trace": [
            327.69594719960645, 30.32569754568975, 19.044124416798386,
            12.213382811986012, 9.648436922083013, 8.547375163840316, 8.242607125582303,
        ],
        "coef_full": "e9451e87806f40c609b104913a618f5c66261930d767207ba11398da0fd772c6",
        "gamma": "f0cc379dc82209aa4b32a87159a6ae7396cb41a8294f79f99f16b4378bf6216e",
        "factors": {
            "B1": "0e080932cd929a5dea1b4f153ef76272ce725a6d5aae9fcb01b4346b8f7cd1b8",
            "B2": "9ac187f02900c94edb4e56cc4a557800e636f885a1e45e3c678a63e53093064c",
        },
        "iterations": 6,
        "converged": False,
        "ridged": False,
        "lasso_calls": 12,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 2e-5, objective 2e-6 (ridge; above)
    # re-recorded for CP extrapolation (accepted 10 of 15 times): the capped
    # 15-iteration CP path ends at 40.5051 instead of 44.2013 (-8.4%); coef_full moved
    # 1.8x its largest entry (an unconverged ridged path, see above)
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (ridge; above): final objective
    # +6.1e-6 relative, coef_full moved 1.2e-4 of its largest entry
    "sym_cp": {
        "objective_trace": [
            16536.283243139336, 335.34319311517777, 73.8632050048766, 56.95949756626551,
            53.230299047944314, 51.20044118556283, 49.95307711778395, 49.33954718650899,
            48.502740511760535, 46.6154814160332, 45.22727569903594, 43.281714286513335,
            42.49386890863108, 41.78212980522944, 41.21904287370869, 40.50529719819944,
        ],
        "coef_full": "28f554a2acbe3dd3462c9f364b493d2eef01c2995acccb3bab59257c34d96a95",
        "gamma": "262400f1e95634c9cb3a596a3f5c218cee18601daab2ba9ca23ad2286ccfe089",
        "factors": {
            "B1": "77b9f59109974debb8780dede62e781a80145d9119db7c656ecf12332fff4dd6",
            "B2": "425ed5de8a47f5cf476fcb8a005a83b125bda64ff60940684e99b84d81aff1e0",
        },
        "iterations": 15,
        "converged": False,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 7e-15 (rounding)
    # re-recorded when an init without lam started at lam = 0 instead of at
    # an unpenalized lam-GLM before the loop: the first outer iteration's
    # lam-GLM now sets lam, after the first gamma-GLM. The trace starts at the
    # zero coefficient (1174.648 instead of 950.992) and ends at 79.1572
    # instead of 79.2799; coef_full moved 5% of its largest entry
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # From the random init it ends at 84.6031 instead of 79.1572 (+6.9%),
    # both capped at 20; coef_full moved 2.5x its largest entry. 2 of its 20
    # lasso calls stop at CP_LASSO_MAX_ITER
    # re-recorded for the rank-one metric step: none of the 20 B-block lasso
    # calls stops at CP_LASSO_MAX_ITER (2 did), in 991 iterations instead of
    # 3,055. The unconverged 20-iteration path from the random init moves:
    # it ends at 87.2984 instead of 84.6031 (+3.2%); coef_full moved 32% of
    # its largest entry
    "sym_tensor": {
        "objective_trace": [
            1174.6482107023508, 735.1639018669943, 632.3426049881144,
            140.91763060947346, 104.58845635610518, 90.20627169329705,
            89.12783610006244, 88.83564764379744, 88.73042901867714, 88.64354993553195,
            88.55416145101735, 88.46513748358262, 88.3744202942997, 88.28390764689087,
            88.10007414395007, 88.01743831841156, 87.8415413498697, 87.75654201348576,
            87.56754784221259, 87.48303029613434, 87.29841246273733,
        ],
        "coef_full": "7504a50275dbd9e2ebb77b5f241214c9cca24259f2fcf5ccc582e253328c0fdf",
        "gamma": "6077286643dd9a42b3263adad13a020eb4ffe225d8ae326aace053927adff5fa",
        "factors": {
            "lam": "4a15c9336f0cfeeae55a4875b8c2f19cd8d0a1f17c432b2207d1cd750527e0a4",
            "B": "930ebbe6409dbd22d7740e097853d3b40e51d7b592c1baa90e172a68592b4867",
        },
        "iterations": 20,
        "converged": False,
        "ridged": False,
        "lasso_calls": 20,
        "lasso_capped": 0,
    },
    # a small Gaussian bare symmetric fit (p = 6, n = 80), first pinned in
    # test_solvers with the unbatched line search; the fits must not depend on
    # how prox_update_B screens its candidates
    # re-recorded when an init without lam started at lam = 0 instead of at
    # an unpenalized lam-GLM before the loop: the first outer iteration's
    # lam-GLM now sets lam, after the first gamma-GLM.
    # It ends at 13.9774 instead of 14.1006; coef_full moved 10% of its
    # largest entry
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # It ends at 11.6507 instead of 13.9774 (-16.6%), both capped at 12;
    # coef_full moved 1.3x its largest entry
    # re-recorded for the rank-one metric step: 863 lasso iterations instead of
    # 1,997; it ends at 11.6536 instead of 11.6507 (+0.025%); coef_full moved
    # 0.1% of its largest entry
    "sym_tensor_small": {
        "objective_trace": [
            140.92758920129478, 26.043373097267114, 15.478251855960584,
            13.032471470477654, 12.462742356189993, 12.231554044383488,
            12.109888859329551, 12.084560133596021, 11.969959756245064,
            11.867652849054666, 11.800471720575828, 11.726112242461456,
            11.653563271850963,
        ],
        "coef_full": "e99ddad460f52e1a4847a88a34915f5056b08dc847c50427ff38e370c641bc60",
        "gamma": "78c8156d720343099eea891ad8d86be9dab5f7646122eff7795641bb91e6b1bd",
        "factors": {
            "lam": "6135ffd60738a8c61f0a8022b11d48e4428e8b8420c4d034e072359c7873c383",
            "B": "1fb4d08beb1cc24b46ac98ebbf0f326b7d042b41e000f7bb84e06022ab348ca9",
        },
        "iterations": 12,
        "converged": False,
        "ridged": False,
        "lasso_calls": 12,
        "lasso_capped": 0,
    },
    # the one pinned bare logistic symmetric fit (p = 6, n = 150), first
    # pinned in test_solvers with sym_tensor_small
    # re-recorded when an init without lam started at lam = 0 instead of at
    # an unpenalized lam-GLM before the loop: the first outer iteration's
    # lam-GLM now sets lam, after the first gamma-GLM.
    # It ends at 58.3011 instead of 58.2989, slightly higher; coef_full moved
    # 4% of its largest entry
    # lasso_calls and lasso_capped re-recorded from None to 0 when every fit's
    # meta came to hold the same four counts: this fit's B block takes prox
    # steps, so it runs no lasso and now says so; the fit is unchanged
    # re-recorded when prox_update_B's step search came to start near its
    # last accepted step (2x within a call, 16x at the next outer iteration's
    # first step) instead of at delta0 = 1 every step: the steps taken are
    # no longer the longest on the ladder that pass, so the path moves. It
    # ends at 58.4576 instead of 58.3011 (+0.27%), both capped at 12;
    # coef_full moved 32% of its largest entry
    "sym_tensor_bernoulli": {
        "objective_trace": [
            104.76105412257971, 64.636329085698, 62.18310762247616, 62.03715455990977,
            61.92147959519589, 61.79232697290689, 61.63504703367921, 61.43272439867315,
            60.84434465443776, 59.665981591705076, 59.377349815391334,
            58.78580845404414, 58.45756992469575,
        ],
        "coef_full": "7e0cf523c8a1e6f16f29f5a8c2eadfdc28490a6c6cde2b14b648127463d3c87b",
        "gamma": "6c4bc3b53b4e5d92acdac11c2961326b2eae16924ad8adde8d8ef874e40c1099",
        "factors": {
            "lam": "313a78504005d68129b1b56dc50fd76f72af3b7dcba7586f267081a53b598588",
            "B": "39a343299d8aba61ef97338e76766a3b2fb4c5be59c8bf479f2f3934450a70eb",
        },
        "iterations": 12,
        "converged": False,
        "ridged": False,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 4e-13 (rounding)
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # It converges in 4 outer iterations instead of 7, at 71.3938 instead of
    # 71.3844 (+0.013%); coef_full moved 3.4% of its largest entry
    # re-recorded for the rank-one metric step: the CP baseline ends at 51.470
    # instead of 52.111 in 494 lasso iterations instead of 2,365. From its
    # eigen init the symmetric fit keeps descending and stops at the cap of
    # 10 at 69.7297, where it was declared converged at outer iteration 4 at
    # 71.3938 (-2.3%); coef_full moved 4.4x its largest entry
    # re-recorded for CP extrapolation: the CP baseline (seed 7, capped at 10, 7 of 10
    # accepted) ends at 50.304 instead of 51.470. Its eigen init starts the symmetric
    # fit at 275.76 instead of 261.24; that fit converges at outer iteration 9 at
    # 69.5033, where it stopped at the cap of 10 at 69.7297 (-0.32%); coef_full moved
    # 15% of its largest entry
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (rounding): final objective
    # +2.8e-14 relative, coef_full moved 1.3e-12 of its largest entry
    "pipeline_gaussian": {
        "objective_trace": [
            275.75857444165683, 75.11632706264679, 70.59764362997508, 70.24157368164951,
            70.08366131567624, 69.80780417408475, 69.72532961310354, 69.54000686213693,
            69.50602145064703, 69.50325025356472,
        ],
        "coef_full": "b8604bfc104cf57bd5438c8ef577269af037f2cd87340db00442f165ceb40cb6",
        "gamma": "9935053ecae296f7c1016a04507875c6862cba71428e652c633b045ed2d866c7",
        "factors": {
            "lam": "626309cba11a56d52b0e0bf0209586ecba1e6a0dd55a7af821c39eaca68227a6",
            "B": "49e43b2c2a03b140c8cdacc7380352dcacddcc9730bf081fa6155d12c5d4ef6c",
        },
        "iterations": 9,
        "converged": True,
        "ridged": False,
        "lasso_calls": 9,
        "lasso_capped": 0,
    },
    # re-recorded with cp_bernoulli: the CP baseline it starts from moved, and
    # its own gamma- and lam-GLM blocks run the same IRLS
    # re-recorded for upper-triangle X rows: coef 1e-11 (rounding)
    # re-recorded with cp_bernoulli for the proximal-Newton lasso: its CP
    # baseline (seed 8) caps 2 of 12 blocks instead of 11, but after its 6
    # outer iterations ends at 11.229 instead of 9.120; the first block,
    # from a random start, spends its 500 iterations on two Newton steps. The
    # symmetric fit started from that baseline ends at 21.490 instead of
    # 17.348. The cheaper softplus in negloglik alone leaves this fit
    # unchanged.
    # re-recorded for the rank-one metric step: the CP baseline (seed 8) caps
    # 1 of its 12 blocks instead of 2 and ends at 9.315 instead of 11.229, in
    # 1,492 lasso iterations instead of 3,689. Its eigen init starts the
    # symmetric logistic fit at 855.84 instead of 445.67, and after 6 outer
    # iterations that fit ends at 166.59 instead of 21.49; run on, it stops
    # at 50.81 (relative change, outer iteration 31) where the parent's read
    # 6.53 at 30. The symmetric logistic fit's dependence on its init is
    # ROADMAP item 6's; coef_full moved 1.2x its largest entry
    # lasso_calls and lasso_capped re-recorded from None to 0 when every fit's
    # meta came to hold the same four counts: the symmetric fit's B block takes
    # prox steps, so it runs no lasso and now says so (its CP baseline's calls
    # are that fit's own meta); the fit is unchanged
    # re-recorded for CP extrapolation: the CP baseline (seed 8, capped at 6, 3 of 6
    # accepted) ends at 8.503 instead of 9.315, still with 1 of its 12 lasso calls
    # capped. Its eigen init starts the symmetric logistic fit at 889.06 instead of
    # 855.84, and after 6 outer iterations that fit ends at 182.13 instead of 166.59
    # (+9.3%): a lower CP objective again gives a worse symmetric start, ROADMAP item
    # 6's init dependence, reported and not tuned away; coef_full moved 14% of its
    # largest entry
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (rounding): final objective
    # -9.8e-15 relative, coef_full moved 1.5e-14 of its largest entry
    # re-recorded when prox_update_B's step search came to start near its
    # last accepted step instead of at delta0 = 1 every step (the CP baseline
    # is unchanged): from the same eigen init, after 6 outer iterations the
    # symmetric fit ends at 179.6902 instead of 182.1292 (-1.3%); coef_full
    # moved 1.5% of its largest entry
    "pipeline_bernoulli": {
        "objective_trace": [
            889.0578228660977, 330.73050175147256, 269.65236008540813,
            238.69858632667157, 214.83173448376257, 196.37590653529236,
            179.69023955047115,
        ],
        "coef_full": "ff80fe91e4a6e15e5a470a2d8764d5684f1bdf049c89d3d0e3839bef12865049",
        "gamma": "ce233a90c5a4c0f95004dcf88538b26b1efd48c05354111b3b343097c0421573",
        "factors": {
            "lam": "2520fa614d4a502558997916e7d12251ddac14f28c09720492180003e26e18b6",
            "B": "ef99b1101d67e889eec5f5b413596c5395e0344fad1c7ad988d8bd9da4ad5e9c",
        },
        "iterations": 6,
        "converged": False,
        "ridged": False,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 3e-5, objective 4e-6 (ridge; above)
    # re-recorded when the gaussian B block became one prox-linear
    # (Gauss-Newton) step on the Jacobian design, solved like a CP block,
    # instead of 5 proximal-gradient steps (prox_update_B).
    # At rho = 0 the step is the ridged least-squares solve. It converges in
    # 13 outer iterations, at 52.6839, where the prox steps were capped at 15
    # at 61.7084 (-14.6%); coef_full moved 3.5x its largest entry
    # re-recorded for CP extrapolation: the CP baseline (seed 9, capped at 15, 10 of 15
    # accepted) ends at 27.810 instead of 29.988. Its eigen init starts the symmetric
    # fit at 849.49 instead of 1007.02; that fit still converges at outer iteration 13,
    # at 52.6814 instead of 52.6839 (-0.005%); coef_full moved 0.3% of its largest entry
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (ridge; above): final objective
    # +6.9e-9 relative, coef_full moved 3.3e-6 of its largest entry
    "pipeline_rho0": {
        "objective_trace": [
            849.4685057975843, 86.0121956878277, 64.11368884688864, 60.74891011196767,
            55.28872316690136, 54.03604626450173, 53.3424610023025, 53.0383274619404,
            52.854848688519276, 52.759636711745756, 52.71409934852994,
            52.69373768903212, 52.68502891812431, 52.681404185434005,
        ],
        "coef_full": "4c4226c9051d824bbd283fd80e074305bae6f83a1102998f147b10916c28c78b",
        "gamma": "37525578d81af16b25aa9157657cc4feccd6db12f7b7017ceb3755f557e55aa2",
        "factors": {
            "lam": "3ca60ccc934d281328a531165f75aa398bc103b845a85f9c6b08fbd4f8c89189",
            "B": "64cc43e11b6571f3f6b9f361e2d4edb612816ee892eeaf5dbb3d9f41e58da2e6",
        },
        "iterations": 13,
        "converged": True,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 5e-15 (rounding)
    # re-recorded for CP extrapolation (accepted 10 of 15 times): the capped
    # 15-iteration path ends at 67.5889 instead of 68.1164 (-0.77%); coef_full moved 65%
    # of its largest entry
    # re-recorded when CP's block designs became one X_i @ b product per record
    # and fit_cp read its predictors off them (rounding): final objective
    # +2.1e-16 relative, coef_full moved 4.0e-15 of its largest entry
    "cp_rank1": {
        "objective_trace": [
            2101.637821488973, 304.7687924266278, 82.80300457173018, 71.213022114074,
            70.03476603111224, 69.95842832223352, 69.90990967089016, 69.75629387463377,
            69.30888702075259, 68.75393036589458, 68.3837267709676, 68.15786997787717,
            67.9145045391534, 67.81769627896003, 67.64573778990129, 67.5888705202582,
        ],
        "coef_full": "e528169a429ae5868a4498df590ccf101afe381d2ba2c79f9e0bc1e72d146297",
        "gamma": "430702a2a84e825ed5fb90ef190a56e0b28f870a965b1419a0e8f909826b8eba",
        "factors": {
            "B1": "5c65419977c58131d1260c076d3154dba64c2480574ab92ed4c7f7876234bde1",
            "B2": "32e7ba157ce78d7cbabab9dab90834f25a9f506831a57cc232f7cd37abe37046",
        },
        "iterations": 15,
        "converged": False,
        "ridged": False,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
}


@pytest.mark.parametrize("name", FIT_NAMES)
def test_fit_matches_golden_snapshot(name):
    assert snapshot(_fit(name)) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: snapshot(_fit(name)) for name in FIT_NAMES}, width=88)

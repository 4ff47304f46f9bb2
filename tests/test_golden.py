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
    "cp_rho0": {
        "objective_trace": [
            6119.8683347939, 310.30280559701976, 67.88607775455061, 57.46834465094711,
            52.63196178918643, 48.404971327624665, 46.11385639785989,
            44.81755518326443, 43.98026629285758, 43.401146426124235,
            42.98109639962654, 42.66305194479233, 42.41031121862841, 42.19898386707024,
            42.01274616409816, 41.840080786129874,
        ],
        "coef_full": "60e6c7a0a7c2a269fe6c3cea9d5b52762b27887ed94bfb7bbffa3ca151671dbb",
        "gamma": "ec38462fd32092a02a2ea7e672ab161d33f1c13bdbd00c6f4b420ded942a7c0a",
        "factors": {
            "B1": "0b33f9c82249aaf180587ef949596215e1da2d2a97e6ad1a35cbf743171fe607",
            "B2": "d484274e8f38e4fd1d9618455171f1827be1fcd6b54be5d4ef53b985423d3d34",
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
    "cp_lasso": {
        "objective_trace": [
            6834.734552180622, 160.1490355246821, 86.59212757691725, 79.34970299286366,
            76.17633421268658, 74.06440819800561, 72.36818583994261, 70.66639586838741,
            68.987276738383,
        ],
        "coef_full": "51615694cc386f23445e57937796f7ea3706d9cb04021f68352c6c86317b3e0c",
        "gamma": "c7824f69760083787ad74b1fa6edb47ef1eb03d4f96e4ce81e885de572ad4ee0",
        "factors": {
            "B1": "e6e0f14c12598908c71a450077aaec8731966eb3101b36169d0ef4031d75f182",
            "B2": "a92490f56ecd081ca7dd68984cdbb1f92507c93fec3324c46325ffcbe958f804",
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
    "cp_bernoulli": {
        "objective_trace": [
            327.69594719960645, 30.325697545689742, 19.04412441679853,
            12.521225206514378, 10.050713566017967, 8.958083619797216, 8.52984282994326,
        ],
        "coef_full": "e0c6924514956f1d04ff4fe75857fa49f08a955be19a2b08113d053a09d66bd7",
        "gamma": "ab0f7aecbfec7c994fe537e3c37d0038cfa1e78c1c42299d106d71df8dd60b14",
        "factors": {
            "B1": "3a08fd91644ca40d828f5433f8116e8be2e77e16fb871738c56643327b86fea2",
            "B2": "bc535edf79def62f51c9ae0d216df70d3489beae3015b04c65ae050e2135f21a",
        },
        "iterations": 6,
        "converged": False,
        "ridged": False,
        "lasso_calls": 12,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 2e-5, objective 2e-6 (ridge; above)
    "sym_cp": {
        "objective_trace": [
            16536.283243139336, 335.34319311517777, 73.86320510201097,
            58.056426590294436, 54.71836293481855, 52.909211422220686,
            51.72594349344339, 50.89584941503013, 50.262289914757005,
            49.715755688617215, 49.176910945175635, 48.57580843176457,
            47.82398877000725, 46.80771877990684, 45.50218534813048, 44.20134656419436,
        ],
        "coef_full": "97f44e24dc5a256dc649584749c0db2cc92c2c442063a1a2417eaeed850c3176",
        "gamma": "c9daf863989b1a5f07e43243a3473ab275fa9210011e0be6bc51805c390f829f",
        "factors": {
            "B1": "452b13b37793da8cbf013df36232e1a158dc7386ecd020293956a70494d89627",
            "B2": "7db91c000b1da2691bb14ff654baea649b39bf5ee62668b85f2ee1bde9fbba47",
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
    "sym_tensor_bernoulli": {
        "objective_trace": [
            104.76105412257971, 64.636329085698, 62.15540840756187, 61.95585459029078,
            61.75722036850587, 61.49717470342532, 60.923048380464515, 59.91618467086647,
            59.39637686283158, 58.664509322995606, 58.48056726647639,
            58.367610994124554, 58.30106599407748,
        ],
        "coef_full": "25e96e4682a85ab880b626b24888e0a358a8cb53c60a93f3847a3ec035e10299",
        "gamma": "b864b878ed46e945310fc6fecdde2ff6f4e5af2d619d1e251977e7131bf8a5ae",
        "factors": {
            "lam": "5055b672a1c75c28975c8e65c11ec4411fd68e2843c4afb9eaba1f6edb816b5f",
            "B": "4aac38a168842c36b7c3a854168480742dd1040e889cd6408e0bf0b4448b6d2a",
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
    "pipeline_gaussian": {
        "objective_trace": [
            261.24258152175685, 72.54365141891991, 71.18745345046773, 71.01119596928919,
            70.92662280355556, 70.66884058898549, 70.50955529771889, 70.20034813216185,
            70.08830909050394, 69.81054892526345, 69.72971504106742,
        ],
        "coef_full": "e441d9ab69465c35e29a6b257cbad157151f5a019b71a06997d56f0a4ed33689",
        "gamma": "669c681cf19c479c98fbbd48ee79c12f3b14179824103a680f82203c42b01455",
        "factors": {
            "lam": "939eca690dcd50e24eaa14508a746cf9e1f632966991fa5fb588a80798af42ee",
            "B": "277d88faee786b18364c2574a00064ec23f669d1aaac754e0b85b31570a1badb",
        },
        "iterations": 10,
        "converged": False,
        "ridged": False,
        "lasso_calls": 10,
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
    "pipeline_bernoulli": {
        "objective_trace": [
            855.8395678548928, 322.9898367324943, 249.66316653548714, 222.6829191300648,
            200.57340654384086, 183.23655862054292, 166.59289662211938,
        ],
        "coef_full": "1046c81dd4a6ce5cc2c7cdf42e63cd22b2022867bc4c390df255678ecabe2176",
        "gamma": "a574d851bda488aab38f33fd4aac6c197ee389c9177721860be947a5bc05bdfa",
        "factors": {
            "lam": "2b53902d49e6352ab6122cd2fe115a2c62057ed285d31677359d5d2e8660db33",
            "B": "e69c7e140eae0a6fe2c9cb31d8aa38affd13c0a7e6aee82d973f43abe1cdb947",
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
    "pipeline_rho0": {
        "objective_trace": [
            1007.0152143993319, 88.23495553125133, 64.8389679791263, 57.284491212705184,
            55.23047381405217, 54.037019786499954, 53.46703300894566, 53.09869582220889,
            52.89122200194293, 52.777520023348316, 52.72433220014622, 52.69959478990549,
            52.6887332157943, 52.68388479461325,
        ],
        "coef_full": "a296ecad1308c4c0962dc758f103fbcd21a1327090165a2e359f8196b986d268",
        "gamma": "e0a5ead734cc85f6c72182b20297e35fb9f19c16e8f291ccdfba69d917e5ca40",
        "factors": {
            "lam": "a938b30333994ebb72c918927e1bb6fa2f7b991a64774af08b184e904a840987",
            "B": "b424bfa51e31c7314181992a737c41953dc140254f2ede4c2457c2a12c7ea1d1",
        },
        "iterations": 13,
        "converged": True,
        "ridged": True,
        "lasso_calls": 0,
        "lasso_capped": 0,
    },
    # re-recorded for upper-triangle X rows: coef 5e-15 (rounding)
    "cp_rank1": {
        "objective_trace": [
            2101.637821488973, 304.7687924266278, 82.80300457173018, 72.22166538899982,
            70.26846488055878, 69.9888347875519, 69.92435667935857, 69.8393264711026,
            69.66918253758726, 69.38822556199065, 69.05063236700514, 68.75258474359339,
            68.52643649858204, 68.3561677128261, 68.22344136226481, 68.11637881246995,
        ],
        "coef_full": "11c8c42ff51ad6d839a535f192f95b8433f19eeb0c00dfc0e55d97b19d983a56",
        "gamma": "83f765c7188c858d2787402df25cbeb4fda5044b8c40eb373ec57dbd82c65256",
        "factors": {
            "B1": "d4ef44c0f5627217cbb8f422d941a2eb1f035ac217d40b28290eb7d80cf87f88",
            "B2": "9f70f0361a8b3210b5832891d96a30f007924c81f431ca3c1a09248c58445f0c",
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
